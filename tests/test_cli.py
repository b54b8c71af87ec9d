"""Command-line front end: output contracts, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import speclab
from speclab import scalar_ops
from speclab.cli import MAX_DIMENSION, MAX_ENTROPY_ORDER, MAX_ORDER, build_parser, main, parse_number
from fractions import Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_leaves_numpy_unloaded():
    # only the entropy layer needs numpy, and only spinor work the spinor
    # layer; their names resolve on first use
    code = (
        "import sys, speclab, speclab.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        "assert 'speclab.clifford' not in sys.modules, 'clifford imported'\n"
        "assert callable(speclab.entropy_report) and 'numpy' in sys.modules\n"
        "assert callable(speclab.SpinorPoly) and 'speclab.clifford' in sys.modules\n"
    )
    src = str(Path(speclab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_parse_number():
    assert parse_number("3/4") == Fraction(3, 4)
    assert parse_number("5") == 5
    assert isinstance(parse_number("0.3"), float)
    assert parse_number("inf") == float("inf")  # left to the cost guards
    with pytest.raises(ValueError, match="not a number"):
        parse_number("nan")


def test_spectrum_scalar_values(capsys):
    code, out, _ = run(capsys, "--format", "csv", "spectrum", "scalar", "--n", "3", "--count", "4")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["3/4", "15/4", "35/4", "63/4"]


def test_spectrum_laplace_operator_flag(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "csv",
        "spectrum",
        "scalar",
        "--n",
        "2",
        "--count",
        "3",
        "--operator",
        "laplacian",
    )
    assert code == 0
    vals = [r.split(",")[1] for r in out.strip().splitlines()[1:]]
    assert vals == ["0/1", "2/1", "6/1"]


def test_spectrum_dirac_lattice(capsys):
    code, out, _ = run(capsys, "--format", "csv", "spectrum", "dirac", "--n", "2", "--count", "3")
    assert code == 0
    vals = {r.split(",")[1] for r in out.strip().splitlines()[1:]}
    assert vals == {"1/1", "-1/1", "2/1", "-2/1", "3/1", "-3/1"}


def test_intertwinor_scalar_integer_order(capsys):
    code, out, _ = run(
        capsys, "--format", "csv", "intertwinor", "scalar", "--n", "4", "--r", "1", "--jmax", "2"
    )
    assert code == 0
    vals = [r.split(",")[1] for r in out.strip().splitlines()[1:]]
    assert vals == ["2/1", "6/1", "12/1"]


def test_intertwinor_dirac_odd(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "csv",
        "intertwinor",
        "dirac-odd",
        "--n",
        "2",
        "--k",
        "1",
        "--lambda-max",
        "3",
    )
    assert code == 0
    pairs = [tuple(r.split(",")[:2]) for r in out.strip().splitlines()[1:]]
    assert ("1", "0/1") in pairs
    assert ("2", "6/1") in pairs and ("-2", "-6/1") in pairs
    assert ("3", "24/1") in pairs and ("-3", "-24/1") in pairs


def test_intertwinor_half_order_float(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "csv",
        "intertwinor",
        "scalar",
        "--n",
        "2",
        "--r",
        "1/2",
        "--jmax",
        "2",
    )
    assert code == 0
    vals = [r.split(",")[1] for r in out.strip().splitlines()[1:]]
    assert vals == ["1/2", "3/2", "5/2"]


def test_intertwinor_residue_family(capsys):
    code, out, _ = run(
        capsys, "intertwinor", "residue", "--n", "2", "--j0", "1", "--jmax", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["kind"] for r in payload["rows"]] == ["residue"] * 4
    assert payload["rows"][2]["value"] == "0/1"


def test_refute_off_spectrum(capsys):
    code, out, _ = run(capsys, "refute", "--n", "3", "--lambda", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["steps"] == ["0"]
    assert payload["violated_bound"] == "3/4"


def test_refute_on_spectrum(capsys):
    code, out, _ = run(capsys, "refute", "--n", "3", "--lambda", "15/4")
    assert code == 0
    assert json.loads(out) == {"level": 1, "on_spectrum": True}
    code, out, _ = run(capsys, "refute", "--n", "2", "--lambda", "0")
    assert code == 0
    assert json.loads(out)["level"] == 0


def test_refute_below_bound_is_usage_error(capsys):
    code, _, err = run(capsys, "refute", "--n", "3", "--lambda", "1/9")
    assert code == 2
    assert "bound" in err


def test_verify_scalar_passes(capsys):
    code, out, _ = run(capsys, "verify", "scalar", "--n", "3", "--cap", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["scalar"]["checks"]


def test_verify_cost_guard(capsys):
    code, _, err = run(capsys, "verify", "all", "--n", "7", "--cap", "99")
    assert code == 2
    assert "basis" in err or "guard" in err


# requests past the level, dimension and refute-height guards; unguarded,
# the largest ran past 5 s (the first refute candidate was still running
# after 30 s)
_GUARDED = [
    ["spectrum", "scalar", "--n", "3", "--count", "3000000"],
    ["spectrum", "dirac", "--n", "3", "--count", "501"],
    ["intertwinor", "scalar", "--n", "3", "--r", "1", "--jmax", "5000000"],
    ["intertwinor", "entropy-derivative", "--n", "3", "--jmax", "501"],
    ["intertwinor", "dirac", "--n", "3", "--k", "1/3", "--lambda-max", "1000000"],
    ["intertwinor", "dirac-odd", "--n", "3", "--k", "2", "--lambda-max", "1005/2"],
    ["refute", "--n", "3", "--lambda", "10000000001/2"],
    ["refute", "--n", "3", "--lambda", "1000000000001/1000000000000"],
    # unguarded, the first ran past 10 s and the second died converting a
    # factorial of about n to text
    ["intertwinor", "residue", "--n", "1000000", "--j0", "3", "--jmax", "10"],
    ["intertwinor", "residue", "--n", "100000"],
    ["intertwinor", "residue", "--n", str(MAX_DIMENSION + 1)],
    # unguarded, the first died allocating a 1.7 GiB projector, the second
    # ran past 20 s, and the negative cutoffs exited 1 or died in numpy
    ["entropy", "--cutoff", "100", "--quick"],
    ["entropy", "--order", "4000", "--quick"],
    ["entropy", "--cutoff", "-1"],
    ["entropy", "--cutoff", "-5"],
    ["entropy", "--order", str(MAX_ENTROPY_ORDER + 1), "--quick"],
    ["verify", "entropy", "--cutoff", str((MAX_ENTROPY_ORDER - 8) // 2 + 1)],
    ["verify", "all", "--n", "2", "--cutoff", "-1"],
]


@pytest.mark.parametrize("argv", _GUARDED)
def test_level_and_height_cost_guards(capsys, argv):
    # refused up front: no output, no partial table
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cost guard: ")


def test_cost_guards_admit_their_limits(capsys):
    for argv in (
        ["spectrum", "dirac", "--n", "3", "--count", "500"],
        ["intertwinor", "first-order", "--n", "3", "--jmax", "500"],
        ["intertwinor", "dirac-odd", "--n", "3", "--k", "2", "--lambda-max", "1003/2"],
        # the lower ends of the level ranges
        ["spectrum", "dirac", "--n", "3", "--count", "1"],
        ["intertwinor", "first-order", "--n", "3", "--jmax", "0"],
        ["intertwinor", "dirac", "--n", "3", "--k", "1/3", "--lambda-max", "3/2"],
        ["refute", "--n", "3", "--lambda", "1000000/3"],
        ["intertwinor", "scalar", "--n", "3", "--r", str(MAX_ORDER), "--jmax", "2"],
        ["intertwinor", "scalar", "--n", "3", f"--r={-MAX_ORDER}", "--jmax", "2"],
        ["intertwinor", "product", "--n", "3", "--r", str(MAX_ORDER), "--jmax", "2"],
        ["intertwinor", "residue", "--n", "3", "--j0", str(MAX_ORDER), "--jmax", "2"],
        ["intertwinor", "dirac-odd", "--n", "3", "--k", str(MAX_ORDER)],
        ["intertwinor", "residue", "--n", str(MAX_DIMENSION), "--j0", str(MAX_ORDER), "--jmax", "500"],
        ["entropy", "--order", str(MAX_ENTROPY_ORDER), "--quick"],
        ["entropy", "--order", "2", "--quick"],
        # the largest cutoff the order guard admits
        ["entropy", "--order", str(MAX_ENTROPY_ORDER), "--cutoff", str((MAX_ENTROPY_ORDER - 8) // 2), "--quick"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert out


# order parameters past MAX_ORDER, at least one request per guarded
# family; unguarded, each ran past 10 s, died converting a huge int to
# text, or (product --r inf) escaped main with an OverflowError
_ORDER_GUARDED = [
    ["scalar", "--r", "100000", "--jmax", "10"],
    ["scalar-normalized", "--r=-100001/2", "--jmax", "10"],
    ["product", "--r", "100000", "--jmax", "10"],
    ["product", "--r", "inf"],
    ["residue", "--j0", "100000", "--jmax", "10"],
    ["dirac", "--k", "100001/2", "--lambda-max", "10"],
    ["dirac-odd", "--k", "100000", "--lambda-max", "10"],
]


@pytest.mark.parametrize("argv", _ORDER_GUARDED)
def test_order_parameter_guards(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "intertwinor", argv[0], "--n", "2", *argv[1:])
    elapsed = time.perf_counter() - t0
    assert code == 2
    assert out == ""
    assert err.startswith("error: cost guard: ") and f"exceeds {MAX_ORDER}" in err
    assert elapsed < 0.5


def test_verify_spinor_refuses_cap_above_two(capsys):
    # the guard refuses the work; it must not run a smaller cap instead
    code, out, err = run(capsys, "verify", "spinor", "--n", "2", "--N", "3")
    assert code == 2
    assert out == ""
    assert "guard" in err


@pytest.mark.parametrize("scope", ["spinor", "all"])
def test_verify_spinor_refuses_n_below_two_before_any_scope_runs(capsys, scope):
    code, out, err = run(capsys, "verify", scope, "--n", "1")
    assert (code, out, err) == (2, "", "error: n must be >= 2\n")


def test_normalized_intertwinor_float_order_on_excluded_lattice(capsys):
    for r in ("1.0", "2.0", "2"):
        code, out, err = run(
            capsys, "intertwinor", "scalar-normalized", "--n", "2", "--r", r
        )
        assert code == 2, r
        assert out == ""
        assert "level-0 eigenvalue vanishes" in err


def test_byte_determinism(capsys):
    args = ("--format", "json", "intertwinor", "scalar", "--n", "2", "--r", "0.3", "--jmax", "6")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "--jobs 1 verify spinor --n 2 --N 2",
            "fce6cfe9214808630b12313302408abbc0fa36fd2384ac9191e7dc18af276904",
        ),
        (
            "--jobs 1 verify spinor --n 3 --N 1",
            "67264a39a54f80f1ba38e9875e7b622c215b05393c2c38295269df0dc9d506ea",
        ),
        (
            "--jobs 1 verify spinor --n 3 --N 2",
            "e060441f35ef5f0bff8876b5f7ca47e19baeb3381cc992c34158a68e9491e381",
        ),
        (
            "verify scalar --n 3 --cap 4",
            "7415fb86e520245267df5abed8952ca1e792501d9af1a1cad7e82c47a5dc4e4c",
        ),
        (
            "verify scalar --n 5 --cap 6",
            "f2bb42c029758de88f69db678a573dd94180e7edcbaccd2dff347ea1d7a55509",
        ),
    ],
)
def test_golden_verify_output(capsys, argv, digest):
    # exact suites print no floats or timings, so their stdout is pinned to
    # the byte; a refactor that must not change output is checked here
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "--jobs 1 --format text verify all --n 2 --cap 4 --N 2",
            "1121509246e383d3313080185cd1aff54ae9b84182302198dd5ba92c714cd425",
        ),
        (
            "--format text entropy --quick",
            "309d536177cd8a93e639ab9fba2dc1533885526598488178941227fd78dc2e3c",
        ),
    ],
)
def test_golden_text_output(capsys, argv, digest):
    # the text renderings of verify (all three scopes) and of entropy
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_precision_variable_changes_nothing(capsys, monkeypatch):
    # SPECLAB_PRECISION used to set the mpmath working precision, and 0 or
    # -3 printed wrong values (3 or 1 at level 2) with exit 0; the
    # precision is a fixed 64 digits
    argv = ("--format", "csv", "intertwinor", "scalar", "--n", "3", "--r", "0.3")
    want = run(capsys, *argv)
    assert want[0] == 0 and "\n2,1.9365680924901567,finite\n" in want[1]
    for value in ("0", "-3", "20", "200"):
        monkeypatch.setenv("SPECLAB_PRECISION", value)
        assert run(capsys, *argv) == want


# off-spectrum candidates with irrational, perfect-square and rational
# descents (999995/999983 sits at the refute height guard), and one on the
# spectrum; spectrum levels up to 60
_GOLDEN_REFUTE = [
    (2, "1"), (2, "7/3"), (2, "35/4"), (2, "999995/999983"),
    (3, "2"), (3, "10/9"), (3, "41/5"), (3, "1000/7"), (3, "15/4"),
    (4, "3"), (4, "22/7"), (4, "12"), (4, "48"),
    (5, "13/2"), (5, "300/11"), (5, "7"),
    (6, "10"), (6, "97/3"), (6, "5000/13"), (6, "999999/1000"),
]
_REFUTE_ARGVS = [["refute", "--n", str(n), "--lambda", lam] for n, lam in _GOLDEN_REFUTE]
_SPECTRUM_ARGVS = [
    ["spectrum", "scalar", "--n", str(n), "--count", str(c)] for n in range(2, 7) for c in (1, 7, 60)
]


@pytest.mark.parametrize(
    "head, argvs, digest",
    [
        ([], _REFUTE_ARGVS, "3dd3438790f9f5613c4e699ba02f9f9ba2002126b9d7c7041729944b276bd042"),
        (
            ["--format", "text"],
            _REFUTE_ARGVS,
            "903b5f979a3961c790bc43c64fed7c9ae87f3a1952d7ec3a9c25b471d8e993b3",
        ),
        (
            [],
            [a + ["--operator", "conformal"] for a in _SPECTRUM_ARGVS],
            "911ae42c43ad7220e575c054084fe0c4a6cfadac04da781d3bbe41a10bd14e24",
        ),
        (
            [],
            [a + ["--operator", "laplacian"] for a in _SPECTRUM_ARGVS],
            "ba3f260c7e9b64737aa625f7cbe8a5baf4fd0606a4feb0c0df630902eb17d5d0",
        ),
    ],
    ids=["refute-json", "refute-text", "spectrum-conformal", "spectrum-laplacian"],
)
def test_golden_refute_and_spectrum_output(capsys, head, argvs, digest):
    # the quadratic-surd and lattice-step arithmetic behind these requests
    # prints exact values, so their concatenated stdout is pinned to the byte
    h = hashlib.sha256()
    for argv in argvs:
        code, out, err = run(capsys, *head, *argv)
        assert (code, err) == (0, "")
        h.update(out.encode())
    assert h.hexdigest() == digest


def test_golden_failing_scalar_report(monkeypatch):
    # with D shifted by 1 the report carries counterexamples, which print
    # polynomials: their coefficient text is pinned to the byte
    real = scalar_ops.conformal_laplacian
    monkeypatch.setattr(scalar_ops, "conformal_laplacian", lambda p: real(p) + p * Fraction(1))
    rep = scalar_ops.verify_scalar_identities(3, 3)
    digest = "f755ac5336aa22838907a34fdadf9f8c1512ffd7d64b8bb1301c5b40104d5dfb"
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == digest


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(
        capsys,
        "--format",
        "csv",
        "--output",
        str(target),
        "spectrum",
        "scalar",
        "--n",
        "2",
        "--count",
        "2",
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("level,value,kind")


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    # an OSError on the --output path escaped main with a traceback, exit 1
    target = tmp_path / "missing" / "table.csv"
    code, out, err = run(capsys, "--output", str(target), "spectrum", "scalar")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.exists()


def test_usage_error_exit_code(capsys):
    assert main(["spectrum", "nonsense"]) == 2
    assert main([]) == 2


def test_internal_invariant_failure_exit_code(capsys, monkeypatch):
    # an AssertionError inside a suite is neither a verification failure
    # (1) nor a usage error (2), and never a traceback
    import speclab.cli as cli

    def broken(n, cap):
        raise AssertionError("ladder span rank 3 != harmonic dimension 5")

    monkeypatch.setattr(cli, "verify_scalar_identities", broken)
    code, out, err = run(capsys, "verify", "scalar", "--n", "2", "--cap", "2")
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "internal invariant failure",
        "exception": "AssertionError",
        "message": "ladder span rank 3 != harmonic dimension 5",
    }


def test_verify_entropy_quick(capsys):
    code, out, _ = run(capsys, "verify", "entropy", "--order", "60", "--quick")
    assert code == 0
    payload = json.loads(out)
    assert payload["entropy"]["all_passed"] is True


def test_entropy_output_is_byte_stable_across_the_fixed_cost_cache(capsys, monkeypatch):
    # the second report reads the cached quadrature rule and projector
    from speclab import entropy

    monkeypatch.setattr(entropy, "_FIXED_COSTS", {})
    cold = run(capsys, "entropy", "--order", "60")
    warm = run(capsys, "entropy", "--order", "60")
    assert cold[0] == 0 and cold[1]
    assert warm == cold


def test_verify_entropy_underresolved_quadrature_fails_honestly(capsys):
    # lowering the order below the equality-case error budget must be
    # reported as a failure, never masked
    code, out, _ = run(
        capsys, "verify", "entropy", "--order", "40", "--cutoff", "18", "--quick"
    )
    assert code == 1
    payload = json.loads(out)
    failing = [r for r in payload["entropy"]["rows"] if r["status"] == "fail"]
    assert any("0.6" in r["f_description"] for r in failing)


def test_jobs_flag_parallel_scopes(capsys):
    code, out, _ = run(
        capsys,
        "--jobs",
        "2",
        "verify",
        "scalar",
        "--n",
        "2",
        "--cap",
        "2",
    )
    assert code == 0


def test_jobs_parallel_multi_scope(capsys):
    argv = ("verify", "all", "--n", "2", "--cap", "2", "--N", "1", "--quick")
    code, out, _ = run(capsys, "--jobs", "3", *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert {"scalar", "spinor", "entropy"} <= set(payload)
    # reports pickled back from the worker processes print as in one process
    code, serial, _ = run(capsys, "--jobs", "1", *argv)
    assert code == 0
    assert out == serial


def test_intertwinor_entropy_derivative_and_first_order(capsys):
    code, out, _ = run(
        capsys, "--format", "csv", "intertwinor", "entropy-derivative", "--n", "2", "--jmax", "3"
    )
    assert code == 0
    vals = [r.split(",")[1] for r in out.strip().splitlines()[1:]]
    assert vals == ["0/1", "2/1", "3/1", "11/3"]
    code, out, _ = run(
        capsys, "--format", "csv", "intertwinor", "first-order", "--n", "3", "--jmax", "2"
    )
    assert code == 0
    vals = [r.split(",")[1] for r in out.strip().splitlines()[1:]]
    assert vals == ["1/1", "2/1", "3/1"]


def test_intertwinor_adjacent_candidates(capsys):
    code, out, _ = run(
        capsys, "--format", "csv", "intertwinor", "adjacent", "--n", "3", "--lambda", "3/2"
    )
    assert code == 0
    vals = [r.split(",")[0] for r in out.strip().splitlines()[1:]]
    assert vals == ["-3/2", "1/2", "5/2"]


# ---------------------------------------------------------------------------
# the exit-code contract over random argument vectors
# ---------------------------------------------------------------------------

MALFORMED = ["1/0", "abc", "", "nan", "inf", "-inf", "1e400", "1/", "0x10", "-0.0", "--"]
_number = st.one_of(
    st.integers(-6, 40).map(str),
    st.sampled_from(MALFORMED),
    st.fractions(min_value=-20, max_value=40, max_denominator=12).map(str),
    st.floats(-20, 40, allow_nan=False).map(repr),
)
_small = st.one_of(st.integers(-4, 12).map(str), st.sampled_from(MALFORMED))


def _flags(**values):
    """Any subset of the given flags, each with a drawn value."""
    pairs = [st.tuples(st.just(f"--{name.replace('_', '-')}"), v) for name, v in values.items()]
    return st.lists(st.one_of(pairs), unique_by=lambda p: p[0], max_size=len(pairs)).map(
        lambda chosen: [part for pair in chosen for part in pair]
    )


_FAMILIES = [
    "scalar", "scalar-normalized", "product", "residue", "entropy-derivative",
    "first-order", "dirac", "dirac-odd", "adjacent", "nope",
]
# verify only where the guard refuses or parsing fails, so no suite runs;
# other commands past their cost guards
_REFUSED = _GUARDED + [
    ["verify", "scalar", "--n", "7"],
    ["verify", "scalar", "--n", "5", "--cap", "40"],
    ["verify", "all", "--n", "9"],
    ["verify", "spinor", "--n", "5"],
    ["verify", "spinor", "--n", "2", "--N", "3"],
    ["verify", "scalar", "--n", "x"],
    ["verify", "spinor", "--N", "1/2"],
    ["verify", "entropy", "--order", "2.5"],
]
_argv = st.tuples(
    st.lists(st.sampled_from([["--format", "csv"], ["--format", "text"], ["--format", "xml"]]), max_size=1),
    st.one_of(
        st.tuples(
            st.sampled_from([["spectrum", "scalar"], ["spectrum", "dirac"], ["spectrum", "x"]]),
            _flags(n=_small, count=_small, operator=st.sampled_from(["conformal", "laplacian", "x"])),
        ),
        st.tuples(
            st.sampled_from(_FAMILIES).map(lambda f: ["intertwinor", f]),
            _flags(n=_small, r=_number, k=_number, j0=_small, jmax=_small, lambda_max=_number, **{"lambda": _number}),
        ),
        st.tuples(st.just(["refute"]), _flags(n=_small, **{"lambda": _number})),
        st.tuples(st.sampled_from(_REFUSED), st.just([])),
    ),
).map(lambda t: [a for part in t[0] for a in part] + t[1][0] + t[1][1])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_argv)
def test_exit_code_contract_on_random_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_escaped_inputs_are_usage_errors(capsys):
    # each of these escaped main with a traceback, or exited 3
    for argv in (
        ["refute", "--n", "3", "--lambda", "1/0"],
        ["intertwinor", "scalar", "--n", "3", "--r", "1/0"],
        ["refute", "--n", "1", "--lambda", "5"],
        ["intertwinor", "entropy-derivative", "--n", "-4", "--jmax", "4"],
        # NaN passed the order guards (abs(nan) > 100 is False) and printed
        # a table of "nan" values with exit 0
        ["intertwinor", "scalar", "--n", "2", "--r", "nan"],
        ["intertwinor", "dirac", "--n", "2", "--k", "nan"],
        # a lattice or a table for a sphere of dimension below 2, exit 0
        ["spectrum", "dirac", "--n", "-1"],
        ["spectrum", "scalar", "--n", "1"],
        ["intertwinor", "scalar", "--n", "-2", "--r", "1"],
        # empty level ranges: an empty table or lattice, exit 0
        ["intertwinor", "scalar", "--n", "3", "--r", "1", "--jmax", "-3"],
        ["intertwinor", "first-order", "--n", "3", "--jmax", "-1"],
        ["spectrum", "dirac", "--n", "3", "--count", "0"],
        ["spectrum", "dirac", "--n", "2", "--count", "-4"],
        ["intertwinor", "dirac", "--n", "2", "--k", "1/3", "--lambda-max", "-5"],
        ["intertwinor", "dirac-odd", "--n", "3", "--k", "1", "--lambda-max", "1"],
        # an entropy order below 2 ran silently at max(--order, 2 --cutoff + 8)
        ["entropy", "--order", "-5", "--quick"],
        ["verify", "entropy", "--order", "0", "--quick"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        # product printed the r = 2 table, labelled "parameter": "2", with exit 0
        (["product", "--r", "5/2"], "--r 5/2 must be an integer for the product family"),
        (["product", "--r", "2.7"], "--r 2.7 must be an integer for the product family"),
        # dirac-odd printed the text of the int() error
        (["dirac-odd", "--k", "5/2"], "--k 5/2 must be an integer for the dirac-odd family"),
        (["dirac-odd", "--k", "2.7"], "--k 2.7 must be an integer for the dirac-odd family"),
        (["dirac-odd"], "--k is required for the dirac-odd family"),
        (["dirac"], "--k is required for the dirac family"),
    ],
    ids=["product-5_2", "product-2.7", "dirac-odd-5_2", "dirac-odd-2.7", "dirac-odd-no-k", "dirac-no-k"],
)
def test_integer_order_families_refuse_other_orders(capsys, argv, message):
    code, out, err = run(capsys, "intertwinor", argv[0], "--n", "3", *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("family, flag", [("product", "--r"), ("dirac-odd", "--k")])
def test_integer_valued_orders_print_the_integer_table(capsys, family, flag):
    want = run(capsys, "intertwinor", family, "--n", "3", flag, "2")
    assert want[0] == 0 and '"parameter": "2"' in want[1]
    for value in ("4/2", "2.0"):
        assert run(capsys, "intertwinor", family, "--n", "3", flag, value) == want


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(capsys, jobs):
    # accepted silently before, and the scopes ran serially
    code, out, err = run(capsys, "--jobs", jobs, "verify", "scalar", "--n", "2", "--cap", "2")
    assert code == 2
    assert out == ""
    assert err == f"error: --jobs {jobs} must be >= 1\n"


def test_main_builds_its_parser_once(capsys, monkeypatch):
    import speclab.cli as cli

    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for count in range(1, 6):
        assert run(capsys, "spectrum", "scalar", "--count", str(count))[0] == 0
    assert run(capsys, "spectrum", "nonsense")[0] == 2
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "intertwinor", "scalar", "--r", "1", "--jmax", "2")[0] == 0
    assert len(built) == 1
    # build_parser itself still returns a fresh parser
    assert build_parser() is not build_parser()


def test_import_builds_no_parser():
    # the first main call builds it, so importing costs nothing extra
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import speclab, speclab.cli\n"
        "assert not built and speclab.cli._PARSER is None, 'parser built at import'\n"
        "assert speclab.cli.main(['spectrum', 'scalar', '--count', '2']) == 0\n"
        "assert built and speclab.cli._PARSER is not None, 'main built no parser'\n"
    )
    src = str(Path(speclab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# one long-lived interpreter must answer each of these as a fresh process does
_STREAM = [
    ["spectrum", "nonsense"],
    ["--help"],
    ["--format", "xml", "spectrum", "scalar"],
    ["--format", "csv", "spectrum", "scalar", "--n", "4", "--count", "3"],
    ["intertwinor", "scalar", "--n", "3", "--r", "1/2", "--jmax", "4"],
    ["verify", "scalar", "--n", "2", "--cap", "2"],
    ["spectrum", "nonsense"],
    ["--format", "text", "spectrum", "dirac", "--n", "2", "--count", "2"],
]


def test_in_process_stream_matches_fresh_processes(capsys, monkeypatch):
    # help and usage text wrap at the terminal width: fix it on both sides
    import speclab.cli as cli

    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "_PARSER", None)
    src = str(Path(speclab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    for argv in _STREAM:
        in_process = run(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, "-m", "speclab.cli", *argv], env=env, capture_output=True, text=True
        )
        assert in_process == (proc.returncode, proc.stdout, proc.stderr), argv


def test_rebound_command_is_dispatched(capsys, monkeypatch):
    # main looks the subcommand up when it runs, so a patch or a tracer
    # that rebinds cmd_spectrum after the parser exists is still used
    import speclab.cli as cli

    assert run(capsys, "spectrum", "scalar", "--count", "2")[0] == 0
    seen = []

    def fake_spectrum(args):
        seen.append(args.count)
        return 7

    monkeypatch.setattr(cli, "cmd_spectrum", fake_spectrum)
    assert run(capsys, "spectrum", "scalar", "--count", "3") == (7, "", "")
    assert seen == [3]
