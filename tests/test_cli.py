"""Command-line front end: output contracts, exit codes, determinism."""

import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from speclab.cli import MAX_DIMENSION, MAX_ORDER, main, parse_number
from fractions import Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_number():
    assert parse_number("3/4") == Fraction(3, 4)
    assert parse_number("5") == 5
    assert isinstance(parse_number("0.3"), float)


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
        ["refute", "--n", "3", "--lambda", "1000000/3"],
        ["intertwinor", "scalar", "--n", "3", "--r", str(MAX_ORDER), "--jmax", "2"],
        ["intertwinor", "scalar", "--n", "3", f"--r={-MAX_ORDER}", "--jmax", "2"],
        ["intertwinor", "product", "--n", "3", "--r", str(MAX_ORDER), "--jmax", "2"],
        ["intertwinor", "residue", "--n", "3", "--j0", str(MAX_ORDER), "--jmax", "2"],
        ["intertwinor", "dirac-odd", "--n", "3", "--k", str(MAX_ORDER)],
        ["intertwinor", "residue", "--n", str(MAX_DIMENSION), "--j0", str(MAX_ORDER), "--jmax", "500"],
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


def test_usage_error_exit_code(capsys):
    assert main(["spectrum", "nonsense"]) == 2
    assert main([]) == 2


def test_internal_invariant_failure_exit_code(capsys, monkeypatch):
    # an AssertionError inside a suite is neither a verification failure
    # (1) nor a usage error (2), and never a traceback
    import speclab.cli as cli

    def broken(n, cap):
        raise AssertionError("model Gram matrix is singular")

    monkeypatch.setattr(cli, "verify_scalar_identities", broken)
    code, out, err = run(capsys, "verify", "scalar", "--n", "2", "--cap", "2")
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "internal invariant failure",
        "exception": "AssertionError",
        "message": "model Gram matrix is singular",
    }


def test_verify_entropy_quick(capsys):
    code, out, _ = run(capsys, "verify", "entropy", "--order", "60", "--quick")
    assert code == 0
    payload = json.loads(out)
    assert payload["entropy"]["all_passed"] is True


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
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ")
