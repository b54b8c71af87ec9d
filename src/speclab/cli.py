"""Command-line front end.

Subcommands: spectrum, intertwinor, verify, refute, entropy.  Exit codes:
0 success / all checks pass, 1 verification failure, 2 usage or cost-guard
error, 3 internal invariant failure: an ``AssertionError`` raised inside
the library (a singular Gram matrix, a truncation spectrum off the
lattice, ...), reported as one JSON line on stderr instead of a
traceback.  Output is byte-deterministic for a fixed configuration (fixed
orderings, floats at 17 significant digits); SPECLAB_PRECISION sets the
working precision of the transcendental branch (decimal digits).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .polynomial import count_normal_monomials
from .scalar_ops import (
    BelowBoundError,
    OnSpectrumError,
    bottom_eigenvalue,
    generate_spectrum,
    refute_candidate,
    verify_scalar_identities,
)
from .spectral import SpectrumTable, finite, fmt_value

# cost guards: refuse exact computations beyond these basis sizes
MAX_SCALAR_BASIS = 4000
MAX_SPINOR_DIM = 400
# ... beyond this many spectrum levels (spectrum --count, intertwinor
# --jmax, and --lambda-max - n/2 for the dirac families) ...
MAX_LEVELS = 500
# ... beyond this size of an intertwinor order parameter (--r, --k and
# --j0: an exact order-2r eigenvalue is a product of 2r factors, and the
# residue at j0 a quotient of factorials of about 2 j0) ...
MAX_ORDER = 100
# ... beyond this --n for the residue family (level j holds (n+j+j0-1)!) ...
MAX_DIMENSION = 1000
# ... and for refute candidates whose numerator or denominator exceeds
# this (the descent takes about sqrt(lambda) steps)
MAX_REFUTE_HEIGHT = 10**6


def parse_number(text: str):
    """'p/q' and integer literals become exact rationals; decimal-point
    literals stay floats (the genuinely transcendental parameters)."""
    s = text.strip()
    if "/" in s:
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    try:
        return int(s)
    except ValueError:
        return float(s)


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table_text(table: SpectrumTable) -> str:
    lines = [f"# family={table.family} n={table.n} parameter={table.parameter}"]
    for level, sv in table.rows:
        lines.append(f"{level}\t{fmt_value(sv.payload)}\t{sv.kind}")
    return "\n".join(lines) + "\n"


def _write_table(args, table: SpectrumTable) -> None:
    if args.format == "csv":
        _emit(args, table.to_csv())
    elif args.format == "text":
        _emit(args, _table_text(table))
    else:
        _emit(args, json.dumps(table.to_dict(), indent=2, sort_keys=True) + "\n")


def _refuse(text: str) -> int:
    print(f"error: cost guard: {text}", file=sys.stderr)
    return 2


def cmd_spectrum(args) -> int:
    n = args.n
    if args.count > MAX_LEVELS:
        return _refuse(f"--count {args.count} exceeds {MAX_LEVELS} levels")
    if args.kind == "scalar":
        pairs = generate_spectrum(n, args.count)
        if args.operator == "laplacian":
            rows = [(p.j, finite(p.laplace_eigenvalue)) for p in pairs]
            family = "laplace_spectrum"
        else:
            rows = [(p.j, finite(p.lam)) for p in pairs]
            family = "conformal_spectrum"
        table = SpectrumTable(n=n, family=family, parameter=None, rows=rows)
    else:
        rows = []
        for j in range(args.count):
            lam = Fraction(n, 2) + j
            rows.append((j, finite(lam)))
            rows.append((j, finite(-lam)))
        table = SpectrumTable(n=n, family="dirac_lattice", parameter=None, rows=rows)
    _write_table(args, table)
    return 0


def cmd_intertwinor(args) -> int:
    n = args.n
    fam = args.family
    order = None
    if fam in ("scalar", "scalar-normalized", "product"):
        if args.r is None:
            print(f"error: --r is required for the {fam} family", file=sys.stderr)
            return 2
        order, flag = parse_number(args.r), "--r"
    elif fam in ("dirac", "dirac-odd") and args.k is not None:
        order, flag = parse_number(args.k), "--k"
    elif fam == "residue":
        order, flag = args.j0, "--j0"
    if order is not None and abs(order) > MAX_ORDER:
        return _refuse(f"{flag} {order} exceeds {MAX_ORDER} in absolute value")
    if fam == "residue" and n > MAX_DIMENSION:
        return _refuse(f"--n {n} exceeds {MAX_DIMENSION} for the residue family")
    if fam in ("dirac", "dirac-odd"):
        if parse_number(args.lambda_max) - Fraction(n, 2) > MAX_LEVELS:
            return _refuse(f"--lambda-max {args.lambda_max} spans more than {MAX_LEVELS} levels")
    elif fam != "adjacent" and args.jmax > MAX_LEVELS:
        return _refuse(f"--jmax {args.jmax} exceeds {MAX_LEVELS} levels")
    if fam == "scalar":
        table = SpectrumTable.scalar(n, order, args.jmax)
    elif fam == "scalar-normalized":
        table = SpectrumTable.scalar_normalized(n, order, args.jmax)
    elif fam == "product":
        table = SpectrumTable.product_operator(n, int(order), args.jmax)
    elif fam == "residue":
        table = SpectrumTable.residue_family(n, args.j0, args.jmax)
    elif fam == "entropy-derivative":
        table = SpectrumTable.entropy_derivative(n, args.jmax)
    elif fam == "first-order":
        table = SpectrumTable.first_order(n, args.jmax)
    elif fam == "dirac":
        if args.k is None:
            print("error: --k is required for the dirac family", file=sys.stderr)
            return 2
        table = SpectrumTable.dirac(n, parse_number(args.k), parse_number(args.lambda_max))
    elif fam == "dirac-odd":
        table = SpectrumTable.dirac_odd(n, int(args.k), parse_number(args.lambda_max))
    elif fam == "adjacent":
        table = SpectrumTable.dirac_adjacent(n, parse_number(args.lam))
    else:  # pragma: no cover - argparse restricts choices
        return 2
    _write_table(args, table)
    return 0


def _verify_scalar(n: int, cap: int):
    return verify_scalar_identities(n, cap)


def _verify_spinor(n: int, cap: int):
    from .clifford import verify_spinor_identities

    return verify_spinor_identities(n, cap, k_max=cap)


def _verify_entropy(order: int, cutoff: int, quick: bool):
    from .entropy import entropy_report

    return entropy_report(cutoff=cutoff, quick=quick, order=order)


def cmd_verify(args) -> int:
    n = args.n
    scopes = ["scalar", "spinor", "entropy"] if args.scope == "all" else [args.scope]
    # cost guards before any work starts
    if "scalar" in scopes:
        basis = count_normal_monomials(n, args.cap)
        if basis > MAX_SCALAR_BASIS or n > 6:
            print(
                f"error: scalar sweep needs a basis of {basis} monomials "
                f"(limit {MAX_SCALAR_BASIS}); lower --n/--cap",
                file=sys.stderr,
            )
            return 2
    if "spinor" in scopes:
        from .clifford import gamma_algebra

        if n > 4 or args.N > 2:
            print("error: spinor model guard: need n <= 4 and N <= 2", file=sys.stderr)
            return 2
        dim = gamma_algebra(n).dim_spin * count_normal_monomials(n, args.N)
        if dim > MAX_SPINOR_DIM:
            print(
                f"error: spinor model dimension {dim} exceeds {MAX_SPINOR_DIM}",
                file=sys.stderr,
            )
            return 2

    tasks = []
    if "scalar" in scopes:
        tasks.append(("scalar", _verify_scalar, (n, args.cap)))
    if "spinor" in scopes:
        tasks.append(("spinor", _verify_spinor, (n, args.N)))
    if "entropy" in scopes:
        tasks.append(("entropy", _verify_entropy, (args.order, args.cutoff, args.quick)))

    results = {}
    if args.jobs > 1 and len(tasks) > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futs = {pool.submit(fn, *fargs): name for name, fn, fargs in tasks}
            for fut, name in futs.items():
                results[name] = fut.result()
    else:
        for name, fn, fargs in tasks:
            results[name] = fn(*fargs)

    payload = {}
    all_ok = True
    for name in ("scalar", "spinor", "entropy"):
        if name not in results:
            continue
        res = results[name]
        if name == "entropy":
            payload[name] = res
            all_ok = all_ok and res["all_passed"]
        else:
            payload[name] = res.to_dict()
            all_ok = all_ok and res.all_passed
    payload["all_passed"] = all_ok

    if args.format == "text":
        lines = []
        for name, res in payload.items():
            if name == "all_passed":
                continue
            lines.append(f"== {name} ==")
            if name == "entropy":
                for row in res["rows"]:
                    lines.append(
                        f"[{row['status'].upper():4s}] {row['f_description']}: gap={row['gap']:.3e}"
                    )
            else:
                for c in res["checks"]:
                    lines.append(f"[{c['status'].upper():4s}] {c['identity_id']}: {c['law']}")
        lines.append(f"ALL {'PASSED' if all_ok else 'FAILED'}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")
    return 0 if all_ok else 1


def cmd_refute(args) -> int:
    n = args.n
    lam = parse_number(args.lam)
    if isinstance(lam, float):
        print("error: the candidate must be rational ('p/q')", file=sys.stderr)
        return 2
    lam = Fraction(lam)
    if max(abs(lam.numerator), lam.denominator) > MAX_REFUTE_HEIGHT:
        return _refuse(f"candidate {lam} has a numerator or denominator above {MAX_REFUTE_HEIGHT}")
    try:
        chain = refute_candidate(n, lam)
    except OnSpectrumError as exc:
        _emit(args, json.dumps({"on_spectrum": True, "level": exc.level}, sort_keys=True) + "\n")
        return 0
    except BelowBoundError:
        print(
            f"error: candidate below the bottom bound {bottom_eigenvalue(n)}; "
            "nothing to refute",
            file=sys.stderr,
        )
        return 2
    if args.format == "text":
        steps = " -> ".join(repr(s) for s in chain.steps)
        _emit(
            args,
            f"start {chain.start} -> {steps}; final < bound {chain.violated_bound}\n",
        )
    else:
        _emit(args, json.dumps(chain.to_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def cmd_entropy(args) -> int:
    from .entropy import entropy_report

    rep = entropy_report(cutoff=args.cutoff, quick=args.quick, order=args.order)
    if args.format == "text":
        lines = [f"quadrature gate error: {rep['quadrature_gate_error']:.3e}"]
        for row in rep["rows"]:
            lines.append(
                f"[{row['status'].upper():4s}] {row['f_description']}: "
                f"lhs={row['lhs']:.12g} rhs={row['rhs']:.12g} gap={row['gap']:.3e}"
            )
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, json.dumps(rep, indent=2, sort_keys=True) + "\n")
    return 0 if rep["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="speclab",
        description="Exact spectral calculus on round spheres: spectra, "
        "intertwinor families, identity verification, refutation "
        "certificates, entropy reports.",
    )
    ap.add_argument("--format", choices=("json", "csv", "text"), default="json")
    ap.add_argument("--output", default=None, help="write output to a file")
    ap.add_argument("--jobs", type=int, default=1, help="parallel verification scopes")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="eigenvalue lattices")
    sp.add_argument("kind", choices=("scalar", "dirac"))
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--count", type=int, default=10)
    sp.add_argument("--operator", choices=("conformal", "laplacian"), default="conformal")
    sp.set_defaults(func=cmd_spectrum)

    it = sub.add_parser("intertwinor", help="spectral functions of operator families")
    it.add_argument(
        "family",
        choices=(
            "scalar",
            "scalar-normalized",
            "product",
            "residue",
            "entropy-derivative",
            "first-order",
            "dirac",
            "dirac-odd",
            "adjacent",
        ),
    )
    it.add_argument("--n", type=int, default=3)
    it.add_argument("--r", default=None, help="order parameter (p/q or float)")
    it.add_argument("--k", default=None, help="spinor family parameter")
    it.add_argument("--j0", type=int, default=0, help="pole index for the residue family")
    it.add_argument("--jmax", type=int, default=10)
    it.add_argument("--lambda-max", dest="lambda_max", default="5")
    it.add_argument("--lambda", dest="lam", default="3/2", help="eigenvalue for 'adjacent'")
    it.set_defaults(func=cmd_intertwinor)

    vf = sub.add_parser("verify", help="run identity suites")
    vf.add_argument("scope", choices=("scalar", "spinor", "entropy", "all"))
    vf.add_argument("--n", type=int, default=3)
    vf.add_argument("--cap", type=int, default=4, help="scalar sweep degree cap")
    vf.add_argument("--N", type=int, default=2, help="spinor sweep degree cap")
    vf.add_argument("--order", type=int, default=40, help="entropy quadrature order")
    vf.add_argument("--cutoff", type=int, default=25, help="entropy projection cutoff")
    vf.add_argument("--quick", action="store_true", help="entropy: first 6 battery members")
    vf.set_defaults(func=cmd_verify)

    rf = sub.add_parser("refute", help="descent certificate for an off-spectrum candidate")
    rf.add_argument("--n", type=int, default=3)
    rf.add_argument("--lambda", dest="lam", required=True)
    rf.set_defaults(func=cmd_refute)

    en = sub.add_parser("entropy", help="entropy inequality report on S^2")
    en.add_argument("--order", type=int, default=60)
    en.add_argument("--cutoff", type=int, default=25)
    en.add_argument("--quick", action="store_true")
    en.set_defaults(func=cmd_entropy)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, TypeError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        record = {
            "error": "internal invariant failure",
            "exception": type(exc).__name__,
            "message": str(exc),
        }
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
