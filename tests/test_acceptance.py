"""Acceptance suite: one test per criterion, at the stated tolerances.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion; each test also prints its measured numbers (visible with -s
and in failure reports).  Grids left open by the criteria are stated in
the docstrings.
"""

import random
import time
from fractions import Fraction

from speclab import scalar_ops
from speclab.clifford import (
    dirac_eigenvalue,
    eigenspinor_basis,
    truncation_matrices,
    verify_spinor_identities,
)
from speclab.entropy import (
    SphereProjector,
    battery,
    beckner_check,
    build_quadrature,
    entropy_sides,
)
from speclab.polynomial import (
    SpherePoly,
    ambient_laplacian_terms,
    harmonic_decompose,
    normal_monomials,
)
from speclab.scalar_ops import (
    bottom_eigenvalue,
    build_eigenspace,
    generate_spectrum,
    ladder_sums,
    laplacian,
    laplacian_via_conformal_fields,
    refute_candidate,
    scalar_eigenvalue,
    spectrum_level_of,
    verify_scalar_identities,
)
from speclab.spectral import (
    dirac_intertwinor_eigen,
    dirac_step_candidates,
    dirac_transfer_holds,
    entropy_log_bound,
    half_step_intertwinor_eigen,
    intertwinor_eigen,
    intertwinor_residue_value,
    product_operator_eigen,
    recurrence_check,
    SpectrumTable,
)

from oracles import harmonic_dimension_by_rank


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}: {detail}")
    return ok


def test_criterion_01_scalar_spectrum_exact():
    """Plus-branch iteration reproduces the closed-form spectrum,
    n in 2..6, j <= 20, exact, under one second."""
    t0 = time.perf_counter()
    for n in range(2, 7):
        for pair in generate_spectrum(n, 21):
            assert pair.lam == scalar_eigenvalue(n, pair.j)
            assert pair.laplace_eigenvalue == pair.j * (n - 1 + pair.j)
    elapsed = time.perf_counter() - t0
    assert _line(1, elapsed < 1.0, f"iterated spectra exact, {elapsed:.3f}s (< 1s)")
    assert elapsed < 1.0


def test_criterion_02_laplacian_two_routes():
    """Conformal-field route equals the homogeneous-degree route on every
    monomial of degree <= 6, n in 2..5, exactly, under 30 s total."""
    t0 = time.perf_counter()
    count = 0
    for n in (2, 3, 4, 5):
        for e in normal_monomials(n, 6):
            p = SpherePoly(n, {e: Fraction(1)}, reduced=True)
            diff = laplacian(p) - laplacian_via_conformal_fields(p)
            assert diff.is_zero, (n, e)
            count += 1
    elapsed = time.perf_counter() - t0
    assert _line(2, elapsed < 30.0, f"{count} monomials, exact zero, {elapsed:.2f}s (< 30s)")
    assert elapsed < 30.0


def test_criterion_03_identity_suite_with_falsifiability(monkeypatch):
    """All scalar identities pass exactly on the criterion-2 sweep
    (n in 2..5, cap 6); a constant-shifted operator fails."""
    for n in (2, 3, 4, 5):
        rep = verify_scalar_identities(n, 6)
        assert rep.all_passed, rep.failures()
    real = scalar_ops.conformal_laplacian
    monkeypatch.setattr(scalar_ops, "conformal_laplacian", lambda p: real(p) + p * Fraction(1))
    corrupted = verify_scalar_identities(3, 3)
    failed = {c.identity_id for c in corrupted.failures()}
    ok = {"conformal_covariance", "u_square_sum"} <= failed
    assert _line(3, ok, f"identities exact on n=2..5 cap 6; corrupted op fails {sorted(failed)}")
    assert ok


def test_criterion_04_ladder_sum_factors():
    """Summed ladder factors match through level 4 on every constructed
    eigenfunction (n in 2..4); the up-down factor vanishes exactly at the
    bottom and only there."""
    for n in (2, 3, 4):
        for j in range(5):
            lam = scalar_eigenvalue(n, j)
            nu = Fraction(n - 1 + 2 * j)
            want_mp = -Fraction(1, 2) * (nu + n - 1) * (nu + 2)
            want_pm = -Fraction(1, 2) * (nu - n + 1) * (nu - 2)
            for phi in build_eigenspace(n, j).funcs:
                mp, pm = ladder_sums(phi, lam)
                assert (mp, pm) == (want_mp, want_pm)
            assert (want_pm == 0) == (nu == n - 1) == (j == 0)
    assert _line(4, True, "down-up/up-down factors exact through j=4, n=2..4")


def test_criterion_05_refutation_of_random_candidates():
    """25 random off-spectrum rational candidates per n in 2..5: every
    descent ends below the bottom bound within gap+1 steps."""
    rng = random.Random(20260808)
    for n in (2, 3, 4, 5):
        bound = bottom_eigenvalue(n)
        done = 0
        while done < 25:
            lam = Fraction(rng.randint(0, 900), rng.randint(1, 30))
            if lam < bound or spectrum_level_of(n, lam) is not None:
                continue
            gap = 0
            while scalar_eigenvalue(n, gap + 1) < lam:
                gap += 1
            chain = refute_candidate(n, lam)
            assert chain.steps[-1] < bound
            assert len(chain.steps) <= gap + 1
            done += 1
    assert _line(5, True, "100 refutation chains, all below bound within gap+1 steps")


def test_criterion_06_eigenspaces_are_harmonics():
    """Every constructed eigenfunction lifts to one ambient-harmonic
    homogeneous polynomial; ranks match the Fischer-rank oracle.
    Grid: j <= 4 for n in {2,3}, j <= 3 for n in {4,5}."""
    for n, jmax in ((2, 4), (3, 4), (4, 3), (5, 3)):
        for j in range(jmax + 1):
            funcs = build_eigenspace(n, j).funcs
            assert len(funcs) == harmonic_dimension_by_rank(n, j)
            for phi in funcs:
                decomp = harmonic_decompose(phi)
                assert decomp.degrees == [j]
                assert ambient_laplacian_terms(decomp.part(j)) == {}
    assert _line(6, True, "ladder eigenspaces = harmonic restrictions, ranks = rank oracle")


def test_criterion_07_intertwinor_calculus():
    """Recurrence across the stated grid (exact on the half-integer
    lattice, < 1e-12 relative otherwise; the residue family at the
    excluded lattice); product operators equal the gamma-ratio family for
    r in {1,2,3}; residues vanish above the pole order."""
    for n in (2, 3, 4, 5, 6):
        for r in (Fraction(1, 2), Fraction(-1, 2), 1, -1, Fraction(3, 2), 2, 0.3, 1.7):
            exact_lattice = not isinstance(r, float)
            on_pole = (
                exact_lattice
                and (Fraction(r) + Fraction(n, 2)).denominator == 1
                and -Fraction(r) - Fraction(n, 2) >= 0
            )
            if on_pole:
                j0 = int(-Fraction(r) - Fraction(n, 2))
                rows = [(j, intertwinor_residue_value(n, j0, j)) for j in range(13)]
                assert recurrence_check(n, r, rows)
                assert intertwinor_eigen(n, r, j0).kind == "pole"
                assert all(sv.payload == 0 for j, sv in rows if j > j0)
            else:
                rows = SpectrumTable.scalar(n, r, 12).rows
                assert recurrence_check(n, r, rows, rel_tol=1e-12)
                if exact_lattice:
                    assert all(sv.is_exact for _, sv in rows)
    for n in (2, 3, 4, 5):
        for r in (1, 2, 3):
            for j in range(11):
                assert product_operator_eigen(n, r, j) == intertwinor_eigen(n, r, j).value
    assert _line(7, True, "recurrence grid + product/gamma-ratio equality + residue family")


def test_criterion_08_dirac_model():
    """Certified truncation spectra on the half-integer lattice for
    n in {2,3}, N <= 2, and the full exact spinor identity suite
    (covariance, the three summed ladder factors, commutator identities,
    the square sums, the adjacent-span rank identity, odd intertwinors
    k <= 2, the spectral bound)."""
    t0 = time.perf_counter()
    for n, N in ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)):
        model = truncation_matrices(n, N)
        for lam, mult, certified in model.spectrum():
            assert certified
            assert (abs(lam) - Fraction(n, 2)).denominator == 1
            assert abs(lam) >= Fraction(n, 2)
            assert lam * lam >= Fraction(n * (n - 1), 4)
    for n in (2, 3):
        rep = verify_spinor_identities(n, 2)
        assert rep.all_passed, [c.identity_id for c in rep.failures()]
    # the three summed ladder factors at level 3 as well (n = 2)
    n = 2
    half = Fraction(1, 2)
    from speclab.clifford import SpinorPoly, spinor_ladders

    for sign in (1, -1):
        lam = dirac_eigenvalue(n, 3, sign)
        psi = eigenspinor_basis(n, 3, sign)[0]
        sa = SpinorPoly.zero(n)
        for i in range(n + 1):
            A, _, _ = spinor_ladders(i, psi, lam, check=False)
            _, S2, _ = spinor_ladders(i, A, lam + 1, check=False)
            sa = sa + S2
        assert (sa - psi.scale(-2 * (lam + Fraction(n, 2)) * (lam + half))).is_zero
    elapsed = time.perf_counter() - t0
    assert _line(8, True, f"certified lattice spectra + exact spinor suite, {elapsed:.1f}s")


def test_criterion_09_dirac_intertwinor_family():
    """Shift and oddness for k in {1/4, 1/3} at lam in +-(n/2 + 0..6) to
    1e-12 relative; the explicit order-2 formula exact in both parities."""
    for n in (2, 3):
        for k in (0.25, 1 / 3):
            for j in range(7):
                lam = Fraction(n, 2) + j
                a = float(dirac_intertwinor_eigen(n, k, lam))
                a_neg = float(dirac_intertwinor_eigen(n, k, -lam))
                assert abs(a + a_neg) <= 1e-12 * max(1.0, abs(a))
                a_up = float(dirac_intertwinor_eigen(n, k, lam + 1))
                lhs = a_up * (float(lam) - k)
                rhs = (float(lam) + 1 + k) * a
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
    for n in (2, 3):
        for j in range(7):
            for s in (1, -1):
                lam = s * (Fraction(n, 2) + j)
                if n % 2 == 0:
                    assert (
                        dirac_intertwinor_eigen(n, Fraction(1, 2), lam).value
                        == half_step_intertwinor_eigen(lam)
                    )
                for mu in dirac_step_candidates(lam):
                    if mu == 0 or abs(mu) < Fraction(n, 2):
                        continue
                    assert dirac_transfer_holds(
                        half_step_intertwinor_eigen, lam, mu, Fraction(1, 2)
                    )
    assert _line(9, True, "shift + oddness at 1e-12; order-2 formula exact, both parities")


def test_criterion_10_entropy_inequality():
    """30-member battery on S^2: every gap >= -1e-10; conformal members
    within 1e-6; non-conformal members > 1e-4; the fractional-integral
    analogue at r = 1/2; and the exact spectral inequality for j <= 25."""
    rule = build_quadrature(60)
    assert rule.validate(12) < 1e-13  # hard gate before any inequality runs
    projector = SphereProjector(rule, 26)
    members = battery()
    assert len(members) == 30
    for name, kind, f in members:
        lhs, rhs = entropy_sides(f, rule, cutoff=25, projector=projector)
        gap = rhs - lhs
        assert gap >= -1e-10, (name, gap)
        if kind == "equality":
            assert abs(gap) < 1e-6, (name, gap)
        else:
            assert gap > 1e-4, (name, gap)
        b_lhs, b_rhs = beckner_check(f, Fraction(1, 2), rule, cutoff=25, projector=projector)
        b_gap = b_lhs - b_rhs
        assert b_gap >= -1e-10, (name, b_gap)
        if kind == "equality":
            assert abs(b_gap) < 1e-6, (name, b_gap)
        else:
            assert b_gap > 1e-4, (name, b_gap)
    for n in (2, 3, 4, 5, 6):
        for j in range(26):
            mu, log_term = entropy_log_bound(n, j)
            assert float(mu) <= log_term + 1e-14
    assert _line(10, True, "battery of 30 + fractional analogue + exact spectral bound")
