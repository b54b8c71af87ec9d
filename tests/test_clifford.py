"""Gamma algebra, the algebraic Dirac model, spinor ladders, truncation
models with certified spectra."""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from speclab import clifford, report
from speclab.clifford import (
    SpinorPoly,
    U_spin,
    angular_apply,
    clifford_x,
    dirac_apply,
    dirac_eigenvalue,
    dirac_reference,
    dirac_squared,
    eigenspinor_basis,
    gamma_algebra,
    is_eigenspinor,
    monogenic_basis,
    monogenic_dimension,
    spinor_ladders,
    spinor_laws,
    truncation_matrices,
    verify_spinor_identities,
    y_apply,
)
from speclab.linalg import nullspace
from speclab.polynomial import SpherePoly, normal_monomials
from speclab.report import VerificationReport
from speclab.scalars import CRat

from oracles import gaussian_spinor, kron_gamma_matrices, mat_mul, refute_dirac_candidate


def rand_spinor(rng, n, deg=2):
    d = gamma_algebra(n).dim_spin
    comps = []
    monos = normal_monomials(n, deg)
    for _ in range(d):
        terms = {}
        for _ in range(3):
            e = rng.choice(monos)
            terms[e] = CRat(
                Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
            )
        comps.append({k: v for k, v in terms.items() if v})
    return gaussian_spinor(n, comps)


# ---------------------------------------------------------------------------
# gamma matrices
# ---------------------------------------------------------------------------


def test_gamma_relations_up_to_six():
    # the relations on dense products of the e(i) view, and x. x. = -1 on
    # every constant unit spinor through the suite's own x.
    for n in range(2, 7):
        alg = gamma_algebra(n)
        d = alg.dim_spin
        assert d == 2 ** ((n + 1) // 2)
        for i in range(n + 1):
            for j in range(i, n + 1):
                ij, ji = mat_mul(alg.e(i), alg.e(j)), mat_mul(alg.e(j), alg.e(i))
                want = CRat(-2) if i == j else CRat(0)
                for r in range(d):
                    for c in range(d):
                        assert ij[r][c] + ji[r][c] == (want if r == c else CRat(0))
        for slot in range(d):
            u = SpinorPoly.unit(n, slot)
            assert clifford_x(clifford_x(u)) == -u


def test_gamma_moves_match_the_kronecker_oracle():
    # e(i) entry by entry, and each pair move as the oracle product e_i e_j
    for n in range(2, 7):
        alg = gamma_algebra(n)
        oracle = kron_gamma_matrices(n)
        assert [alg.e(i) for i in range(n + 1)] == oracle
        pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
        assert sorted(alg.pair_moves) == pairs
        for i, j in pairs:
            want = mat_mul(oracle[i], oracle[j])
            got = [[CRat(0)] * alg.dim_spin for _ in range(alg.dim_spin)]
            for c, (r, p, q) in alg.pair_moves[i, j].items():
                got[r][c] = CRat(p, q)
            assert got == want, (n, i, j)


def test_negative_indices_are_refused():
    with pytest.raises(IndexError, match="slot -1 out of range for S\\^2"):
        SpinorPoly.unit(2, -1)
    with pytest.raises(IndexError, match="slot 2 out of range for S\\^2"):
        SpinorPoly.unit(2, 2)
    with pytest.raises(IndexError, match="gamma index -1 out of range for S\\^2"):
        gamma_algebra(2).e(-1)
    with pytest.raises(IndexError, match="gamma index 3 out of range for S\\^2"):
        gamma_algebra(2).e(3)


def test_negative_degrees_are_refused_under_the_callers_names():
    with pytest.raises(ValueError, match="^k must be >= 0, got -1$"):
        monogenic_dimension(2, -1)
    with pytest.raises(ValueError, match="^k must be >= 0, got -1$"):
        monogenic_basis(2, -1)
    with pytest.raises(ValueError, match="^j must be >= 0, got -1$"):
        eigenspinor_basis(2, -1, 1)


def test_gamma_algebra_cache_is_bounded():
    maxsize = gamma_algebra.cache_info().maxsize
    assert maxsize is not None
    for n in range(2, 13):
        assert gamma_algebra(n).dim_spin == 2 ** ((n + 1) // 2)
    assert gamma_algebra.cache_info().currsize <= maxsize


def test_gamma_traceless_and_square():
    for n in (2, 3, 4, 5):
        alg = gamma_algebra(n)
        for i in range(n + 1):
            tr = sum((alg.e(i)[r][r] for r in range(alg.dim_spin)), CRat(0))
            assert not tr
            sq = mat_mul(alg.e(i), alg.e(i))
            for r in range(alg.dim_spin):
                for c in range(alg.dim_spin):
                    assert sq[r][c] == (CRat(-1) if r == c else CRat(0))


# ---------------------------------------------------------------------------
# the angular operator and the Dirac foothold
# ---------------------------------------------------------------------------


def test_angular_on_constants_and_their_images():
    for n in (2, 3):
        psi0 = SpinorPoly.unit(n, 0)
        assert angular_apply(psi0).is_zero
        xpsi = clifford_x(psi0)
        assert (angular_apply(xpsi) - xpsi.scale(Fraction(n))).is_zero


def test_angular_on_linear_monogenics():
    # degree-1 monogenics are eigenvectors with eigenvalue -1
    for n in (2, 3):
        for m in monogenic_basis(n, 1):
            assert (angular_apply(m) + m).is_zero


def test_dirac_foothold_pair():
    for n in (2, 3):
        psi0 = SpinorPoly.unit(n, 0)
        xpsi = clifford_x(psi0)
        plus = psi0 + xpsi
        minus = psi0 - xpsi
        assert (dirac_apply(plus) + plus.scale(Fraction(n, 2))).is_zero
        assert (dirac_apply(minus) - minus.scale(Fraction(n, 2))).is_zero
        assert (dirac_squared(psi0) - psi0.scale(Fraction(n * n, 4))).is_zero


# ---------------------------------------------------------------------------
# commutator-defined operators
# ---------------------------------------------------------------------------


def test_y_square_sum_is_minus_n():
    for n in (2, 3):
        psi0 = SpinorPoly.unit(n, 0)
        acc = SpinorPoly.zero(n)
        for i in range(n + 1):
            acc = acc + y_apply(i, y_apply(i, psi0))
        assert (acc + psi0.scale(Fraction(n))).is_zero


def test_coordinate_y_sums_vanish_on_random_spinors():
    # twenty random spinor fields across the two model dimensions
    rng = random.Random(21)
    for n in (2, 3):
        for _ in range(12 if n == 2 else 8):
            psi = rand_spinor(rng, n)
            left = SpinorPoly.zero(n)
            right = SpinorPoly.zero(n)
            for i in range(n + 1):
                left = left + y_apply(i, psi).coordinate_mul(i)
                right = right + y_apply(i, psi.coordinate_mul(i))
            assert left.is_zero and right.is_zero


def test_u_square_sum_identity_on_random_spinors():
    rng = random.Random(22)
    n = 2
    for _ in range(5):
        psi = rand_spinor(rng, n, deg=1)
        acc = SpinorPoly.zero(n)
        for i in range(n + 1):
            acc = acc + U_spin(i, U_spin(i, psi))
        want = dirac_squared(psi) + psi.scale(Fraction(n, 4))
        assert (acc + want).is_zero


# ---------------------------------------------------------------------------
# monogenics and eigenspinor bases
# ---------------------------------------------------------------------------


def test_monogenic_dimensions():
    for n in (2, 3):
        for k in range(4):
            assert len(monogenic_basis(n, k)) == monogenic_dimension(n, k)


def test_eigenspinor_bases_are_exact():
    for n in (2, 3):
        for j in (0, 1, 2):
            for sign in (1, -1):
                lam = dirac_eigenvalue(n, j, sign)
                basis = eigenspinor_basis(n, j, sign)
                assert len(basis) == monogenic_dimension(n, j)
                for v in basis:
                    assert is_eigenspinor(v, lam)


# ---------------------------------------------------------------------------
# ladders
# ---------------------------------------------------------------------------


def test_ladder_targets_and_flip_example():
    # the bottom negative eigenspinor on S^2 climbs to E(-2) through S
    n = 2
    psi0 = SpinorPoly.unit(n, 0)
    psi = psi0 + clifford_x(psi0)
    lam = Fraction(-1)
    some_s = False
    for i in range(n + 1):
        A, S, Nv = spinor_ladders(i, psi, lam)
        assert is_eigenspinor(A, lam + 1)
        assert is_eigenspinor(S, lam - 1)
        assert is_eigenspinor(Nv, -lam)
        some_s = some_s or not S.is_zero
    assert some_s  # the summed factor -2(lam-n/2)(lam-1/2) = -6 is nonzero


def test_ladder_sum_factors_levels_up_to_three():
    n = 2
    half = Fraction(1, 2)
    for j in range(4):
        for sign in (1, -1):
            lam = dirac_eigenvalue(n, j, sign)
            for psi in eigenspinor_basis(n, j, sign)[:2]:
                sa = SpinorPoly.zero(n)
                as_ = SpinorPoly.zero(n)
                nn = SpinorPoly.zero(n)
                for i in range(n + 1):
                    A, S, Nv = spinor_ladders(i, psi, lam, check=False)
                    _, S2, _ = spinor_ladders(i, A, lam + 1, check=False)
                    sa = sa + S2
                    A3, _, _ = spinor_ladders(i, S, lam - 1, check=False)
                    as_ = as_ + A3
                    _, _, N4 = spinor_ladders(i, Nv, -lam, check=False)
                    nn = nn + N4
                assert (sa - psi.scale(-2 * (lam + Fraction(n, 2)) * (lam + half))).is_zero
                assert (as_ - psi.scale(-2 * (lam - Fraction(n, 2)) * (lam - half))).is_zero
                assert (nn - psi.scale((n - 1) * (lam + half) * (lam - half))).is_zero


def test_ladder_rejects_non_eigenspinor():
    n = 2
    psi = SpinorPoly.unit(n, 0) + clifford_x(SpinorPoly.unit(n, 1)).scale(Fraction(1, 3))
    from speclab.scalar_ops import NotEigenfunctionError

    with pytest.raises(NotEigenfunctionError):
        spinor_ladders(0, psi, Fraction(-1))


# ---------------------------------------------------------------------------
# truncation models
# ---------------------------------------------------------------------------


def test_truncation_spectrum_examples():
    m = truncation_matrices(2, 0)
    assert m.dim == 4
    assert m.spectrum() == [(Fraction(-1), 2, True), (Fraction(1), 2, True)]

    m = truncation_matrices(2, 1)
    assert m.spectrum() == [
        (Fraction(-2), 4, True),
        (Fraction(-1), 2, True),
        (Fraction(1), 2, True),
        (Fraction(2), 4, True),
    ]

    m = truncation_matrices(3, 1)
    assert [(lam, mult) for lam, mult, _ in m.spectrum()] == [
        (Fraction(-5, 2), 12),
        (Fraction(-3, 2), 4),
        (Fraction(3, 2), 4),
        (Fraction(5, 2), 12),
    ]


def _kernel_rows(m):
    """Reference spectrum: the nullity of (P - mu) at each lattice point."""
    rows = []
    for j in range(m.N + 2):
        for sign in (1, -1):
            mu = dirac_eigenvalue(m.n, j, sign)
            shifted = [
                [m.p_matrix[i][k] - (CRat(mu) if i == k else CRat(0)) for k in range(m.dim)]
                for i in range(m.dim)
            ]
            mult = len(nullspace(shifted, ncols=m.dim))
            if mult:
                rows.append((mu, mult, True))
    return sorted(rows)


@pytest.mark.parametrize("n, N", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (4, 1)])
def test_truncation_spectrum_matches_kernel_dimensions(n, N):
    m = truncation_matrices(n, N)
    want = _kernel_rows(m)
    assert sum(mult for _, mult, _ in want) == m.dim
    assert m.spectrum() == want


def test_truncation_spectrum_refuses_a_jordan_block():
    # eigenvalues on the lattice, but P - 1 is not diagonalizable
    one, zero = CRat(1), CRat(0)
    jordan = [
        [one, one, zero, zero],
        [zero, one, zero, zero],
        [zero, zero, -one, zero],
        [zero, zero, zero, -one],
    ]
    m = dataclasses.replace(truncation_matrices(2, 0), p_matrix=jordan)
    with pytest.raises(clifford.SpectrumError, match="Jordan block"):
        m.spectrum()


def test_truncation_spectrum_runs_without_a_float_eigensolver(monkeypatch):
    import numpy

    def refuse(*args, **kwargs):
        raise AssertionError("floating-point eigensolver called")

    monkeypatch.setattr(numpy.linalg, "eigvals", refuse)
    assert truncation_matrices(2, 2).spectrum() == [
        (Fraction(-3), 6, True),
        (Fraction(-2), 4, True),
        (Fraction(-1), 2, True),
        (Fraction(1), 2, True),
        (Fraction(2), 4, True),
        (Fraction(3), 6, True),
    ]


# ---------------------------------------------------------------------------
# refutation and the full suite
# ---------------------------------------------------------------------------


def test_dirac_refutation_descends_below_bound():
    for n in (2, 3):
        bound = Fraction(n * (n - 1), 4)
        for lam in (Fraction(7, 3), Fraction(12, 5), Fraction(31, 7)):
            chain = refute_dirac_candidate(n, lam)
            assert chain[-1] ** 2 < bound
            assert all(b == a - 1 for a, b in zip(chain, chain[1:]))
    with pytest.raises(ValueError):
        refute_dirac_candidate(2, Fraction(3))


def test_verify_spinor_identities_n2():
    rep = verify_spinor_identities(2, 1)
    assert rep.all_passed
    shifted = "sum_i (U_i + a x_i)^2 = a^2 - P^2 - n/4"
    odd = "P_(2k+1) (U_i - (k+1/2) x_i) = (U_i + (k+1/2) x_i) P_(2k+1)"
    assert [(c.identity_id, c.law) for c in rep.checks] == [
        ("clifford_relations", "e_i e_j + e_j e_i = -2 delta_ij"),
        ("dirac_conformal_covariance", "P (U_i - x_i/2) = (U_i + x_i/2) P"),
        ("y_square_sum", "sum_i y_i^2 = -n"),
        ("coordinate_y_sum", "sum_i x_i y_i = 0"),
        ("y_coordinate_sum", "sum_i y_i x_i = 0"),
        ("uy_commutator_sum", "sum_i [U_i, y_i] = 0"),
        ("u_square_sum_spinor", "sum_i U_i^2 = -P^2 - n/4"),
        ("shifted_square_sum_spinor_a=1", shifted),
        ("shifted_square_sum_spinor_a=-1", shifted),
        ("shifted_square_sum_spinor_a=3/2", shifted),
        ("odd_intertwinor_k=0", odd),
        ("odd_intertwinor_k=1", odd),
        ("ladder_a_raises", "P A_i = A_i (P + 1), A_i = U_i + x_i P + y_i/2"),
        ("ladder_s_lowers", "P S_i = S_i (P - 1), S_i = U_i - x_i P - y_i/2"),
        ("ladder_n_flips", "P N_i = -N_i P, N_i = U_i - x_i/2 - y_i P"),
        ("ladder_sum_sa", "sum_i S_i A_i = -2 (P + n/2)(P + 1/2)"),
        ("ladder_sum_as", "sum_i A_i S_i = -2 (P - n/2)(P - 1/2)"),
        ("ladder_sum_nn", "sum_i N_i N_i = (n - 1)(P + 1/2)(P - 1/2)"),
        ("dirac_anticommutes_with_x", "x. P + P x. = 0"),
        ("compressed_u_is_gap_times_x", "U_i between eigenspaces = ((mu^2-lam^2)/2) x_i"),
        ("coordinate_adjacency", "x_i E(lam) lies in E(lam+1) + E(lam-1) + E(-lam)"),
        (
            "adjacent_span_rank",
            "span{x_i E, P x_i E, P^2 x_i E} = E(lam+1) + E(lam-1) + E(-lam)",
        ),
        ("truncation_spectrum_lattice", "certified truncation spectrum lies on +-(n/2+j)"),
        ("spectral_bound", "lam^2 >= n(n-1)/4 on the model spectrum"),
    ]


LADDER_ROWS = (
    "ladder_a_raises",
    "ladder_s_lowers",
    "ladder_n_flips",
    "ladder_sum_sa",
    "ladder_sum_as",
    "ladder_sum_nn",
)


def test_spinor_law_table_is_falsifiable(monkeypatch, cold_dirac_caches):
    # the spinor table checked with its P shifted by a constant must fail
    n = 2
    basis = [
        SpinorPoly.unit(n, c, SpherePoly.monomial(n, e))
        for c in range(2)
        for e in normal_monomials(n, 1)
    ]
    rep = VerificationReport(scope="spinor", n=n, degree_cap=1)
    shifted = {"P": lambda psi: dirac_apply(psi) + psi.scale(1)}
    indexed = {"x": lambda i, psi: psi.coordinate_mul(i), "U": U_spin, "y": y_apply}
    rep.check_laws(basis, spinor_laws(n, 1), shifted, indexed)
    failed = {c.identity_id: c.counterexample for c in rep.failures()}
    assert {"dirac_conformal_covariance", "u_square_sum_spinor", *LADDER_ROWS} <= set(failed)
    for cx in failed.values():
        assert set(cx) == {"basis_vector", "index", "difference"}
    assert failed["dirac_conformal_covariance"]["index"] == 0
    assert failed["u_square_sum_spinor"]["index"] is None
    assert failed["ladder_a_raises"]["index"] == 0
    assert failed["ladder_sum_sa"]["index"] is None

    # the ladder rows once more, under P + 1 rebound at module level with
    # cold caches, so that U_i and y_i are built from the shifted P too:
    # sum_i A_i S_i + 2 (P - n/2)(P - 1/2) is blind to that shift, the
    # other five rows fail
    real = clifford.dirac_apply
    monkeypatch.setattr(clifford, "dirac_apply", lambda psi: real(psi) + psi)
    clifford._clear_operator_caches()
    ladders = [law for law in spinor_laws(n, 1) if law[0] in LADDER_ROWS]
    rep = VerificationReport(scope="spinor", n=n, degree_cap=1)
    rep.check_laws(basis, ladders, {"P": clifford.dirac_apply}, indexed)
    assert [c.identity_id for c in rep.failures()] == [
        row for row in LADDER_ROWS if row != "ladder_sum_as"
    ]


@pytest.mark.parametrize("n, js", [(2, range(4)), (3, range(3))])
def test_ladder_rows_hold_on_exact_eigenbases(n, js):
    # the suite checks the ladder and eigenspace rows on the monomials of
    # degree <= N, which span level N only through sums of its two signs;
    # each eigenbasis alone, up to level 3 at n = 2 and N = 2 at n = 3,
    # passes the rows too
    laws = [law for law in spinor_laws(n, 2) if law[0] in LADDER_ROWS]
    laws += clifford.EIGENSPACE_LAWS
    indexed = {"x": lambda i, psi: psi.coordinate_mul(i), "U": U_spin, "y": y_apply}
    for j in js:
        for sign in (1, -1):
            rep = VerificationReport(scope="spinor", n=n, degree_cap=j)
            rep.check_laws(eigenspinor_basis(n, j, sign), laws, {"P": dirac_apply}, indexed)
            assert [c.identity_id for c in rep.checks] == [law[0] for law in laws]
            assert rep.all_passed, (j, sign, rep.failures())


def test_golden_failing_spinor_report():
    # with P shifted by 1/3 on S^3 the report carries counterexamples, which
    # print spinors with Gaussian-rational coefficients: pinned to the byte
    n = 3
    basis = [
        SpinorPoly.unit(n, c, SpherePoly.monomial(n, e))
        for c in range(4)
        for e in normal_monomials(n, 1)
    ]
    rep = VerificationReport(scope="spinor", n=n, degree_cap=1)
    shifted = {"P": lambda psi: dirac_apply(psi) + psi.scale(Fraction(1, 3))}
    indexed = {"x": lambda i, psi: psi.coordinate_mul(i), "U": U_spin, "y": y_apply}
    rep.check_laws(basis, spinor_laws(n, 1), shifted, indexed)
    assert len(rep.failures()) == 13
    digest = "e6df900c2c9624e1d157faed3a3a2345bbbe601a9c3e003573f3e6c97184d991"
    assert hashlib.sha256(rep.to_json().encode()).hexdigest() == digest


def test_verify_spinor_identities_refuses_cap_outside_one_to_two():
    # a cost guard refuses work; it never quietly shrinks it
    for N in (0, 3):
        with pytest.raises(ValueError):
            verify_spinor_identities(2, N)


# ---------------------------------------------------------------------------
# the column-memoized Dirac operator
# ---------------------------------------------------------------------------


@pytest.fixture
def cold_dirac_caches():
    # the exact eigenbases of the n=2, N=1 suite come from the true P, as in
    # a warm session; built under a corrupted P, their foothold check raises
    for j in range(3):
        for sign in (1, -1):
            eigenspinor_basis(2, j, sign)
    clifford._clear_operator_caches()
    yield
    clifford._clear_operator_caches()


def test_dirac_column_map_matches_reference(cold_dirac_caches):
    rng = random.Random(20261018)
    for n in (2, 3, 4):
        psis = [rand_spinor(rng, n, deg=4) for _ in range(4)]
        psis.append(SpinorPoly.unit(n, 0, SpherePoly.monomial(n, normal_monomials(n, 4)[-1])))
        want = [dirac_reference(psi) for psi in psis]
        assert [dirac_apply(psi) for psi in psis] == want  # column map cold
        assert [dirac_apply(psi) for psi in psis] == want  # per-spinor cache hits
        clifford._DIRAC_CACHE.clear()
        assert [dirac_apply(psi) for psi in psis] == want  # warm columns only
        for psi in psis:
            for comp in dirac_apply(psi).components:
                assert all(v for v in comp.values())
                assert all(e[0] <= 1 for e in comp)


def test_u_and_y_column_maps_match_reference(cold_dirac_caches):
    # U_i = (1/2)[P^2, x_i] and y_i = [P, x_i] through the reference route
    # of P, against the memoized U_i and y_i: cold, on per-spinor result
    # hits, and from the columns alone once the results are dropped
    def p2(psi):
        return dirac_reference(dirac_reference(psi))

    half = Fraction(1, 2)
    rng = random.Random(20261019)
    for n in (2, 3, 4):
        psis = [rand_spinor(rng, n) for _ in range(3)]
        cases = [(rng.randrange(n + 1), psi) for psi in psis]
        want = [
            (
                SpinorPoly.combination(
                    [(half, p2(psi.coordinate_mul(i))), (-half, p2(psi).coordinate_mul(i))]
                ),
                dirac_reference(psi.coordinate_mul(i)) - dirac_reference(psi).coordinate_mul(i),
            )
            for i, psi in cases
        ]

        def images():
            return [(U_spin(i, psi), y_apply(i, psi)) for i, psi in cases]

        assert images() == want  # cold
        assert images() == want  # per-spinor result hits
        for table in (clifford._DIRAC_CACHE, clifford._U_CACHE, clifford._Y_CACHE):
            table.clear()
        assert images() == want  # warm columns only


SUITE_TABLES = (
    "_DIRAC_CACHE",
    "_U_CACHE",
    "_Y_CACHE",
    "_DIRAC_COLUMNS",
    "_U_COLUMNS",
    "_Y_COLUMNS",
    "_X_CACHE",
    "_SPAN_CACHE",
    "_SPECTRUM_CACHE",
)


def test_warm_suite_builds_no_column_and_grows_no_table(monkeypatch):
    # a second run of the suite in one process reads every image of P, U_i
    # and y_i from the per-spinor results, and every x. image, span rank
    # and truncation outcome from its memo: no column is built, no
    # Clifford product or row reduction is made and no table changes size
    from speclab import _kernel

    tables = {name: getattr(clifford, name) for name in SUITE_TABLES}
    assert verify_spinor_identities(2, 1).all_passed
    sizes = {name: len(table) for name, table in tables.items()}
    assert all(sizes.values())
    built = []

    def counted(build):
        def column(*key):
            built.append(key)
            return build(*key)

        return column

    for name in ("_p_column", "_u_column", "_y_column", "clifford_x"):
        monkeypatch.setattr(clifford, name, counted(getattr(clifford, name)))
    monkeypatch.setattr(_kernel, "rref", counted(_kernel.rref))
    assert verify_spinor_identities(2, 1).all_passed
    assert built == []
    assert {name: len(table) for name, table in tables.items()} == sizes


def test_memoized_x_matches_the_plain_product(cold_dirac_caches):
    # the suite's x. against the plain Clifford product: cold, on result
    # hits and after a clear; the reference route of P stores nothing
    rng = random.Random(20261020)
    for n in (2, 3, 4):
        psis = [rand_spinor(rng, n, deg=3) for _ in range(4)]
        want = [clifford_x(psi) for psi in psis]
        assert [clifford._x_image(psi) for psi in psis] == want  # cold
        assert [clifford._X_CACHE[psi] for psi in psis] == want
        assert [clifford._x_image(psi) for psi in psis] == want  # result hits
        size = len(clifford._X_CACHE)
        dirac_reference(psis[0])
        assert len(clifford._X_CACHE) == size
        clifford._clear_operator_caches()
        assert not clifford._X_CACHE
        assert [clifford._x_image(psi) for psi in psis] == want  # after a clear


def test_suite_memos_stay_bounded(monkeypatch, cold_dirac_caches):
    # x. images are bounded like the operator tables
    n = 2
    targets = [b.coordinate_mul(i) for b in eigenspinor_basis(n, 0, 1) for i in range(n + 1)]
    targets += [b.coordinate_mul(i) for b in eigenspinor_basis(n, 1, -1) for i in range(n + 1)]
    want_x = [clifford_x(psi) for psi in targets]
    assert len(targets) > 8
    clifford._X_CACHE.clear()
    monkeypatch.setattr(clifford._X_CACHE, "limit", 3)
    for _ in range(2):  # the second pass mixes hits and misses
        assert [clifford._x_image(psi) for psi in targets] == want_x
        assert len(clifford._X_CACHE) <= 3


def _corrupt_dirac_column(monkeypatch, bad_key):
    """Add 1 to the diagonal entry of one column of P."""
    build = clifford._p_column

    def corrupted(n, slot, e):
        if (n, slot, e) != bad_key:
            return build(n, slot, e)
        unit = clifford._unit(n, slot, e)
        return dirac_reference(unit) + unit

    monkeypatch.setattr(clifford, "_p_column", corrupted)


def test_dirac_column_map_is_falsifiable(monkeypatch, cold_dirac_caches):
    # one column off by a constant: the suite runs on the memoized columns,
    # so it must fail, although the reference route is untouched
    bad_key = (2, 0, (0, 3, 0))
    _corrupt_dirac_column(monkeypatch, bad_key)
    rep = verify_spinor_identities(2, 1)
    failed = {c.identity_id: c.counterexample for c in rep.failures()}
    assert "dirac_conformal_covariance" in failed
    cx = failed["dirac_conformal_covariance"]
    assert set(cx) == {"basis_vector", "index", "difference"}
    assert cx["difference"]
    assert bad_key in clifford._DIRAC_COLUMNS


WRONG_COLUMN_CASES = [
    # x_i leaves the adjacent eigenspaces: ((P - L)^2 - 1)(P + L) x_i is
    # nonzero, for the column of x0 x1 x2 in slot 1 first on x0 at i = 2 ...
    (
        (2, 1, (1, 1, 1)),
        "coordinate_adjacency",
        "'basis_vector': 'SpinorPoly(n=2, [1/1+0/1 i * x0^1; 0])', 'index': 2",
    ),
    # ... for the column of x1 in slot 0 on the constant spinor at i = 1
    (
        (2, 0, (0, 1, 0)),
        "coordinate_adjacency",
        "'basis_vector': 'SpinorPoly(n=2, [1/1+0/1 i; 0])', 'index': 1",
    ),
    # the truncation spectrum leaves the half-integer lattice
    ((2, 0, (0, 0, 0)), "truncation_spectrum_lattice", "off the lattice"),
    # ... and for the column of x2 in slot 0 on the constant spinor at i = 0
    (
        (2, 0, (0, 0, 1)),
        "coordinate_adjacency",
        "'basis_vector': 'SpinorPoly(n=2, [1/1+0/1 i; 0])', 'index': 0",
    ),
]


def test_cleared_warm_caches_see_a_corrupted_column(monkeypatch, cold_dirac_caches):
    # after a passing warm run, a wrong column of P and a cleared cache give
    # the report of a cold run under that column: no image of P, U_i or y_i,
    # no span rank and no truncation outcome from the true P survives the
    # clear.  Each pinned column in turn; the cold runs start from tables
    # emptied one by one, not by the clear under test.
    tables = [getattr(clifford, name) for name in SUITE_TABLES]
    for bad_key, _, _ in WRONG_COLUMN_CASES:
        for table in tables:
            table.clear()
        with monkeypatch.context() as mp:
            _corrupt_dirac_column(mp, bad_key)
            cold = verify_spinor_identities(2, 1)
        assert not cold.all_passed
        clifford._clear_operator_caches()
        assert verify_spinor_identities(2, 1).all_passed
        assert verify_spinor_identities(2, 1).all_passed  # warm: every memo hit
        with monkeypatch.context() as mp:
            _corrupt_dirac_column(mp, bad_key)
            clifford._clear_operator_caches()
            assert not any(tables)
            assert verify_spinor_identities(2, 1).to_json() == cold.to_json(), bad_key


@pytest.mark.parametrize("bad_key, check, detail", WRONG_COLUMN_CASES)
def test_wrong_dirac_column_fails_the_suite(
    monkeypatch, capsys, cold_dirac_caches, bad_key, check, detail
):
    # a wrong P is a verification failure (exit 1), never a usage error or
    # an internal invariant failure
    from speclab.cli import main

    _corrupt_dirac_column(monkeypatch, bad_key)
    rep = verify_spinor_identities(2, 1)
    failed = {c.identity_id: c.counterexample for c in rep.failures()}
    assert "dirac_conformal_covariance" in failed
    assert detail in str(failed[check])
    if check == "truncation_spectrum_lattice":
        # both spectrum checks pass exactly when the spectrum certifies
        assert failed["spectral_bound"] == failed[check]
    clifford._clear_operator_caches()
    assert main(["--jobs", "1", "verify", "spinor", "--n", "2", "--N", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["all_passed"] is False


def _spinor_corruptions() -> dict:
    """name -> a function that applies one corruption to a monkeypatch
    context, by rebinding a module-level name of ``clifford``: the suite
    and every column built after it see the rebound name."""
    p, u, y, x = clifford.dirac_apply, U_spin, y_apply, clifford_x
    # e_0 replaced by e_1, with the pair moves composed again
    wrong = clifford.GammaAlgebra(2)
    wrong.moves[0] = wrong.moves[1]
    wrong.pair_moves = {
        (i, j): clifford._product_moves(wrong.moves[i], wrong.moves[j]) for i, j in wrong.pair_moves
    }

    def rebind(name, value):
        return lambda mp: mp.setattr(clifford, name, value)

    return {
        "P + 1": rebind("dirac_apply", lambda psi: p(psi) + psi),
        "2 U_i": rebind("U_spin", lambda i, psi: u(i, psi).scale(2)),
        "U_i + x_i": rebind("U_spin", lambda i, psi: u(i, psi) + psi.coordinate_mul(i)),
        "2 y_i": rebind("y_apply", lambda i, psi: y(i, psi).scale(2)),
        "y_i + x_i": rebind("y_apply", lambda i, psi: y(i, psi) + psi.coordinate_mul(i)),
        "y_i + x.": rebind("y_apply", lambda i, psi: y(i, psi) + x(psi)),
        # the Clifford product, so also P = x.(G - n/2) built from it
        "2 x.": rebind("clifford_x", lambda psi: x(psi).scale(2)),
        "P column + 1": lambda mp: _corrupt_dirac_column(mp, (2, 0, (0, 1, 0))),
        "e_0 = e_1": rebind("gamma_algebra", lambda n: wrong),
    }


# corruptions that make P wrong; P + 1 leaves y_i = [P, x_i] and the
# spans P^k x_i E unchanged
WRONG_P = {"P + 1", "2 x.", "P column + 1", "e_0 = e_1"}
WRONG_U = {"2 U_i", "U_i + x_i"}
WRONG_Y = {"2 y_i", "y_i + x_i", "y_i + x."}
ALL_CORRUPTIONS = WRONG_P | WRONG_U | WRONG_Y
# row id of verify_spinor_identities(2, 1) -> the corruptions that fail it
SPINOR_CORRUPTION_TABLE = {
    "clifford_relations": {"e_0 = e_1", "2 x."},
    "dirac_conformal_covariance": WRONG_P | WRONG_U,
    "y_square_sum": WRONG_Y | (WRONG_P - {"P + 1"}),
    "coordinate_y_sum": {"y_i + x_i", "y_i + x.", "P column + 1"},
    "y_coordinate_sum": {"y_i + x_i", "y_i + x.", "P column + 1"},
    "uy_commutator_sum": {"y_i + x_i", "P column + 1", "e_0 = e_1"},
    "u_square_sum_spinor": WRONG_P | WRONG_U,
    "shifted_square_sum_spinor_a=1": WRONG_P | WRONG_U,
    "shifted_square_sum_spinor_a=-1": WRONG_P | WRONG_U,
    "shifted_square_sum_spinor_a=3/2": WRONG_P | WRONG_U,
    "odd_intertwinor_k=0": WRONG_P | WRONG_U,
    "odd_intertwinor_k=1": WRONG_P | WRONG_U,
    "ladder_a_raises": ALL_CORRUPTIONS,
    "ladder_s_lowers": ALL_CORRUPTIONS,
    "ladder_n_flips": ALL_CORRUPTIONS - {"y_i + x."},
    "ladder_sum_sa": ALL_CORRUPTIONS,
    "ladder_sum_as": ALL_CORRUPTIONS - {"P + 1"},
    "ladder_sum_nn": ALL_CORRUPTIONS,
    "dirac_anticommutes_with_x": {"P + 1", "P column + 1", "e_0 = e_1"},
    "compressed_u_is_gap_times_x": WRONG_U,
    "coordinate_adjacency": WRONG_P,
    "adjacent_span_rank": {"P column + 1", "e_0 = e_1"},
    "truncation_spectrum_lattice": WRONG_P,
    "spectral_bound": WRONG_P,
}


def test_spinor_corruption_table(monkeypatch, cold_dirac_caches):
    # every row of the spinor suite fails under some corruption, and each
    # corruption, run once with cold operator caches, fails exactly the
    # rows the table names for it
    rows = [c.identity_id for c in verify_spinor_identities(2, 1).checks]
    assert sorted(rows) == sorted(SPINOR_CORRUPTION_TABLE)
    assert all(SPINOR_CORRUPTION_TABLE.values())
    failing = {}
    for name, corrupt in _spinor_corruptions().items():
        clifford._clear_operator_caches()
        with monkeypatch.context() as mp:
            corrupt(mp)
            failing[name] = {c.identity_id for c in verify_spinor_identities(2, 1).failures()}
        clifford._clear_operator_caches()
    want = {
        name: {row for row, names in SPINOR_CORRUPTION_TABLE.items() if name in names}
        for name in ALL_CORRUPTIONS
    }
    assert failing == want


def _rows_failed_by(name: str) -> set:
    return {row for row, names in SPINOR_CORRUPTION_TABLE.items() if name in names}


@pytest.mark.parametrize("n, N", [(2, 1), (2, 2), (3, 1)])
def test_warm_spinor_report_is_byte_identical(n, N, cold_dirac_caches):
    # the first request keeps no check_laws memo, the second keeps the
    # images and pass marks of every unit of degree <= N + 3, and the third
    # reads them back
    first = verify_spinor_identities(n, N).to_json()
    assert not report._SUITE_MEMOS
    assert verify_spinor_identities(n, N).to_json() == first
    units = clifford.gamma_algebra(n).dim_spin * len(normal_monomials(n, N + 3))
    assert len(report._SUITE_MEMOS) == units
    assert verify_spinor_identities(n, N).to_json() == first


def test_kept_spinor_memos_are_emptied_with_the_operator_caches(monkeypatch, cold_dirac_caches):
    # _p_column is not in the key: after two clean runs, a wrong column and
    # the clear fail exactly the rows of the corruption table, on a cold and
    # on warm repeats
    for _ in range(2):
        assert verify_spinor_identities(2, 1).all_passed
    assert report._SUITE_MEMOS
    with monkeypatch.context() as mp:
        _spinor_corruptions()["P column + 1"](mp)
        clifford._clear_operator_caches()
        assert not report._SUITE_MEMOS
        for _ in range(3):
            failed = {c.identity_id for c in verify_spinor_identities(2, 1).failures()}
            assert failed == _rows_failed_by("P column + 1")
    clifford._clear_operator_caches()


def test_a_rebound_dirac_apply_gets_kept_memos_of_its_own(monkeypatch, cold_dirac_caches):
    # without a clear, P + 1 is new operators in the key: every request
    # under it gives the same failing report, and the kept memos of the
    # true P stay beside its own.  Its law rows of the corruption table
    # fail; the span ranks and the truncation outcome of the true P are
    # memoized in clifford itself, so those rows need the clear, and the
    # warm U_i of the true P fail two rows more than a cold run does.
    for _ in range(2):
        assert verify_spinor_identities(2, 1).all_passed
    kept = dict(report._SUITE_MEMOS)
    with monkeypatch.context() as mp:
        _spinor_corruptions()["P + 1"](mp)
        runs = [verify_spinor_identities(2, 1) for _ in range(3)]
    assert runs[0].to_json() == runs[1].to_json() == runs[2].to_json()
    failed = {c.identity_id for c in runs[0].failures()}
    laws = _rows_failed_by("P + 1") - {"truncation_spectrum_lattice", "spectral_bound"}
    assert failed == laws | {"compressed_u_is_gap_times_x", "ladder_sum_as"}
    assert kept.items() <= report._SUITE_MEMOS.items()
    assert len(report._SUITE_MEMOS) == 2 * len(kept)
    assert verify_spinor_identities(2, 1).all_passed


def test_zero_clifford_x_fails_only_the_clifford_relations(monkeypatch, cold_dirac_caches):
    # a zero x. satisfies x. P + P x. = 0, and with warm eigenbases builds
    # no foothold; x. x. = -1 catches it
    assert verify_spinor_identities(2, 1).all_passed
    clifford._clear_operator_caches()
    monkeypatch.setattr(clifford, "_x_image", lambda psi: SpinorPoly.zero(psi.n))
    failed = {c.identity_id: c.counterexample for c in verify_spinor_identities(2, 1).failures()}
    assert set(failed) == {"clifford_relations"}
    assert failed["clifford_relations"]["index"] is None


def test_adjacent_span_rank_names_the_first_failing_level(monkeypatch, cold_dirac_caches):
    # with the eigenbases built from the true P, a wrong column of degree 3
    # leaves the level-0 spans intact and breaks those of level 1
    _corrupt_dirac_column(monkeypatch, (2, 1, (1, 1, 1)))
    failed = {c.identity_id: c.counterexample for c in verify_spinor_identities(2, 1).failures()}
    assert failed["adjacent_span_rank"] == {"level": 1, "sign": 1}


def test_adjacent_span_rank_checks_membership_not_only_rank(monkeypatch, cold_dirac_caches):
    # the adjacent levels with their signs flipped have the same total
    # dimension (at n = 2, (1,+1)+(0,-1) becomes (1,-1)+(0,+1), 6 = 6), so
    # only the span-membership half of the check can tell them apart
    real = clifford._adjacent_levels
    for j in range(2):
        for sign in (1, -1):
            assert clifford._span_rank_identity(2, j, sign)
            levels = real(2, j, sign)
            flipped = [(mu_j, -mu_sign) for mu_j, mu_sign in levels]
            dims = [sum(len(eigenspinor_basis(2, *mu)) for mu in ls) for ls in (levels, flipped)]
            assert flipped != levels and dims[0] == dims[1]
    with monkeypatch.context() as mp:
        mp.setattr(
            clifford,
            "_adjacent_levels",
            lambda n, j, sign: [(mu_j, -mu_sign) for mu_j, mu_sign in real(n, j, sign)],
        )
        clifford._SPAN_CACHE.clear()
        for j in range(2):
            for sign in (1, -1):
                assert not clifford._span_rank_identity(2, j, sign), (j, sign)


def test_wrong_dirac_column_model_is_refused_or_matches_kernels(monkeypatch, cold_dirac_caches):
    # every column the n=2, N=1 suite builds, corrupted in turn: the model
    # either refuses to certify or agrees with the kernel dimensions
    verify_spinor_identities(2, 1)
    keys = sorted(clifford._DIRAC_COLUMNS)
    # U_i and y_i are column maps built from P one unit monomial at a
    # time, so P meets columns up to degree 5 that a summed route cancels
    assert len(keys) == 72
    reasons = set()
    for bad_key in keys:
        clifford._DIRAC_CACHE.clear()
        clifford._DIRAC_COLUMNS.pop(bad_key, None)
        with monkeypatch.context() as mp:
            _corrupt_dirac_column(mp, bad_key)
            try:
                m = truncation_matrices(2, 1)
                rows = m.spectrum()
            except clifford.SpectrumError as exc:
                reasons.add(str(exc).split(":")[0])
            else:
                assert rows == _kernel_rows(m), bad_key
        clifford._DIRAC_CACHE.clear()
        clifford._DIRAC_COLUMNS.pop(bad_key, None)
    assert reasons == {
        "model space is not P-invariant",
        "eigenvalue off the lattice or a Jordan block",
    }


def test_wrong_dirac_column_scan_catches_every_column(monkeypatch, cold_dirac_caches):
    # every column the n=2, N=1 suite builds, corrupted in turn with cold
    # column maps: the suite fails for all 72.  The other checks see the
    # 32 columns of degree <= 3; x. P + P x. = 0 on the units of degree
    # <= 4 also reads the columns of degree 4 and 5.
    verify_spinor_identities(2, 1)
    keys = sorted(clifford._DIRAC_COLUMNS)
    caught = []
    caught_without_x_law = []
    for bad_key in keys:
        clifford._clear_operator_caches()
        with monkeypatch.context() as mp:
            _corrupt_dirac_column(mp, bad_key)
            failed = {c.identity_id for c in verify_spinor_identities(2, 1).failures()}
            if failed:
                caught.append(bad_key)
            if failed - {"dirac_anticommutes_with_x"}:
                caught_without_x_law.append(bad_key)
        clifford._clear_operator_caches()
    assert len(keys) == 72
    assert caught == keys
    assert caught_without_x_law == [key for key in keys if sum(key[2]) <= 3]


@pytest.mark.parametrize("n, N", [(2, 1), (2, 2), (3, 1)])
def test_cold_suite_builds_p_columns_up_to_degree_n_plus_four(n, N):
    # dirac_anticommutes_with_x runs on the units of degree <= N + 3, so
    # that P x. reads the top columns: the suite builds none above N + 4
    clifford._eigenspinor_basis_cached.cache_clear()
    clifford._clear_operator_caches()
    try:
        assert verify_spinor_identities(n, N).all_passed
        degrees = {sum(e) for (_, _, e) in clifford._DIRAC_COLUMNS}
        assert max(degrees) == N + 4
    finally:
        clifford._clear_operator_caches()


def test_wrong_dirac_column_with_cold_eigenbases_fails_the_suite(monkeypatch, capsys):
    # built under a wrong P, an eigenbasis fails its foothold check: called
    # directly that raises, but the suite reports it as failed checks (exit 1)
    from speclab.cli import main

    clifford._eigenspinor_basis_cached.cache_clear()
    clifford._clear_operator_caches()
    _corrupt_dirac_column(monkeypatch, (2, 0, (0, 1, 0)))
    try:
        with pytest.raises(clifford.FootholdError):
            eigenspinor_basis(2, 0, 1)
        assert main(["--jobs", "1", "verify", "spinor", "--n", "2", "--N", "1"]) == 1
        payload = json.loads(capsys.readouterr().out)
        failed = {
            c["identity_id"]: c["counterexample"]
            for c in payload["spinor"]["checks"]
            if c["status"] == "fail"
        }
        assert "foothold vector fails the eigen test" in failed["adjacent_span_rank"]["error"]
        # the ladder and eigenspace rows need no eigenbasis: they fail on
        # the monomial basis with a counterexample of their own
        for check in LADDER_ROWS + ("coordinate_adjacency",):
            assert set(failed[check]) == {"basis_vector", "index", "difference"}
    finally:
        clifford._eigenspinor_basis_cached.cache_clear()
        clifford._clear_operator_caches()


def test_basis_caches_stay_bounded(monkeypatch):
    from functools import lru_cache

    for cached in (clifford._monogenic_basis_cached, clifford._eigenspinor_basis_cached):
        assert cached.cache_info().maxsize is not None
    want = {(j, s): eigenspinor_basis(2, j, s) for j in range(3) for s in (1, -1)}
    for name in ("_monogenic_basis_cached", "_eigenspinor_basis_cached"):
        small = lru_cache(maxsize=1)(getattr(clifford, name).__wrapped__)
        monkeypatch.setattr(clifford, name, small)
    for _ in range(2):
        for (j, s), basis in want.items():
            assert eigenspinor_basis(2, j, s) == basis
            assert clifford._eigenspinor_basis_cached.cache_info().currsize <= 1
            assert clifford._monogenic_basis_cached.cache_info().currsize <= 1
