"""Gamma algebra, the algebraic Dirac model, spinor ladders, truncation
models with certified spectra."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest

from speclab import clifford
from speclab.clifford import (
    SpinorPoly,
    U_spin,
    angular_apply,
    clifford_x,
    decompose_by_levels,
    dirac_apply,
    dirac_eigenvalue,
    dirac_reference,
    dirac_squared,
    eigenspinor_basis,
    gamma_algebra,
    is_eigenspinor,
    monogenic_basis,
    monogenic_dimension,
    refute_dirac_candidate,
    spinor_ladders,
    spinor_laws,
    truncation_matrices,
    verify_spinor_identities,
    y_apply,
)
from speclab.linalg import nullspace
from speclab.polynomial import SpherePoly, normal_monomials
from speclab.report import VerificationReport
from speclab.scalars import CRat, parse_crat


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
        comps.append(SpherePoly(n, {k: v for k, v in terms.items() if v}))
    return SpinorPoly(n, comps)


# ---------------------------------------------------------------------------
# gamma matrices
# ---------------------------------------------------------------------------


def test_gamma_relations_up_to_six():
    for n in range(2, 7):
        alg = gamma_algebra(n)
        assert alg.dim_spin == 2 ** ((n + 1) // 2)
        assert alg.check_relations()


def test_gamma_traceless_and_square():
    for n in (2, 3, 4, 5):
        alg = gamma_algebra(n)
        for i in range(n + 1):
            tr = sum((alg.e(i)[r][r] for r in range(alg.dim_spin)), CRat(0))
            assert not tr
            sq = alg.pair(i, i)
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


def test_level_decomposition_supports_compression_identity():
    n = 2
    j, sign = 0, 1
    lam = dirac_eigenvalue(n, j, sign)
    psi = eigenspinor_basis(n, j, sign)[0]
    for i in range(n + 1):
        parts_x = decompose_by_levels(psi.coordinate_mul(i), j + 1)
        parts_u = decompose_by_levels(U_spin(i, psi), j + 1)
        for key in set(parts_x) | set(parts_u):
            mu = dirac_eigenvalue(n, key[0], key[1])
            cx = parts_x.get(key, SpinorPoly.zero(n))
            cu = parts_u.get(key, SpinorPoly.zero(n))
            assert (cu - cx.scale((mu * mu - lam * lam) / 2)).is_zero
            # adjacency: only the three cubic roots can appear
            if not cx.is_zero:
                assert mu in (lam + 1, lam - 1, -lam)


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


def test_truncation_spectrum_csv():
    m = truncation_matrices(2, 0)
    lines = m.spectrum_csv().strip().splitlines()
    assert lines[0] == "eigenvalue,multiplicity,certified"
    assert lines[1] == "-1,2,true"


def test_compressed_coordinate_matrix_between_contained_levels():
    # inside the model, the compression of U_i equals the eigenvalue-gap
    # factor times the compression of x_i on each eigenvector
    from speclab.linalg import mat_vec

    m = truncation_matrices(2, 0)
    x0 = m.coordinate_matrix(0)
    u0 = m.u_matrix(0)
    # eigenvectors of the model at +-1
    saw_nonzero_x = False
    for lam in (Fraction(1), Fraction(-1)):
        shifted = [
            [m.p_matrix[i][j] - (CRat(lam) if i == j else CRat(0)) for j in range(m.dim)]
            for i in range(m.dim)
        ]
        for vec in nullspace(shifted, ncols=m.dim):
            xv = mat_vec(x0, vec)
            uv = mat_vec(u0, vec)
            # the only level inside the N=0 model besides lam is -lam, where
            # the gap factor (mu^2 - lam^2)/2 vanishes: compressed U_i kills
            # every eigenvector while compressed x_i generally does not
            assert all(not u for u in uv)
            saw_nonzero_x = saw_nonzero_x or any(bool(x) for x in xv)
    assert saw_nonzero_x


def test_operator_matrix_matches_stored_dirac():
    m = truncation_matrices(2, 1)
    assert m.operator_matrix(dirac_apply) == m.p_matrix
    # no finite space is invariant under coordinate multiplication
    with pytest.raises(ValueError, match="escapes the model space"):
        m.operator_matrix(lambda s: s.coordinate_mul(0))


def test_decompose_outside_range_raises():
    psi = eigenspinor_basis(2, 2, 1)[0]
    with pytest.raises(ValueError):
        decompose_by_levels(psi, 1)


def test_matrix_json_roundtrip():
    m = truncation_matrices(2, 0)
    payload = json.loads(m.matrix_json("dirac"))
    assert payload["shape"] == [4, 4]
    for row in payload["rows"]:
        for s in row:
            parse_crat(s)
    payload = json.loads(m.matrix_json("x0"))
    assert payload["operator"] == "x0"


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
    rep = verify_spinor_identities(2, 1, k_max=1)
    assert rep.all_passed
    shifted = "sum_i (U_i + a x_i)^2 = a^2 - P^2 - n/4"
    odd = "P_(2k+1) (U_i - (k+1/2) x_i) = (U_i + (k+1/2) x_i) P_(2k+1)"
    ladder = "ladder targets and the three summed factors"
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
        ("ladder_suite_j=0_sign=1", ladder),
        ("ladder_suite_j=0_sign=-1", ladder),
        ("ladder_suite_j=1_sign=1", ladder),
        ("ladder_suite_j=1_sign=-1", ladder),
        ("compressed_u_is_gap_times_x", "U_i between eigenspaces = ((mu^2-lam^2)/2) x_i"),
        ("coordinate_adjacency", "x_i E(lam) lies in E(lam+1) + E(lam-1) + E(-lam)"),
        (
            "adjacent_span_rank",
            "span{x_i E, P x_i E, P^2 x_i E} = E(lam+1) + E(lam-1) + E(-lam)",
        ),
        ("truncation_spectrum_lattice", "certified truncation spectrum lies on +-(n/2+j)"),
        ("spectral_bound", "lam^2 >= n(n-1)/4 on the model spectrum"),
    ]


def test_spinor_law_table_is_falsifiable():
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
    assert {"dirac_conformal_covariance", "u_square_sum_spinor"} <= set(failed)
    for cx in failed.values():
        assert set(cx) == {"basis_vector", "index", "difference"}
    assert failed["dirac_conformal_covariance"]["index"] == 0
    assert failed["u_square_sum_spinor"]["index"] is None


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
    clifford._DIRAC_CACHE.clear()
    clifford._DIRAC_COLUMNS.clear()
    yield
    clifford._DIRAC_CACHE.clear()
    clifford._DIRAC_COLUMNS.clear()


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
                assert all(v for v in comp.terms.values())
                assert all(e[0] <= 1 for e in comp.terms)


def _corrupt_dirac_column(monkeypatch, bad_key):
    """Add 1 to the diagonal entry of one column of P."""
    build = clifford._dirac_column

    def corrupted(n, slot, e):
        col = build(n, slot, e)
        if (n, slot, e) != bad_key:
            return col
        image = [dict(terms) for terms in col]
        image[slot][e] = image[slot].get(e, CRat(0)) + CRat(1)
        return tuple(tuple((f, c) for f, c in t.items() if c) for t in image)

    monkeypatch.setattr(clifford, "_dirac_column", corrupted)


def test_dirac_column_map_is_falsifiable(monkeypatch, cold_dirac_caches):
    # one column off by a constant: the suite runs on the memoized columns,
    # so it must fail, although the reference route is untouched
    bad_key = (2, 0, (0, 3, 0))
    _corrupt_dirac_column(monkeypatch, bad_key)
    rep = verify_spinor_identities(2, 1, k_max=1)
    failed = {c.identity_id: c.counterexample for c in rep.failures()}
    assert "dirac_conformal_covariance" in failed
    cx = failed["dirac_conformal_covariance"]
    assert set(cx) == {"basis_vector", "index", "difference"}
    assert cx["difference"]
    assert bad_key in clifford._DIRAC_COLUMNS


@pytest.mark.parametrize(
    "bad_key, check, detail",
    [
        # U_i of an eigenspinor leaves the levels the decomposition covers
        ((2, 1, (1, 1, 1)), "compressed_u_is_gap_times_x", "outside levels 0..2"),
        # ... or lands there with the wrong factor
        ((2, 0, (0, 1, 0)), "compressed_u_is_gap_times_x", "'target': '1'"),
        # the truncation spectrum leaves the half-integer lattice
        ((2, 0, (0, 0, 0)), "truncation_spectrum_lattice", "off the lattice"),
    ],
)
def test_wrong_dirac_column_fails_the_suite(
    monkeypatch, capsys, cold_dirac_caches, bad_key, check, detail
):
    # a wrong P is a verification failure (exit 1), never a usage error or
    # an internal invariant failure
    from speclab.cli import main

    _corrupt_dirac_column(monkeypatch, bad_key)
    rep = verify_spinor_identities(2, 1, k_max=1)
    failed = {c.identity_id: c.counterexample for c in rep.failures()}
    assert "dirac_conformal_covariance" in failed
    assert detail in str(failed[check])
    clifford._DIRAC_CACHE.clear()
    assert main(["--jobs", "1", "verify", "spinor", "--n", "2", "--N", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["all_passed"] is False


def test_wrong_dirac_column_model_is_refused_or_matches_kernels(monkeypatch, cold_dirac_caches):
    # every column the n=2, N=1 suite builds, corrupted in turn: the model
    # either refuses to certify or agrees with the kernel dimensions
    verify_spinor_identities(2, 1, k_max=1)
    keys = sorted(clifford._DIRAC_COLUMNS)
    assert len(keys) == 50
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


def test_wrong_dirac_column_with_cold_eigenbases_fails_the_suite(monkeypatch, capsys):
    # built under a wrong P, an eigenbasis fails its foothold check: called
    # directly that raises, but the suite reports it as failed checks (exit 1)
    from speclab.cli import main

    clifford._eigenspinor_basis_cached.cache_clear()
    clifford._DIRAC_CACHE.clear()
    clifford._DIRAC_COLUMNS.clear()
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
        for check in (
            "ladder_suite_j=0_sign=1",
            "compressed_u_is_gap_times_x",
            "coordinate_adjacency",
            "adjacent_span_rank",
        ):
            assert "foothold vector fails the eigen test" in failed[check]["error"]
    finally:
        clifford._eigenspinor_basis_cached.cache_clear()
        clifford._DIRAC_CACHE.clear()
        clifford._DIRAC_COLUMNS.clear()


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
