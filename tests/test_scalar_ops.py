"""Conformal fields, ladders, spectrum generation, refutation."""

import random
from fractions import Fraction

import pytest

from speclab import scalar_ops
from speclab.polynomial import SpherePoly, ambient_laplacian_terms, normal_monomials
from speclab.scalar_ops import (
    BelowBoundError,
    NotEigenfunctionError,
    OnSpectrumError,
    T,
    U,
    bottom_eigenvalue,
    build_eigenspace,
    conformal_laplacian,
    eigenvalue_step,
    generate_spectrum,
    harmonic_dimension,
    is_eigenfunction,
    ladder_minus,
    ladder_plus,
    ladder_sums,
    laplacian,
    laplacian_via_conformal_fields,
    refute_candidate,
    scalar_eigenvalue,
    scalar_laws,
    spectrum_level_of,
    verify_scalar_identities,
)
from speclab.report import shifted_square_terms
from speclab.surd import Quad

from oracles import eval_exact
from test_polynomial import rational_sphere_points


# ---------------------------------------------------------------------------
# first-order operators
# ---------------------------------------------------------------------------


def test_T_of_own_coordinate():
    # T_i x_i = x_i^2 - 1 (its normal form is minus the sum of the others)
    for n in (2, 3):
        for i in range(n + 1):
            xi = SpherePoly.coordinate(n, i)
            want = xi * xi - SpherePoly.one(n)
            assert T(i, xi) == want


def test_T_kills_constants():
    assert T(1, SpherePoly.one(3)).is_zero


def test_T_cross_coordinate_with_curve_oracle():
    # T_1 x_2 = x_1 x_2 on S^2, cross-checked by differentiating along the
    # azimuthal circle through rational points (finite differences)
    import math

    n = 2
    got = T(1, SpherePoly.coordinate(n, 2))
    assert got == SpherePoly.monomial(n, (0, 1, 1))
    f = SpherePoly.coordinate(n, 2)
    for pt in rational_sphere_points(6, seed=9):
        x = [float(c) for c in pt]
        ci = x[1]
        s2 = 1.0 - ci * ci
        if s2 < 1e-6:
            continue
        s = math.sqrt(s2)
        # unit vector along the latitude direction of coordinate 1
        u = [0.0, 1.0, 0.0]
        w = [(x[k] - ci * u[k]) / s for k in range(3)]
        h = 1e-6

        def along(t):
            rho = math.acos(ci) + t
            q = [math.cos(rho) * u[k] + math.sin(rho) * w[k] for k in range(3)]
            return float(eval_exact(f, [Fraction(v).limit_denominator(10**12) for v in q]))

        deriv = (along(h) - along(-h)) / (2 * h)
        want = s * deriv
        have = float(eval_exact(got, pt))
        assert abs(want - have) < 1e-5


def test_U_examples():
    for n in (2, 3, 4):
        one = SpherePoly.one(n)
        for i in range(n + 1):
            assert U(i, one) == SpherePoly.coordinate(n, i) * Fraction(n, 2)
            xi = SpherePoly.coordinate(n, i)
            want = xi * xi * (Fraction(n, 2) + 1) - one
            assert U(i, xi) == want


def test_anticommutator_sum_vanishes():
    n = 3
    rng = random.Random(4)
    from test_polynomial import rand_poly

    for _ in range(5):
        p = rand_poly(rng, n, max_degree=3, terms=4)
        acc = SpherePoly.zero(n)
        for i in range(n + 1):
            xi = SpherePoly.coordinate(n, i)
            acc = acc + xi * U(i, p) + U(i, xi * p)
        assert acc.is_zero


# ---------------------------------------------------------------------------
# Laplacians
# ---------------------------------------------------------------------------


def test_laplacian_on_coordinates():
    for n in (2, 3, 4, 5):
        xi = SpherePoly.coordinate(n, 0)
        assert laplacian(xi) == xi * Fraction(n)
        assert laplacian(SpherePoly.one(n)).is_zero


def test_laplacian_level_two():
    n = 3
    p = SpherePoly.coordinate(n, 1) * SpherePoly.coordinate(n, 2)
    assert laplacian(p) == p * Fraction(8)


def test_two_routes_agree_small_sweep():
    for n in (2, 3):
        for e in normal_monomials(n, 4):
            p = SpherePoly(n, {e: Fraction(1)}, reduced=True)
            assert laplacian(p) == laplacian_via_conformal_fields(p)


def test_fused_laplacians_on_random_multi_degree_polynomials():
    # one pass over all homogeneous parts at once: mixed degrees share
    # exponents only after the ambient Laplacian lowers them by two
    rng = random.Random(20261018)
    for n in (2, 3, 4, 5):
        monos = normal_monomials(n, 6)
        for _ in range(6):
            terms = {
                e: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                for e in rng.sample(monos, 7)
            }
            p = SpherePoly(n, {e: c for e, c in terms.items() if c}, reduced=True)
            assert len({sum(e) for e in p.terms}) > 1
            want = laplacian_via_conformal_fields(p)
            assert laplacian(p) == want
            assert conformal_laplacian(p) == want + p * bottom_eigenvalue(n)


def test_conformal_laplacian_examples():
    for n in (2, 3, 4):
        one = SpherePoly.one(n)
        assert conformal_laplacian(one) == one * bottom_eigenvalue(n)
        xi = SpherePoly.coordinate(n, 1)
        assert conformal_laplacian(xi) == xi * Fraction(n * (n + 2), 4)
    # flat case: zero curvature shift
    p = SpherePoly.monomial(2, (1, 1, 0))
    assert conformal_laplacian(p) == laplacian(p)


# ---------------------------------------------------------------------------
# eigenvalue steps and the lattice
# ---------------------------------------------------------------------------


def test_step_examples():
    assert eigenvalue_step(Fraction(3, 4), "+") == Fraction(15, 4)
    assert eigenvalue_step(Fraction(0), "-") == 0
    assert eigenvalue_step(Fraction(2), "+") == 6


def test_step_involution_in_quadratic_field():
    rng = random.Random(12)
    for _ in range(25):
        lam = Fraction(rng.randint(0, 400), rng.randint(1, 20))
        up = eigenvalue_step(lam, "+")
        down = eigenvalue_step(up, "-")
        assert down == lam  # up-then-down always returns
        dn = eigenvalue_step(lam, "-")
        # down-then-up returns on the plus branch whenever the square root
        # is at least 2 (true everywhere above the n=2 bottom window);
        # below that, lam is the minus-branch root of its descendant
        if 4 * lam + 1 >= 4:
            assert eigenvalue_step(dn, "+") == lam
        else:
            candidates = {eigenvalue_step(dn, "+"), eigenvalue_step(dn, "-")}
            assert any(c == lam for c in candidates)


def test_step_rejects_negative_discriminant_and_bad_direction():
    with pytest.raises(ValueError):
        eigenvalue_step(Fraction(-1), "+")
    with pytest.raises(ValueError):
        eigenvalue_step(Fraction(1), "up")


def test_quadratic_symmetry():
    # mu solves the lam-equation iff lam solves the mu-equation
    def quadr(mu, lam):
        return mu * mu - 2 * lam * mu - 2 * mu + lam * lam - 2 * lam

    for lam in (Fraction(3, 4), Fraction(2), Fraction(15, 4)):
        for direction in ("+", "-"):
            mu = eigenvalue_step(lam, direction)
            if isinstance(mu, Quad):
                continue
            assert quadr(mu, lam) == 0
            assert quadr(lam, mu) == 0


def test_generate_spectrum_examples():
    vals = [p.lam for p in generate_spectrum(3, 4)]
    assert vals == [Fraction(3, 4), Fraction(15, 4), Fraction(35, 4), Fraction(63, 4)]
    lap = [p.laplace_eigenvalue for p in generate_spectrum(2, 4)]
    assert lap == [0, 2, 6, 12]
    assert generate_spectrum(5, 1)[0].lam == Fraction(15, 4)


def test_spectrum_matches_closed_form_wide():
    for n in (2, 3, 4, 5, 6):
        for pair in generate_spectrum(n, 21):
            assert pair.lam == scalar_eigenvalue(n, pair.j)
            assert pair.laplace_eigenvalue == pair.j * (n - 1 + pair.j)


# ---------------------------------------------------------------------------
# ladders
# ---------------------------------------------------------------------------


def test_ladder_up_from_constant():
    n = 3
    one = SpherePoly.one(n)
    lam0 = bottom_eigenvalue(n)
    up = ladder_plus(0, one, lam0)
    assert up == SpherePoly.coordinate(n, 0) * Fraction(2)
    assert is_eigenfunction(up, eigenvalue_step(lam0, "+"))
    # dimension 2: the raising ladder on constants is the coordinate itself
    up2 = ladder_plus(1, SpherePoly.one(2), Fraction(0))
    assert up2 == SpherePoly.coordinate(2, 1)


def test_ladder_down_kills_constants():
    for n in (3, 4, 5):
        one = SpherePoly.one(n)
        for i in range(n + 1):
            assert ladder_minus(i, one, bottom_eigenvalue(n)).is_zero


def test_ladder_rejects_non_eigenfunction():
    p = SpherePoly.one(3) + SpherePoly.coordinate(3, 0)
    with pytest.raises(NotEigenfunctionError):
        ladder_plus(0, p, Fraction(3, 4))


def test_ladder_sums_examples():
    # bottom of S^3: nu = 2
    mp, pm = ladder_sums(SpherePoly.one(3), Fraction(3, 4))
    assert (mp, pm) == (Fraction(-8), Fraction(0))
    # S^2 at level 1: nu = 3, verified operatorially on x1
    mp, pm = ladder_sums(SpherePoly.coordinate(2, 1), Fraction(2))
    assert (mp, pm) == (Fraction(-10), Fraction(-1))
    # nu = n - 1 bottom case vanishes
    mp, pm = ladder_sums(SpherePoly.one(4), Fraction(2))
    assert pm == 0


def test_ladder_sum_factors_through_level_four():
    # acceptance grid: n in {2,3,4}, every basis member through level 4
    for n in (2, 3, 4):
        for j in range(5):
            lam = scalar_eigenvalue(n, j)
            nu = Fraction(n - 1 + 2 * j)
            want_mp = -Fraction(1, 2) * (nu + n - 1) * (nu + 2)
            want_pm = -Fraction(1, 2) * (nu - n + 1) * (nu - 2)
            for phi in build_eigenspace(n, j).funcs:
                mp, pm = ladder_sums(phi, lam)
                assert mp == want_mp and pm == want_pm
            assert (want_pm == 0) == (nu == n - 1)


# ---------------------------------------------------------------------------
# eigenspaces
# ---------------------------------------------------------------------------


def test_build_eigenspace_examples():
    pair = build_eigenspace(2, 1)
    assert len(pair.funcs) == 3
    want = {SpherePoly.coordinate(2, i) for i in range(3)}
    assert set(pair.funcs) == want
    assert len(build_eigenspace(3, 2).funcs) == 9
    assert build_eigenspace(4, 0).funcs == [SpherePoly.one(4)]


def test_nonvanishing_ladders_through_level_five():
    # sweep grid: n in {2, 3}, j <= 5
    for n in (2, 3):
        for j in range(6):
            lam = scalar_eigenvalue(n, j)
            for phi in build_eigenspace(n, j).funcs:
                assert any(
                    not ladder_plus(i, phi, lam, check=False).is_zero
                    for i in range(n + 1)
                )
                has_down = any(
                    not ladder_minus(i, phi, lam, check=False).is_zero
                    for i in range(n + 1)
                )
                assert has_down == (j > 0)


def test_coordinate_span_rank_identity():
    # span{x_i E_j, D x_i E_j} has rank dim E_{j-1} + dim E_{j+1}
    from speclab.linalg import rref

    for n, j in ((2, 1), (2, 2), (3, 1)):
        funcs = build_eigenspace(n, j).funcs
        vecs = []
        for phi in funcs:
            for i in range(n + 1):
                xphi = SpherePoly.coordinate(n, i) * phi
                vecs.append(xphi)
                vecs.append(conformal_laplacian(xphi))
        monos = normal_monomials(n, j + 1)
        index = {e: k for k, e in enumerate(monos)}
        rows = []
        for p in vecs:
            row = [Fraction(0)] * len(monos)
            for e, c in p.terms.items():
                row[index[e]] = c
            rows.append(row)
        rank = len(rref(rows))
        assert rank == harmonic_dimension(n, j - 1) + harmonic_dimension(n, j + 1)


def test_eigenfunctions_lift_to_harmonics():
    # every constructed eigenfunction is the restriction of one harmonic
    # homogeneous polynomial of its level
    from speclab.polynomial import harmonic_decompose

    for n in (2, 3):
        for j in range(4):
            for phi in build_eigenspace(n, j).funcs:
                d = harmonic_decompose(phi)
                assert d.degrees == [j]
                assert ambient_laplacian_terms(d.part(j)) == {}


# ---------------------------------------------------------------------------
# refutation
# ---------------------------------------------------------------------------


def test_refutation_examples():
    chain = refute_candidate(3, Fraction(2))
    assert chain.steps == [Fraction(0)]
    assert chain.violated_bound == Fraction(3, 4)

    chain = refute_candidate(2, Fraction(1))
    (step,) = chain.steps
    assert step == Quad(2, -1, 5)
    assert step < 0

    chain = refute_candidate(4, Fraction(3))
    (step,) = chain.steps
    assert step == Quad(4, -1, 13)
    assert step < 2


def test_refutation_guards():
    with pytest.raises(OnSpectrumError):
        refute_candidate(3, Fraction(15, 4))
    with pytest.raises(BelowBoundError):
        refute_candidate(3, Fraction(1, 9))
    assert spectrum_level_of(3, Fraction(15, 4)) == 1
    assert spectrum_level_of(2, Fraction(0)) == 0
    assert spectrum_level_of(3, Fraction(2)) is None


def _gap_by_levels(n, lam):
    """The gap index by walking up the levels: the reference for
    ``scalar_ops._gap_index``."""
    gap = 0
    while scalar_eigenvalue(n, gap + 1) < lam:
        gap += 1
    return gap


def test_gap_index_matches_the_level_walk():
    # seeded candidates of every size, and every lattice value and its
    # neighbours 1e-9 away, where lambda_j < lam turns
    rng = random.Random(1701)
    eps = Fraction(1, 10**9)
    checked = 0
    for n in range(2, 9):
        cands = []
        for _ in range(400):
            num = rng.randint(0, 10 ** rng.randint(1, 5))
            cands.append(Fraction(num, rng.randint(1, 10 ** rng.randint(0, 3))))
        for j in range(40):
            lam = scalar_eigenvalue(n, j)
            cands += [lam - eps, lam, lam + eps]
        for lam in cands:
            assert scalar_ops._gap_index(n, lam) == _gap_by_levels(n, lam), (n, lam)
            checked += 1
    assert checked == 7 * (400 + 120)


def test_refutation_random_candidates():
    rng = random.Random(99)
    for n in (2, 3, 4, 5):
        bound = bottom_eigenvalue(n)
        done = 0
        while done < 10:
            lam = Fraction(rng.randint(0, 600), rng.randint(1, 24))
            if lam < bound or spectrum_level_of(n, lam) is not None:
                continue
            gap = 0
            while scalar_eigenvalue(n, gap + 1) < lam:
                gap += 1
            chain = refute_candidate(n, lam)
            assert chain.steps[-1] < bound
            assert len(chain.steps) <= gap + 1
            done += 1


# ---------------------------------------------------------------------------
# the identity suite
# ---------------------------------------------------------------------------


def test_verify_scalar_identities_pass():
    rep = verify_scalar_identities(3, 4)
    assert rep.all_passed
    shifted = "sum_i (U_i + a x_i)^2 = a^2 + sum_i U_i^2"
    assert [(c.identity_id, c.law) for c in rep.checks] == [
        ("spectrum_generating_commutator", "[D, x_i] = 2 U_i"),
        ("conformal_covariance", "D (U_i - x_i) = (U_i + x_i) D"),
        ("coordinate_anticommutator", "sum_i (x_i U_i + U_i x_i) = 0"),
        ("coordinate_commutator", "sum_i [U_i, x_i] = -n"),
        ("laplacian_two_routes", "-sum_i T_i^2 = Laplacian (homogeneous-degree route)"),
        ("u_square_sum", "sum_i U_i^2 = -D - n/2"),
        ("shifted_square_sum_a=1", shifted),
        ("shifted_square_sum_a=-1", shifted),
        ("shifted_square_sum_a=3/2", shifted),
        ("shifted_square_sum_a=-3/2", shifted),
    ]


def test_verify_scalar_corruption_fails(monkeypatch):
    # D shifted by a constant: the suite looks D up at call time
    real = scalar_ops.conformal_laplacian
    monkeypatch.setattr(scalar_ops, "conformal_laplacian", lambda p: real(p) + p * Fraction(1))
    rep = verify_scalar_identities(3, 3)
    failed = {c.identity_id for c in rep.failures()}
    assert failed == {"conformal_covariance", "u_square_sum"}
    for c in rep.failures():
        assert set(c.counterexample) == {"basis_vector", "index", "difference"}
        assert c.counterexample["difference"] != "0"
    # the covariance law is checked for each i, the square sum summed over i
    assert rep.failures()[0].counterexample["index"] == 0
    assert rep.failures()[1].counterexample["index"] is None


def test_summed_laws_see_a_corruption_at_one_index(monkeypatch):
    # U wrong at i = n only: every summed law holding U must still fail,
    # with the sum over i memoized once per word and basis vector
    good = scalar_ops.U

    def bad(i, p):
        out = good(i, p)
        return out + SpherePoly.coordinate(p.n, i) * p if i == p.n else out

    monkeypatch.setattr(scalar_ops, "U", bad)
    rep = verify_scalar_identities(3, 3)
    failed = {c.identity_id: c.counterexample for c in rep.failures()}
    summed = {
        "coordinate_anticommutator": "2/1 * x3^2",
        "u_square_sum": "-1/1 + 5/1 * x3^2",
        "shifted_square_sum_a=1": "2/1 * x3^2",
        "shifted_square_sum_a=-1": "-2/1 * x3^2",
        "shifted_square_sum_a=3/2": "3/1 * x3^2",
        "shifted_square_sum_a=-3/2": "-3/1 * x3^2",
    }
    assert set(failed) == set(summed) | {"spectrum_generating_commutator", "conformal_covariance"}
    for identity_id, difference in summed.items():
        assert failed[identity_id] == {
            "basis_vector": "1/1",
            "index": None,
            "difference": difference,
        }
    assert failed["conformal_covariance"]["index"] == 3


def _scalar_corruptions() -> dict:
    """Name -> (scalar_ops name to rebind, corrupted operator)."""
    D, L = scalar_ops.conformal_laplacian, scalar_ops.laplacian
    LT = scalar_ops.laplacian_via_conformal_fields
    good_u, good_x = scalar_ops.U, scalar_ops.coordinate_mul
    return {
        "D + 1": ("conformal_laplacian", lambda p: D(p) + p),
        "L + 1": ("laplacian", lambda p: L(p) + p),
        "LT + 1": ("laplacian_via_conformal_fields", lambda p: LT(p) + p),
        "U_i + x_i": ("U", lambda i, p: good_u(i, p) + good_x(i, p)),
        "2 U_i": ("U", lambda i, p: good_u(i, p) * 2),
        "2 x_i": ("coordinate_mul", lambda i, p: good_x(i, p) * 2),
    }


# row id of verify_scalar_identities(3, 3) -> the corruptions that fail it
_SHIFTED_ROWS = [f"shifted_square_sum_a={a}" for a in ("1", "-1", "3/2", "-3/2")]
SCALAR_CORRUPTION_TABLE = {
    "spectrum_generating_commutator": {"U_i + x_i", "2 U_i", "2 x_i"},
    "conformal_covariance": {"D + 1", "U_i + x_i", "2 U_i", "2 x_i"},
    "coordinate_anticommutator": {"U_i + x_i"},
    "coordinate_commutator": {"2 U_i", "2 x_i"},
    "laplacian_two_routes": {"L + 1", "LT + 1"},
    "u_square_sum": {"D + 1", "U_i + x_i", "2 U_i"},
    **{row: {"U_i + x_i", "2 x_i"} for row in _SHIFTED_ROWS},
}


def test_scalar_corruption_table(monkeypatch):
    # every row of the scalar suite fails under some corruption, and each
    # corruption, run once, fails exactly the rows the table names for it
    # (a rebound operator is a new key of the suite's image table, so a
    # corrupted suite reads no image kept from a clean one)
    rows = [c.identity_id for c in verify_scalar_identities(3, 3).checks]
    assert sorted(rows) == sorted(SCALAR_CORRUPTION_TABLE)
    assert all(SCALAR_CORRUPTION_TABLE.values())
    assert _corruption_failures(monkeypatch) == _corruption_want()


def _corruption_failures(monkeypatch) -> dict:
    """Corruption name -> the rows of verify_scalar_identities(3, 3) that
    fail with it rebound."""
    corruptions = _scalar_corruptions()
    failing = {}
    for name, (attr, corrupted) in corruptions.items():
        with monkeypatch.context() as mp:
            mp.setattr(scalar_ops, attr, corrupted)
            failing[name] = {c.identity_id for c in verify_scalar_identities(3, 3).failures()}
    return failing


def _corruption_want() -> dict:
    return {
        name: {row for row, names in SCALAR_CORRUPTION_TABLE.items() if name in names}
        for name in _scalar_corruptions()
    }


# ---------------------------------------------------------------------------
# the image table of repeated suites
# ---------------------------------------------------------------------------


@pytest.fixture
def cold_suite_images():
    scalar_ops._clear_suite_images()
    yield
    scalar_ops._clear_suite_images()


@pytest.mark.parametrize("n, cap", [(2, 4), (3, 4), (4, 3)])
def test_warm_suite_report_is_byte_identical(n, cap, cold_suite_images):
    # the first request stores nothing, the second stores its images and
    # the third reads them back
    first = verify_scalar_identities(n, cap).to_json()
    assert not scalar_ops._SUITE_IMAGES
    assert verify_scalar_identities(n, cap).to_json() == first
    assert len(scalar_ops._SUITE_IMAGES) == len(normal_monomials(n, cap))
    assert verify_scalar_identities(n, cap).to_json() == first


def test_corruptions_are_caught_with_a_warm_table(monkeypatch, cold_suite_images):
    for _ in range(2):
        assert verify_scalar_identities(3, 3).all_passed
    assert scalar_ops._SUITE_IMAGES
    assert _corruption_failures(monkeypatch) == _corruption_want()


def test_an_operator_outside_the_key_needs_the_clear(monkeypatch, cold_suite_images):
    # the LT route calls T, which is not in the key: the kept images hide a
    # change of T until the table is cleared
    for _ in range(2):
        assert verify_scalar_identities(3, 3).all_passed
    good = scalar_ops.T
    monkeypatch.setattr(scalar_ops, "T", lambda i, p: good(i, p) * 2)
    assert verify_scalar_identities(3, 3).all_passed
    scalar_ops._clear_suite_images()
    failed = {c.identity_id for c in verify_scalar_identities(3, 3).failures()}
    assert failed == {"laplacian_two_routes"}


def test_warm_suite_applies_no_operator(monkeypatch, cold_suite_images):
    # the images of a warm (3, 4) repeat all come from the table; the
    # operators' kernels are counted in _kernel, which leaves the operator
    # callables, and so the key, as they are
    from speclab import _kernel

    calls = []

    def counted(name):
        real = getattr(_kernel, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    for name in ("reduce_terms", "add_scaled_terms"):
        monkeypatch.setattr(_kernel, name, counted(name))
    assert verify_scalar_identities(3, 4).all_passed
    assert {"reduce_terms", "add_scaled_terms"} <= set(calls)
    assert verify_scalar_identities(3, 4).all_passed
    calls.clear()
    assert verify_scalar_identities(3, 4).all_passed
    assert calls == []


def test_suite_image_table_is_bounded(monkeypatch, cold_suite_images):
    # a suite requested once stores nothing; with a small limit the table
    # and the seen suites stay within their bounds, a basis larger than the
    # table is never stored, and every report matches its cold run
    monkeypatch.setattr(scalar_ops, "_SUITE_IMAGES_LIMIT", 20)
    monkeypatch.setattr(scalar_ops, "_SEEN_SUITES_LIMIT", 3)
    want = {key: verify_scalar_identities(*key).to_json() for key in [(2, 2), (2, 3), (3, 2)]}
    assert not scalar_ops._SUITE_IMAGES
    for _ in range(3):
        for key, report in want.items():
            assert verify_scalar_identities(*key).to_json() == report
            assert len(scalar_ops._SUITE_IMAGES) <= 20
    assert scalar_ops._SUITE_IMAGES
    scalar_ops._clear_suite_images()
    assert len(normal_monomials(3, 3)) > 20
    for key in [(3, 3), (3, 3), (3, 3), *want]:
        assert verify_scalar_identities(*key).all_passed
        assert len(scalar_ops._SEEN_SUITES) <= 3
    assert not scalar_ops._SUITE_IMAGES


def test_eigenspace_cache_stays_bounded(monkeypatch):
    want = {(n, j): build_eigenspace(n, j).funcs for n in (2, 3) for j in range(5)}
    monkeypatch.setattr(scalar_ops, "_EIGENSPACE_CACHE", {})
    monkeypatch.setattr(scalar_ops, "_EIGENSPACE_LIMIT", 2)
    for _ in range(2):
        for (n, j), funcs in want.items():
            assert build_eigenspace(n, j).funcs == funcs
            assert len(scalar_ops._EIGENSPACE_CACHE) <= 2


def test_commutator_on_constant_gives_n_coordinate():
    # [D, x_i] 1 = 2 U_i 1 = n x_i
    for n in (2, 3):
        one = SpherePoly.one(n)
        for i in range(n + 1):
            xi = SpherePoly.coordinate(n, i)
            comm = conformal_laplacian(xi * one) - xi * conformal_laplacian(one)
            assert comm == xi * Fraction(n)
            assert U(i, one) * 2 == xi * Fraction(n)


@pytest.mark.parametrize("n", range(2, 6))
def test_every_law_row_merges_to_terms(n):
    # a row whose coefficients cancel word by word holds for any operators
    from speclab.clifford import spinor_laws

    for laws in [scalar_laws(n)] + [spinor_laws(n, k) for k in range(3)]:
        for identity_id, _, _, terms in laws:
            merged = {}
            for c, word in terms:
                merged[word] = merged.get(word, 0) + c
            assert any(merged.values()), identity_id


def test_a_row_that_merges_to_nothing_is_an_internal_failure(capsys, monkeypatch):
    # sum_i (U_i + 0 x_i)^2 = sum_i U_i^2 merges to U U - U U: a suite
    # holding it stops with exit 3 instead of reporting a check that
    # cannot fail
    from speclab.cli import main

    real = scalar_ops.scalar_laws
    vacuous = ("shifted_square_sum_a=0", "", False, shifted_square_terms(0) + [(-1, "U U")])
    monkeypatch.setattr(scalar_ops, "scalar_laws", lambda n: real(n) + [vacuous])
    assert main(["verify", "scalar", "--n", "2", "--cap", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "shifted_square_sum_a=0 merges to no terms" in captured.err


def test_report_serialization():
    rep = verify_scalar_identities(2, 2)
    d = rep.to_dict()
    assert d["all_passed"] is True
    assert all("identity_id" in c and "law" in c for c in d["checks"])
    assert "degree_cap" in d["checks"][0]
    rep.to_json()
