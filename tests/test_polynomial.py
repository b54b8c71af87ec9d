"""Exact sphere-polynomial algebra: normal form, calculus, integration,
harmonic decomposition."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from speclab import _kernel
from speclab.polynomial import (
    SpherePoly,
    ambient_laplacian_terms,
    euler_terms,
    harmonic_decompose,
    harmonic_dimension,
    integrate,
    moment_integral,
    monomials_of_degree,
    normal_monomials,
    r2_terms,
)

from oracles import eval_exact, harmonic_dimension_by_rank


def rational_sphere_points(count, seed=0):
    """Rational points of S^2 via inverse stereographic projection."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        u = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        d = 1 + u * u + v * v
        pts.append((2 * u / d, 2 * v / d, (u * u + v * v - 1) / d))
    return pts


def rand_poly(rng, n, max_degree=6, terms=8):
    tt = {}
    monos = [m for d in range(max_degree + 1) for m in monomials_of_degree(n + 1, d)]
    for _ in range(terms):
        e = rng.choice(monos)
        tt[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return SpherePoly(n, tt)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def test_sum_of_squares_reduces_to_one():
    n = 4
    terms = {}
    for i in range(n + 1):
        e = [0] * (n + 1)
        e[i] = 2
        terms[tuple(e)] = Fraction(1)
    assert SpherePoly(n, terms) == SpherePoly.one(n)


def test_already_reduced_is_untouched():
    p = SpherePoly.coordinate(3, 1)
    assert p.terms == {(0, 1, 0, 0): Fraction(1)}


def test_x0_cubed_single_substitution():
    got = SpherePoly.monomial(2, (3, 0, 0))
    want = (
        SpherePoly.coordinate(2, 0)
        - SpherePoly.monomial(2, (1, 2, 0))
        - SpherePoly.monomial(2, (1, 0, 2))
    )
    assert got == want
    # oracle: both representatives agree at random rational sphere points
    for pt in rational_sphere_points(20, seed=3):
        assert eval_exact(got, pt) == pt[0] ** 3


def test_explicit_zero_inputs_never_survive_reduction():
    # raw user input may carry explicit zeros; reduction must drop them
    zero = Fraction(0)
    terms = {(1, 0, 0, 0): zero, (3, 1, 0, 0): zero, (0, 2, 0, 0): Fraction(2)}
    out = _kernel.reduce_terms(dict(terms), 3)
    assert out == {(0, 2, 0, 0): Fraction(2)}
    assert SpherePoly(3, dict(terms)).terms == out
    assert SpherePoly(3, {(2, 0, 0, 0): zero, (0, 1, 0, 0): 0}).terms == {}


def test_reduce_is_idempotent_seeded():
    # 200 random polynomials per dimension, degree <= 6
    for n in (2, 3, 4, 5):
        rng = random.Random(n)
        for _ in range(200):
            p = rand_poly(rng, n)
            again = SpherePoly(n, dict(p.terms))
            assert again.terms == p.terms


def test_ideal_membership_reduces_to_zero():
    # (sum x_i^2 - 1) * q -> 0 for 100 random q
    for n in (2, 3):
        rng = random.Random(10 + n)
        rel = dict(r2_terms(n))
        rel[(0,) * (n + 1)] = rel.get((0,) * (n + 1), Fraction(0)) - 1
        for _ in range(50):
            q = rand_poly(rng, n, max_degree=4, terms=5)
            prod = SpherePoly(n, rel) * q
            assert prod.is_zero


# ---------------------------------------------------------------------------
# ring structure
# ---------------------------------------------------------------------------


def test_mul_coordinate_examples():
    n = 2
    x0 = SpherePoly.coordinate(n, 0)
    sq = x0 * x0
    want = (
        SpherePoly.one(n)
        - SpherePoly.monomial(n, (0, 2, 0))
        - SpherePoly.monomial(n, (0, 0, 2))
    )
    assert sq == want
    x1, x2 = SpherePoly.coordinate(n, 1), SpherePoly.coordinate(n, 2)
    assert x1 * x2 == SpherePoly.monomial(n, (0, 1, 1))
    p = rand_poly(random.Random(1), n)
    assert p + SpherePoly.zero(n) == p


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        SpherePoly.one(2) + SpherePoly.one(3)


def _poly_of_dim(draw, n):
    nterms = draw(st.integers(1, 5))
    terms = {}
    for _ in range(nterms):
        e = tuple(draw(st.integers(0, 2)) for _ in range(n + 1))
        c = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))
        if c:
            terms[e] = c
    return SpherePoly(n, terms)


@st.composite
def small_polys(draw):
    return _poly_of_dim(draw, draw(st.sampled_from((2, 3))))


@st.composite
def poly_pairs(draw):
    n = draw(st.sampled_from((2, 3)))
    return _poly_of_dim(draw, n), _poly_of_dim(draw, n)


@settings(max_examples=40, deadline=None)
@given(poly_pairs())
def test_ring_axioms(pq):
    p, q = pq
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * p == p * p + q * p


# ---------------------------------------------------------------------------
# calculus on raw representatives
# ---------------------------------------------------------------------------


def test_euler_grades_by_degree():
    assert euler_terms({(0, 1, 0): Fraction(1)}) == {(0, 1, 0): Fraction(1)}
    assert euler_terms({(0, 1, 2): Fraction(1)}) == {(0, 1, 2): Fraction(3)}
    assert euler_terms({(0, 0, 0): Fraction(5)}) == {}


def test_ambient_laplacian_examples():
    assert ambient_laplacian_terms({(0, 2, 0): Fraction(1)}) == {
        (0, 0, 0): Fraction(-2)
    }
    assert ambient_laplacian_terms({(0, 1, 1): Fraction(1)}) == {}
    assert ambient_laplacian_terms({(0, 3, 0): Fraction(1)}) == {
        (0, 1, 0): Fraction(-6)
    }


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def test_moment_examples():
    for n in (2, 3, 4):
        e = [0] * (n + 1)
        e[1] = 2
        assert moment_integral(tuple(e), n) == Fraction(1, n + 1)
    # the quartic moment: double-factorial formula 3/(3*5)
    assert moment_integral((4, 0, 0), 2) == Fraction(1, 5)
    assert moment_integral((1, 1, 0), 2) == 0


def test_integrate_examples():
    assert integrate(SpherePoly.one(2)) == 1
    assert integrate(SpherePoly.coordinate(2, 1)) == 0
    terms = {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1)}
    assert integrate(SpherePoly(2, terms)) == 1


def test_l2_positivity_seeded():
    for n in (2, 3):
        rng = random.Random(77 + n)
        for _ in range(40):
            p = rand_poly(rng, n, max_degree=4, terms=4)
            if p.is_zero:
                continue
            assert integrate(p * p) > 0


@settings(max_examples=30, deadline=None)
@given(small_polys())
def test_l2_positivity_property(p):
    if not p.is_zero:
        assert integrate(p * p) > 0


# ---------------------------------------------------------------------------
# harmonic decomposition
# ---------------------------------------------------------------------------


def test_decompose_x1_squared():
    n = 2
    d = harmonic_decompose(SpherePoly.monomial(n, (0, 2, 0)))
    assert d.degrees == [0, 2]
    assert d.part(0) == {(0, 0, 0): Fraction(1, 3)}
    # degree-2 part is x1^2 - r^2/3
    want = {
        (0, 2, 0): Fraction(2, 3),
        (2, 0, 0): Fraction(-1, 3),
        (0, 0, 2): Fraction(-1, 3),
    }
    assert d.part(2) == want


def test_decompose_trivial_cases():
    n = 2
    d = harmonic_decompose(SpherePoly.coordinate(n, 1))
    assert d.degrees == [1]
    d = harmonic_decompose(SpherePoly.one(n))
    assert d.degrees == [0]


def test_decompose_roundtrip_and_harmonicity():
    for n in (2, 3):
        rng = random.Random(5 + n)
        for _ in range(25):
            p = rand_poly(rng, n, max_degree=5, terms=5)
            d = harmonic_decompose(p)
            assert d.reassemble() == p
            for _, h in d:
                assert ambient_laplacian_terms(h) == {}


def test_harmonic_dimension_against_rank_oracle():
    for n in (2, 3, 4, 5):
        for j in range(0, 6):
            assert harmonic_dimension(n, j) == harmonic_dimension_by_rank(n, j)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_canonical_text_form():
    n = 2
    p = SpherePoly.monomial(n, (3, 0, 0))
    assert str(p) == "1/1 * x0^1 + -1/1 * x0^1 x1^2 + -1/1 * x0^1 x2^2"
    assert str(SpherePoly.zero(n)) == "0"
    q = SpherePoly.constant(n, Fraction(-3, 2)) + SpherePoly.coordinate(n, 2)
    assert str(q) == "-3/2 + 1/1 * x2^1"


def test_normal_monomial_count():
    from speclab.polynomial import count_normal_monomials

    for n in (2, 3, 4):
        for cap in (0, 1, 3, 5):
            assert count_normal_monomials(n, cap) == len(normal_monomials(n, cap))


def test_pow_cache_stays_bounded(monkeypatch):
    raws = [{(k, 1) + (0,) * (n - 1): Fraction(1, k)} for n in (2, 3, 4) for k in range(2, 9)]
    want = [_kernel.reduce_terms(raw, len(next(iter(raw))) - 1) for raw in raws]
    monkeypatch.setattr(_kernel, "_POW_CACHE", {})
    monkeypatch.setattr(_kernel, "_POW_LIMIT", 2)
    for _ in range(2):
        for raw, terms in zip(raws, want):
            assert _kernel.reduce_terms(raw, len(next(iter(raw))) - 1) == terms
            assert len(_kernel._POW_CACHE) <= 2


def _reduce_by_steps(terms: dict, n: int) -> dict:
    """x0^2 -> 1 - x1^2 - ... - xn^2, one step at a time; entries past e_n
    are never touched."""
    out: dict = {}
    work = list(terms.items())
    while work:
        e, c = work.pop()
        if e[0] < 2:
            out[e] = out.get(e, 0) + c
            continue
        rest = (e[0] - 2,) + e[1:]
        work.append((rest, c))
        for i in range(1, n + 1):
            f = list(rest)
            f[i] += 2
            work.append((tuple(f), -c))
    return {e: c for e, c in out.items() if c}


def test_reduce_carries_a_slot_suffix():
    # spinor keys (e_0, ..., e_n, slot): every slot reduces as it does on
    # its own, and plain exponent keys reduce as the step-by-step rewrite
    for n in (2, 3, 4):
        rng = random.Random(40 + n)
        for _ in range(30):
            slots = []
            for _ in range(3):
                t = {}
                for _ in range(6):
                    e = (rng.randint(0, 5),) + tuple(rng.randint(0, 2) for _ in range(n))
                    t[e] = t.get(e, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                slots.append(t)
            alone = [_kernel.reduce_terms(t, n) for t in slots]
            assert alone == [_reduce_by_steps(t, n) for t in slots]
            flat = {e + (s,): c for s, t in enumerate(slots) for e, c in t.items()}
            want = {e + (s,): c for s, t in enumerate(alone) for e, c in t.items()}
            assert _kernel.reduce_terms(flat, n) == want == _reduce_by_steps(flat, n)
