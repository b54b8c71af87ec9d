"""Quad, stored as ints (p + q sqrt(d)) / r, against the two-Fraction
reference ``RefQuad`` in ``oracles``.

Every operation, in every operand order and against Quad, Fraction and
int operands, must give the same a, b and d as the reference, leave the
result in normal form (r > 0, gcd(p, q, r) = 1, d squarefree, q = 0 and
d = 1 for a rational), raise the same errors, and print, hash and compare
as the reference does.  The eigenvalue step and the scalar refutation are
checked against their reference versions on RefQuad.
"""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import RefQuad, ref_eigenvalue_step, ref_refutation, ref_sqrt_in_field
from speclab import surd
from speclab.scalar_ops import OnSpectrumError, eigenvalue_step, refute_candidate
from speclab.surd import Quad, sqrt_in_field, squarefree_split

_SQUAREFREE = (2, 3, 5, 6, 7, 10, 13, 93, 28049)
# radicands as the public constructor sees them: squarefree, with square
# factors, perfect squares, 0 and 1
_RADICANDS = _SQUAREFREE + (0, 1, 4, 8, 12, 18, 72, 9 * 13)

_dens = st.one_of(st.integers(1, 12), st.sampled_from([7919, 2**31 - 1]), st.integers(1, 10**12))
_rat = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 4).map(Fraction),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-(10**15), 10**15), _dens),
)
_scalar = st.one_of(st.integers(-4, 4), st.integers(-(10**15), 10**15), _rat)
# small enough to factor: the square root of a non-square rational
# factors its numerator and denominator by trial division
_small_rat = st.builds(Fraction, st.integers(0, 10**4), st.integers(1, 10**4))


def _normal(x):
    """(a, b, d) of a Quad, after checking the normal form of its ints."""
    assert type(x) is Quad
    p, q, r, d = x._p, x._q, x._r, x._d
    assert all(type(v) is int for v in (p, q, r, d))
    assert r > 0 and math.gcd(p, q, r) == 1
    if q:
        assert d > 1 and squarefree_split(d) == (1, d)
    else:
        assert d == 1
    assert type(x.a) is Fraction and type(x.b) is Fraction
    return x.a, x.b, x.d


def _ref_parts(y):
    return y.a, y.b, y.d


def _same_outcome(got, want):
    """Run both thunks: the same exception type, or the same value."""
    try:
        ref = want()
    except (ZeroDivisionError, ValueError, TypeError) as exc:
        with pytest.raises(type(exc)):
            got()
        return
    out = got()
    if isinstance(ref, RefQuad):
        assert _normal(out) == _ref_parts(ref)
        assert repr(out) == repr(ref)
        assert out.to_json() == ref.to_json()
    else:
        assert type(out) is type(ref) and out == ref


@st.composite
def _pair(draw):
    """Two (a, b, d) triples: in one field, one or both rational, in two
    fields, or chosen so that sums, differences or products cancel."""
    a, b = draw(_rat), draw(_rat)
    d = draw(st.sampled_from(_RADICANDS))
    how = draw(st.sampled_from(["free", "free", "rational", "neg", "same", "conj", "mixed"]))
    if how == "free":
        return (a, b, d), (draw(_rat), draw(_rat), d)
    if how == "rational":
        return (a, b, d), (draw(_rat), Fraction(0), 1)
    if how == "neg":
        return (a, b, d), (-a, -b, d)
    if how == "same":
        return (a, b, d), (a, b, d)
    if how == "conj":
        return (a, b, d), (a, -b, d)
    return (a, b, d), (draw(_rat), draw(_rat), draw(st.sampled_from(_RADICANDS)))


_BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)
_COMPARE = (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne)


@settings(max_examples=250, derandomize=True, deadline=None)
@given(_pair(), _scalar)
def test_quad_arithmetic_matches_reference(pair, k):
    (a, b, d), (c, e, f) = pair
    x, y = Quad(a, b, d), Quad(c, e, f)
    rx, ry = RefQuad(a, b, d), RefQuad(c, e, f)
    assert _normal(x) == _ref_parts(rx) and _normal(y) == _ref_parts(ry)
    _same_outcome(lambda: -x, lambda: -rx)
    _same_outcome(lambda: abs(x), lambda: abs(rx))
    assert x.sign() == rx.sign()
    assert x.is_rational == rx.is_rational
    assert repr(x) == repr(rx) and x.to_json() == rx.to_json()
    assert float(x) == float(rx)
    for op in _BINARY:
        _same_outcome(lambda: op(x, y), lambda: op(rx, ry))
        _same_outcome(lambda: op(y, x), lambda: op(ry, rx))
        # a Fraction or int operand on either side
        _same_outcome(lambda: op(x, k), lambda: op(rx, k))
        _same_outcome(lambda: op(k, x), lambda: op(k, rx))
    for op in _COMPARE:
        _same_outcome(lambda: op(x, y), lambda: op(rx, ry))
        _same_outcome(lambda: op(x, k), lambda: op(rx, k))
        _same_outcome(lambda: op(k, x), lambda: op(k, rx))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_rat, _rat, st.sampled_from(_RADICANDS))
def test_quad_views_hash_and_text_match_reference(a, b, d):
    x, rx = Quad(a, b, d), RefQuad(a, b, d)
    assert _normal(x) == _ref_parts(rx)
    assert repr(x) == repr(rx) and x.to_json() == rx.to_json()
    if rx.is_rational:
        # a rational Quad is interchangeable with its Fraction as a key
        assert x.as_fraction() == rx.as_fraction()
        assert hash(x) == hash(rx) == hash(rx.a)
        assert {x: 1}.get(rx.a) == 1 and x == rx.a
        if rx.a.denominator == 1:
            assert x == int(rx.a) and hash(x) == hash(int(rx.a))
    else:
        with pytest.raises(ValueError):
            x.as_fraction()
    # equal values built by different routes hash alike
    assert hash(x) == hash(Quad(a, b, d) + 0) == hash((x * 2) / 2)


def test_quad_errors_match_reference():
    pairs = [((0, 1, 2), (0, 1, 3)), ((1, 1, 5), (2, -3, 13)), ((1, 1, 2), (0, 1, 8 * 3))]
    for (a, b, d), (c, e, f) in pairs:
        x, y = Quad(a, b, d), Quad(c, e, f)
        for op in _BINARY + _COMPARE:
            with pytest.raises(ValueError, match="mixed radicands"):
                op(x, y)
            with pytest.raises(ValueError, match="mixed radicands"):
                op(RefQuad(a, b, d), RefQuad(c, e, f))
    for zero in (Quad(0), Quad(0, 0, 7), 0, Fraction(0)):
        for x in (Quad(1, 1, 2), Quad(Fraction(3, 4))):
            with pytest.raises(ZeroDivisionError, match="division by zero"):
                x / zero
    for cls in (Quad, RefQuad):
        with pytest.raises(ValueError, match="radicand must be nonnegative"):
            cls(1, 1, -2)
    for other in (1.5, None):
        with pytest.raises(TypeError):
            Quad(1, 1, 2) + other
    with pytest.raises(TypeError):
        Fraction(1) / Quad(1, 1, 2)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(_small_rat)
def test_quad_sqrt_matches_reference(x):
    got, ref = Quad.sqrt(x), RefQuad.sqrt(x)
    assert _normal(got) == _ref_parts(ref)
    assert got * got == x and got.sign() >= 0
    assert repr(got) == repr(ref)
    with pytest.raises(ValueError):
        Quad.sqrt(-x - 1)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(_small_rat, _rat, st.sampled_from(_SQUAREFREE), _small_rat)
def test_sqrt_in_field_matches_reference(a, b, d, t):
    # squares of field elements, the elements themselves, and rationals;
    # a stays factorable, as b may be 0
    x, rx = Quad(a, b, d), RefQuad(a, b, d)
    for got, ref in ((x * x, rx * rx), (x, rx), (t, t)):
        out, want = sqrt_in_field(got), ref_sqrt_in_field(ref)
        if want is None:
            assert out is None
        else:
            assert _normal(out) == _ref_parts(want)


def test_quad_sqrt_splits_numerator_and_denominator_apart(monkeypatch):
    # at the refute height guard the coprime numerator and denominator of
    # 4 lam + 1 are each below 5e6, their product near 5e12; factoring the
    # product by trial division took about 0.14 s, the two parts take
    # microseconds.  The factored numbers must never exceed the larger part.
    seen = []
    real = surd.squarefree_split

    def spy(m):
        seen.append(m)
        return real(m)

    monkeypatch.setattr(surd, "squarefree_split", spy)
    lam = Fraction(999995, 999983)
    x = 4 * lam + 1
    root = Quad.sqrt(x)
    assert seen and max(seen) <= max(x.numerator, x.denominator)
    assert root * root == x and root.sign() > 0
    assert (root.a, root.b, root.d) == (0, Fraction(1, 999983), 4999963 * 999983)
    steps = refute_candidate(2, lam).to_dict()
    assert max(seen) <= max(x.numerator, x.denominator)
    monkeypatch.undo()
    assert steps == ref_refutation(2, lam)


def _perfect_square_candidates(rng, count):
    """Rationals lam = (m^2 - 1)/4 with m rational, so 4 lam + 1 = m^2."""
    out = []
    for _ in range(count):
        m = Fraction(rng.randint(0, 60), rng.randint(1, 9))
        out.append((m * m - 1) / 4)
    return out


def test_eigenvalue_step_matches_reference():
    rng = random.Random(1604)
    squares = _perfect_square_candidates(rng, 80)
    others = [Fraction(rng.randint(-1, 400), rng.randint(1, 13)) for _ in range(80)]
    others += [Fraction(-1, 4), 0, 2, 6, Fraction(3, 4)]
    for lam in squares + others:
        for direction in ("+", "-"):
            want = ref_eigenvalue_step(lam, direction)
            for given_lam in (lam, Quad(lam)):
                got = eigenvalue_step(given_lam, direction)
                if isinstance(want, RefQuad):
                    assert _normal(got) == _ref_parts(want)
                else:
                    assert type(got) is Fraction and got == want
        if lam in squares:
            assert type(eigenvalue_step(lam, "+")) is Fraction
    with pytest.raises(ValueError, match="negative discriminant"):
        eigenvalue_step(Fraction(-1, 2), "+")
    with pytest.raises(ValueError):
        eigenvalue_step(2, "*")


def test_eigenvalue_step_on_field_elements_matches_reference():
    # lam = (nu^2 - 1)/4 for nu in a field: the discriminant is a square there
    rng = random.Random(1605)
    for _ in range(60):
        a, b = Fraction(rng.randint(0, 40), rng.randint(1, 5)), Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        d = rng.choice(_SQUAREFREE[:6])
        nu, rnu = Quad(a, b, d), RefQuad(a, b, d)
        if nu.sign() < 0:
            nu, rnu = -nu, -rnu
        lam, rlam = (nu * nu - 1) / 4, (rnu * rnu - 1) / 4
        for direction in ("+", "-"):
            try:
                want = ref_eigenvalue_step(rlam, direction)
            except ValueError:
                with pytest.raises(ValueError):
                    eigenvalue_step(lam, direction)
                continue
            got = eigenvalue_step(lam, direction)
            if isinstance(want, RefQuad):
                assert _normal(got) == _ref_parts(want)
            else:
                assert type(got) is Fraction and got == want


def test_refutation_chains_match_reference():
    # a seeded sweep of off-spectrum candidates for n = 2..6: rational,
    # perfect-square and irrational discriminants, short and long chains
    rng = random.Random(1606)
    checked = 0
    for n in range(2, 7):
        bound = Fraction(n * (n - 2), 4)
        cands = [bound + Fraction(rng.randint(1, 60 * q), q) for q in (1, 2, 3, 5, 7, 11, 13) for _ in range(4)]
        cands += [c for c in _perfect_square_candidates(rng, 20) if c >= bound]
        for lam in cands:
            try:
                chain = refute_candidate(n, lam)
            except OnSpectrumError:
                continue
            assert chain.to_dict() == ref_refutation(n, lam)
            checked += 1
    assert checked > 150
