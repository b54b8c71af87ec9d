"""Exact scalar types: complex rationals and quadratic surds."""

import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from speclab.scalars import CRat, parse_crat
from speclab.surd import Quad, rational_sqrt, sqrt_in_field, squarefree_split

rats = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)


@settings(max_examples=60, deadline=None)
@given(rats, rats, rats, rats)
def test_crat_field_axioms(a, b, c, d):
    z, w = CRat(a, b), CRat(c, d)
    assert z + w == w + z
    assert z * w == w * z
    assert (z + w).conjugate() == z.conjugate() + w.conjugate()
    assert z.conjugate().conjugate() == z
    if w:
        assert (z / w) * w == z
    assert (z * w).abs2() == z.abs2() * w.abs2()


def _parts(z):
    assert type(z) is CRat and type(z.re) is Fraction and type(z.im) is Fraction
    return z.re, z.im


def test_crat_fast_paths_match_four_product_formula():
    # every part zero or nonzero, against the plain formulas over Fraction pairs
    values = (Fraction(0), Fraction(3, 4), Fraction(-5, 2))
    pairs = [(a, b) for a in values for b in values]
    scalars = [0, 1, -3, Fraction(0), Fraction(-2, 7), Fraction(9, 4)]
    for a, b in pairs:
        z = CRat(a, b)
        assert _parts(-z) == (-a, -b)
        assert _parts(z.conjugate()) == (a, -b)
        for c, d in pairs:
            w = CRat(c, d)
            assert _parts(z * w) == (a * c - b * d, a * d + b * c)
            assert _parts(z + w) == (a + c, b + d)
            assert _parts(z - w) == (a - c, b - d)
            if d == 0 and c != 0:
                assert _parts(z / w) == (a / c, b / c)
                assert _parts(2 / w) == (2 / c, 0)
        for k in scalars:
            assert _parts(z * k) == (a * k, b * k)
            assert _parts(k * z) == (a * k, b * k)
            assert _parts(z + k) == (a + k, b)
            assert _parts(k + z) == (a + k, b)
            assert _parts(z - k) == (a - k, b)
            assert _parts(k - z) == (k - a, -b)
            if k:
                assert _parts(z / k) == (a / k, b / k)
            else:
                with pytest.raises(ZeroDivisionError):
                    z / k
        with pytest.raises(ZeroDivisionError):
            z / CRat(0)


def test_crat_text_roundtrip():
    for z in (CRat(1, 2), CRat(Fraction(-3, 4), Fraction(5, 7)), CRat(0, -1), CRat(2)):
        assert parse_crat(str(z)) == z


def test_squarefree_split():
    assert squarefree_split(72) == (6, 2)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(0) == (0, 1)
    assert squarefree_split(13) == (1, 13)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None


def test_quad_normalization_and_compare():
    q = Quad(0, 1, 8)  # sqrt(8) = 2 sqrt(2)
    assert (q.a, q.b, q.d) == (0, 2, 2)
    assert Quad(2, -1, 5) < 0  # 2 - sqrt(5)
    assert Quad(4, -1, 13) < 2
    assert Quad(1, 1, 2) > 2
    assert Quad(3) == 3 and Quad(3).is_rational


@settings(max_examples=60, deadline=None)
@given(rats, rats, st.sampled_from((2, 3, 5, 6, 7, 10)))
def test_quad_sign_matches_float(a, b, d):
    q = Quad(a, b, d)
    approx = float(a) + float(b) * d ** 0.5
    if abs(approx) > 1e-9:
        assert q.sign() == (1 if approx > 0 else -1)


@settings(max_examples=40, deadline=None)
@given(rats, rats, rats, rats, st.sampled_from((2, 5, 13)))
def test_quad_ring_axioms(a, b, c, e, d):
    x, y = Quad(a, b, d), Quad(c, e, d)
    assert x + y == y + x
    assert x * y == y * x
    if y != 0:
        assert (x / y) * y == x


def test_sqrt_in_field():
    # (1 + sqrt(2))^2 = 3 + 2 sqrt(2)
    x = Quad(3, 2, 2)
    r = sqrt_in_field(x)
    assert r is not None and r * r == x and r.sign() >= 0
    assert sqrt_in_field(Quad(2, 1, 3)) is None
    assert sqrt_in_field(Fraction(49, 9)) == Quad(Fraction(7, 3))


def test_quad_mixed_radicand_guard():
    with pytest.raises(ValueError):
        Quad(0, 1, 2) + Quad(0, 1, 3)


# ---------------------------------------------------------------------------
# the shared quadratic-field core: CRat (d = -1) and Quad (d > 1)
# ---------------------------------------------------------------------------

_CRATS = [CRat(0), CRat(1), CRat(Fraction(3, 4)), CRat(0, 1), CRat(Fraction(1, 2), -2)]
_QUADS = [Quad(0), Quad(1), Quad(Fraction(3, 4)), Quad(0, 1, 2), Quad(Fraction(1, 2), -2, 5)]


def test_crat_and_quad_never_mix():
    # equal-valued rationals of the two classes included: no operation
    # between them returns a number, and == is False both ways
    for z in _CRATS:
        for x in _QUADS:
            for a, b in ((z, x), (x, z)):
                for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                    with pytest.raises(TypeError):
                        op(a, b)
                assert (a == b) is False and (a != b) is True
                with pytest.raises(TypeError):
                    a < b


def test_quad_zero_is_falsy():
    assert not Quad(0) and not Quad(0, 0, 7) and not Quad(1, 1, 2) - Quad(1, 1, 2)
    assert Quad(1) and Quad(0, 1, 2) and Quad(Fraction(-1, 3), 1, 3)
    assert not CRat(0) and CRat(0, 1)


def test_quad_survives_pickle():
    for x in _QUADS + [Quad(2, -1, 13), Quad.sqrt(Fraction(7, 12))]:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(x, protocol=protocol))
            assert type(back) is Quad
            assert (back._p, back._q, back._r, back._d) == (x._p, x._q, x._r, x._d)
            assert back == x and hash(back) == hash(x) and repr(back) == repr(x)


def test_strings_are_not_operands():
    # numbers only: a string such as "1/2" is parsed by the constructors,
    # never coerced by the arithmetic
    for x in (Quad(1, 1, 2), Quad(Fraction(1, 3)), CRat(1, 1)):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(x, "1/2")
            with pytest.raises(TypeError):
                op("1/2", x)
    assert Quad("1/2") == Fraction(1, 2) and CRat("1/2", "-1") == CRat(Fraction(1, 2), -1)
