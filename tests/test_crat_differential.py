"""CRat, stored as ints (a + b i) / d, against a two-Fraction reference.

``RefCRat`` keeps the real and imaginary parts as ``Fraction``s and
applies the textbook formulas with no fast paths; every CRat operation,
in every operand order, must give the same parts, leave the result in
normal form (d > 0, gcd(a, b, d) = 1, zero as (0, 0, 1)) and print, hash
and compare as the reference does.
"""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from speclab import _kernel
from speclab.scalars import CRat, fmt_rat, parse_crat


class RefCRat:
    """Reference Gaussian rational: two Fractions, plain formulas."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def parts(self):
        return self.re, self.im

    def add(self, o):
        return RefCRat(self.re + o.re, self.im + o.im)

    def sub(self, o):
        return RefCRat(self.re - o.re, self.im - o.im)

    def mul(self, o):
        a, b, c, d = self.re, self.im, o.re, o.im
        return RefCRat(a * c - b * d, a * d + b * c)

    def div(self, o):
        a, b, c, d = self.re, self.im, o.re, o.im
        m = c * c + d * d
        if not m:
            raise ZeroDivisionError
        return RefCRat((a * c + b * d) / m, (b * c - a * d) / m)

    def hash(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def str(self):
        if self.im >= 0:
            return f"{fmt_rat(self.re)}+{fmt_rat(self.im)} i"
        return f"{fmt_rat(self.re)}-{fmt_rat(-self.im)} i"

    def repr(self):
        return f"CRat({self.re!s}, {self.im!s})"

    def complex(self):
        return complex(float(self.re), float(self.im))


def _normal(z):
    """The parts of z, after checking the normal form of its int triple."""
    assert type(z) is CRat
    a, b, d, radicand = z._p, z._q, z._r, z._d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0
    assert math.gcd(a, b, d) == 1
    assert (a, b) != (0, 0) or d == 1
    assert radicand == (-1 if b else 1)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    return z.re, z.im


# denominators: small, large primes (coprime to each other and to small
# ones) and arbitrary big ones
_dens = st.one_of(
    st.integers(1, 12),
    st.sampled_from([7919, 104729, 2**31 - 1, 10**12 + 39]),
    st.integers(1, 10**18),
)
_part = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-(10**20), 10**20), _dens),
    st.builds(Fraction, st.integers(-9, 9), _dens),
)
_value = st.tuples(_part, _part)
_scalar = st.one_of(
    st.integers(-3, 3),
    st.integers(-(10**20), 10**20),
    _part,
)


@st.composite
def _pair(draw):
    """(z, w) part pairs; some chosen so that sums, differences or one
    part of them cancel to zero."""
    a, b = draw(_value)
    how = draw(st.sampled_from(["free", "free", "neg", "same", "conj", "re_neg", "im_neg"]))
    if how == "free":
        c, d = draw(_value)
    elif how == "neg":
        c, d = -a, -b
    elif how == "same":
        c, d = a, b
    elif how == "conj":
        c, d = a, -b
    elif how == "re_neg":
        c, d = -a, draw(_part)
    else:
        c, d = draw(_part), -b
    return (a, b), (c, d)


def _same_outcome(got, want):
    """Run both thunks; both raise ZeroDivisionError or agree on parts."""
    try:
        ref = want()
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            got()
        return
    assert _normal(got()) == ref.parts()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_pair(), _scalar)
def test_crat_matches_two_fraction_reference(pair, k):
    (a, b), (c, d) = pair
    z, w = CRat(a, b), CRat(c, d)
    rz, rw, rk = RefCRat(a, b), RefCRat(c, d), RefCRat(k)
    assert _normal(z) == (a, b) and _normal(w) == (c, d)

    # CRat with CRat
    _same_outcome(lambda: z + w, lambda: rz.add(rw))
    _same_outcome(lambda: z - w, lambda: rz.sub(rw))
    _same_outcome(lambda: z * w, lambda: rz.mul(rw))
    _same_outcome(lambda: z / w, lambda: rz.div(rw))
    _same_outcome(lambda: w / z, lambda: rw.div(rz))
    # CRat with int or Fraction, both orders
    _same_outcome(lambda: z + k, lambda: rz.add(rk))
    _same_outcome(lambda: k + z, lambda: rk.add(rz))
    _same_outcome(lambda: z - k, lambda: rz.sub(rk))
    _same_outcome(lambda: k - z, lambda: rk.sub(rz))
    _same_outcome(lambda: z * k, lambda: rz.mul(rk))
    _same_outcome(lambda: k * z, lambda: rk.mul(rz))
    _same_outcome(lambda: z / k, lambda: rz.div(rk))
    _same_outcome(lambda: k / z, lambda: rk.div(rz))
    # unary structure
    assert _normal(-z) == (-a, -b)
    assert _normal(z.conjugate()) == (a, -b)
    assert type(z.abs2()) is Fraction and z.abs2() == a * a + b * b
    assert bool(z) == bool(a or b)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_pair(), _scalar)
def test_crat_equality_hash_and_text_match_reference(pair, k):
    (a, b), (c, d) = pair
    z, w = CRat(a, b), CRat(c, d)
    rz = RefCRat(a, b)

    assert (z == w) == ((a, b) == (c, d))
    assert (z != w) == ((a, b) != (c, d))
    if (a, b) == (c, d):
        assert hash(z) == hash(w)
    # a real CRat equals, and hashes as, the int or Fraction of its value
    # (a non-real one hashes its int triple, not the reference's parts)
    assert (z == a) == (b == 0) and (a == z) == (b == 0)
    if b == 0:
        assert hash(z) == hash(a) == rz.hash()
    kz = CRat(k)
    assert kz == k and k == kz and hash(kz) == hash(k)
    assert (z == k) == (b == 0 and a == k)

    assert str(z) == rz.str()
    assert repr(z) == rz.repr()
    assert complex(z) == rz.complex()
    back = parse_crat(str(z))
    assert _normal(back) == (a, b)
    assert str(back) == str(z)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_value)
def test_crat_survives_pickle(parts):
    z = CRat(*parts)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(z, protocol=protocol))
        assert _normal(back) == parts
        assert back == z and hash(back) == hash(z) and str(back) == str(z)


def test_crat_parts_are_read_only():
    z = CRat(Fraction(1, 2), 3)
    for name in ("re", "im"):
        with pytest.raises(AttributeError):
            setattr(z, name, Fraction(0))
    assert z.re == Fraction(1, 2) and z.im == 3


def test_pure_kernel_drops_explicit_crat_zeros():
    # raw input may carry explicit zeros; reduction must drop them
    terms = {(2, 0, 0, 0): CRat(0), (0, 1, 0, 0): CRat(1, 1), (3, 0, 0, 0): CRat(0, 0)}
    out = _kernel.reduce_terms(terms, 3)
    assert all(bool(v) for v in out.values())
    assert out == {(0, 1, 0, 0): CRat(1, 1)}
