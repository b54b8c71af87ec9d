"""Tiny exact quadratic field Q[sqrt(d)].

Eigenvalue descent chains need exact comparisons of numbers of the form
a + b*sqrt(d) with a, b rational and d a squarefree nonnegative integer.
A chain never leaves the field it starts in: the step lambda -> lambda^-
acts on nu = sqrt(4*lambda + 1) as nu -> |nu - 2|, so the radicand is
fixed once and for all and no nested radicals arise.

A ``Quad`` is the real case of ``scalars._QuadField``: (p + q*sqrt(d)) / r
on four ints in the normal form it shares with ``CRat``, with ``==`` and
the ordering as exact int sign tests.  Only ``Quad(a, b, d)`` and
``Quad.sqrt`` factor a radicand; every arithmetic result goes through
``scalars._norm``, which trusts that d is already squarefree.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .scalars import _norm, _QuadField, as_rat


def squarefree_split(m: int):
    """m = s^2 * d with d squarefree; returns (s, d).  m must be >= 0."""
    if m < 0:
        raise ValueError("negative radicand")
    if m == 0:
        return 0, 1
    s, d, f = 1, 1, 2
    while f * f <= m:
        if m % f == 0:
            power = 0
            while m % f == 0:
                m //= f
                power += 1
            s *= f ** (power // 2)
            if power % 2:
                d *= f
        f += 1 if f == 2 else 2
    d *= m
    return s, d


def rational_sqrt(q: Fraction):
    """Exact square root of a nonnegative rational if it is rational,
    else None."""
    q = as_rat(q)
    if q < 0:
        raise ValueError("negative radicand")
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class Quad(_QuadField):
    """a + b*sqrt(d) with exact rational a, b and squarefree integer d > 1.

    The real fields of ``_QuadField``; values that collapse to rationals
    have q == 0, d == 1.  ``a`` and ``b`` are read-only ``Fraction`` views,
    and comparisons are exact sign determinations, no floating point.
    """

    __slots__ = ()
    _ZERO_DIVISION = "division by zero in Q[sqrt(d)]"

    def __init__(self, a, b=0, d=1):
        a, b = as_rat(a), as_rat(b)
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        if d in (0, 1) or b == 0:
            a, b, d = a + b * isqrt(d), _ZERO, 1
        else:
            s, d = squarefree_split(d)
            if d == 1:
                a, b = a + b * s, _ZERO
            else:
                b *= s
        super().__init__(a, b, d)

    # -- constructors ------------------------------------------------------

    @classmethod
    def sqrt(cls, x) -> "Quad":
        """Exact square root of a nonnegative rational."""
        x = as_rat(x)
        root = rational_sqrt(x)
        if root is not None:
            return _norm(Quad, root.numerator, 0, root.denominator, 1)
        # sqrt(m/k) = sqrt(m k) / k; m and k are coprime, so splitting each
        # (far cheaper than splitting m k) gives coprime squarefree parts
        # whose product is the squarefree part of m k
        m, k = x.numerator, x.denominator
        s, e = squarefree_split(m)
        t, f = squarefree_split(k)
        return _norm(Quad, 0, s * t, k, e * f)

    # -- views -------------------------------------------------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._r)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._r)

    @property
    def d(self) -> int:
        return self._d

    @property
    def is_rational(self) -> bool:
        return not self._q

    def as_fraction(self) -> Fraction:
        if self._q:
            raise ValueError(f"{self} is irrational")
        return Fraction(self._p, self._r)

    # -- exact ordering --------------------------------------------------------

    def sign(self) -> int:
        return _sign(self._p, self._q, self._d)

    def _cmp(self, other) -> int:
        # a TypeError for an operand that does not subtract
        return (self - other).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        # through the ordering, so mixed radicands raise here too
        if isinstance(other, (Quad, Fraction, int)):
            return self._cmp(other) == 0
        return NotImplemented

    __hash__ = _QuadField.__hash__

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        return float(self.a) + float(self.b) * self._d ** 0.5

    def __repr__(self):
        a = self.a
        if not self._q:
            return str(a)
        b = self.b
        op = "+" if b > 0 else "-"
        babs = f"{abs(b)}*" if abs(b) != 1 else ""
        if a == 0:
            return f"{'-' if b < 0 else ''}{babs}sqrt({self._d})"
        return f"{a}{op}{babs}sqrt({self._d})"

    def to_json(self):
        if not self._q:
            return str(self.a)
        return {"a": str(self.a), "b": str(self.b), "d": self._d}


_ZERO = Fraction(0)


def _sign(p: int, q: int, d: int) -> int:
    """Exact sign of p + q*sqrt(d) for ints p, q and squarefree d."""
    if not q:
        return (p > 0) - (p < 0)
    if not p or (p > 0) == (q > 0):
        return 1 if q > 0 else -1
    # opposite signs: compare p^2 with q^2 d, decided by the sign of p
    lhs, rhs = p * p, q * q * d
    if lhs == rhs:
        return 0
    return (1 if lhs > rhs else -1) * (1 if p > 0 else -1)


def sqrt_in_field(x) -> "Quad | None":
    """Square root of x inside its own field Q[sqrt(d)], if one exists.

    For rational x this is the usual perfect-square test (possibly landing
    in a fresh Q[sqrt(d)]); for irrational x = a + b sqrt(d) it solves
    (p + q sqrt(d))^2 = x exactly.
    """
    if isinstance(x, (Fraction, int)):
        return Quad.sqrt(as_rat(x))
    if x.sign() < 0:
        return None
    if x.is_rational:
        return Quad.sqrt(x.a)
    a, b, d = x.a, x.b, x.d
    # p^2 + q^2 d = a, 2 p q = b  =>  t = p^2 solves t^2 - a t + b^2 d / 4 = 0
    disc = a * a - b * b * d
    rd = rational_sqrt(disc) if disc >= 0 else None
    if rd is None:
        return None
    for t in ((a + rd) / 2, (a - rd) / 2):
        if t < 0:
            continue
        p = rational_sqrt(t)
        if p is None or p == 0:
            continue
        q = b / (2 * p)
        cand = Quad(p, q, d)
        if cand.sign() >= 0 and cand * cand == x:
            return cand
        cand = -cand
        if cand.sign() >= 0 and cand * cand == x:
            return cand
    return None
