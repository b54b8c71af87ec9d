"""Tiny exact quadratic field Q[sqrt(d)].

Eigenvalue descent chains need exact comparisons of numbers of the form
a + b*sqrt(d) with a, b rational and d a squarefree nonnegative integer.
A chain never leaves the field it starts in: the step lambda -> lambda^-
acts on nu = sqrt(4*lambda + 1) as nu -> |nu - 2|, so the radicand is
fixed once and for all and no nested radicals arise.

A ``Quad`` is four Python ints, (p + q*sqrt(d)) / r, in the normal form
``CRat`` uses for (a + b i) / d: r > 0, gcd(p, q, r) = 1, d squarefree,
and q = 0, d = 1 for a rational.  Equal values have equal ints, and
arithmetic, signs and comparisons are int arithmetic plus at most one
``math.gcd`` per result.  Only the public constructor ``Quad(a, b, d)``
and ``Quad.sqrt`` factor a radicand; every result of arithmetic goes
through ``_quad``, which trusts that d is already squarefree.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .scalars import as_rat


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


class Quad:
    """a + b*sqrt(d) with exact rational a, b and squarefree integer d > 1.

    Stored as ints (p + q*sqrt(d)) / r in normal form (see the module
    docstring); values that collapse to rationals have q == 0, d == 1.
    ``a`` and ``b`` are read-only ``Fraction`` views, a rational hashes as
    the equal ``Fraction``, and comparisons are exact sign determinations,
    no floating point.
    """

    __slots__ = ("_p", "_q", "_r", "_d")

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
        u, v = a.denominator, b.denominator
        r = u * v // gcd(u, v)
        # over the lcm of two lowest-terms denominators, gcd(p, q, r) = 1
        self._p = a.numerator * (r // u)
        self._q = b.numerator * (r // v)
        self._r = r
        self._d = d

    # -- constructors ------------------------------------------------------

    @classmethod
    def sqrt(cls, x) -> "Quad":
        """Exact square root of a nonnegative rational."""
        x = as_rat(x)
        root = rational_sqrt(x)
        if root is not None:
            return _quad(root.numerator, 0, root.denominator, 1)
        # sqrt(m/k) = sqrt(m k) / k; m and k are coprime, so splitting each
        # (far cheaper than splitting m k) gives coprime squarefree parts
        # whose product is the squarefree part of m k
        m, k = x.numerator, x.denominator
        s, e = squarefree_split(m)
        t, f = squarefree_split(k)
        return _quad(0, s * t, k, e * f)

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

    # -- arithmetic ----------------------------------------------------------

    def _field(self, q, d):
        """The common radicand of self and an operand with parts q, d."""
        if not self._q:
            return d
        if q and d != self._d:
            raise ValueError("mixed radicands")
        return self._d

    def __add__(self, other):
        p, q, r, d = _operand(other)
        d = self._field(q, d)
        P, Q, R = self._p, self._q, self._r
        return _quad(P * r + p * R, Q * r + q * R, R * r, d)

    __radd__ = __add__

    def __sub__(self, other):
        p, q, r, d = _operand(other)
        d = self._field(q, d)
        P, Q, R = self._p, self._q, self._r
        return _quad(P * r - p * R, Q * r - q * R, R * r, d)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _quad(-self._p, -self._q, self._r, self._d)

    def __mul__(self, other):
        p, q, r, d = _operand(other)
        d = self._field(q, d)
        P, Q = self._p, self._q
        return _quad(P * p + Q * q * d, P * q + Q * p, self._r * r, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p, q, r, d = _operand(other)
        d = self._field(q, d)
        # multiply by the conjugate of the divisor
        norm = p * p - q * q * d
        if not norm:
            raise ZeroDivisionError("division by zero in Q[sqrt(d)]")
        P, Q = self._p, self._q
        return _quad((P * p - Q * q * d) * r, (Q * p - P * q) * r, self._r * norm, d)

    # -- exact ordering --------------------------------------------------------

    def sign(self) -> int:
        return _sign(self._p, self._q, self._d)

    def _cmp(self, other) -> int:
        p, q, r, d = _operand(other)
        d = self._field(q, d)
        R = self._r
        return _sign(self._p * r - p * R, self._q * r - q * R, d)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (Quad, Fraction, int)):
            return self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        if self._q:
            return hash((self._p, self._q, self._r, self._d))
        if self._r == 1:
            return hash(self._p)
        return hash(Fraction(self._p, self._r))

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
_new = object.__new__


def _quad(p: int, q: int, r: int, d: int) -> Quad:
    """Quad (p + q*sqrt(d)) / r from ints with r != 0 and d squarefree
    (trusted, never factored), divided down to normal form."""
    if not q:
        d = 1
    if r < 0:
        p, q, r = -p, -q, -r
    if r != 1:
        g = gcd(p, q, r)
        if g != 1:
            p //= g
            q //= g
            r //= g
    z = _new(Quad)
    z._p = p
    z._q = q
    z._r = r
    z._d = d
    return z


def _operand(x):
    """The ints (p, q, r, d) of a Quad, an int or a Fraction (anything
    else goes through ``as_rat``)."""
    if isinstance(x, Quad):
        return x._p, x._q, x._r, x._d
    if isinstance(x, int):
        return x, 0, 1, 1
    x = as_rat(x)
    return x.numerator, 0, x.denominator, 1


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
