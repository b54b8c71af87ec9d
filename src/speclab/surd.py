"""Tiny exact quadratic field Q[sqrt(d)].

Eigenvalue descent chains need exact comparisons of numbers of the form
a + b*sqrt(d) with a, b rational and d a squarefree nonnegative integer.
A chain never leaves the field it starts in: the step lambda -> lambda^-
acts on nu = sqrt(4*lambda + 1) as nu -> |nu - 2|, so the radicand is
fixed once and for all and no nested radicals arise.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

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
    """a + b*sqrt(d) with exact rational a, b and squarefree integer d>1.

    Values that collapse to rationals are normalized to b == 0, d == 1.
    Comparisons are exact sign determinations, no floating point.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=1):
        a, b = as_rat(a), as_rat(b)
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        if d in (0, 1) or b == 0:
            a, b, d = a + b * isqrt(d), Fraction(0), 1
        else:
            s, d0 = squarefree_split(d)
            if d0 == 1:
                a, b, d = a + b * s, Fraction(0), 1
            else:
                b, d = b * s, d0
        self.a, self.b, self.d = a, b, d

    # -- constructors ------------------------------------------------------

    @classmethod
    def sqrt(cls, q) -> "Quad":
        """Exact square root of a nonnegative rational."""
        q = as_rat(q)
        r = rational_sqrt(q)
        if r is not None:
            return cls(r)
        # sqrt(p/q) = sqrt(p*q)/q
        return cls(0, Fraction(1, q.denominator), q.numerator * q.denominator)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    # -- arithmetic ----------------------------------------------------------

    def _join(self, other):
        if isinstance(other, Quad):
            if self.d != other.d and self.b and other.b:
                raise ValueError("mixed radicands")
            return other
        return Quad(as_rat(other))

    def __add__(self, other):
        o = self._join(other)
        d = self.d if self.b else o.d
        return Quad(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._join(other)
        d = self.d if self.b else o.d
        return Quad(self.a - o.a, self.b - o.b, d)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Quad(-self.a, -self.b, self.d)

    def __mul__(self, other):
        o = self._join(other)
        if self.b and o.b:
            return Quad(
                self.a * o.a + self.b * o.b * self.d,
                self.a * o.b + self.b * o.a,
                self.d,
            )
        d = self.d if self.b else o.d
        return Quad(self.a * o.a, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._join(other)
        # multiply by the conjugate of o
        norm = o.a * o.a - o.b * o.b * o.d
        if not norm:
            raise ZeroDivisionError("division by zero in Q[sqrt(d)]")
        conj = Quad(o.a, -o.b, o.d)
        prod = self * conj
        return Quad(prod.a / norm, prod.b / norm, prod.d)

    # -- exact ordering --------------------------------------------------------

    def sign(self) -> int:
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 d, decided by the sign of a
        lhs, rhs = a * a, b * b * d
        if lhs == rhs:
            return 0
        bigger_rational = lhs > rhs
        return (1 if bigger_rational else -1) * (1 if a > 0 else -1)

    def _cmp(self, other) -> int:
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
        if isinstance(other, (Quad, Fraction, int)):
            return self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        return float(self.a) + float(self.b) * self.d ** 0.5

    def __repr__(self):
        if self.is_rational:
            return str(self.a)
        bs = f"{self.b}*" if self.b != 1 else ""
        op = "+" if self.b > 0 else "-"
        babs = f"{abs(self.b)}*" if abs(self.b) != 1 else ""
        if self.a == 0:
            return f"{'-' if self.b < 0 else ''}{babs}sqrt({self.d})"
        return f"{self.a}{op}{babs}sqrt({self.d})"

    def to_json(self):
        if self.is_rational:
            return str(self.a)
        return {"a": str(self.a), "b": str(self.b), "d": self.d}


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
