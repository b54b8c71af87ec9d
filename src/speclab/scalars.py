"""Exact scalar types: rationals, and numbers of a quadratic field.

The rational carrier is the stdlib ``fractions.Fraction`` (arbitrary
precision, always in lowest terms with positive denominator).  Both exact
extensions of it are quadratic fields and share one core, ``_QuadField``:
four Python ints (p + q sqrt(d)) / r in a normal form (r > 0,
gcd(p, q, r) = 1, d squarefree, and q = 0, d = 1 for a rational), so
their arithmetic is int arithmetic plus at most one ``math.gcd`` per
result, through the one normalizer ``_norm``.  ``CRat`` is the field
d = -1, the Gaussian rationals that the gamma matrix construction and all
spinor coefficients need; ``surd.Quad`` is a real field Q[sqrt(d)],
d > 1, where eigenvalue descent chains live.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Rat = Fraction

def as_rat(x) -> Fraction:
    """Coerce ints/Fractions/strings like '3/4' to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"not an exact rational: {x!r}")


def fmt_rat(x: Fraction) -> str:
    """Canonical 'p/q' form, denominator always shown."""
    return f"{x.numerator}/{x.denominator}"


class _QuadField:
    """(p + q sqrt(d)) / r on four ints in the normal form of the module
    docstring, so equal values have equal ints and a real value hashes as
    the equal int or ``Fraction``.  A subclass fixes the fields and keeps
    its views and text.  Operands are ints, Fractions and numbers of the
    same class (anything else, the other subclass included, is
    ``NotImplemented``); irrational operands of two fields raise
    ``ValueError("mixed radicands")``.  Multiplication skips zero parts:
    almost every coefficient of the spinor model is real or imaginary.
    """

    __slots__ = ("_p", "_q", "_r", "_d")
    _ZERO_DIVISION = "division by zero"

    def __init__(self, a: Fraction, b: Fraction, d: int):
        u, v = a.denominator, b.denominator
        r = u * v // gcd(u, v)
        # over the lcm of two lowest-terms denominators, gcd(p, q, r) = 1
        self._p = a.numerator * (r // u)
        self._q = q = b.numerator * (r // v)
        self._r = r
        self._d = d if q else 1

    def __reduce__(self):
        return _norm, (type(self), self._p, self._q, self._r, self._d)

    # -- algebra -------------------------------------------------------
    # an int or Fraction operand keeps the field; a number of this class is
    # unpacked inline, and sets the field when only it is irrational

    def __add__(self, other):
        cls, D = type(self), self._d
        if type(other) is cls:
            p, q, r = other._p, other._q, other._r
            if q and other._d != D:
                D = _field(self._q, other._d)
        else:
            o = _rational(other)
            if o is None:
                return NotImplemented
            (p, r), q = o, 0
        P, Q, R = self._p, self._q, self._r
        if r == R:
            return _norm(cls, P + p, Q + q, R, D)
        return _norm(cls, P * r + p * R, Q * r + q * R, R * r, D)

    __radd__ = __add__

    def __sub__(self, other):
        cls, D = type(self), self._d
        if type(other) is cls:
            p, q, r = other._p, other._q, other._r
            if q and other._d != D:
                D = _field(self._q, other._d)
        else:
            o = _rational(other)
            if o is None:
                return NotImplemented
            (p, r), q = o, 0
        P, Q, R = self._p, self._q, self._r
        if r == R:
            return _norm(cls, P - p, Q - q, R, D)
        return _norm(cls, P * r - p * R, Q * r - q * R, R * r, D)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _norm(type(self), -self._p, -self._q, self._r, self._d)

    def __mul__(self, other):
        cls, D = type(self), self._d
        if type(other) is cls:
            p, q, r = other._p, other._q, other._r
            if q and other._d != D:
                D = _field(self._q, other._d)
        else:
            o = _rational(other)
            if o is None:
                return NotImplemented
            (p, r), q = o, 0
        P, Q = self._p, self._q
        if not Q:
            x, y = P * p, P * q
        elif not P:
            x, y = Q * q * D, Q * p
        elif not q:
            x, y = P * p, Q * p
        elif not p:
            x, y = Q * q * D, P * q
        else:
            x, y = P * p + Q * q * D, P * q + Q * p
        return _norm(cls, x, y, self._r * r, D)

    __rmul__ = __mul__

    def __truediv__(self, other):
        cls, D = type(self), self._d
        if type(other) is cls:
            p, q, r = other._p, other._q, other._r
            if q and other._d != D:
                D = _field(self._q, other._d)
        else:
            o = _rational(other)
            if o is None:
                return NotImplemented
            (p, r), q = o, 0
        P, Q, R = self._p, self._q, self._r
        if q:
            # multiply by the conjugate of the divisor, whose norm is
            # p^2 - q^2 d != 0 (d is squarefree and not 1)
            norm = p * p - q * q * D
            P, Q, R = (P * p - Q * q * D) * r, (Q * p - P * q) * r, R * norm
        elif p:
            P, Q, R = P * r, Q * r, R * p
        else:
            raise ZeroDivisionError(self._ZERO_DIVISION)
        if R < 0:
            P, Q, R = -P, -Q, -R
        return _norm(cls, P, Q, R, D)

    def __bool__(self):
        return self._p != 0 or self._q != 0

    def __eq__(self, other):
        if type(other) is type(self):
            return (
                self._p == other._p
                and self._q == other._q
                and self._r == other._r
                and self._d == other._d
            )
        if isinstance(other, int):
            return not self._q and self._r == 1 and self._p == other
        if isinstance(other, Fraction):
            return not self._q and self._p == other.numerator and self._r == other.denominator
        return NotImplemented

    def __hash__(self):
        # a real value hashes as the equal int or Fraction
        if self._q:
            return hash((self._p, self._q, self._r, self._d))
        if self._r == 1:
            return hash(self._p)
        return hash(Fraction(self._p, self._r))


_new = object.__new__


def _norm(cls, p: int, q: int, r: int, d: int):
    """The ``cls`` number (p + q sqrt(d)) / r from ints with r > 0 and d
    squarefree (trusted, never factored), divided down to normal form."""
    if not q:
        d = 1
    if r != 1:
        g = gcd(p, q, r)
        if g != 1:
            p, q, r = p // g, q // g, r // g
    z = _new(cls)
    z._p = p
    z._q = q
    z._r = r
    z._d = d
    return z


def _rational(x):
    """``(p, r)`` of an int or a Fraction x = p / r, else None."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return None


def _field(Q: int, d: int) -> int:
    """The field of a result whose second operand is irrational in the
    field d and whose first has irrational part Q in another field."""
    if Q:
        raise ValueError("mixed radicands")
    return d


class CRat(_QuadField):
    """Complex number with exact rational real and imaginary parts.

    The field d = -1 of ``_QuadField``: (a + b i) / r with i = sqrt(-1).
    Results with r = 1 (Gaussian integers: every gamma matrix entry and
    most columns of the Dirac operator) need no gcd at all.  ``re`` and
    ``im`` are read-only ``Fraction`` views.
    """

    __slots__ = ()
    _ZERO_DIVISION = "division by zero CRat"

    def __init__(self, re=0, im=0):
        super().__init__(as_rat(re), as_rat(im), -1)

    @property
    def re(self) -> Fraction:
        return Fraction(self._p, self._r)

    @property
    def im(self) -> Fraction:
        return Fraction(self._q, self._r)

    def __rtruediv__(self, other):
        if isinstance(other, (Fraction, int)):
            return CRat(other) / self
        return NotImplemented

    def conjugate(self) -> "CRat":
        return _norm(CRat, self._p, -self._q, self._r, -1)

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return Fraction(self._p ** 2 + self._q ** 2, self._r ** 2)

    def __complex__(self):
        return complex(self._p / self._r, self._q / self._r)

    def __repr__(self):
        return f"CRat({self.re!s}, {self.im!s})"

    def __str__(self):
        # matrix dump format: "a/b+c/d i" with an explicit sign
        if self._q >= 0:
            return f"{fmt_rat(self.re)}+{fmt_rat(self.im)} i"
        return f"{fmt_rat(self.re)}-{fmt_rat(-self.im)} i"


def parse_crat(text: str) -> CRat:
    """Inverse of ``str(CRat)``: parse 'a/b+c/d i' (or 'a/b-c/d i')."""
    s = text.strip()
    if not s.endswith("i"):
        return CRat(Fraction(s))
    body = s[:-1].strip()
    # split at the sign that separates real and imaginary parts: it is the
    # +/- that follows the real part's denominator, never the leading sign
    for k in range(1, len(body)):
        if body[k] in "+-" and body[k - 1] not in "+-/":
            re_part = body[:k]
            im_part = body[k] + body[k + 1 :]
            return CRat(Fraction(re_part), Fraction(im_part.replace("+", "", 1) if im_part.startswith("+") else im_part))
    raise ValueError(f"cannot parse complex rational: {text!r}")
