"""Exact scalar types: rationals and complex rationals.

The rational carrier is the stdlib ``fractions.Fraction`` (arbitrary
precision, always in lowest terms with positive denominator).  ``CRat``
adds an exact Gaussian-rational layer, which is what the gamma matrix
construction and all spinor coefficients need.  A ``CRat`` is three
Python ints, (a + b i) / d, kept in a normal form (d > 0, gcd(a, b, d) = 1,
zero is (0, 0, 1)), so its arithmetic is int arithmetic plus at most one
``math.gcd`` per result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Rat = Fraction

_RatLike = (Fraction, int)


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


class CRat:
    """Complex number with exact rational real and imaginary parts.

    Stored as ints (a + b i) / d in normal form: d > 0, gcd(a, b, d) = 1,
    and zero as (0, 0, 1).  Equal values therefore have equal triples, and
    results with d = 1 (Gaussian integers: every gamma matrix entry and
    most columns of the Dirac operator) need no gcd at all.  ``re`` and
    ``im`` are read-only ``Fraction`` views.  Multiplication skips zero
    parts: almost every coefficient of the spinor model is real or purely
    imaginary.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re, im = as_rat(re), as_rat(im)
        q, s = re.denominator, im.denominator
        d = q * s // gcd(q, s)
        # over the lcm of two lowest-terms denominators, gcd(a, b, d) = 1
        self._a = re.numerator * (d // q)
        self._b = im.numerator * (d // s)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __reduce__(self):
        return _crat, (self._a, self._b, self._d)

    # -- algebra -------------------------------------------------------

    def __add__(self, other):
        a, b, d = self._a, self._b, self._d
        if type(other) is CRat:
            f = other._d
            if d == f:
                return _norm(a + other._a, b + other._b, d)
            return _norm(a * f + other._a * d, b * f + other._b * d, d * f)
        if isinstance(other, int):
            # adding a multiple of d keeps gcd(a, b, d) = 1
            return _crat(a + other * d, b, d)
        if isinstance(other, Fraction):
            p, q = other.numerator, other.denominator
            return _norm(a * q + p * d, b * q, d * q)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        a, b, d = self._a, self._b, self._d
        if type(other) is CRat:
            f = other._d
            if d == f:
                return _norm(a - other._a, b - other._b, d)
            return _norm(a * f - other._a * d, b * f - other._b * d, d * f)
        if isinstance(other, int):
            return _crat(a - other * d, b, d)
        if isinstance(other, Fraction):
            p, q = other.numerator, other.denominator
            return _norm(a * q - p * d, b * q, d * q)
        return NotImplemented

    def __rsub__(self, other):
        a, b, d = self._a, self._b, self._d
        if isinstance(other, int):
            return _crat(other * d - a, -b, d)
        if isinstance(other, Fraction):
            p, q = other.numerator, other.denominator
            return _norm(p * d - a * q, -b * q, d * q)
        return NotImplemented

    def __neg__(self):
        return _crat(-self._a, -self._b, self._d)

    def __mul__(self, other):
        a, b, d = self._a, self._b, self._d
        if type(other) is CRat:
            c, e = other._a, other._b
            if not b:
                re, im = a * c, a * e
            elif not a:
                re, im = -(b * e), b * c
            elif not e:
                re, im = a * c, b * c
            elif not c:
                re, im = -(b * e), a * e
            else:
                re, im = a * c - b * e, a * e + b * c
            return _norm(re, im, d * other._d)
        if isinstance(other, int):
            return _norm(a * other, b * other, d)
        if isinstance(other, Fraction):
            return _norm(a * other.numerator, b * other.numerator, d * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b, d = self._a, self._b, self._d
        if type(other) is CRat:
            c, e, f = other._a, other._b, other._d
            if e:
                # z / w = z conj(w) f / (c^2 + e^2) for w = (c + e i) / f
                a, b, d = (a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e)
            elif c:
                a, b, d = a * f, b * f, d * c
            else:
                raise ZeroDivisionError("division by zero CRat")
        elif isinstance(other, int):
            if not other:
                raise ZeroDivisionError("division by zero CRat")
            d *= other
        elif isinstance(other, Fraction):
            if not other:
                raise ZeroDivisionError("division by zero CRat")
            a, b, d = a * other.denominator, b * other.denominator, d * other.numerator
        else:
            return NotImplemented
        if d < 0:
            a, b, d = -a, -b, -d
        return _norm(a, b, d)

    def __rtruediv__(self, other):
        if isinstance(other, _RatLike):
            return CRat(other) / self
        return NotImplemented

    # -- structure -----------------------------------------------------

    def conjugate(self) -> "CRat":
        return _crat(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if type(other) is CRat:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (
                not self._b
                and self._a == other.numerator
                and self._d == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        # a real value hashes as the equal int or Fraction
        if self._b:
            return hash((self._a, self._b, self._d))
        if self._d == 1:
            return hash(self._a)
        return hash(Fraction(self._a, self._d))

    def __complex__(self):
        d = self._d
        return complex(self._a / d, self._b / d)

    def __repr__(self):
        return f"CRat({self.re!s}, {self.im!s})"

    def __str__(self):
        # matrix dump format: "a/b+c/d i" with an explicit sign
        if self._b >= 0:
            return f"{fmt_rat(self.re)}+{fmt_rat(self.im)} i"
        return f"{fmt_rat(self.re)}-{fmt_rat(-self.im)} i"


_new = object.__new__


def _crat(a: int, b: int, d: int) -> CRat:
    """CRat from a triple already in normal form (no checks)."""
    z = _new(CRat)
    z._a = a
    z._b = b
    z._d = d
    return z


def _norm(a: int, b: int, d: int) -> CRat:
    """CRat from a triple with d > 0, divided down to normal form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _new(CRat)
    z._a = a
    z._b = b
    z._d = d
    return z


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
