"""Exact scalar types: rationals and complex rationals.

The rational carrier is the stdlib ``fractions.Fraction`` (arbitrary
precision, always in lowest terms with positive denominator).  ``CRat``
adds an exact Gaussian-rational layer on top, which is what the gamma
matrix construction and all spinor coefficients need.
"""

from __future__ import annotations

from fractions import Fraction

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

    Arithmetic skips zero parts: almost every coefficient of the spinor
    model is real or purely imaginary, so a product usually costs two
    ``Fraction`` multiplies instead of four multiplies and two adds.
    Results are built by ``_crat`` from parts that are already
    ``Fraction``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = as_rat(re)
        self.im = as_rat(im)

    # -- algebra -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, CRat):
            a, b, c, d = self.re, self.im, other.re, other.im
            return _crat(a + c if a and c else a or c, b + d if b and d else b or d)
        if isinstance(other, _RatLike):
            return _crat(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, CRat):
            a, b, c, d = self.re, self.im, other.re, other.im
            return _crat(a - c if c else a, b - d if d else b)
        if isinstance(other, _RatLike):
            return _crat(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _RatLike):
            return _crat(other - self.re, -self.im if self.im else self.im)
        return NotImplemented

    def __neg__(self):
        a, b = self.re, self.im
        return _crat(-a if a else a, -b if b else b)

    def __mul__(self, other):
        if isinstance(other, CRat):
            a, b, c, d = self.re, self.im, other.re, other.im
            if not b:
                return _crat(a * c if a and c else _ZERO, a * d if a and d else _ZERO)
            if not a:
                return _crat(-(b * d) if d else _ZERO, b * c if c else _ZERO)
            if not d:
                return _crat(a * c, b * c)
            if not c:
                return _crat(-(b * d), a * d)
            return _crat(a * c - b * d, a * d + b * c)
        if isinstance(other, _RatLike):
            a, b = self.re, self.im
            return _crat(a * other if a else a, b * other if b else b)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, CRat) and not other.im:
            other = other.re
        if isinstance(other, _RatLike):
            if not other:
                raise ZeroDivisionError("division by zero CRat")
            a, b = self.re, self.im
            return _crat(a / other if a else a, b / other if b else b)
        if isinstance(other, CRat):
            d = other.re * other.re + other.im * other.im
            return CRat(
                (self.re * other.re + self.im * other.im) / d,
                (self.im * other.re - self.re * other.im) / d,
            )
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _RatLike):
            return CRat(other) / self
        return NotImplemented

    # -- structure -----------------------------------------------------

    def conjugate(self) -> "CRat":
        return _crat(self.re, -self.im if self.im else self.im)

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return self.re * self.re + self.im * self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, _RatLike):
            return self.im == 0 and self.re == other
        if isinstance(other, CRat):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"CRat({self.re!s}, {self.im!s})"

    def __str__(self):
        # matrix dump format: "a/b+c/d i" with an explicit sign
        if self.im >= 0:
            return f"{fmt_rat(self.re)}+{fmt_rat(self.im)} i"
        return f"{fmt_rat(self.re)}-{fmt_rat(-self.im)} i"


_ZERO = Fraction(0)
_new = object.__new__


def _crat(re: Fraction, im: Fraction) -> CRat:
    """CRat from parts that are already ``Fraction`` (no coercion)."""
    z = _new(CRat)
    z.re = re
    z.im = im
    return z


CRAT_ZERO = CRat(0)
CRAT_ONE = CRat(1)
CRAT_I = CRat(0, 1)


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
