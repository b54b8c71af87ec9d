"""Exact polynomial algebra on the round sphere.

Functions on the n-sphere are modeled as sparse polynomials in the
ambient coordinates x0..xn, kept in a canonical normal form modulo the
relation sum_i x_i^2 = 1: every stored monomial carries an x0-exponent of
at most 1 (even powers are rewritten through x0^2 -> 1 - x1^2 - ... -
xn^2).  Because the relation ideal is principal, this normal form is the
unique division remainder, so two polynomials represent the same function
on the sphere exactly when their term maps coincide.

Monomials are exponent tuples of length n+1.  Term maps are dicts
``exponents -> coefficient`` with no explicit zeros.  A ``SpherePoly``
has rational coefficients only: any other coefficient or multiplier
raises ``TypeError``.  Gaussian rational fields are spinors
(``clifford.SpinorPoly``), which keep int maps of their own.

A ``SpherePoly`` keeps int numerators over one shared positive int
denominator, content-normalized as in FLINT's ``fmpq_poly``: the
denominator has no factor in common with all the numerators, so equal
polynomials store equal maps.  The operators scale numerators by ints
(by 2 for U_i and by 4 for the conformal shift n(n-2)/4 on odd n) and
carry the factor in the denominator, so the hot loops never build a
``Fraction``; the kernels see plain int maps.  ``SpherePoly.terms`` is a
read-only view that gives the coefficients as ``Fraction`` values.

Raw (unreduced) ambient polynomials appear in a few operations that are
sensitive to the representative: the Euler operator, the ambient
Laplacian, homogeneous/harmonic splitting.  Those are plain functions on
term maps.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd

from . import _kernel
from .scalars import fmt_rat

Monomial = tuple  # exponent tuple of length n+1


def grlex_key(e: Monomial):
    """Graded lexicographic sort key: degree ascending, then exponent
    tuple descending (so x0-heavy monomials print first within a degree)."""
    return (sum(e), tuple(-x for x in e))


def monomials_of_degree(nvars: int, degree: int):
    """All exponent tuples of the given total degree in nvars variables."""
    if degree == 0:
        yield (0,) * nvars
        return
    for slots in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for s in slots:
            e[s] += 1
        yield tuple(e)


def normal_monomials(n: int, max_degree: int) -> list:
    """Normal-form monomial basis (x0-exponent <= 1) up to max_degree,
    in graded-lex order.  This is a basis of the polynomial functions on
    the n-sphere of degree at most max_degree."""
    out = []
    for d in range(max_degree + 1):
        for e in monomials_of_degree(n, d):
            out.append((0,) + e)
        if d >= 1:
            for e in monomials_of_degree(n, d - 1):
                out.append((1,) + e)
    out.sort(key=grlex_key)
    return out


def count_normal_monomials(n: int, max_degree: int) -> int:
    total = sum(comb(d + n - 1, n - 1) for d in range(max_degree + 1))
    total += sum(comb(d + n - 1, n - 1) for d in range(max_degree))
    return total


# ---------------------------------------------------------------------------
# raw term-map operations (representative-sensitive)
# ---------------------------------------------------------------------------


def deriv_terms(terms: dict, i: int) -> dict:
    """Partial derivative d/dx_i on a raw term map."""
    out = {}
    for e, c in terms.items():
        k = e[i]
        if k:
            ne = e[:i] + (k - 1,) + e[i + 1 :]
            v = c * k
            prev = out.get(ne)
            out[ne] = v if prev is None else prev + v
    return {e: c for e, c in out.items() if c}


def shift_terms(terms: dict, i: int) -> dict:
    """x_i times a raw term map: each exponent goes up by one in slot i, no
    coefficient arithmetic."""
    return {e[:i] + (e[i] + 1,) + e[i + 1 :]: c for e, c in terms.items()}


def euler_terms(terms: dict) -> dict:
    """Euler operator sum_i x_i d/dx_i: scales each monomial by its degree."""
    return {e: c * sum(e) for e, c in terms.items() if sum(e)}


def ambient_laplacian_terms(terms: dict) -> dict:
    """Geometer's ambient Laplacian -sum_i d^2/dx_i^2 on a raw term map."""
    out: dict = {}
    for e, c in terms.items():
        for i, k in enumerate(e):
            if k >= 2:
                ne = e[:i] + (k - 2,) + e[i + 1 :]
                v = c * (k * (k - 1))
                prev = out.get(ne)
                out[ne] = v if prev is None else prev + v
    return {e: -c for e, c in out.items() if c}


def homogeneous_parts(terms: dict) -> dict:
    """Split a raw term map by total degree: degree -> term map."""
    parts: dict = {}
    for e, c in terms.items():
        parts.setdefault(sum(e), {})[e] = c
    return parts


def r2_terms(n: int) -> dict:
    """The ambient squared radius sum_{i=0..n} x_i^2 as a raw term map."""
    out = {}
    for i in range(n + 1):
        e = [0] * (n + 1)
        e[i] = 2
        out[tuple(e)] = Fraction(1)
    return out


def _format_terms(terms: Mapping) -> str:
    """Deterministic text of a term map: graded-lex term order,
    'p/q * x0^a0 ...', '0' for an empty map.  Fractions print by
    ``fmt_rat``, other coefficients (``CRat``) by ``str``."""
    if not terms:
        return "0"
    chunks = []
    for e in sorted(terms, key=grlex_key):
        c = terms[e]
        mono = " ".join(f"x{i}^{k}" for i, k in enumerate(e) if k)
        cs = fmt_rat(c) if isinstance(c, Fraction) else str(c)
        chunks.append(f"{cs} * {mono}" if mono else cs)
    return " + ".join(chunks)


# ---------------------------------------------------------------------------
# SpherePoly
# ---------------------------------------------------------------------------


class _FractionTerms(Mapping):
    """Read-only view of integer numerators over a shared denominator,
    giving each coefficient as a ``Fraction``."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict, den: int):
        self._num = num
        self._den = den

    def __getitem__(self, e):
        return Fraction(self._num[e], self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self):
        return len(self._num)

    def __repr__(self):
        return repr(dict(self.items()))


def _split(terms: dict):
    """``(numerators, denominator)`` of a map of int and Fraction
    coefficients over the least common denominator, zeros dropped."""
    den = 1
    for v in terms.values():
        if type(v) is not int:
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"SpherePoly coefficients are rational, not {type(v).__name__}")
            d = v.denominator
            if den % d:
                den = den // gcd(den, d) * d
    return {e: v.numerator * (den // v.denominator) for e, v in terms.items() if v}, den


def _poly(n: int, num: dict, den: int) -> "SpherePoly":
    """SpherePoly from a reduced map of int numerators over den > 0."""
    p = object.__new__(SpherePoly)
    p._set(n, num, den)
    return p


class SpherePoly:
    """A polynomial function on the n-sphere in canonical normal form.

    ``_num`` maps exponents to nonzero int numerators over the
    content-normalized positive int ``_den``.
    """

    __slots__ = ("n", "_num", "_den", "_hash")

    def __init__(self, n: int, terms: dict, *, reduced: bool = False):
        if n < 2:
            raise ValueError("sphere dimension must be >= 2")
        num, den = _split(terms)
        if not reduced:
            num = _kernel.reduce_terms(num, n)
        self._set(n, num, den)

    def _set(self, n: int, num: dict, den: int):
        """Store a reduced map, dividing the numerators and den by their
        common content.  An empty map gets den 1, since gcd(den) = den."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {e: v // g for e, v in num.items()}
                den //= g
        self.n = n
        self._num = num
        self._den = den
        self._hash = None

    @property
    def terms(self):
        """The coefficient map ``exponents -> Fraction`` (read-only)."""
        return _FractionTerms(self._num, self._den)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "SpherePoly":
        return cls(n, {}, reduced=True)

    @classmethod
    def constant(cls, n: int, c) -> "SpherePoly":
        if not c:
            return cls.zero(n)
        return cls(n, {(0,) * (n + 1): c}, reduced=True)

    @classmethod
    def one(cls, n: int) -> "SpherePoly":
        return cls.constant(n, 1)

    @classmethod
    def coordinate(cls, n: int, i: int) -> "SpherePoly":
        if not 0 <= i <= n:
            raise IndexError(f"coordinate index {i} out of range for S^{n}")
        e = [0] * (n + 1)
        e[i] = 1
        return cls(n, {tuple(e): 1}, reduced=True)

    @classmethod
    def monomial(cls, n: int, exps, c=Fraction(1)) -> "SpherePoly":
        return cls(n, {tuple(exps): c})

    # -- ring structure ---------------------------------------------------

    def _check(self, other: "SpherePoly"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: S^{self.n} vs S^{other.n}")

    def __add__(self, other):
        if isinstance(other, SpherePoly):
            return self.add_scaled(other, 1)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, SpherePoly):
            return self.add_scaled(other, -1)
        return NotImplemented

    def __neg__(self):
        return self.scale(-1)

    def add_scaled(self, other: "SpherePoly", c) -> "SpherePoly":
        """self + c * other."""
        return SpherePoly.combination([(1, self), (c, other)])

    @staticmethod
    def _scaled_maps(pairs) -> tuple:
        """``(n, [(multiplier, map)], den)`` for the sum of c * p over the
        nonempty ``(c, p)`` pairs: int multipliers of the numerator maps
        over their least common denominator."""
        pairs = list(pairs)
        n = pairs[0][1].n
        den = 1
        for c, p in pairs:
            if p.n != n:
                raise ValueError(f"dimension mismatch: S^{n} vs S^{p.n}")
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"SpherePoly multipliers are rational, not {type(c).__name__}")
            q = c.denominator * p._den
            if den % q:
                den = den // gcd(den, q) * q
        return n, [(c.numerator * (den // (c.denominator * p._den)), p._num) for c, p in pairs], den

    @classmethod
    def combination(cls, pairs) -> "SpherePoly":
        """The sum of c * p over the nonempty ``(c, p)`` pairs, in one
        accumulation: rational terms go over their least common denominator
        and the content is divided out once."""
        n, maps, den = cls._scaled_maps(pairs)
        return _poly(n, _kernel.combine_terms(maps), den)

    @classmethod
    def combination_is_zero(cls, pairs) -> bool:
        """Whether ``combination(pairs)`` is zero, from one accumulation of
        the raw numerators: no normalized polynomial is built."""
        return not _kernel.combine_terms(cls._scaled_maps(pairs)[1])

    def coordinate_mul(self, i: int) -> "SpherePoly":
        """x_i times self by an exponent shift.  Only x0 can leave normal form
        (as x0^2), so only i = 0 reduces."""
        if not 0 <= i <= self.n:
            raise IndexError(f"coordinate index {i} out of range for S^{self.n}")
        raw = shift_terms(self._num, i)
        if i == 0:
            raw = _kernel.reduce_terms(raw, self.n)
        return _poly(self.n, raw, self._den)

    def __mul__(self, other):
        if isinstance(other, SpherePoly):
            self._check(other)
            raw = _kernel.mul_terms(self._num, other._num)
            return _poly(self.n, _kernel.reduce_terms(raw, self.n), self._den * other._den)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a SpherePoly")
        out = SpherePoly.one(self.n)
        for _ in range(k):
            out = out * self
        return out

    def scale(self, c) -> "SpherePoly":
        return SpherePoly.combination([(c, self)])

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    def degree(self) -> int:
        """Normal-form degree (-1 for the zero polynomial)."""
        return max((sum(e) for e in self._num), default=-1)

    def __eq__(self, other):
        if isinstance(other, SpherePoly):
            return self.n == other.n and self._den == other._den and self._num == other._num
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self._den, frozenset(self._num.items())))
        return self._hash

    def __repr__(self):
        return f"SpherePoly(n={self.n}, {self})"

    def __str__(self):
        return self.canonical_str()

    def canonical_str(self) -> str:
        """Deterministic text form: graded-lex term order, 'p/q * x0^a0 ...'."""
        return _format_terms(self.terms)

    # -- evaluation ---------------------------------------------------------

    def eval_array(self, points):
        """Vectorized float evaluation; points is an (K, n+1) ndarray."""
        import numpy as np

        out = np.zeros(points.shape[0])
        for e, c in self.terms.items():
            term = np.full(points.shape[0], float(c))
            for i, k in enumerate(e):
                if k:
                    term *= points[:, i] ** k
            out += term
        return out

    # -- calculus on the canonical representative ---------------------------

    def homogeneous_components(self) -> dict:
        return homogeneous_parts(self.terms)


# ---------------------------------------------------------------------------
# integration (normalized measure)
# ---------------------------------------------------------------------------


def _moment_parts(exps: Monomial):
    """``(numerator, |exps| / 2)`` of the moment of an even monomial, or
    None for an odd one: the numerator is prod_i (exps_i - 1)!!, and the
    denominator prod_{s < |exps|/2} (n + 1 + 2 s) depends on n and the
    degree only."""
    if any(k % 2 for k in exps):
        return None
    num = 1
    for k in exps:
        for odd in range(3, k, 2):
            num *= odd
    return num, sum(exps) // 2


def moment_integral(exps: Monomial, n: int) -> Fraction:
    """Integral of the monomial x^exps over S^n in normalized measure.

    Zero for any odd exponent; for exps = 2*beta the value is
    prod_i (2 beta_i - 1)!! / prod_{s<|beta|} (n + 1 + 2 s).
    """
    parts = _moment_parts(exps)
    if parts is None:
        return Fraction(0)
    num, half = parts
    den = 1
    for s in range(half):
        den *= n + 1 + 2 * s
    return Fraction(num, den)


def integrate(p: SpherePoly) -> Fraction:
    """Exact integral over the sphere, normalized measure."""
    # integer sums per half-degree h, then one division: the moment
    # denominators prod_{s<h} (n + 1 + 2 s) all divide the one of the top h
    sums: dict = {}
    for e, v in p._num.items():
        parts = _moment_parts(e)
        if parts is not None:
            num, half = parts
            sums[half] = sums.get(half, 0) + v * num
    top = max(sums, default=0)
    total, factor = 0, 1
    for h in range(top, -1, -1):
        total += sums.get(h, 0) * factor
        if h:
            factor *= p.n + 2 * h - 1
    return Fraction(total, factor * p._den)


# ---------------------------------------------------------------------------
# harmonic (Fischer) decomposition
# ---------------------------------------------------------------------------


class HarmonicDecomposition:
    """Canonical splitting of a sphere polynomial into restrictions of
    ambient-harmonic homogeneous polynomials, one part per degree."""

    __slots__ = ("n", "parts")

    def __init__(self, n: int, parts):
        self.n = n
        # parts: sorted list of (degree, raw ambient term map)
        self.parts = sorted(parts, key=lambda kv: kv[0])

    @property
    def degrees(self):
        return [d for d, _ in self.parts]

    def part(self, degree: int) -> dict:
        for d, h in self.parts:
            if d == degree:
                return h
        return {}

    def restricted(self, degree: int) -> SpherePoly:
        return SpherePoly(self.n, dict(self.part(degree)))

    def reassemble(self) -> SpherePoly:
        if not self.parts:
            return SpherePoly.zero(self.n)
        return SpherePoly.combination((1, SpherePoly(self.n, dict(h))) for _, h in self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)


def _analyst_laplacian(terms: dict) -> dict:
    return {e: -c for e, c in ambient_laplacian_terms(terms).items()}


def _fischer_split_homogeneous(q: dict, d: int, n: int):
    """Fischer data of a homogeneous degree-d raw polynomial:
    q = sum_s r^{2s} h_{d-2s} with every h ambient-harmonic.

    Peels parts from iterated Laplacians, top lift power first, using the
    exact constant c(s,k) = 2s(2k + (n+1) + 2s - 2) in
    Delta+(r^{2s} h_k) = c(s,k) r^{2s-2} h_k.  No linear solves needed.
    """
    N = n + 1

    def c(s, k):
        return Fraction(2 * s * (2 * k + N + 2 * s - 2))

    m = d // 2
    residual = [q]
    for _ in range(m):
        residual.append(_analyst_laplacian(residual[-1]))
    r2 = r2_terms(n)
    parts = []  # (s, harmonic term map of degree d - 2s)
    for s in range(m, -1, -1):
        k = d - 2 * s
        top = Fraction(1)
        for v in range(1, s + 1):
            top *= c(v, k)
        h = {e: coe / top for e, coe in residual[s].items() if coe}
        if not h:
            continue
        parts.append((s, h))
        # subtract this part's image under Delta+^t from the lower iterates
        for t in range(s):
            factor = Fraction(1)
            for u in range(t):
                factor *= c(s - u, k)
            lift = h
            for _ in range(s - t):
                lift = _kernel.mul_terms(lift, r2)
            lift = {e: coe * factor for e, coe in lift.items()}
            residual[t] = _kernel.add_scaled_terms(residual[t], lift, Fraction(-1))
    return parts


def harmonic_decompose(p: SpherePoly) -> HarmonicDecomposition:
    """Decompose into restrictions of harmonic homogeneous polynomials.

    Parts at distinct degrees are unique because restrictions of harmonics
    of distinct degrees are linearly independent on the sphere; parts of
    equal degree coming from different components of the canonical
    representative are merged.
    """
    n = p.n
    merged: dict = {}
    for d, comp in p.homogeneous_components().items():
        for s, h in _fischer_split_homogeneous(comp, d, n):
            k = d - 2 * s
            if k in merged:
                merged[k] = _kernel.add_scaled_terms(merged[k], h, Fraction(1))
            else:
                merged[k] = h
    parts = [(k, h) for k, h in merged.items() if h]
    return HarmonicDecomposition(n, parts)


def harmonic_dimension(n: int, j: int) -> int:
    """Dimension of degree-j harmonic homogeneous polynomials in n+1
    variables (equivalently of the level-j eigenspace on S^n)."""
    if j < 0:
        return 0
    return comb(n + j, n) - (comb(n + j - 2, n) if j >= 2 else 0)
