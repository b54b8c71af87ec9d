"""Matrix/polynomial model of spinor fields and the Dirac operator on S^n.

The gamma matrices e_0..e_n (square -1, pairwise anticommuting) act on a
spinor space of dimension 2^floor((n+1)/2).  Each is i times a tensor
product of Pauli matrices, so it moves every slot to one other slot with
a sign +-1 or +-i; ``GammaAlgebra`` holds only these signed slot moves,
for each e_i and each product e_i e_j, read off the tensor factors.  The
Clifford products of ``clifford_x`` and ``angular_apply`` and the rows of
the monogenic kernel all apply them, and the identity suite checks them
through its own x. as the law x. x. = -1 (``CLIFFORD_LAW``), which is
the Clifford relations.  A polynomial spinor field is a vector of sphere
polynomials with Gaussian rational coefficients, stored as
Gaussian-integer numerators (one real and one imaginary int map, keyed by
the normal-form exponent with the slot appended) over one shared,
content-normalized denominator.  The constructor takes rational
``SpherePoly`` slots only, a Gaussian field is a ``combination`` of such
spinors, and ``SpinorPoly.components`` reads the slots back as
``{exponents: CRat}`` dicts.

The Dirac operator is realized algebraically: with the angular operator
G = -sum_{i<j} e_i e_j (x_i d_j - x_j d_i) and Clifford multiplication by
the vector variable x = sum_i x_i e_i,

    P psi = x . (G - n/2) psi,   reduced to normal form.

That route is kept as ``dirac_reference``.  ``dirac_apply`` treats P as a
sparse linear map over the unit spinor monomials: the column of
(slot, normal-form exponent) is the spinor the reference route builds
for it, memoized, and P psi is the sum of coefficient times column
(already in normal form).  U_i = (1/2)[P^2, x_i] and y_i = [P, x_i] are
column maps of the same kind, keyed by (i, n, slot, exponent); each of
their columns is built by that commutator through ``dirac_apply``, so a
wrong column of P reaches them.  ``_apply_columns`` applies all three and
memoizes whole results in front of the columns, per spinor for P and per
(i, spinor) for U_i and y_i, so a warm suite builds no column and sums
nothing.  Every operator built from P (P^2, U_i, y_i, the truncation
models) goes through the columns.  Every linear combination of spinors,
these column sums included, is one accumulation on ints (``_combine``)
over coefficients (p + q i) / r given as int triples (p, q, r).

The identity suite memoizes three more results beside those tables: x.
per spinor (``_x_image``: the x. x. and x. P + P x. rows and the
footholds; ``clifford_x``, and so ``dirac_reference``, keeps the plain
product), the span ranks of ``_span_rank_identity`` per (n, j, sign), and
the truncation outcome per (n, N) inside ``verify_spinor_identities``
(``truncation_matrices`` and ``TruncationModel.spectrum`` stay
unmemoized).  Each of the nine tables is a ``Memo`` of ``_CACHE_LIMIT``
(20000) entries, emptied when full.  From a suite's second request in
the process on, the ``check_laws`` memos of its unit spinors (the word
images and the pass marks of the law rows) are kept in the table of
``report._suite_memos`` under the suite's five operator callables, which
the scalar suite shares; (4, 2), with 784 units, is too large to be
kept.  ``_clear_operator_caches`` empties all nine tables and
the kept memos, so every change of P goes through it.  A warm suite then
builds no column, makes no Clifford product, reduces no row and sums no
law difference: a warm (2, 1) run takes 0.7-1.3 ms, (2, 2) 1.0-1.7 ms
and (3, 1) 1.8-3.0 ms, against 14-16, 26-41 and 40-58 ms with nothing
kept (medians of 30, 10 and 10 warm runs, three processes each, pinned to
one core of the machine below).  The kept (2, 1) memos hold about 420 KB
by ``tracemalloc``.

On restrictions of degree-k monogenic polynomials M (harmonic,
annihilated by the Euclidean Dirac operator) one has G M = -k M and
G (x.M) = (k+n) x.M, so M -+ x.M are exact P-eigenspinors with
eigenvalues +-(n/2+k); this constant-spinor foothold replaces any
geometric construction, and the legitimacy of the model rests on the
identity suite it passes exactly (conformal covariance, the commutator
definitions of U_i and y_i, the square-sum identities, the spectral
bound).

For odd n the ambient spinor space is two copies of the intrinsic bundle,
so model multiplicities at odd n are doubled; eigenvalue positions and
all operator identities are unaffected.

A truncation model is the matrix of P alone, with no floats: one
echelon pass, coordinates read at the pivots, and a spectrum certified on
the lattice +-(n/2+j) by an annihilating product and trace moments
(``TruncationModel.spectrum``).

Truncation-model cost grows like dim_spin times the count of normal-form
monomials of degree <= N+1 (the Dirac closure adds one degree).  Model
dimensions: n=2 gives 4/12/24 at N=0/1/2; n=3 gives 8/32/80.  Identity
suite cost at N=2 (CPython 3.11.7, one core of a 2-vCPU x86_64 VM, a
fresh process after ``import speclab.cli``, cold caches, three runs),
with the columns of P and of U_i and y_i it builds, the results of P, U_i
and y_i it memoizes, and the peak RSS of the process:

    n   time         columns P, U+y   results P / U / y    peak RSS
    2   0.11-0.12 s    98,  284        1000 /  452 /  490    20 MB
    3   0.7-1.0 s     560, 1544        4260 / 1940 / 2088    29 MB
    4   1.8-3.2 s    1344, 3392        7848 / 3484 / 3768    44 MB

Counted object by object with ``sys.getsizeof``, the U_i and y_i results
hold about 0.6, 3.2 and 6.9 MB of those peaks, the P results 0.7, 3.7
and 7.7 MB, and the columns 0.2, 1.5 and 3.9 MB.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, prod

from . import _kernel
from .linalg import coords_in_span_multi, echelon_coords, nullspace, rref
from .polynomial import (
    SpherePoly,
    _format_terms,
    deriv_terms,
    monomials_of_degree,
    normal_monomials,
    shift_terms,
)
from .report import (
    VerificationReport,
    _clear_suite_memos,
    _suite_memos,
    compose,
    covariance_terms,
    shifted_square_terms,
)
from .scalars import CRat, _norm
from .scalar_ops import NotEigenfunctionError
from .spectral import _odd_poly_coeffs


# ---------------------------------------------------------------------------
# gamma matrices
# ---------------------------------------------------------------------------


# i^t as (p, q) with i^t = p + q i
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))
# the Pauli matrices sigma_1..sigma_3 and the identity 0 by name: the bit
# flip of each and the phase i^t it gives a column bit 0 or 1, as t
_PAULI = {"0": (0, (0, 0)), "1": (1, (0, 0)), "2": (1, (1, 3)), "3": (0, (0, 2))}


def _pauli_moves(word: str) -> dict:
    """The signed slot moves ``{column: (row, p, q)}``, entry p + q i, of i
    times the tensor product of the Pauli factors named in ``word`` (the
    first one on the highest bit of the slot)."""
    m = len(word)
    move = {}
    for col in range(2 ** m):
        row, t = col, 1
        for bit, name in zip(range(m - 1, -1, -1), word):
            flip, phases = _PAULI[name]
            row ^= flip << bit
            t += phases[col >> bit & 1]
        move[col] = (row,) + _I_POWERS[t % 4]
    return move


def _product_moves(a: dict, b: dict) -> dict:
    """The slot moves of the product A B (B applied first)."""
    out = {}
    for col, (r, p, q) in b.items():
        row, s, t = a[r]
        out[col] = (row, p * s - q * t, p * t + q * s)
    return out


class GammaAlgebra:
    """Gamma matrices e_0..e_n with e_i e_j + e_j e_i = -2 delta_ij, held as
    signed slot moves.

    With m = floor((n+1)/2), e_{2a-2} and e_{2a-1} (a = 1..m) are i times
    sigma_3^(a-1) x sigma_1 or sigma_2 x 1^(m-a), and e_2m is i times
    sigma_3^m.  Each is a signed slot permutation: ``moves[i]`` maps each
    slot to its image slot with a sign +-1 or +-i, and ``pair_moves[i, j]``
    (i < j) holds the product e_i e_j.  ``e(i)`` is the dense ``CRat``
    view of e_i.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("n must be >= 2")
        self.n = n
        m = (n + 1) // 2
        self.dim_spin = 2 ** m
        words = ["3" * (a - 1) + s + "0" * (m - a) for a in range(1, m + 1) for s in "12"]
        self.moves = [_pauli_moves(w) for w in words + ["3" * m]][: n + 1]
        pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
        self.pair_moves = {(i, j): _product_moves(self.moves[i], self.moves[j]) for i, j in pairs}

    def e(self, i: int) -> list:
        """e_i as a dense matrix of ``CRat`` entries."""
        if not 0 <= i <= self.n:
            raise IndexError(f"gamma index {i} out of range for S^{self.n}")
        mat = [[CRat(0)] * self.dim_spin for _ in range(self.dim_spin)]
        for col, (row, p, q) in self.moves[i].items():
            mat[row][col] = CRat(p, q)
        return mat


# bounded: the build takes about a millisecond
@lru_cache(maxsize=8)
def gamma_algebra(n: int) -> GammaAlgebra:
    return GammaAlgebra(n)


# ---------------------------------------------------------------------------
# spinor-valued polynomials
# ---------------------------------------------------------------------------


def _gaussian(c) -> tuple:
    """``(p, q, r)`` with c = (p + q i) / r and r > 0."""
    t = type(c)
    if t is int:
        return c, 0, 1
    if t is Fraction:
        return c.numerator, 0, c.denominator
    z = c if t is CRat else CRat(c)
    return z._p, z._q, z._r


def _spinor(n: int, re: dict, im: dict, den: int) -> "SpinorPoly":
    """SpinorPoly from numerator maps keyed by (normal-form exponent, slot)
    (no zero values) over den > 0, divided by their common content.  A
    zero field gets den 1, since gcd(den) = den."""
    if den != 1:
        g = gcd(den, *re.values(), *im.values())
        if g != 1:
            den //= g
            re = {k: v // g for k, v in re.items()}
            im = {k: v // g for k, v in im.items()}
    psi = object.__new__(SpinorPoly)
    psi.n = n
    psi._re = re
    psi._im = im
    psi._den = den
    psi._hash = None
    return psi


def _crat_terms(psi: "SpinorPoly") -> dict:
    """The ``CRat`` coefficients of psi, keyed like its numerator maps."""
    re, im, den = psi._re, psi._im, psi._den
    terms = {k: _norm(CRat, a, im.get(k, 0), den, -1) for k, a in re.items()}
    for k, b in im.items():
        if k not in re:
            terms[k] = _norm(CRat, 0, b, den, -1)
    return terms


def _scaled_maps(n: int, terms: list) -> tuple:
    """``(re, im, den)`` for the sum of ((p + q i) / r) psi over the
    ``((p, q, r), psi)`` terms, spinors on S^n: the ``(multiplier, map)``
    pairs of its real and imaginary numerators over the least common
    denominator den."""
    den = 1
    for (p, q, r), psi in terms:
        if psi.n != n:
            raise ValueError(f"dimension mismatch: S^{n} vs S^{psi.n}")
        rb = r * psi._den
        if (p or q) and den % rb:
            den = den // gcd(den, rb) * rb
    re, im = [], []
    # (p + q i) m (b + c i) = m (p b - q c) + m (p c + q b) i
    for (p, q, r), psi in terms:
        m = den // (r * psi._den)
        if p:
            re.append((m * p, psi._re))
            im.append((m * p, psi._im))
        if q:
            re.append((-m * q, psi._im))
            im.append((m * q, psi._re))
    return re, im, den


def _combine(n: int, terms: list) -> "SpinorPoly":
    """The sum of ((p + q i) / r) psi over the ``((p, q, r), psi)`` terms,
    spinors on S^n, in one real and one imaginary accumulation over the
    least common denominator, with the content divided out once."""
    re, im, den = _scaled_maps(n, terms)
    combine = _kernel.combine_terms
    return _spinor(n, combine(re), combine(im), den)


class SpinorPoly:
    """Polynomial spinor field: dim_spin sphere polynomials with Gaussian
    rational coefficients.

    Stored as Gaussian-integer numerators over one shared denominator:
    ``_re`` and ``_im`` map the keys (e_0, ..., e_n, slot) of normal-form
    monomials to nonzero ints, and ``_den`` > 0 has no factor in common
    with all of them, so equal fields store equal maps.  The constructor
    takes one rational ``SpherePoly`` per slot; a Gaussian field is a
    ``combination`` of such spinors.  ``components`` reads the slots as
    ``{exponents: CRat}`` dicts.
    """

    __slots__ = ("n", "_re", "_im", "_den", "_hash")

    def __init__(self, n: int, components):
        comps = tuple(components)
        want = gamma_algebra(n).dim_spin
        if len(comps) != want:
            raise ValueError(f"expected {want} components, got {len(comps)}")
        for p in comps:
            if not isinstance(p, SpherePoly):
                raise TypeError(f"expected rational SpherePoly slots, got {type(p).__name__}")
            if p.n != n:
                raise ValueError(f"dimension mismatch: S^{n} vs S^{p.n}")
        den = lcm(*(p._den for p in comps))
        re = {e + (s,): v * (den // p._den) for s, p in enumerate(comps) for e, v in p._num.items()}
        psi = _spinor(n, re, {}, den)
        self.n = n
        self._re = psi._re
        self._im = psi._im
        self._den = psi._den
        self._hash = None

    @classmethod
    def zero(cls, n: int) -> "SpinorPoly":
        return _spinor(n, {}, {}, 1)

    @classmethod
    def unit(cls, n: int, slot: int, poly: SpherePoly | None = None) -> "SpinorPoly":
        d = gamma_algebra(n).dim_spin
        if not 0 <= slot < d:
            raise IndexError(f"slot {slot} out of range for S^{n}")
        comps = [SpherePoly.zero(n)] * d
        comps[slot] = poly if poly is not None else SpherePoly.one(n)
        return cls(n, comps)

    @property
    def components(self) -> tuple:
        """The slots as coefficient maps ``exponents -> CRat``, one dict per
        slot (empty for an empty slot)."""
        slots = tuple({} for _ in range(gamma_algebra(self.n).dim_spin))
        for k, z in _crat_terms(self).items():
            slots[k[-1]][k[:-1]] = z
        return slots

    def __add__(self, other: "SpinorPoly") -> "SpinorPoly":
        return self.add_scaled(other, 1)

    def __sub__(self, other: "SpinorPoly") -> "SpinorPoly":
        return self.add_scaled(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "SpinorPoly":
        return SpinorPoly.combination([(c, self)])

    def add_scaled(self, other: "SpinorPoly", c) -> "SpinorPoly":
        """self + c * other."""
        return SpinorPoly.combination([(1, self), (c, other)])

    @classmethod
    def combination(cls, pairs) -> "SpinorPoly":
        """The sum of c * psi over the nonempty ``(c, psi)`` pairs, c a
        Gaussian rational."""
        terms = [(_gaussian(c), psi) for c, psi in pairs]
        return _combine(terms[0][1].n, terms)

    @classmethod
    def combination_is_zero(cls, pairs) -> bool:
        """Whether ``combination(pairs)`` is zero, from the accumulations of
        the raw numerators: no normalized spinor is built."""
        terms = [(_gaussian(c), psi) for c, psi in pairs]
        re, im, _ = _scaled_maps(terms[0][1].n, terms)
        combine = _kernel.combine_terms
        return not combine(re) and not combine(im)

    def _termwise(self, op) -> "SpinorPoly":
        """An int-linear map of term maps on e_0..e_n applied to both maps."""
        return _spinor(self.n, op(self._re), op(self._im), self._den)

    def coordinate_mul(self, i: int) -> "SpinorPoly":
        """x_i times each component, by exponent shifts."""
        n = self.n
        if not 0 <= i <= n:
            raise IndexError(f"coordinate index {i} out of range for S^{n}")
        if i:
            return self._termwise(lambda t: shift_terms(t, i))
        return self._termwise(lambda t: _kernel.reduce_terms(shift_terms(t, 0), n))

    def _move_slots(self, move: dict) -> "SpinorPoly":
        """The signed slot moves ``move`` of a ``GammaAlgebra`` applied:
        each key moves to its entry's row with the entry's sign, and to the
        other map for an entry +-i."""
        re_out, im_out = {}, {}
        for k, v in self._re.items():  # (p + q i) v
            r, p, q = move[k[-1]]
            (re_out if p else im_out)[k[:-1] + (r,)] = (p or q) * v
        for k, v in self._im.items():  # (p + q i) v i
            r, p, q = move[k[-1]]
            (im_out if p else re_out)[k[:-1] + (r,)] = (p or -q) * v
        return _spinor(self.n, re_out, im_out, self._den)

    @property
    def is_zero(self) -> bool:
        return not self._re and not self._im

    def degree(self) -> int:
        return max((sum(k) - k[-1] for t in (self._re, self._im) for k in t), default=-1)

    def __eq__(self, other):
        if isinstance(other, SpinorPoly):
            return (
                self.n == other.n
                and self._den == other._den
                and self._re == other._re
                and self._im == other._im
            )
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.n, self._den, frozenset(self._re.items()), frozenset(self._im.items()))
            )
        return self._hash

    def __repr__(self):
        body = "; ".join(_format_terms(t) for t in self.components)
        return f"SpinorPoly(n={self.n}, [{body}])"


def clifford_x(psi: SpinorPoly) -> SpinorPoly:
    """Clifford multiplication by the vector variable sum_i x_i e_i."""
    moves = gamma_algebra(psi.n).moves
    return SpinorPoly.combination(
        (1, psi._move_slots(moves[i]).coordinate_mul(i)) for i in range(psi.n + 1)
    )


def _angular_terms(terms: dict, i: int, j: int, n: int) -> dict:
    """x_i d_j - x_j d_i on one term map (tangential, so well defined)."""
    raw = _kernel.add_scaled_terms(
        shift_terms(deriv_terms(terms, j), i), shift_terms(deriv_terms(terms, i), j), -1
    )
    return _kernel.reduce_terms(raw, n)


def angular_apply(psi: SpinorPoly) -> SpinorPoly:
    """The ambient angular operator - sum_{i<j} e_i e_j (x_i d_j - x_j d_i);
    acts by -k on restrictions of degree-k monogenics and by k+n on their
    Clifford-x images."""
    n = psi.n
    moves = gamma_algebra(n).pair_moves
    return SpinorPoly.combination(
        (-1, psi._termwise(lambda t: _angular_terms(t, i, j, n))._move_slots(moves[i, j]))
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
    )


_CACHE_LIMIT = 20000
# (n, slot, normal-form exponent) -> image under P of that unit spinor
# monomial.
_DIRAC_COLUMNS = _kernel.Memo(_CACHE_LIMIT)
# (i, n, slot, exponent) -> image under U_i and under y_i, built from P.
_U_COLUMNS = _kernel.Memo(_CACHE_LIMIT)
_Y_COLUMNS = _kernel.Memo(_CACHE_LIMIT)
# Per-spinor results in front of each column map, keyed by (psi,) for P
# and by (i, psi) for U_i and y_i: identity sweeps apply the operators to
# the same spinors repeatedly, and a warm suite applies them to the same
# ones again.
_DIRAC_CACHE = _kernel.Memo(_CACHE_LIMIT)
_U_CACHE = _kernel.Memo(_CACHE_LIMIT)
_Y_CACHE = _kernel.Memo(_CACHE_LIMIT)
# What a warm spinor suite would otherwise rebuild from unchanged inputs:
# psi -> x. psi (the suite's x. and the footholds), (n, j, sign) -> the
# verdict of ``_span_rank_identity``, and (n, N) -> the suite's truncation
# outcome.
_X_CACHE = _kernel.Memo(_CACHE_LIMIT)
_SPAN_CACHE = _kernel.Memo(_CACHE_LIMIT)
_SPECTRUM_CACHE = _kernel.Memo(_CACHE_LIMIT)


def _clear_operator_caches() -> None:
    """Empty the column maps of P, U_i and y_i, their per-spinor results,
    the suite's three memos (x., span ranks, truncation outcomes) and the
    kept ``check_laws`` memos of ``report`` together: the derived columns
    were built from the P columns, and the span ranks, truncation outcomes
    and kept images and pass marks from P."""
    results = (_DIRAC_CACHE, _U_CACHE, _Y_CACHE, _X_CACHE, _SPAN_CACHE, _SPECTRUM_CACHE)
    for table in results + (_DIRAC_COLUMNS, _U_COLUMNS, _Y_COLUMNS):
        table.clear()
    _clear_suite_memos()


def _unit(n: int, slot: int, e: tuple) -> SpinorPoly:
    """The unit spinor monomial x^e in one slot."""
    return _spinor(n, {e + (slot,): 1}, {}, 1)


def _apply_columns(
    psi: SpinorPoly, index: tuple, results: _kernel.Memo, table: _kernel.Memo, build
) -> SpinorPoly:
    """A linear operator given by its columns: the sum over the terms of
    psi of coefficient times the column of (slot, exponent).

    ``index`` is () for P and (i,) for U_i and y_i.  The result is read
    from ``results`` at ``index + (psi,)``, or summed and stored there on
    a miss.  The column of key ``index + (n, slot, e)`` is the spinor
    ``build(*key)`` returns, kept in ``table``.  The columns are summed by
    ``_combine``, the accumulation of every spinor combination: a real
    numerator v of psi over its denominator den is the coefficient
    (v, 0, den) of its column, an imaginary one (0, v, den), so no
    ``CRat`` is built.  Columns are in normal form, hence so is the sum.
    """
    key = index + (psi,)
    hit = results.get(key)
    if hit is not None:
        return hit
    head = index + (psi.n,)
    den = psi._den
    terms = []
    for imag, coeffs in enumerate((psi._re, psi._im)):
        for k, v in coeffs.items():
            col_key = head + (k[-1], k[:-1])
            col = table.get(col_key)
            if col is None:
                col = _memo(table, col_key, build(*col_key))
            terms.append(((0, v, den) if imag else (v, 0, den), col))
    return _memo(results, key, _combine(psi.n, terms))


def _memo(table: _kernel.Memo, key, psi: SpinorPoly) -> SpinorPoly:
    """psi, stored at ``key`` in ``table`` with its maps rebuilt, since
    cancelled keys oversize them."""
    psi._re = {k: v for k, v in psi._re.items()}
    psi._im = {k: v for k, v in psi._im.items()}
    return table.store(key, psi)


def _x_image(psi: SpinorPoly) -> SpinorPoly:
    """x. psi, memoized per spinor in ``_X_CACHE``: the x. of the suite and
    of the footholds.  ``clifford_x`` itself, and so ``dirac_reference``,
    keeps the plain product."""
    hit = _X_CACHE.get(psi)
    if hit is None:
        hit = _memo(_X_CACHE, psi, clifford_x(psi))
    return hit


def _coordinate_mul(i: int, psi: SpinorPoly) -> SpinorPoly:
    """x_i psi, the suite's x_i: one function for every call, so that the
    kept memos of the suite keep their key."""
    return psi.coordinate_mul(i)


def dirac_reference(psi: SpinorPoly) -> SpinorPoly:
    """P psi by its defining route x . (angular - n/2) psi."""
    return clifford_x(SpinorPoly.combination([(1, angular_apply(psi)), (Fraction(-psi.n, 2), psi)]))


def _p_column(n: int, slot: int, e: tuple) -> SpinorPoly:
    """Column of P at one unit spinor monomial, built by the reference route."""
    return dirac_reference(_unit(n, slot, e))


def dirac_apply(psi: SpinorPoly) -> SpinorPoly:
    """The model Dirac operator P = x . (angular - n/2).

    P is linear, so P psi is the sum of coeff * column over the terms of
    psi; each column is built once and kept in ``_DIRAC_COLUMNS``, and
    whole results are memoized in ``_DIRAC_CACHE``.
    """
    return _apply_columns(psi, (), _DIRAC_CACHE, _DIRAC_COLUMNS, _p_column)


def dirac_squared(psi: SpinorPoly) -> SpinorPoly:
    return dirac_apply(dirac_apply(psi))


def _u_column(i: int, n: int, slot: int, e: tuple) -> SpinorPoly:
    """Column of U_i by its definition (1/2)[P^2, x_i], through the
    memoized P, so that a wrong column of P reaches U_i."""
    unit = _unit(n, slot, e)
    a = dirac_squared(unit.coordinate_mul(i))
    b = dirac_squared(unit).coordinate_mul(i)
    return SpinorPoly.combination([(Fraction(1, 2), a), (Fraction(-1, 2), b)])


def _y_column(i: int, n: int, slot: int, e: tuple) -> SpinorPoly:
    """Column of y_i by its definition [P, x_i], through the memoized P."""
    unit = _unit(n, slot, e)
    return dirac_apply(unit.coordinate_mul(i)) - dirac_apply(unit).coordinate_mul(i)


def U_spin(i: int, psi: SpinorPoly) -> SpinorPoly:
    """U_i = (1/2)[P^2, x_i], applied by its memoized columns."""
    return _apply_columns(psi, (i,), _U_CACHE, _U_COLUMNS, _u_column)


def y_apply(i: int, psi: SpinorPoly) -> SpinorPoly:
    """y_i = [P, x_i], applied by its memoized columns."""
    return _apply_columns(psi, (i,), _Y_CACHE, _Y_COLUMNS, _y_column)


def is_eigenspinor(psi: SpinorPoly, lam) -> bool:
    return SpinorPoly.combination([(1, dirac_apply(psi)), (-Fraction(lam), psi)]).is_zero


def dirac_eigenvalue(n: int, j: int, sign: int) -> Fraction:
    return sign * (Fraction(n, 2) + j)


def spinor_ladders(i: int, psi: SpinorPoly, lam, *, check: bool = True) -> tuple:
    """The three first-order moves out of a lam-eigenspinor:

        A_i = U_i + lam x_i + y_i/2   -> eigenvalue lam + 1
        S_i = U_i - lam x_i - y_i/2   -> eigenvalue lam - 1
        N_i = U_i - x_i/2  - lam y_i  -> eigenvalue -lam
    """
    lam = Fraction(lam)
    if check and not is_eigenspinor(psi, lam):
        raise NotEigenfunctionError(f"input is not a {lam}-eigenspinor")
    u = U_spin(i, psi)
    x = psi.coordinate_mul(i)
    y = y_apply(i, psi)
    half = Fraction(1, 2)
    a = SpinorPoly.combination([(1, u), (lam, x), (half, y)])
    s = SpinorPoly.combination([(1, u), (-lam, x), (-half, y)])
    nn = SpinorPoly.combination([(1, u), (-half, x), (-lam, y)])
    return a, s, nn


# ---------------------------------------------------------------------------
# monogenic polynomials and exact eigenspinor bases
# ---------------------------------------------------------------------------


def _check_degree(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def monogenic_dimension(n: int, k: int) -> int:
    _check_degree("k", k)
    d = gamma_algebra(n).dim_spin
    if k == 0:
        return d
    return d * (comb(n + k, k) - comb(n + k - 1, k - 1))


# bounded: a warm CLI session holds a handful of (n, k) and (n, j, sign)
@lru_cache(maxsize=64)
def _monogenic_basis_cached(n: int, k: int) -> tuple:
    """Restrictions of degree-k monogenics: exact kernel of the Euclidean
    Dirac operator on homogeneous degree-k spinor polynomials."""
    alg = gamma_algebra(n)
    d = alg.dim_spin
    monos = sorted(monomials_of_degree(n + 1, k))
    cols = [e + (c,) for c in range(d) for e in monos]
    if k == 0:
        return tuple(SpinorPoly.unit(n, c) for c in range(d))
    col_index = {ce: idx for idx, ce in enumerate(cols)}
    lower = sorted(monomials_of_degree(n + 1, k - 1))
    rows = [[CRat(0)] * len(cols) for _ in range(d * len(lower))]
    for fi, f in enumerate(lower):
        for i in range(n + 1):
            e = f[:i] + (f[i] + 1,) + f[i + 1 :]
            mult = f[i] + 1
            for c, (r, p, q) in alg.moves[i].items():
                rows[r * len(lower) + fi][col_index[e + (c,)]] += CRat(p * mult, q * mult)
    basis_vecs = nullspace(rows, ncols=len(cols))
    expected = monogenic_dimension(n, k)
    if len(basis_vecs) != expected:
        raise AssertionError(
            f"monogenic kernel dimension {len(basis_vecs)} != {expected}"
        )
    return tuple(_rows_to_spinors(basis_vecs, cols, n))


def monogenic_basis(n: int, k: int) -> list:
    _check_degree("k", k)
    return list(_monogenic_basis_cached(n, k))


class FootholdError(AssertionError):
    """A foothold vector M -+ x.M fails the eigen test under P.  Under the
    true P this is an internal invariant failure; the spinor suite reports
    it as failed eigenspace checks."""


@lru_cache(maxsize=128)
def _eigenspinor_basis_cached(n: int, j: int, sign: int) -> tuple:
    lam = dirac_eigenvalue(n, j, sign)
    out = []
    for m in _monogenic_basis_cached(n, j):
        xm = _x_image(m)
        v = m - xm if sign > 0 else m + xm
        if not is_eigenspinor(v, lam):
            raise FootholdError(f"foothold vector fails the eigen test at {lam}")
        out.append(v)
    return tuple(out)


def _foothold_failure(n: int, jmax: int) -> dict | None:
    """Counterexample of the first eigenbasis of levels 0..jmax whose
    foothold fails under the current P, or None when all of them build."""
    for j in range(jmax + 1):
        for sign in (1, -1):
            try:
                _eigenspinor_basis_cached(n, j, sign)
            except FootholdError as exc:
                return {"level": j, "sign": sign, "error": str(exc)}
    return None


def eigenspinor_basis(n: int, j: int, sign: int) -> list:
    """Exact basis of the model eigenspace at eigenvalue sign*(n/2+j)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    _check_degree("j", j)
    return list(_eigenspinor_basis_cached(n, j, sign))


def _spinor_vector(psi: SpinorPoly, index: dict) -> list:
    vec = [CRat(0)] * len(index)
    for k, z in _crat_terms(psi).items():
        vec[index[k]] = z
    return vec


def _spinor_index(n: int, max_degree: int) -> dict:
    d = gamma_algebra(n).dim_spin
    monos = normal_monomials(n, max_degree)
    return {e + (c,): c * len(monos) + k for c in range(d) for k, e in enumerate(monos)}


# ---------------------------------------------------------------------------
# finite truncation models
# ---------------------------------------------------------------------------


class SpectrumError(AssertionError):
    """The truncation model cannot be certified: span(W union P W) is not
    P-invariant, or prod_{lam in L} (P - lam) over the lattice L does not
    vanish on the model.  The product has distinct roots, so it vanishes
    exactly when P is diagonalizable with its spectrum inside L; it fails
    for an eigenvalue off the lattice and for a Jordan block on it.  Under
    the true P this is an internal invariant failure; the spinor suite
    reports it as a failed check."""


@dataclass
class TruncationModel:
    """The exact matrix of P on the Dirac closure of the degree<=N spinor
    monomials.

    The model space is span(W union P W) with W the degree<=N monomial
    spinors; it is P-invariant, since P^2 = (G - n/2)^2 keeps the degree,
    and ``truncation_matrices`` certifies that while it reads the
    coordinates.  ``spectrum`` certifies the eigenvalues of ``p_matrix``
    on the lattice +-(n/2+j).  No finite space is invariant under
    coordinate multiplication, so x_i, U_i and y_i get no model matrix:
    the suite applies them in the full polynomial space, where their laws
    with P hold exactly.
    """

    n: int
    N: int
    basis: list
    p_matrix: list  # p_matrix[i][j] = coefficient of basis_i in P(basis_j)

    @property
    def dim(self) -> int:
        return len(self.basis)

    # -- spectrum ---------------------------------------------------------

    def spectrum(self) -> list:
        """(eigenvalue, multiplicity, certified) rows, exact and float-free.

        Every basis vector is pushed through prod (P - lam) over the
        lattice L = +-(n/2 + j), j = 0..N+1.  If all go to zero, the
        minimal polynomial of P divides prod (x - lam), which has distinct
        roots: P is diagonalizable with its spectrum in L, and the
        multiplicity of mu is the trace of its Lagrange projector.  The
        same pass reads the moments t_k = tr q_k(P), q_k = prod_{i<k}
        (x - L_i), off the diagonals; q_k vanishes on L_0..L_{k-1}, so
        t_k = sum_{i>=k} m_i q_k(L_i) is triangular in the multiplicities.
        """
        d = self.dim
        half = Fraction(self.n, 2)
        lattice = [s * (half + j) for j in range(self.N + 2) for s in (1, -1)]
        cols = [{i: r[j] for i, r in enumerate(self.p_matrix) if r[j]} for j in range(d)]
        moments = [CRat(0)] * len(lattice)
        for b in range(d):
            vec = {b: CRat(1)}
            for k, lam in enumerate(lattice):
                moments[k] += vec.get(b, 0)
                vec = _kernel.combine_terms([(-lam, vec)] + [(c, cols[j]) for j, c in vec.items()])
            if vec:
                raise SpectrumError(
                    f"eigenvalue off the lattice or a Jordan block: basis vector {b} "
                    "survives prod (P - lam) over the lattice"
                )
        mults = [0] * len(lattice)
        for k in reversed(range(len(lattice))):  # back-substitution
            q = [prod(mu - lam for lam in lattice[:k]) for mu in lattice]
            mult = (moments[k] - sum(m * qi for m, qi in zip(mults, q))) / q[k]
            mults[k] = int(mult.re)
            if mult != mults[k]:
                raise SpectrumError(f"trace moments give multiplicity {mult} at {lattice[k]}")
        return sorted((lam, m, True) for lam, m in zip(lattice, mults) if m)


def truncation_matrices(n: int, N: int) -> TruncationModel:
    """Build the exact Dirac matrix model on span(W union P W), W the
    degree<=N spinor monomials: one echelon pass gives the basis, and the
    coordinates of each P image are read at the pivots."""
    if N < 0:
        raise ValueError("N must be >= 0")
    d = gamma_algebra(n).dim_spin
    index = _spinor_index(n, N + 2)
    seed = [_unit(n, c, e) for c in range(d) for e in normal_monomials(n, N)]
    rows = [_spinor_vector(s, index) for s in seed]
    rows += [_spinor_vector(dirac_apply(s), index) for s in seed]
    rref(rows)
    rows = [row for row in rows if any(row)]
    basis = _rows_to_spinors(rows, list(index), n)  # the index lists keys in position order
    images = [_spinor_vector(dirac_apply(b), index) for b in basis]
    cols = echelon_coords(rows, images)
    if any(c is None for c in cols):
        raise SpectrumError("model space is not P-invariant")
    dim = len(basis)
    p_matrix = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    return TruncationModel(n=n, N=N, basis=basis, p_matrix=p_matrix)


def _rows_to_spinors(rows: list, keys: list, n: int) -> list:
    """The spinors with coordinate rows ``rows`` of Gaussian rationals,
    where position p holds the coefficient of the key ``keys[p]`` = (e_0,
    ..., e_n, slot).  A row goes over the lcm of its denominators into one
    real and one imaginary int map, each reduced to normal form with the
    slot carried, so the exponents may be raw."""
    reduce = _kernel.reduce_terms
    out = []
    for row in rows:
        coeffs = [(k, _gaussian(c)) for k, c in zip(keys, row) if c]
        den = lcm(*(r for _, (_, _, r) in coeffs))
        re = {k: p * (den // r) for k, (p, _, r) in coeffs if p}
        im = {k: q * (den // r) for k, (_, q, r) in coeffs if q}
        out.append(_spinor(n, reduce(re, n), reduce(im, n), den))
    return out


# ---------------------------------------------------------------------------
# identity verification suite
# ---------------------------------------------------------------------------


def spinor_laws(n: int, k_max: int) -> list:
    """The spinor operator identity table for ``VerificationReport.check_laws``.

    Symbols: ``x``, ``U`` and ``y`` (indexed) and the Dirac operator ``P``.
    The odd intertwinor of order 2k+1 is P (P^2 - 1^2) ... (P^2 - k^2),
    expanded into powers of P.

    The ladders of ``spinor_ladders`` read lam as P applied first, so they
    are the words A_i = U_i + x_i P + y_i/2, S_i = U_i - x_i P - y_i/2 and
    N_i = U_i - x_i/2 - y_i P, and their eigenvalue moves and summed
    factors are laws of P.  On a lam-eigenspinor a ladder row reads as the
    ladder statement at lam.  P is diagonalizable on polynomial spinors,
    with the model spectrum that ``truncation_matrices`` certifies, so a
    law that holds on every eigenspace holds on their sum: the rows hold
    on the whole space, and the monomial basis checks them.
    """
    laws = [
        (
            "dirac_conformal_covariance",
            "P (U_i - x_i/2) = (U_i + x_i/2) P",
            True,
            covariance_terms([(1, "P")], Fraction(1, 2)),
        ),
        ("y_square_sum", "sum_i y_i^2 = -n", False, [(1, "y y"), (n, "")]),
        ("coordinate_y_sum", "sum_i x_i y_i = 0", False, [(1, "x y")]),
        ("y_coordinate_sum", "sum_i y_i x_i = 0", False, [(1, "y x")]),
        ("uy_commutator_sum", "sum_i [U_i, y_i] = 0", False, [(1, "U y"), (-1, "y U")]),
        (
            "u_square_sum_spinor",
            "sum_i U_i^2 = -P^2 - n/4",
            False,
            [(1, "U U"), (1, "P P"), (Fraction(n, 4), "")],
        ),
    ]
    for a in (Fraction(1), Fraction(-1), Fraction(3, 2)):
        laws.append(
            (
                f"shifted_square_sum_spinor_a={a}",
                "sum_i (U_i + a x_i)^2 = a^2 - P^2 - n/4",
                False,
                shifted_square_terms(a) + [(1, "P P"), (Fraction(n, 4), "")],
            )
        )
    for k in range(k_max + 1):
        odd = [(c, " ".join(["P"] * m)) for m, c in enumerate(_odd_poly_coeffs(k)) if c]
        laws.append(
            (
                f"odd_intertwinor_k={k}",
                "P_(2k+1) (U_i - (k+1/2) x_i) = (U_i + (k+1/2) x_i) P_(2k+1)",
                True,
                covariance_terms(odd, Fraction(2 * k + 1, 2)),
            )
        )
    half = Fraction(1, 2)
    p = [(1, "P")]
    a = [(1, "U"), (1, "x P"), (half, "y")]
    s = [(1, "U"), (-1, "x P"), (-half, "y")]
    nn = [(1, "U"), (-half, "x"), (-1, "y P")]

    def lin(c1, c0):  # c1 P + c0
        return [(c1, "P"), (c0, "")]

    # each ladder law is left = right, each side the product of two factors
    for identity_id, law, per_index, left, right in [
        ("ladder_a_raises", "P A_i = A_i (P + 1), A_i = U_i + x_i P + y_i/2",
         True, (p, a), (a, lin(1, 1))),
        ("ladder_s_lowers", "P S_i = S_i (P - 1), S_i = U_i - x_i P - y_i/2",
         True, (p, s), (s, lin(1, -1))),
        ("ladder_n_flips", "P N_i = -N_i P, N_i = U_i - x_i/2 - y_i P",
         True, (p, nn), (nn, [(-1, "P")])),
        ("ladder_sum_sa", "sum_i S_i A_i = -2 (P + n/2)(P + 1/2)",
         False, (s, a), (lin(-2, -n), lin(1, half))),
        ("ladder_sum_as", "sum_i A_i S_i = -2 (P - n/2)(P - 1/2)",
         False, (a, s), (lin(-2, n), lin(1, -half))),
        ("ladder_sum_nn", "sum_i N_i N_i = (n - 1)(P + 1/2)(P - 1/2)",
         False, (nn, nn), (lin(n - 1, (n - 1) * half), lin(1, -half))),
    ]:
        terms = compose(*left) + [(-c, w) for c, w in compose(*right)]
        laws.append((identity_id, law, per_index, terms))
    return laws


# The Clifford relations as the law x. x. = -1 on the sphere: x. x. + 1 =
# Q(x) + |x|^2 there, with Q(x) = sum_ij x_i x_j e_i e_j a homogeneous
# quadratic form, so the law holds exactly when Q(x) = -|x|^2, which is
# e_i e_j + e_j e_i = -2 delta_ij; the constant unit spinors check it.
CLIFFORD_LAW = (
    "clifford_relations", "e_i e_j + e_j e_i = -2 delta_ij", False, [(1, "X X"), (1, "")]
)

# The eigenspace rows of ``verify_spinor_identities``, as laws of P with L
# meaning P applied first: 2 U_i = P^2 x_i - x_i P^2, and
# ((P - L)^2 - 1)(P + L) x_i = 0.
EIGENSPACE_LAWS = [
    (
        "compressed_u_is_gap_times_x",
        "U_i between eigenspaces = ((mu^2-lam^2)/2) x_i",
        True,
        [(2, "U"), (-1, "P P x"), (1, "x P P")],
    ),
    (
        "coordinate_adjacency",
        "x_i E(lam) lies in E(lam+1) + E(lam-1) + E(-lam)",
        True,
        [
            (1, "P P P x"), (-1, "P P x P"), (-1, "P x P P"), (1, "x P P P"),
            (-1, "P x"), (-1, "x P"),
        ],
    ),
]


def verify_spinor_identities(n: int, N: int) -> VerificationReport:
    """Exact verification of every spinor operator identity, with the odd
    intertwinors of order 2k+1 for k = 0..N.

    ``clifford_relations`` comes first, as x. x. = -1 on the constant unit
    spinors (``CLIFFORD_LAW``).  The operator identities, the ladder rows
    included, are applied exactly to the full spinor monomial basis of
    degree <= N (no truncation artifacts).  ``dirac_anticommutes_with_x``,
    x. P + P x. = 0, runs on the normal-form unit spinors of degree
    <= N + 3, so it reads every column of P that the suite builds (degree
    <= N + 4).  It holds because P = x.(G - n/2) and (x.)^2 = -1 give
    x. P = -(G - n/2), and x. anticommutes with G - n/2, so P x. =
    x.(G - n/2) x. = G - n/2.

    The two eigenspace rows are laws of P on the degree <= N monomials
    too, with L meaning P applied first, as lam in the ladder rows.
    ``compressed_u_is_gap_times_x`` is 2 U_i = P^2 x_i - x_i P^2, whose
    compression from E(lam) to E(mu) is (mu^2 - lam^2) x_i.
    ``coordinate_adjacency`` is ((P - L)^2 - 1)(P + L) x_i = 0: the
    polynomial ((mu - lam)^2 - 1)(mu + lam) vanishes exactly at mu =
    lam + 1, lam - 1 and -lam.  The span statement runs on the exact model
    eigenbases of levels 0..1; the spectrum statements run on the
    certified truncation model.  A wrong P is reported, not raised:
    ``adjacent_span_rank`` fails with the error of an eigenbasis whose
    foothold fails the eigen test, or else with the first level whose
    spans differ, and a truncation spectrum that cannot be certified
    fails ``truncation_spectrum_lattice`` and ``spectral_bound``.  Those two pass exactly when
    ``truncation_matrices(n, N).spectrum()`` certifies: every certified row
    lies on +-(n/2+j) by construction, and (n/2)^2 >= n(n-1)/4.
    """
    if not 1 <= N <= 2:
        raise ValueError("N must be 1 or 2")
    report = VerificationReport(scope="spinor", n=n, degree_cap=N)
    d = gamma_algebra(n).dim_spin

    def units(degree):  # (slot, exponent) of each normal-form unit spinor of degree <= degree
        return [(c, e) for c in range(d) for e in normal_monomials(n, degree)]

    # built per call, so that a rebound module-level name (a patch, a tracer) is used
    ops = {"P": dirac_apply, "X": _x_image}
    indexed_ops = {"x": _coordinate_mul, "U": U_spin, "y": y_apply}
    top = units(N + 3)
    kept = _suite_memos((n, N), top, (*ops.values(), *indexed_ops.values()))
    kept = None if kept is None else dict(zip(top, kept))

    def check(degree, laws):
        keys = units(degree)
        memos = None if kept is None else [kept[key] for key in keys]
        report.check_laws([_unit(n, c, e) for c, e in keys], laws, ops, indexed_ops, memos)

    check(0, [CLIFFORD_LAW])
    check(N, spinor_laws(n, N))
    x_law = ("dirac_anticommutes_with_x", "x. P + P x. = 0", False, [(1, "X P"), (1, "P X")])
    check(N + 3, [x_law])
    check(N, EIGENSPACE_LAWS)

    # span identity on the exact bases of levels 0..1, whose adjacent
    # levels reach 2: x_i, P x_i, P^2 x_i images fill the adjacent sum.
    # Without the bases (a foothold fails the eigen test) it fails
    span_cx = _foothold_failure(n, 2)
    if span_cx is None:
        span_cx = next(
            (
                {"level": j, "sign": sign}
                for j in range(2)
                for sign in (1, -1)
                if not _span_rank_identity(n, j, sign)
            ),
            None,
        )
    report.add(
        "adjacent_span_rank",
        "span{x_i E, P x_i E, P^2 x_i E} = E(lam+1) + E(lam-1) + E(-lam)",
        span_cx is None,
        span_cx,
    )

    # certified truncation spectrum on the lattice + the spectral bound;
    # a spectrum that cannot be certified (a wrong P) fails both checks.
    # The outcome, None or the error text, is memoized per (n, N) here
    # only: truncation_matrices and spectrum() themselves stay unmemoized
    if (n, N) in _SPECTRUM_CACHE:
        error = _SPECTRUM_CACHE[n, N]
    else:
        try:
            truncation_matrices(n, N).spectrum()
            error = None
        except SpectrumError as exc:
            error = str(exc)
        _SPECTRUM_CACHE.store((n, N), error)
    ok, cx = (True, None) if error is None else (False, {"error": error})
    report.add(
        "truncation_spectrum_lattice", "certified truncation spectrum lies on +-(n/2+j)", ok, cx
    )
    report.add("spectral_bound", "lam^2 >= n(n-1)/4 on the model spectrum", ok, cx)
    return report


def _span_rank_identity(n: int, j: int, sign: int) -> bool:
    """Exact rank check that the coordinate images of an eigenspace,
    together with their first and second Dirac images, span exactly the
    three adjacent eigenspaces."""
    key = (n, j, sign)
    if key in _SPAN_CACHE:  # the bases and the images of P are fixed until a clear
        return _SPAN_CACHE[key]
    source = eigenspinor_basis(n, j, sign)
    generated = []
    for psi in source:
        for i in range(n + 1):
            v = psi.coordinate_mul(i)
            pv = dirac_apply(v)
            ppv = dirac_apply(pv)
            generated.extend([v, pv, ppv])
    targets = []
    target_dim = 0
    for mu_j, mu_sign in _adjacent_levels(n, j, sign):
        basis = eigenspinor_basis(n, mu_j, mu_sign)
        targets.extend(basis)
        target_dim += len(basis)
    cap = max(v.degree() for v in generated) + 1
    index = _spinor_index(n, cap)
    gen_rows = [_spinor_vector(v, index) for v in generated]
    tgt_rows = [_spinor_vector(v, index) for v in targets]
    # the bases are independent: rank(gen) = target_dim with every reduced
    # row in the span of the targets means equal spans
    rank_gen = len(rref(gen_rows))
    ok = rank_gen == target_dim and None not in coords_in_span_multi(tgt_rows, gen_rows[:rank_gen])
    return _SPAN_CACHE.store(key, ok)


def _adjacent_levels(n: int, j: int, sign: int):
    """Model levels adjacent to (j, sign): eigenvalues lam+1, lam-1, -lam
    that actually occur on the lattice."""
    lam = dirac_eigenvalue(n, j, sign)
    out = []
    for mu in (lam + 1, lam - 1, -lam):
        t = abs(mu) - Fraction(n, 2)
        if t.denominator == 1 and t >= 0:
            out.append((int(t), 1 if mu > 0 else -1))
    return out
