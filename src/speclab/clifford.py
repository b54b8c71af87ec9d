"""Matrix/polynomial model of spinor fields and the Dirac operator on S^n.

The gamma matrices e_0..e_n (square -1, pairwise anticommuting) act on a
spinor space of dimension 2^floor((n+1)/2) and are built by the standard
tensor-product construction with exact Gaussian-rational entries.  A
polynomial spinor field is a vector of sphere polynomials with CRat
coefficients.

The Dirac operator is realized algebraically: with the angular operator
G = -sum_{i<j} e_i e_j (x_i d_j - x_j d_i) and Clifford multiplication by
the vector variable x = sum_i x_i e_i,

    P psi = x . (G - n/2) psi,   reduced to normal form.

That route is kept as ``dirac_reference``.  ``dirac_apply`` treats P as a
sparse linear map over the unit spinor monomials: the column of
(slot, normal-form exponent) is built once by the reference route and
memoized, and P psi is the sum of coefficient times column, accumulated
per slot (already in normal form).  Whole results are memoized per spinor
in front of the columns.  Every operator built from P (P^2, U_i, y_i, the
truncation models) goes through the columns.

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

Truncation models use no floats: one echelon pass, coordinates read at
the pivots, and a spectrum certified on the lattice +-(n/2+j) by an
annihilating product and trace moments (``TruncationModel.spectrum``).

Truncation-model cost grows like dim_spin times the count of normal-form
monomials of degree <= N+1 (the Dirac closure adds one degree).  Model
dimensions: n=2 gives 4/12/24 at N=0/1/2; n=3 gives 8/32/80.  Identity
suite cost on the pure-Python backend (CPython 3.11, one core of a 2-vCPU
VM, cold caches): n=2, N=2 takes 0.9 s over 72 columns of P; n=3, N=2
6.7 s over 364 columns; n=4 takes 4.6 s at N=1 (400 columns) and 17 s at
N=2 (780 columns).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, prod

from .linalg import (
    coords_in_span_multi,
    echelon_coords,
    mat_mul,
    mat_scale,
    nullspace,
    rref,
)
from .polynomial import (
    SpherePoly,
    integrate,
    monomials_of_degree,
    normal_monomials,
)
from .report import VerificationReport, covariance_terms, shifted_square_terms
from .scalars import CRat
from .scalar_ops import NotEigenfunctionError


# ---------------------------------------------------------------------------
# gamma matrices
# ---------------------------------------------------------------------------


def _kron(a, b):
    out = []
    for ra in a:
        for rb in b:
            out.append([x * y for x in ra for y in rb])
    return out


_SIGMA1 = [[CRat(0), CRat(1)], [CRat(1), CRat(0)]]
_SIGMA2 = [[CRat(0), CRat(0, -1)], [CRat(0, 1), CRat(0)]]
_SIGMA3 = [[CRat(1), CRat(0)], [CRat(0), CRat(-1)]]
_ID2 = [[CRat(1), CRat(0)], [CRat(0), CRat(1)]]


class GammaAlgebra:
    """Exact gamma matrices e_0..e_n with e_i e_j + e_j e_i = -2 delta_ij."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("n must be >= 2")
        self.n = n
        m = (n + 1) // 2
        self.dim_spin = 2 ** m
        hermitian = []
        for a in range(1, m + 1):
            for sig in (_SIGMA1, _SIGMA2):
                mat = [[CRat(1)]]
                for _ in range(a - 1):
                    mat = _kron(mat, _SIGMA3)
                mat = _kron(mat, sig)
                for _ in range(m - a):
                    mat = _kron(mat, _ID2)
                hermitian.append(mat)
        top = [[CRat(1)]]
        for _ in range(m):
            top = _kron(top, _SIGMA3)
        hermitian.append(top)
        i_unit = CRat(0, 1)
        self.matrices = [mat_scale(g, i_unit) for g in hermitian[: n + 1]]
        self._pair_cache: dict = {}

    def e(self, i: int):
        return self.matrices[i]

    def pair(self, i: int, j: int):
        """Cached product e_i e_j."""
        key = (i, j)
        if key not in self._pair_cache:
            self._pair_cache[key] = mat_mul(self.matrices[i], self.matrices[j])
        return self._pair_cache[key]

    def check_relations(self) -> bool:
        d = self.dim_spin
        for i in range(self.n + 1):
            for j in range(i, self.n + 1):
                anti = [
                    [self.pair(i, j)[r][c] + self.pair(j, i)[r][c] for c in range(d)]
                    for r in range(d)
                ]
                want = CRat(-2) if i == j else CRat(0)
                for r in range(d):
                    for c in range(d):
                        expect = want if r == c else CRat(0)
                        if anti[r][c] != expect:
                            return False
        return True


@lru_cache(maxsize=None)
def gamma_algebra(n: int) -> GammaAlgebra:
    return GammaAlgebra(n)


# ---------------------------------------------------------------------------
# spinor-valued polynomials
# ---------------------------------------------------------------------------


def _crat_poly(p: SpherePoly) -> SpherePoly:
    for v in p.terms.values():
        if isinstance(v, CRat):
            return p  # constructors keep coefficient types uniform
        break
    else:
        return p
    terms = {e: c if isinstance(c, CRat) else CRat(c) for e, c in p.terms.items()}
    return SpherePoly(p.n, terms, reduced=True)


class SpinorPoly:
    """Polynomial spinor field: dim_spin sphere polynomials, CRat coeffs."""

    __slots__ = ("n", "components", "_hash")

    def __init__(self, n: int, components):
        self.n = n
        self.components = tuple(_crat_poly(c) for c in components)
        self._hash = None
        want = gamma_algebra(n).dim_spin
        if len(self.components) != want:
            raise ValueError(f"expected {want} components, got {len(self.components)}")

    @classmethod
    def zero(cls, n: int) -> "SpinorPoly":
        d = gamma_algebra(n).dim_spin
        return cls(n, [SpherePoly.zero(n)] * d)

    @classmethod
    def unit(cls, n: int, slot: int, poly: SpherePoly | None = None) -> "SpinorPoly":
        d = gamma_algebra(n).dim_spin
        comps = [SpherePoly.zero(n)] * d
        comps[slot] = poly if poly is not None else SpherePoly.one(n)
        return cls(n, comps)

    def __add__(self, other: "SpinorPoly") -> "SpinorPoly":
        return SpinorPoly(
            self.n, [a + b for a, b in zip(self.components, other.components)]
        )

    def __sub__(self, other: "SpinorPoly") -> "SpinorPoly":
        return SpinorPoly(
            self.n, [a - b for a, b in zip(self.components, other.components)]
        )

    def __neg__(self):
        return self.scale(CRat(-1))

    def scale(self, c) -> "SpinorPoly":
        c = c if isinstance(c, CRat) else CRat(c)
        return SpinorPoly(self.n, [p.scale(c) for p in self.components])

    def add_scaled(self, other: "SpinorPoly", c) -> "SpinorPoly":
        """self + c * other, one pass per component."""
        c = c if isinstance(c, CRat) else CRat(c)
        return SpinorPoly(
            self.n, [a.add_scaled(b, c) for a, b in zip(self.components, other.components)]
        )

    def coordinate_mul(self, i: int) -> "SpinorPoly":
        """x_i times each component, by exponent shifts."""
        return SpinorPoly(self.n, [p.coordinate_mul(i) for p in self.components])

    def matrix_apply(self, mat) -> "SpinorPoly":
        d = len(self.components)
        out = []
        for r in range(d):
            acc = SpherePoly.zero(self.n)
            row = mat[r]
            for c in range(d):
                coeff = row[c]
                if coeff:
                    acc = acc + self.components[c].scale(coeff)
            out.append(acc)
        return SpinorPoly(self.n, out)

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.components)

    def degree(self) -> int:
        return max((p.degree() for p in self.components), default=-1)

    def __eq__(self, other):
        if isinstance(other, SpinorPoly):
            return self.n == other.n and self.components == other.components
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.components))
        return self._hash

    def __repr__(self):
        body = "; ".join(str(p) for p in self.components)
        return f"SpinorPoly(n={self.n}, [{body}])"


def clifford_x(psi: SpinorPoly) -> SpinorPoly:
    """Clifford multiplication by the vector variable sum_i x_i e_i."""
    alg = gamma_algebra(psi.n)
    out = SpinorPoly.zero(psi.n)
    for i in range(psi.n + 1):
        out = out + psi.matrix_apply(alg.e(i)).coordinate_mul(i)
    return out


def _angular_scalar(p: SpherePoly, i: int, j: int) -> SpherePoly:
    """x_i d_j - x_j d_i on one component (tangential, so well defined)."""
    from .polynomial import deriv_terms

    n = p.n
    dj = deriv_terms(p.terms, j)
    di = deriv_terms(p.terms, i)
    ei = [0] * (n + 1)
    ei[i] = 1
    ej = [0] * (n + 1)
    ej[j] = 1
    raw = {}
    for e, c in dj.items():
        ne = tuple(a + b for a, b in zip(e, ei))
        raw[ne] = raw.get(ne, 0) + c
    for e, c in di.items():
        ne = tuple(a + b for a, b in zip(e, ej))
        raw[ne] = raw.get(ne, 0) - c
    raw = {e: c for e, c in raw.items() if c}
    return SpherePoly(n, raw)


def angular_apply(psi: SpinorPoly) -> SpinorPoly:
    """The ambient angular operator - sum_{i<j} e_i e_j (x_i d_j - x_j d_i);
    acts by -k on restrictions of degree-k monogenics and by k+n on their
    Clifford-x images."""
    alg = gamma_algebra(psi.n)
    out = SpinorPoly.zero(psi.n)
    for i in range(psi.n + 1):
        for j in range(i + 1, psi.n + 1):
            rotated = SpinorPoly(
                psi.n, [_angular_scalar(p, i, j) for p in psi.components]
            )
            out = out + rotated.matrix_apply(alg.pair(i, j))
    return -out


# Per-spinor results of P, in front of the column map: identity sweeps
# apply P to the same few spinors repeatedly.
_DIRAC_CACHE: dict = {}
# (n, slot, normal-form exponent) -> image under P of that unit spinor
# monomial, one tuple of (exponent, coefficient) pairs per slot.
_DIRAC_COLUMNS: dict = {}
_CACHE_LIMIT = 20000


def dirac_reference(psi: SpinorPoly) -> SpinorPoly:
    """P psi by its defining route x . (angular - n/2) psi."""
    half_n = Fraction(psi.n, 2)
    return clifford_x(angular_apply(psi) - psi.scale(half_n))


def _dirac_column(n: int, slot: int, e: tuple) -> tuple:
    """Column of P at one unit spinor monomial, built by the reference route."""
    unit = SpinorPoly.unit(n, slot, SpherePoly(n, {e: CRat(1)}, reduced=True))
    return tuple(tuple(p.terms.items()) for p in dirac_reference(unit).components)


def dirac_apply(psi: SpinorPoly) -> SpinorPoly:
    """The model Dirac operator P = x . (angular - n/2).

    P is linear, so P psi is the sum of coeff * column over the terms of
    psi; each column is built once and kept in ``_DIRAC_COLUMNS``.  Columns
    are in normal form, hence so is the sum.  Whole results are memoized
    in ``_DIRAC_CACHE``.
    """
    hit = _DIRAC_CACHE.get(psi)
    if hit is not None:
        return hit
    n = psi.n
    acc = [{} for _ in psi.components]
    for slot, comp in enumerate(psi.components):
        for e, coeff in comp.terms.items():
            key = (n, slot, e)
            col = _DIRAC_COLUMNS.get(key)
            if col is None:
                col = _dirac_column(n, slot, e)
                if len(_DIRAC_COLUMNS) > _CACHE_LIMIT:
                    _DIRAC_COLUMNS.clear()
                _DIRAC_COLUMNS[key] = col
            for terms, image in zip(acc, col):
                for f, v in image:
                    c = coeff * v
                    prev = terms.get(f)
                    terms[f] = c if prev is None else prev + c
    out = SpinorPoly(
        n,
        [SpherePoly(n, {f: c for f, c in t.items() if c}, reduced=True) for t in acc],
    )
    if len(_DIRAC_CACHE) > _CACHE_LIMIT:
        _DIRAC_CACHE.clear()
    _DIRAC_CACHE[psi] = out
    return out


def dirac_squared(psi: SpinorPoly) -> SpinorPoly:
    return dirac_apply(dirac_apply(psi))


def U_spin(i: int, psi: SpinorPoly) -> SpinorPoly:
    """U_i defined by the commutator (1/2)[P^2, x_i]."""
    a = dirac_squared(psi.coordinate_mul(i))
    b = dirac_squared(psi).coordinate_mul(i)
    return (a - b).scale(Fraction(1, 2))


def y_apply(i: int, psi: SpinorPoly) -> SpinorPoly:
    """y_i defined by the commutator [P, x_i]."""
    return dirac_apply(psi.coordinate_mul(i)) - dirac_apply(psi).coordinate_mul(i)


def is_eigenspinor(psi: SpinorPoly, lam) -> bool:
    lam = Fraction(lam)
    return (dirac_apply(psi) - psi.scale(lam)).is_zero


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
    a = u + x.scale(lam) + y.scale(Fraction(1, 2))
    s = u - x.scale(lam) - y.scale(Fraction(1, 2))
    nn = u - x.scale(Fraction(1, 2)) - y.scale(lam)
    return a, s, nn


# ---------------------------------------------------------------------------
# monogenic polynomials and exact eigenspinor bases
# ---------------------------------------------------------------------------


def monogenic_dimension(n: int, k: int) -> int:
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
    cols = [(c, e) for c in range(d) for e in monos]
    if k == 0:
        return tuple(SpinorPoly.unit(n, c) for c in range(d))
    col_index = {ce: idx for idx, ce in enumerate(cols)}
    lower = sorted(monomials_of_degree(n + 1, k - 1))
    rows = []
    for r in range(d):
        for f in lower:
            row = [CRat(0)] * len(cols)
            for i in range(n + 1):
                e = list(f)
                e[i] += 1
                e = tuple(e)
                mult = f[i] + 1
                for c in range(d):
                    g = alg.e(i)[r][c]
                    if g:
                        row[col_index[(c, e)]] += g * mult
            rows.append(row)
    basis_vecs = nullspace(rows, ncols=len(cols))
    expected = monogenic_dimension(n, k)
    if len(basis_vecs) != expected:
        raise AssertionError(
            f"monogenic kernel dimension {len(basis_vecs)} != {expected}"
        )
    out = []
    for vec in basis_vecs:
        comps = [dict() for _ in range(d)]
        for idx, coeff in enumerate(vec):
            if coeff:
                c, e = cols[idx]
                comps[c][e] = coeff
        out.append(SpinorPoly(n, [SpherePoly(n, t) for t in comps]))
    return tuple(out)


def monogenic_basis(n: int, k: int) -> list:
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
        xm = clifford_x(m)
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
    return list(_eigenspinor_basis_cached(n, j, sign))


def _spinor_vector(psi: SpinorPoly, index: dict) -> list:
    vec = [CRat(0)] * len(index)
    for c, p in enumerate(psi.components):
        for e, coeff in p.terms.items():
            vec[index[(c, e)]] = coeff
    return vec


def _spinor_index(n: int, max_degree: int) -> dict:
    d = gamma_algebra(n).dim_spin
    monos = normal_monomials(n, max_degree)
    return {(c, e): c * len(monos) + k for c in range(d) for k, e in enumerate(monos)}


def _level_parts(psis: list, jmax: int) -> list:
    """Exact decomposition of several spinors into model eigenspinor
    components up to level jmax (both signs), sharing one echelon pass:
    one dict (j, sign) -> component per spinor, None for a spinor outside
    that sum."""
    if not psis:
        return []
    n = psis[0].n
    vec_basis = []
    cap = max(max(p.degree() for p in psis) + 1, jmax + 2)
    index = _spinor_index(n, cap)
    for j in range(jmax + 1):
        for sign in (1, -1):
            for b in _eigenspinor_basis_cached(n, j, sign):
                vec_basis.append(_spinor_vector(b, index))
    targets = [_spinor_vector(psi, index) for psi in psis]
    all_coeffs = coords_in_span_multi(vec_basis, targets)
    out = []
    for coeffs in all_coeffs:
        if coeffs is None:
            out.append(None)
            continue
        parts: dict = {}
        pos = 0
        for j in range(jmax + 1):
            for sign in (1, -1):
                acc = SpinorPoly.zero(n)
                nonzero = False
                for b in _eigenspinor_basis_cached(n, j, sign):
                    c = coeffs[pos]
                    pos += 1
                    if c:
                        acc = acc + b.scale(c)
                        nonzero = True
                if nonzero:
                    parts[(j, sign)] = acc
        out.append(parts)
    return out


def decompose_by_levels(psi: SpinorPoly, jmax: int) -> dict:
    """Exact decomposition of psi into model eigenspinor components up to
    level jmax (both signs).  Raises if psi lies outside that sum."""
    parts = _level_parts([psi], jmax)[0]
    if parts is None:
        raise ValueError("spinor is outside the requested level range")
    return parts

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
    """Exact matrices on the Dirac-closure of the degree<=N spinor monomials.

    The model space is span(W union P W) with W the degree<=N monomial
    spinors; it is P-invariant (certified during construction), since
    P^2 = (G - n/2)^2 keeps the degree.  No finite
    space is invariant under coordinate multiplication, so the x_i/U_i/y_i
    matrices are exact L2-orthogonal compressions onto the model; between
    eigenspaces fully contained in the model they agree with the true
    compressions.
    """

    n: int
    N: int
    basis: list
    index: dict
    p_matrix: list  # p_matrix[i][j] = coefficient of basis_i in P(basis_j)
    _basis_rows: list
    _gram_inv: list | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _coords(self, psi: SpinorPoly) -> list:
        coeffs = echelon_coords(self._basis_rows, [_spinor_vector(psi, self.index)])[0]
        if coeffs is None:
            raise ValueError("vector escapes the model space")
        return coeffs

    def operator_matrix(self, op) -> list:
        """Exact matrix of an operator that preserves the model space."""
        cols = [self._coords(op(b)) for b in self.basis]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def _gram_inverse(self) -> list:
        if self._gram_inv is None:
            d = self.dim
            gram = [
                [_spinor_inner(self.basis[a], self.basis[b]) for b in range(d)]
                for a in range(d)
            ]
            aug = [list(gram[i]) + [CRat(1) if k == i else CRat(0) for k in range(d)] for i in range(d)]
            pivots = rref(aug)
            if len(pivots) != d:
                raise AssertionError("model Gram matrix is singular")
            self._gram_inv = [row[d:] for row in aug]
        return self._gram_inv

    def compressed_matrix(self, op) -> list:
        """Exact orthogonal compression of an operator onto the model."""
        ginv = self._gram_inverse()
        d = self.dim
        cols = []
        for b in self.basis:
            img = op(b)
            pairings = [_spinor_inner(self.basis[a], img) for a in range(d)]
            cols.append([sum((ginv[i][k] * pairings[k] for k in range(d)), CRat(0)) for i in range(d)])
        return [[cols[j][i] for j in range(d)] for i in range(d)]

    def coordinate_matrix(self, i: int) -> list:
        return self.compressed_matrix(lambda s: s.coordinate_mul(i))

    def u_matrix(self, i: int) -> list:
        return self.compressed_matrix(lambda s: U_spin(i, s))

    def y_matrix(self, i: int) -> list:
        return self.compressed_matrix(lambda s: y_apply(i, s))

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
        cols = [[(i, r[j]) for i, r in enumerate(self.p_matrix) if r[j]] for j in range(d)]
        moments = [CRat(0)] * len(lattice)
        for b in range(d):
            vec = {b: CRat(1)}
            for k, lam in enumerate(lattice):
                moments[k] += vec.get(b, 0)
                out = {j: c * -lam for j, c in vec.items()}
                for j, c in vec.items():
                    for i, p in cols[j]:
                        out[i] = out[i] + c * p if i in out else c * p
                vec = {i: c for i, c in out.items() if c}
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

    def spectrum_csv(self) -> str:
        lines = ["eigenvalue,multiplicity,certified"]
        for lam, mult, cert in self.spectrum():
            lines.append(f"{lam},{mult},{str(cert).lower()}")
        return "\n".join(lines) + "\n"

    def matrix_json(self, which: str = "dirac") -> str:
        if which == "dirac":
            mat = self.p_matrix
        elif which.startswith("x"):
            mat = self.coordinate_matrix(int(which[1:]))
        elif which.startswith("u"):
            mat = self.u_matrix(int(which[1:]))
        elif which.startswith("y"):
            mat = self.y_matrix(int(which[1:]))
        else:
            raise ValueError(f"unknown matrix {which!r}")
        return json.dumps(
            {
                "dimension": self.n,
                "cap": self.N,
                "operator": which,
                "shape": [self.dim, self.dim],
                "field": "complex-rational",
                "rows": [[str(v) for v in row] for row in mat],
            },
            sort_keys=True,
        )


def _spinor_inner(a: SpinorPoly, b: SpinorPoly) -> CRat:
    """Exact L2 pairing integral of conj(a) . b over the sphere."""
    acc = CRat(0)
    for pa, pb in zip(a.components, b.components):
        conj_terms = {e: c.conjugate() for e, c in pa.terms.items()}
        prod = SpherePoly(a.n, conj_terms, reduced=True) * pb
        acc = acc + integrate(prod)
    return acc if isinstance(acc, CRat) else CRat(acc)


def truncation_matrices(n: int, N: int) -> TruncationModel:
    """Build the exact Dirac matrix model on span(W union P W), W the
    degree<=N spinor monomials: one echelon pass gives the basis, and the
    coordinates of each P image are read at the pivots."""
    if N < 0:
        raise ValueError("N must be >= 0")
    d = gamma_algebra(n).dim_spin
    index = _spinor_index(n, N + 2)
    seed = [
        SpinorPoly.unit(n, c, SpherePoly.monomial(n, e))
        for c in range(d)
        for e in normal_monomials(n, N)
    ]
    rows = [_spinor_vector(s, index) for s in seed]
    rows += [_spinor_vector(dirac_apply(s), index) for s in seed]
    rref(rows)
    rows = [row for row in rows if any(row)]
    basis = _rows_to_spinors(rows, index, n)
    images = [_spinor_vector(dirac_apply(b), index) for b in basis]
    cols = echelon_coords(rows, images)
    if any(c is None for c in cols):
        raise SpectrumError("model space is not P-invariant")
    dim = len(basis)
    p_matrix = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    return TruncationModel(
        n=n, N=N, basis=basis, index=index, p_matrix=p_matrix, _basis_rows=rows
    )


def _rows_to_spinors(rows: list, index: dict, n: int) -> list:
    rev = {}
    for (c, e), pos in index.items():
        rev[pos] = (c, e)
    d = gamma_algebra(n).dim_spin
    out = []
    for row in rows:
        comps = [dict() for _ in range(d)]
        for pos, coeff in enumerate(row):
            if coeff:
                c, e = rev[pos]
                comps[c][e] = coeff
        out.append(SpinorPoly(n, [SpherePoly(n, t, reduced=True) for t in comps]))
    return out


# ---------------------------------------------------------------------------
# cubic-descent refutation for the Dirac lattice
# ---------------------------------------------------------------------------


def refute_dirac_candidate(n: int, lam) -> list:
    """Descend from an off-lattice Dirac eigenvalue candidate through the
    lam - 1 branch until the spectral bound lam^2 >= n(n-1)/4 fails.

    Works on |lam| (the spectrum is symmetric); the forbidden band has
    width sqrt(n(n-1)) > 1, so unit steps cannot jump over it.
    """
    lam = abs(Fraction(lam))
    t = lam - Fraction(n, 2)
    if t.denominator == 1 and t >= 0:
        raise ValueError(f"{lam} is the level-{int(t)} Dirac eigenvalue on S^{n}")
    bound = Fraction(n * (n - 1), 4)
    chain = [lam]
    cur = lam
    for _ in range(int(lam) + 2):
        cur = cur - 1
        chain.append(cur)
        if cur * cur < bound:
            return chain
    raise AssertionError("descent failed to violate the bound")


# ---------------------------------------------------------------------------
# identity verification suite
# ---------------------------------------------------------------------------


def spinor_laws(n: int, k_max: int) -> list:
    """The spinor operator identity table for ``VerificationReport.check_laws``.

    Symbols: ``x``, ``U`` and ``y`` (indexed) and the Dirac operator ``P``.
    The odd intertwinor of order 2k+1 is P (P^2 - 1^2) ... (P^2 - k^2),
    expanded into powers of P.
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
    powers = [0, 1]  # coefficients of P^0, P^1, ... in the odd intertwinor
    for k in range(k_max + 1):
        if k:
            powers = [0, 0] + powers
            for m in range(len(powers) - 2):
                powers[m] -= k * k * powers[m + 2]
        odd = [(c, " ".join(["P"] * m)) for m, c in enumerate(powers) if c]
        laws.append(
            (
                f"odd_intertwinor_k={k}",
                "P_(2k+1) (U_i - (k+1/2) x_i) = (U_i + (k+1/2) x_i) P_(2k+1)",
                True,
                covariance_terms(odd, Fraction(2 * k + 1, 2)),
            )
        )
    return laws


def verify_spinor_identities(n: int, N: int, k_max: int = 2) -> VerificationReport:
    """Exact verification of every spinor operator identity.

    Operator identities are applied exactly to the full spinor monomial
    basis of degree <= N (no truncation artifacts); eigenspace statements
    run on the exact model eigenbases; the spectrum statements run on the
    certified truncation model.  A wrong P is reported, not raised: an
    eigenbasis whose foothold fails the eigen test fails every eigenspace
    check (``ladder_suite_*``, ``compressed_u_is_gap_times_x``,
    ``coordinate_adjacency``, ``adjacent_span_rank``), a U_i image outside
    the decomposed levels fails ``compressed_u_is_gap_times_x``, and a
    truncation spectrum that cannot be certified fails
    ``truncation_spectrum_lattice`` and ``spectral_bound``.
    """
    if not 1 <= N <= 2:
        raise ValueError("N must be 1 or 2")
    report = VerificationReport(scope="spinor", n=n, degree_cap=N)
    alg = gamma_algebra(n)
    report.add(
        "clifford_relations",
        "e_i e_j + e_j e_i = -2 delta_ij",
        alg.check_relations(),
    )

    d = alg.dim_spin
    basis = [
        SpinorPoly.unit(n, c, SpherePoly.monomial(n, e))
        for c in range(d)
        for e in normal_monomials(n, N)
    ]
    # built per call, so that a rebound module-level name (a patch, a tracer) is used
    indexed_ops = {"x": lambda i, psi: psi.coordinate_mul(i), "U": U_spin, "y": y_apply}
    report.check_laws(basis, spinor_laws(n, k_max), {"P": dirac_apply}, indexed_ops)
    half = Fraction(1, 2)

    # eigenspace statements, on the exact bases of levels 0..N (ladders) and
    # 0..2 (compression, adjacency, span); without them all of these fail
    broken = _foothold_failure(n, max(N, 2))
    for j in range(N + 1):
        for sign in (1, -1):
            lam = dirac_eigenvalue(n, j, sign)
            ok = broken is None
            for psi in eigenspinor_basis(n, j, sign) if ok else ():
                sa = SpinorPoly.zero(n)
                as_ = SpinorPoly.zero(n)
                nn_ = SpinorPoly.zero(n)
                for i in range(n + 1):
                    A, S, Nv = spinor_ladders(i, psi, lam, check=False)
                    if not (
                        is_eigenspinor(A, lam + 1)
                        and is_eigenspinor(S, lam - 1)
                        and is_eigenspinor(Nv, -lam)
                    ):
                        ok = False
                    _, S2, _ = spinor_ladders(i, A, lam + 1, check=False)
                    sa = sa + S2
                    A3, _, _ = spinor_ladders(i, S, lam - 1, check=False)
                    as_ = as_ + A3
                    _, _, N4 = spinor_ladders(i, Nv, -lam, check=False)
                    nn_ = nn_ + N4
                ok = ok and (
                    (sa - psi.scale(-2 * (lam + Fraction(n, 2)) * (lam + half))).is_zero
                    and (as_ - psi.scale(-2 * (lam - Fraction(n, 2)) * (lam - half))).is_zero
                    and (nn_ - psi.scale((n - 1) * (lam + half) * (lam - half))).is_zero
                )
                if not ok:
                    break
            report.add(
                f"ladder_suite_j={j}_sign={sign}",
                "ladder targets and the three summed factors",
                ok,
                broken or {"level": j, "sign": sign},
            )

    # compression and adjacency through exact level decomposition
    near = range(min(N, 1) + 1) if broken is None else ()
    comp_ok = adj_ok = span_ok = broken is None
    comp_cx = broken
    for j in near:
        for sign in (1, -1):
            lam = dirac_eigenvalue(n, j, sign)
            cases = []
            targets = []
            for psi in eigenspinor_basis(n, j, sign)[:2]:
                for i in range(n + 1):
                    cases.append(i)
                    targets.append(psi.coordinate_mul(i))
                    targets.append(U_spin(i, psi))
            decomposed = _level_parts(targets, j + 1)
            for t in range(len(cases)):
                i = cases[t]
                parts_x = decomposed[2 * t]
                parts_u = decomposed[2 * t + 1]
                if parts_x is None or parts_u is None:
                    # a wrong P: x_i or U_i leaves the adjacent levels
                    adj_ok = adj_ok and parts_x is not None
                    comp_ok = False
                    comp_cx = comp_cx or {
                        "level": j,
                        "sign": sign,
                        "index": i,
                        "target": f"outside levels 0..{j + 1}",
                    }
                    continue
                allowed = {lam + 1, lam - 1, -lam}
                for (jj, ss), comp in parts_x.items():
                    mu = dirac_eigenvalue(n, jj, ss)
                    if mu not in allowed and not comp.is_zero:
                        adj_ok = False
                for (jj, ss) in set(parts_x) | set(parts_u):
                    mu = dirac_eigenvalue(n, jj, ss)
                    cu = parts_u.get((jj, ss), SpinorPoly.zero(n))
                    cxp = parts_x.get((jj, ss), SpinorPoly.zero(n))
                    factor = (mu * mu - lam * lam) / 2
                    if not (cu - cxp.scale(factor)).is_zero:
                        comp_ok = False
                        comp_cx = comp_cx or {
                            "level": j, "sign": sign, "index": i, "target": str(mu)
                        }
    report.add(
        "compressed_u_is_gap_times_x",
        "U_i between eigenspaces = ((mu^2-lam^2)/2) x_i",
        comp_ok,
        comp_cx,
    )
    report.add(
        "coordinate_adjacency",
        "x_i E(lam) lies in E(lam+1) + E(lam-1) + E(-lam)",
        adj_ok,
        broken,
    )

    # span identity: x_i, P x_i, P^2 x_i images fill the adjacent sum
    for j in near:
        for sign in (1, -1):
            span_ok = span_ok and _span_rank_identity(n, j, sign)
    report.add(
        "adjacent_span_rank",
        "span{x_i E, P x_i E, P^2 x_i E} = E(lam+1) + E(lam-1) + E(-lam)",
        span_ok,
        broken,
    )

    # certified truncation spectrum on the lattice + the spectral bound;
    # a spectrum that cannot be certified (a wrong P) fails both checks
    lattice_law = "certified truncation spectrum lies on +-(n/2+j)"
    bound_law = "lam^2 >= n(n-1)/4 on the model spectrum"
    try:
        rows = truncation_matrices(n, N).spectrum()
    except SpectrumError as exc:
        cx = {"error": str(exc)}
        report.add("truncation_spectrum_lattice", lattice_law, False, cx)
        report.add("spectral_bound", bound_law, False, cx)
        return report
    lattice_ok = all(
        (abs(lam) - Fraction(n, 2)).denominator == 1 and abs(lam) >= Fraction(n, 2)
        for lam, _, _ in rows
    )
    licz_ok = all(lam * lam >= Fraction(n * (n - 1), 4) for lam, _, _ in rows)
    report.add("truncation_spectrum_lattice", lattice_law, lattice_ok)
    report.add("spectral_bound", bound_law, licz_ok)
    return report


def _span_rank_identity(n: int, j: int, sign: int) -> bool:
    """Exact rank check that the coordinate images of an eigenspace,
    together with their first and second Dirac images, span exactly the
    three adjacent eigenspaces."""
    lam = dirac_eigenvalue(n, j, sign)
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
    # rank(gen) = rank(gen union targets) = target_dim: equal spans
    rank_gen = len(rref(gen_rows))
    return rank_gen == target_dim == len(rref(gen_rows[:rank_gen] + tgt_rows))


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
