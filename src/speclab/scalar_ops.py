"""Conformal vector fields and the scalar spectral ladder on S^n.

The coordinate conformal fields act on sphere polynomials as
T_i p = x_i E(p) - d_i p (computed on the canonical representative; the
result is representative independent), and U_i = T_i + (n/2) x_i.  The
Laplacian comes in two independently implemented routes that are proven
equal by the test suite: minus the sum of squared conformal fields, and
the homogeneous-degree formula through the ambient Laplacian.

From the commutation relations alone, adjacent eigenvalues of the
conformal Laplacian D satisfy a quadratic compatibility equation whose
roots are lambda^+- = lambda + 1 +- sqrt(4 lambda + 1).  Iterating the
plus branch from the bottom value n(n-2)/4 generates the whole spectrum;
iterating the minus branch from any off-spectrum candidate descends below
the bottom bound in finitely many steps, which is the machine-checkable
refutation of that candidate.

The identity suite keeps its ``check_laws`` memos across calls, in the
table that ``report._suite_memos`` shares with the spinor suite: each
basis monomial's word images {(word, i): image} and the pass marks of the
law rows that hold on it, under the suite's five operator callables and
the monomial's exponent, so a rebound operator (a corruption, a tracer)
has keys of its own.  A suite (n, degree_cap, operators) is kept only
from its second request in the process on: a suite run once (the
criterion-03 grid, a CLI process) keeps nothing.  A warm repeat applies
no operator and tests no law difference: warm (3, 4) takes 0.3-0.55 ms
instead of 5-8.5 ms (medians of 30 warm runs, three processes each,
pinned to one core of a 2-vCPU x86_64 VM, CPython 3.11.7) and keeps 2585 images of 5325 terms, 1.3-1.4
MB by ``tracemalloc``.  A monomial keeps at most about 45 KB (n = 6), so
a full table holds about 23 MB.  Only the suite's own operators are in
the key: a change to anything they call (``T``, ``_laplacian``, a
kernel) must go through ``report._clear_suite_memos``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from . import _kernel
from .linalg import rref
from .polynomial import (
    SpherePoly,
    _poly,
    ambient_laplacian_terms,
    deriv_terms,
    euler_terms,
    harmonic_dimension,
    normal_monomials,
    shift_terms,
)
from .report import VerificationReport, _suite_memos, covariance_terms, shifted_square_terms
from .scalars import as_rat
from .surd import Quad, rational_sqrt, sqrt_in_field


class NotEigenfunctionError(ValueError):
    pass


class OnSpectrumError(ValueError):
    def __init__(self, n: int, level: int):
        super().__init__(f"candidate is the level-{level} eigenvalue on S^{n}")
        self.level = level


class BelowBoundError(ValueError):
    pass


# ---------------------------------------------------------------------------
# first order operators
# ---------------------------------------------------------------------------


def T(i: int, p: SpherePoly) -> SpherePoly:
    """Conformal vector field of the i-th coordinate applied to p."""
    n = p.n
    if not 0 <= i <= n:
        raise IndexError(f"index {i} out of range for S^{n}")
    num = p._num
    shifted = shift_terms(euler_terms(num), i)
    raw = _kernel.add_scaled_terms(shifted, deriv_terms(num, i), -1)
    return _poly(n, _kernel.reduce_terms(raw, n), p._den)


def U(i: int, p: SpherePoly) -> SpherePoly:
    """U_i = T_i + (n/2) x_i, fused: U_i p = x_i (E + n/2) p - d_i p on the
    canonical representative, in one exponent-shift pass.  Only x0 can
    leave normal form (as x0^2), so only i = 0 reduces.  On odd n the
    numerators are scaled by 2, so the weights d + n/2 stay integral, and
    the 2 goes into the denominator."""
    n = p.n
    if not 0 <= i <= n:
        raise IndexError(f"index {i} out of range for S^{n}")
    den = p._den
    if n % 2:
        m, half, den = 2, n, 2 * den
    else:
        m, half = 1, n // 2
    weight = {}  # degree d -> m (d + n/2)
    raw = {}
    num = p._num
    for e, c in num.items():
        d = sum(e)
        w = weight.get(d)
        if w is None:
            w = weight[d] = m * d + half
        raw[e[:i] + (e[i] + 1,) + e[i + 1 :]] = c * w
    for e, c in num.items():
        k = e[i]
        if k:
            f = e[:i] + (k - 1,) + e[i + 1 :]
            v = c * (-m * k)
            prev = raw.get(f)
            if prev is None:
                raw[f] = v
            else:
                v += prev
                if v:
                    raw[f] = v
                else:
                    del raw[f]
    if i == 0:
        raw = _kernel.reduce_terms(raw, n)
    return _poly(n, raw, den)


def coordinate_mul(i: int, p: SpherePoly) -> SpherePoly:
    """x_i p by an exponent shift (``SpherePoly.coordinate_mul``); only
    i = 0 needs a reduction."""
    return p.coordinate_mul(i)


# ---------------------------------------------------------------------------
# Laplacians
# ---------------------------------------------------------------------------


def _laplacian(p: SpherePoly, shift) -> SpherePoly:
    """Laplacian plus shift, in one pass over the terms: for a d-homogeneous
    ambient representative the sphere Laplacian is the ambient Laplacian
    plus d(d+n-1) times the restriction, and the normal form groups its
    terms into such parts.  Int numerators are scaled by the denominator
    of the shift (4 for n(n-2)/4 on odd n), which goes into the
    denominator of the result."""
    n = p.n
    num = p._num
    q, shift = shift.denominator, shift.numerator
    den = p._den * q
    weight = {}  # degree d -> q d (d + n - 1) + shift
    weighted = {}
    for e, c in num.items():
        d = sum(e)
        w = weight.get(d)
        if w is None:
            w = weight[d] = q * d * (d + n - 1) + shift
        weighted[e] = c * w
    raw = _kernel.add_scaled_terms(weighted, ambient_laplacian_terms(num), q)
    return _poly(n, _kernel.reduce_terms(raw, n), den)


def laplacian(p: SpherePoly) -> SpherePoly:
    """Laplace-Beltrami operator (nonnegative convention), homogeneous route."""
    return _laplacian(p, 0)


def laplacian_via_conformal_fields(p: SpherePoly) -> SpherePoly:
    """Independent route: minus the sum of squared conformal fields."""
    return SpherePoly.combination((-1, T(i, T(i, p))) for i in range(p.n + 1))


def conformal_laplacian(p: SpherePoly) -> SpherePoly:
    """D = Laplacian + n(n-2)/4, fused into the same single pass."""
    return _laplacian(p, bottom_eigenvalue(p.n))


def is_eigenfunction(p: SpherePoly, lam: Fraction) -> bool:
    """Exact test for membership in the lam-eigenspace of the conformal
    Laplacian (the zero polynomial counts)."""
    return SpherePoly.combination([(1, conformal_laplacian(p)), (-as_rat(lam), p)]).is_zero


# ---------------------------------------------------------------------------
# eigenvalue lattice
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def bottom_eigenvalue(n: int) -> Fraction:
    return Fraction(n * (n - 2), 4)


def scalar_eigenvalue(n: int, j: int) -> Fraction:
    """Level-j eigenvalue of the conformal Laplacian."""
    return (Fraction(n - 2, 2) + j) * (Fraction(n, 2) + j)


def laplace_eigenvalue(n: int, j: int) -> Fraction:
    return Fraction(j * (n - 1 + j))


def eigenvalue_step(lam, direction: str):
    """One step of the adjacent-eigenvalue recursion:
    lambda -> lambda + 1 +- sqrt(4 lambda + 1).

    Returns a Fraction when the step stays rational, else an exact Quad.
    A rational lam whose discriminant 4 lam + 1 is a perfect square (every
    lattice step of ``generate_spectrum`` and the ladders) is stepped in
    Fractions and builds no Quad.  Quad inputs are supported when the
    discriminant is a perfect square in their field, which covers every
    descent chain (the radicand never changes along a chain).
    """
    if direction not in ("+", "-"):
        raise ValueError("direction must be '+' or '-'")
    if isinstance(lam, Quad) and not lam.is_rational:
        disc = lam * 4 + 1
        if disc.sign() < 0:
            raise ValueError("negative discriminant")
        root = sqrt_in_field(disc)
        if root is None:
            raise ValueError("step leaves the quadratic field Q[sqrt(d)]")
    else:
        lam = lam.as_fraction() if isinstance(lam, Quad) else as_rat(lam)
        disc = 4 * lam + 1
        if disc < 0:
            raise ValueError("negative discriminant")
        root = rational_sqrt(disc)
        if root is not None:
            return lam + 1 + root if direction == "+" else lam + 1 - root
        root = Quad.sqrt(disc)
    res = (root if direction == "+" else -root) + lam + 1
    return res.as_fraction() if res.is_rational else res


def spectrum_level_of(n: int, lam) -> int | None:
    """Level index j with lam equal to the level-j eigenvalue, or None."""
    lam = as_rat(lam)
    root = rational_sqrt(4 * lam + 1) if 4 * lam + 1 >= 0 else None
    if root is None:
        return None
    t = root - (n - 1)
    if t < 0 or t.denominator != 1 or t.numerator % 2:
        return None
    return t.numerator // 2


@dataclass
class ScalarEigenpair:
    n: int
    lam: Fraction
    j: int
    funcs: list = field(default_factory=list)

    @property
    def laplace_eigenvalue(self) -> Fraction:
        return self.lam - bottom_eigenvalue(self.n)


def generate_spectrum(n: int, count: int) -> list:
    """Eigenvalues of the conformal Laplacian by pure plus-branch
    iteration from the bottom value (no closed form used)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = []
    lam = bottom_eigenvalue(n)
    for j in range(count):
        out.append(ScalarEigenpair(n=n, lam=lam, j=j))
        nxt = eigenvalue_step(lam, "+")
        if isinstance(nxt, Quad):
            raise AssertionError("plus chain left the rationals")
        lam = nxt
    return out


# ---------------------------------------------------------------------------
# ladder operators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _ladder_coeff(lam: Fraction, direction: str) -> Fraction:
    """The x_i coefficient (lam - lam^{-+}) / 2 of the ladder toward
    lam^{+-}; rational exactly on the half-integer discriminant lattice."""
    other = eigenvalue_step(lam, "-" if direction == "+" else "+")
    if isinstance(other, Quad):
        raise NotEigenfunctionError(
            "ladder coefficient is irrational: eigenvalue off the lattice"
        )
    return (as_rat(lam) - other) / 2


def ladder_plus(i: int, phi: SpherePoly, lam, *, check: bool = True) -> SpherePoly:
    """Raise: maps the lam-eigenspace into the lam^+ eigenspace."""
    lam = as_rat(lam)
    if check and not is_eigenfunction(phi, lam):
        raise NotEigenfunctionError(f"input is not a {lam}-eigenfunction")
    c = _ladder_coeff(lam, "+")
    return SpherePoly.combination([(1, U(i, phi)), (c, coordinate_mul(i, phi))])


def ladder_minus(i: int, phi: SpherePoly, lam, *, check: bool = True) -> SpherePoly:
    """Lower: maps the lam-eigenspace into the lam^- eigenspace."""
    lam = as_rat(lam)
    if check and not is_eigenfunction(phi, lam):
        raise NotEigenfunctionError(f"input is not a {lam}-eigenfunction")
    c = _ladder_coeff(lam, "-")
    return SpherePoly.combination([(1, U(i, phi)), (c, coordinate_mul(i, phi))])


def ladder_sums(phi: SpherePoly, lam) -> tuple:
    """Scalar factors of the summed down-up and up-down ladder
    compositions on a lam-eigenfunction:

        sum_i M_i P_i = -1/2 (nu + n - 1)(nu + 2)
        sum_i P_i M_i = -1/2 (nu - n + 1)(nu - 2),   nu = sqrt(4 lam + 1).

    Both are verified operatorially on phi before being returned.
    """
    n = phi.n
    lam = as_rat(lam)
    nu = rational_sqrt(4 * lam + 1)
    if nu is None:
        raise NotEigenfunctionError("sqrt(4 lam + 1) must be rational")
    if not is_eigenfunction(phi, lam):
        raise NotEigenfunctionError(f"input is not a {lam}-eigenfunction")
    mp_factor = -Fraction(1, 2) * (nu + n - 1) * (nu + 2)
    pm_factor = -Fraction(1, 2) * (nu - n + 1) * (nu - 2)

    lam_plus = eigenvalue_step(lam, "+")
    lam_minus = eigenvalue_step(lam, "-")
    # each summed composition minus its factor times phi
    mp = [(-mp_factor, phi)]
    pm = [(-pm_factor, phi)]
    for i in range(n + 1):
        up = ladder_plus(i, phi, lam, check=False)
        mp.append((1, ladder_minus(i, up, lam_plus, check=False)))
        down = ladder_minus(i, phi, lam, check=False)
        pm.append((1, ladder_plus(i, down, lam_minus, check=False)))
    if not SpherePoly.combination(mp).is_zero:
        raise AssertionError("down-up ladder sum disagrees with its factor")
    if not SpherePoly.combination(pm).is_zero:
        raise AssertionError("up-down ladder sum disagrees with its factor")
    return mp_factor, pm_factor


# ---------------------------------------------------------------------------
# eigenspaces by ladders
# ---------------------------------------------------------------------------

# (n, j) -> canonical basis of the level-j eigenspace (a warm CLI session
# holds a handful of levels)
_EIGENSPACE_CACHE = _kernel.Memo(128)


def build_eigenspace(n: int, j: int) -> ScalarEigenpair:
    """Spanning set of the level-j eigenspace obtained by repeatedly
    applying the raising ladders to the constant function.

    The exact rank of the ladder images equals the harmonic-polynomial
    dimension at every level (asserted), and the returned basis is the
    canonical reduced row echelon basis in graded-lex monomial
    coordinates.
    """
    if j < 0:
        raise ValueError("level must be >= 0")
    key = (n, j)
    if key not in _EIGENSPACE_CACHE:
        if j == 0:
            basis = [SpherePoly.one(n)]
        else:
            prev = build_eigenspace(n, j - 1).funcs
            lam_prev = scalar_eigenvalue(n, j - 1)
            cands = []
            for b in prev:
                for i in range(n + 1):
                    img = ladder_plus(i, b, lam_prev, check=False)
                    if not img.is_zero:
                        cands.append(img)
            monos = normal_monomials(n, j)
            index = {e: k for k, e in enumerate(monos)}
            # a row scaled by its denominator spans the same line, so the
            # numerators give the same echelon basis
            rows = []
            for p in cands:
                row = [Fraction(0)] * len(monos)
                for e, c in p._num.items():
                    row[index[e]] = Fraction(c)
                rows.append(row)
            pivots = rref(rows)
            dim = harmonic_dimension(n, j)
            if len(pivots) != dim:
                raise AssertionError(
                    f"ladder span rank {len(pivots)} != harmonic dimension {dim}"
                )
            basis = []
            for r in range(len(pivots)):
                terms = {monos[k]: v for k, v in enumerate(rows[r]) if v}
                basis.append(SpherePoly(n, terms, reduced=True))
        _EIGENSPACE_CACHE.store(key, basis)
    funcs = list(_EIGENSPACE_CACHE[key])
    lam = scalar_eigenvalue(n, j)
    for f in funcs:
        if not is_eigenfunction(f, lam):
            raise AssertionError("constructed basis member fails the eigen test")
    return ScalarEigenpair(n=n, lam=lam, j=j, funcs=funcs)


# ---------------------------------------------------------------------------
# refutation of off-spectrum candidates
# ---------------------------------------------------------------------------


@dataclass
class RefutationChain:
    start: Fraction
    steps: list  # successive minus-branch values (Quad or Fraction), exact
    violated_bound: Fraction

    @property
    def final(self):
        return self.steps[-1]

    def __len__(self):
        return len(self.steps)

    def to_dict(self) -> dict:
        def enc(v):
            return v.to_json() if isinstance(v, Quad) else str(v)

        return {
            "start": str(self.start),
            "steps": [enc(s) for s in self.steps],
            "violated_bound": str(self.violated_bound),
            "final_below_bound": True,
        }


def _gap_index(n: int, lam: Fraction) -> int:
    """The level whose eigenvalue sits just below lam: the largest j with
    lambda_j < lam, or 0 when lambda_0 >= lam.  For lam > -1/4.

    lambda_j = ((n - 1 + 2j)^2 - 1)/4, so lambda_j < lam exactly when
    (n - 1 + 2j)^2 < 4 lam + 1 = p/q, that is when the integer n - 1 + 2j
    is at most isqrt((p - 1) // q).
    """
    v = 4 * lam + 1
    k = isqrt((v.numerator - 1) // v.denominator)
    return max(0, (k - n + 1) // 2)


def refute_candidate(n: int, lam) -> RefutationChain:
    """Descend from an off-spectrum candidate through the minus branch
    until the bottom bound n(n-2)/4 is violated.

    The chain is exact: in terms of nu = sqrt(4 lam + 1) the step is
    nu -> |nu - 2|, so every iterate stays in the starting field
    Q[sqrt(4 lam + 1)].
    """
    if n < 2:
        raise ValueError("sphere dimension must be >= 2")
    lam = as_rat(lam)
    bound = bottom_eigenvalue(n)
    if lam < bound:
        raise BelowBoundError(
            f"candidate {lam} already violates the bottom bound {bound}"
        )
    level = spectrum_level_of(n, lam)
    if level is not None:
        raise OnSpectrumError(n, level)

    gap = _gap_index(n, lam)
    nu = Quad.sqrt(4 * lam + 1)
    steps = []
    current = Quad(lam)
    for _ in range(gap + 2):
        nu = abs(nu - 2)
        nxt = (nu * nu - 1) * Fraction(1, 4)
        if not (nxt < current):
            raise AssertionError("descent failed to decrease")
        current = nxt
        steps.append(nxt.as_fraction() if nxt.is_rational else nxt)
        if nxt < bound:
            return RefutationChain(start=lam, steps=steps, violated_bound=bound)
    raise AssertionError("descent exceeded the gap-length budget")


# ---------------------------------------------------------------------------
# identity verification suite
# ---------------------------------------------------------------------------


def scalar_laws(n: int) -> list:
    """The scalar identity table for ``VerificationReport.check_laws``.

    Symbols: ``x`` and ``U`` (indexed), ``D`` the conformal Laplacian, ``L``
    and ``LT`` the homogeneous-degree and conformal-field Laplacian routes.
    """
    laws = [
        (
            "spectrum_generating_commutator",
            "[D, x_i] = 2 U_i",
            True,
            [(1, "D x"), (-1, "x D"), (-2, "U")],
        ),
        (
            "conformal_covariance",
            "D (U_i - x_i) = (U_i + x_i) D",
            True,
            covariance_terms([(1, "D")], 1),
        ),
        (
            "coordinate_anticommutator",
            "sum_i (x_i U_i + U_i x_i) = 0",
            False,
            [(1, "x U"), (1, "U x")],
        ),
        (
            "coordinate_commutator",
            "sum_i [U_i, x_i] = -n",
            False,
            [(1, "U x"), (-1, "x U"), (n, "")],
        ),
        (
            "laplacian_two_routes",
            "-sum_i T_i^2 = Laplacian (homogeneous-degree route)",
            False,
            [(1, "L"), (-1, "LT")],
        ),
        (
            "u_square_sum",
            "sum_i U_i^2 = -D - n/2",
            False,
            [(1, "U U"), (1, "D"), (Fraction(n, 2), "")],
        ),
    ]
    for a in (Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(-3, 2)):
        laws.append(
            (
                f"shifted_square_sum_a={a}",
                "sum_i (U_i + a x_i)^2 = a^2 + sum_i U_i^2",
                False,
                shifted_square_terms(a) + [(-1, "U U")],
            )
        )
    return laws


def verify_scalar_identities(n: int, degree_cap: int) -> VerificationReport:
    """Check every scalar operator identity exactly on the full monomial
    basis up to degree_cap.

    The operators are looked up by name at call time, so the suite's
    falsifiability is tested by rebinding one (say ``conformal_laplacian``
    shifted by a constant): a corrupted operator must produce failures.
    The per-monomial ``check_laws`` memos come from
    ``report._suite_memos``, keyed by exponent: fresh on a suite's first
    request, and from its second request on kept under these operators, so
    a warm repeat applies no operator and tests no law difference.
    """
    if degree_cap < 2:
        raise ValueError("degree_cap must be >= 2")
    report = VerificationReport(scope="scalar", n=n, degree_cap=degree_cap)
    exponents = normal_monomials(n, degree_cap)
    basis = [SpherePoly(n, {e: 1}, reduced=True) for e in exponents]
    # built per call, so that a rebound module-level name (a patch, a tracer) is used
    ops = {"D": conformal_laplacian, "L": laplacian, "LT": laplacian_via_conformal_fields}
    indexed_ops = {"x": coordinate_mul, "U": U}
    memos = _suite_memos((n, degree_cap), exponents, (*ops.values(), *indexed_ops.values()))
    report.check_laws(basis, scalar_laws(n), ops, indexed_ops, memos)
    return report
