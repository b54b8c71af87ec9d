"""Numeric certification of the sharp entropy inequality on the 2-sphere.

The inequality bounds (4/n) int f^2 log f by (2/n)(int f^2) log int f^2
plus the quadratic form of the derivative-at-zero-order spectral family,
with equality exactly on constant multiples of conformal factors.  All
integrals use normalized measure.

This layer is fixed to S^2 (n = 2): the quadrature rule and the harmonic
projector exist only there, so no function takes a dimension, and the
S^n spectral families are evaluated at n = 2.

Verification strategy (desk scale, honest about its error budget):

* a Gauss-Legendre x uniform-azimuth product rule whose exactness on
  polynomial integrands is gated against the exact moments (the gate
  tabulates the coordinate powers once and integrates all powers of x2
  of each x0^a x1^b in one matrix-vector product);
* harmonic projection of node-sampled functions onto the orthonormal
  real spherical harmonics, applied ring by ring as the product rule
  allows (separation of variables, as in Driscoll-Healy): an azimuth
  sum per ring against a cos/sin table, then per order m a contraction
  with normalized Legendre rows at the ring heights, built by stable
  normalized recurrences; cross-validated against the exact Fischer
  decomposition;
* spectral quadratic forms truncated at a cutoff J, plus a certified
  tail floor: the eigenvalue families here increase with the level, so
  the dropped tail is at least eig(J+1) times the projection residual.
  Adding the floor keeps every inequality check conservative while
  pinning the equality cases to well below the stated tolerance.

Exact polynomial inputs bypass the projector entirely: their harmonic
decomposition is finite and the spectral term is computed in rational
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._kernel import Memo
from .polynomial import (
    SpherePoly,
    harmonic_decompose,
    integrate,
    moment_integral,
)
from .spectral import normalized_intertwinor_eigen


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@dataclass
class QuadratureRule:
    """A product rule on S^2, stored ring by ring: node k * nphi + p sits
    at height heights[k] and azimuth 2 pi (p + 1/2) / nphi."""

    nodes: np.ndarray  # (K, 3) points on S^2, K = len(heights) * nphi
    weights: np.ndarray  # (K,), sums to 1 (normalized measure)
    order: int
    heights: np.ndarray  # (nz,) Gauss-Legendre nodes in the polar cosine
    ring_weights: np.ndarray  # (nz,) their Gauss-Legendre weights (sum 2)
    nphi: int  # azimuths per ring

    @property
    def size(self) -> int:
        return len(self.weights)

    def integrate(self, values: np.ndarray) -> float:
        return float(self.weights @ values)

    def validate(self, max_degree: int | None = None) -> float:
        """Worst absolute error against exact monomial moments.

        Reads every normal-form monomial x0^a x1^b x2^c (a <= 1) up to
        the degree, which covers every function on the sphere of that
        degree, plus the raw even power x0^4.  The powers of x1 and x2
        are tabulated once by repeated multiplication; each (a, b) then
        integrates all its powers of x2 in one matrix-vector product.
        """
        deg = max_degree if max_degree is not None else self.order
        x, y, z = self.nodes[:, 0], self.nodes[:, 1], self.nodes[:, 2]
        y_pows, z_pows = _power_table(y, deg), _power_table(z, deg)
        worst = 0.0
        for a, weighted in enumerate((self.weights, self.weights * x)):
            for b in range(deg - a + 1):
                got = z_pows[: deg - a - b + 1] @ (weighted * y_pows[b])
                exact = [float(moment_integral((a, b, c), 2)) for c in range(len(got))]
                worst = max(worst, float(np.max(np.abs(got - exact))))
        x2 = x * x
        worst = max(
            worst, abs(self.integrate(x2 * x2) - float(moment_integral((4, 0, 0), 2)))
        )
        return worst


def _power_table(v: np.ndarray, deg: int) -> np.ndarray:
    """Rows v^0 .. v^deg, by repeated multiplication."""
    out = np.empty((deg + 1, len(v)))
    out[0] = 1.0
    for e in range(1, deg + 1):
        np.multiply(out[e - 1], v, out=out[e])
    return out


def _azimuths(nphi: int) -> np.ndarray:
    """The uniform azimuth grid that every ring of a product rule shares."""
    return 2.0 * np.pi * (np.arange(nphi) + 0.5) / nphi


def build_quadrature(order: int) -> QuadratureRule:
    """Product rule on S^2: Gauss-Legendre in the polar cosine crossed
    with a uniform azimuth grid; exact for polynomials up to `order`."""
    if order < 2:
        raise ValueError("order must be >= 2")
    nz = order // 2 + 1
    z, wz = np.polynomial.legendre.leggauss(nz)
    nphi = order + 1
    zz = np.repeat(z, nphi)
    pp = np.tile(_azimuths(nphi), nz)
    s = np.sqrt(1.0 - zz ** 2)
    nodes = np.stack([s * np.cos(pp), s * np.sin(pp), zz], axis=1)
    weights = np.repeat(wz, nphi) / (2.0 * nphi)
    return QuadratureRule(
        nodes=nodes, weights=weights, order=order, heights=z, ring_weights=wz, nphi=nphi
    )


# ---------------------------------------------------------------------------
# conformal factors
# ---------------------------------------------------------------------------


@dataclass
class ConformalFactor:
    """F_a(x) = (1-|a|^2)/(1 - 2<a,x> + |a|^2) for an interior point a;
    the |dphi|-factor of the Mobius transform centered at a, so F^n has
    unit mass in normalized measure."""

    a: tuple

    def __post_init__(self):
        if np.dot(self.a, self.a) >= 1.0:
            raise ValueError("the center must lie inside the unit ball")

    def values(self, points: np.ndarray) -> np.ndarray:
        a = np.asarray(self.a)
        a2 = float(a @ a)
        return (1.0 - a2) / (1.0 - 2.0 * points @ a + a2)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.values(points)

    def unit_mass_error(self, rule: QuadratureRule) -> float:
        return abs(rule.integrate(self.values(rule.nodes) ** 2) - 1.0)


# ---------------------------------------------------------------------------
# harmonic projection of sampled functions
# ---------------------------------------------------------------------------


def _legendre_table(z: np.ndarray, jmax: int) -> np.ndarray:
    """(jmax + 1, jmax + 1, len(z)) table whose [m, l] row is
    sqrt((2 - [m = 0]) (2l + 1) (l - m)! / (l + m)!) P_l^m(z) for l >= m
    and zero below, so that these rows times cos(m phi) and sin(m phi)
    are the orthonormal real spherical harmonics in normalized measure.
    Built by the normalized recurrences: the sectoral rows m = l from
    each other, then every order at once along l."""
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    out = np.zeros((jmax + 1, jmax + 1, len(z)))
    out[0, 0] = 1.0
    for m in range(1, jmax + 1):
        seed = math.sqrt((2 * m + 1) / (2 * m) * (2 if m == 1 else 1))
        out[m, m] = seed * s * out[m - 1, m - 1]
    for l in range(1, jmax + 1):
        m = np.arange(l)
        a = np.sqrt((2 * l + 1) * (2 * l - 1) / ((l - m) * (l + m)))
        out[:l, l] = a[:, None] * z * out[:l, l - 1]
        if l >= 2:
            b = np.sqrt(
                (2 * l + 1) * (l + m - 1) * (l - m - 1) / ((2 * l - 3) * (l - m) * (l + m))
            )
            out[:l, l] -= b[:, None] * out[:l, l - 2]
    return out


class SphereProjector:
    """Level projections of node-sampled functions onto the orthonormal
    real spherical harmonics of levels 0..jmax, exact by quadrature.

    The rule is a product rule, so the harmonics factor and are applied
    ring by ring: one azimuth sum per ring against a cos/sin table
    (columns cos(m phi) for m = 0..jmax, then sin(m phi) for m =
    1..jmax), then, per order m, one contraction of the weighted ring
    sums with the normalized Legendre rows of that order at the ring
    heights.  Both tables are small; no per-node basis is built."""

    def __init__(self, rule: QuadratureRule, jmax: int):
        if 2 * jmax > rule.order:
            raise ValueError(
                f"projector level {jmax} needs a quadrature rule of order >= {2 * jmax}, "
                f"but this rule has order {rule.order}"
            )
        self.rule = rule
        self.jmax = jmax
        m_phi = np.outer(_azimuths(rule.nphi), np.arange(jmax + 1))
        self._trig = np.hstack([np.cos(m_phi), np.sin(m_phi[:, 1:])])
        self._legendre = _legendre_table(rule.heights, jmax)
        self._ring_weights = rule.ring_weights / (2.0 * rule.nphi)

    def level_norms_sq(self, f_nodes: np.ndarray) -> np.ndarray:
        """||P_l f||^2 for l = 0..jmax."""
        j = self.jmax
        rings = np.reshape(f_nodes, (len(self._ring_weights), self.rule.nphi))
        sums = (rings @ self._trig).T * self._ring_weights  # (2 jmax + 1, nz)
        cos_part = self._legendre @ sums[: j + 1, :, None]
        sin_part = self._legendre[1:] @ sums[j + 1 :, :, None]
        return np.sum(cos_part ** 2, axis=(0, 2)) + np.sum(sin_part ** 2, axis=(0, 2))

    def gram_error(self) -> float:
        """Departure of the sampled harmonics from orthonormality; a rule of
        order >= 2*jmax makes this quadrature-exact.  The Gram entry of the
        harmonics (l, c) and (l', c'), c a column of the cos/sin table, is
        the azimuth sum of columns c and c' times the weighted ring sum of
        the Legendre rows (m(c), l) and (m(c'), l'); it is formed one
        column c at a time."""
        j = self.jmax
        order_of = np.concatenate([np.arange(j + 1), np.arange(1, j + 1)])
        azimuth = self._trig.T @ self._trig
        rows = self._legendre.reshape(-1, len(self._ring_weights))
        worst = 0.0
        for c, m in enumerate(order_of):
            ring = (self._legendre[m] * self._ring_weights) @ rows.T
            g = azimuth[c][None, :, None] * ring.reshape(j + 1, j + 1, j + 1)[:, order_of, :]
            levels = np.arange(m, j + 1)
            g[levels, c, levels] -= 1.0
            worst = max(worst, float(np.max(np.abs(g))))
        return worst


# ---------------------------------------------------------------------------
# spectral application and the inequality sides
# ---------------------------------------------------------------------------


def apply_spectral_operator(f: SpherePoly, eigen) -> SpherePoly:
    """Scale each harmonic component of a polynomial by eigen(level).

    eigen must return rationals (int or Fraction), so the result is exact;
    any other value raises ``TypeError``.
    """
    decomp = harmonic_decompose(f)
    if not decomp.parts:
        return SpherePoly.zero(f.n)
    return SpherePoly.combination((eigen(k), decomp.restricted(k)) for k, _ in decomp)


def _node_values(f, rule: QuadratureRule) -> np.ndarray:
    if isinstance(f, SpherePoly):
        return f.eval_array(rule.nodes)
    if isinstance(f, np.ndarray):
        return f
    return np.asarray(f(rule.nodes), dtype=float)


def _spectral_quadratic(
    f,
    rule: QuadratureRule,
    eigen_float,
    cutoff: int,
    projector: SphereProjector | None,
):
    """(sum of eig_j ||P_j f||^2 with certified tail floor, residual).

    Polynomial inputs use the exact finite decomposition (residual 0).
    """
    if isinstance(f, SpherePoly):
        decomp = harmonic_decompose(f)
        total = 0.0
        for k, _ in decomp:
            part = decomp.restricted(k)
            norm_sq = integrate(part * part)
            total += eigen_float(k) * float(norm_sq)
        return total, 0.0
    proj = projector if projector is not None else SphereProjector(rule, cutoff)
    if proj.jmax < cutoff:
        raise ValueError("projector cutoff is below the requested cutoff")
    vals = _node_values(f, rule)
    norms = proj.level_norms_sq(vals)[: cutoff + 1]
    total = sum(eigen_float(j) * norms[j] for j in range(cutoff + 1))
    residual = max(rule.integrate(vals * vals) - float(np.sum(norms)), 0.0)
    total += eigen_float(cutoff + 1) * residual
    return total, residual


def entropy_sides(
    f,
    rule: QuadratureRule,
    cutoff: int = 25,
    projector: SphereProjector | None = None,
) -> tuple:
    """Left and right sides of the sharp entropy inequality for positive f
    on S^2 (n = 2): 2 int f^2 log f  <=  (int f^2) log int f^2 + <f, H f>."""
    eigen = _entropy_eigen_floats(_levels_read(f, cutoff))
    lhs, rhs, _ = _entropy_sides_and_residual(f, rule, cutoff, projector, eigen)
    return lhs, rhs


def _levels_read(f, cutoff: int) -> int:
    """Highest level whose eigenvalue the spectral term of f reads: the
    tail level past the cutoff, or the degree of an exact polynomial."""
    return max(cutoff + 1, f.degree() if isinstance(f, SpherePoly) else 0)


def _entropy_eigen_floats(levels: int) -> list:
    """float(entropy_operator_eigen(2, j)) for j = 0..levels, from one
    running sum of 2/(1 + t) rather than a fresh O(j) sum per level."""
    mu = Fraction(0)
    out = [0.0]
    for j in range(1, levels + 1):
        mu += Fraction(2, j)
        out.append(float(mu))
    return out


def _entropy_sides_and_residual(f, rule, cutoff, projector, eigen: list) -> tuple:
    vals = _node_values(f, rule)
    if np.min(vals) <= 0:
        raise ValueError("f must be positive at every quadrature node")
    i2 = rule.integrate(vals * vals)
    lhs = 2.0 * rule.integrate(vals * vals * np.log(vals))
    spectral, residual = _spectral_quadratic(f, rule, eigen.__getitem__, cutoff, projector)
    rhs = i2 * math.log(i2) + spectral
    return lhs, rhs, residual


def giveaway_sides(
    f,
    rule: QuadratureRule,
    cutoff: int = 25,
    projector: SphereProjector | None = None,
) -> tuple:
    """The weaker logarithmic form on S^2 (n = 2): int f^2 log f <=
    (1/2)(int f^2) log int f^2 + <f, log(2 A_1) f>."""
    vals = _node_values(f, rule)
    if np.min(vals) <= 0:
        raise ValueError("f must be positive at every quadrature node")
    i2 = rule.integrate(vals * vals)
    lhs = rule.integrate(vals * vals * np.log(vals))

    def log_eigen(j):
        return math.log(1 + 2 * j)

    spectral, _ = _spectral_quadratic(f, rule, log_eigen, cutoff, projector)
    rhs = 0.5 * i2 * math.log(i2) + spectral
    return lhs, rhs


def beckner_check(
    F,
    r,
    rule: QuadratureRule,
    cutoff: int = 25,
    projector: SphereProjector | None = None,
) -> tuple:
    """Sides of the sharp fractional-integral inequality at order 2r on S^2
    (n = 2): int F^{1-r} B_{2r} F^{1-r}  >=  (int F^2)^{1-r}."""
    if not 0 < float(r) < 1:
        raise ValueError("r must lie in (0, 1)")
    return _beckner_sides(F, r, rule, cutoff, projector)


def beckner_deficit(
    F,
    r,
    rule: QuadratureRule,
    cutoff: int = 25,
    projector: SphereProjector | None = None,
) -> float:
    """lhs - rhs of the order-2r inequality, extended to small r of either
    sign (the spectral family is analytic through r = 0; the inequality
    itself is only asserted for positive r).  Used by the derivative
    consistency check, which differentiates the deficit at r = 0."""
    if not -1 < float(r) < 1:
        raise ValueError("r must lie in (-1, 1)")
    lhs, rhs = _beckner_sides(F, r, rule, cutoff, projector)
    return lhs - rhs


def _beckner_sides(F, r, rule, cutoff, projector) -> tuple:
    rf = float(r)
    F_vals = _node_values(F, rule)
    if np.min(F_vals) <= 0:
        raise ValueError("F must be positive at every quadrature node")
    g = F_vals ** ((2 - 2 * rf) / 2.0)  # F^{1-r}

    def b_eigen(j):
        return float(normalized_intertwinor_eigen(2, r, j).payload)

    lhs, _ = _spectral_quadratic(g, rule, b_eigen, cutoff, projector)
    mass = rule.integrate(F_vals ** 2)
    return lhs, mass ** ((2 - 2 * rf) / 2)


# ---------------------------------------------------------------------------
# the test battery
# ---------------------------------------------------------------------------


def battery() -> list:
    """Thirty positive test functions on S^2: three conformal factors
    (the equality family) and twenty-seven visibly non-conformal members."""
    members = []
    for a in ((0.0, 0.0, 0.1), (0.18, -0.15, 0.19), (0.0, 0.36, 0.48)):
        members.append((f"conformal|a|={np.linalg.norm(a):.1f}", "equality", ConformalFactor(a)))

    def poly(terms):
        return SpherePoly(2, {e: Fraction(c) for e, c in terms.items()})

    x0, x1, x2 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    one = (0, 0, 0)
    polys = [
        ("1+x2/2", {one: "1", x2: "1/2"}),
        ("1+x0/3", {one: "1", x0: "1/3"}),
        ("1+t*x2, t=0.3", {one: "1", x2: "3/10"}),
        ("1+t*x2, t=0.7", {one: "1", x2: "7/10"}),
        ("1+t*x2, t=0.9", {one: "1", x2: "9/10"}),
        ("1+x1^2/4", {one: "1", (0, 2, 0): "1/4"}),
        ("1+x0*x1/3", {one: "1", (1, 1, 0): "1/3"}),
        ("2+x0", {one: "2", x0: "1"}),
        ("1+x0/2+x1/3", {one: "1", x0: "1/2", x1: "1/3"}),
        ("3/2+x0*x2/2", {one: "3/2", (1, 0, 1): "1/2"}),
        ("1+x2^2", {one: "1", (0, 0, 2): "1"}),
        ("1+x0^2/2-x1^2/4", {one: "1", (2, 0, 0): "1/2", (0, 2, 0): "-1/4"}),
        ("1+x2^3/3", {one: "1", (0, 0, 3): "1/3"}),
        ("5/4+x0*x1*x2", {one: "5/4", (1, 1, 1): "1"}),
        ("1+x1/4+x2^2/2", {one: "1", x1: "1/4", (0, 0, 2): "1/2"}),
    ]
    for name, terms in polys:
        members.append((name, "strict", poly(terms)))

    def callables():
        yield "exp(0.4 z)", lambda p: np.exp(0.4 * p[:, 2])
        yield "exp(0.3 x + 0.2 y)", lambda p: np.exp(0.3 * p[:, 0] + 0.2 * p[:, 1])
        # note: 1/(2+z) itself is a conformal-factor multiple (equality);
        # squaring it leaves the equality family
        yield "1/(2+z)^2", lambda p: 1.0 / (2.0 + p[:, 2]) ** 2
        yield "(1.5+x)^0.75", lambda p: (1.5 + p[:, 0]) ** 0.75
        yield "1+0.5 cos(pi z)^2", lambda p: 1.0 + 0.5 * np.cos(np.pi * p[:, 2]) ** 2
        yield "gauss bump at north pole", lambda p: 1.0 + np.exp(-4.0 * (1.0 - p[:, 2]))
        yield "two-bump mix", lambda p: 1.0 + 0.6 * np.exp(-3.0 * (1.0 - p[:, 2])) + 0.4 * np.exp(-3.0 * (1.0 + p[:, 2]))
        yield "sqrt(2+sin(2x))", lambda p: np.sqrt(2.0 + np.sin(2.0 * p[:, 0]))
        yield "logistic in y", lambda p: 1.0 / (1.0 + 0.5 * np.exp(-2.0 * p[:, 1]))
        yield "1+|xy| smoothed", lambda p: 1.0 + p[:, 0] ** 2 * p[:, 1] ** 2
        yield "cosh(0.6 z)", lambda p: np.cosh(0.6 * p[:, 2])
        yield "1+0.8 z^4", lambda p: 1.0 + 0.8 * p[:, 2] ** 4

    cals = list(callables())
    for name, fn in cals:
        members.append((name, "strict", fn))
    assert len(members) == 30, len(members)
    return members


# (quadrature order, projector jmax) -> (rule, its gate error, projector):
# a session repeats the same --order and --cutoff.  Two entries, each
# about 1.2 MB of arrays at the order guard (order 100, jmax 47: 0.17 MB
# of rule, 1.0 MB of projector tables).
_FIXED_COSTS = Memo(2)


# a rule whose gate error exceeds this fails the report: the battery's
# integrals are then not the quadrature-exact ones it relies on
_GATE_TOLERANCE = 1e-12


def entropy_report(cutoff: int = 25, quick: bool = False, order: int = 60) -> dict:
    """Run the battery and return the machine-readable report.

    The quadrature gate reads every monomial up to degree 2 (cutoff + 1),
    the degree of the harmonic products the projector integrates; a gate
    error above ``_GATE_TOLERANCE`` fails the report whatever the rows say.
    """
    key = (max(order, 2 * cutoff + 8), cutoff + 1)
    fixed = _FIXED_COSTS.get(key)
    if fixed is None:
        rule = build_quadrature(key[0])
        fixed = (rule, rule.validate(2 * key[1]), SphereProjector(rule, key[1]))
        _FIXED_COSTS.store(key, fixed)
    rule, gate, projector = fixed
    rows = []
    members = battery()
    if quick:
        members = members[:6]
    eigen = _entropy_eigen_floats(max(_levels_read(f, cutoff) for _, _, f in members))
    for name, kind, f in members:
        lhs, rhs, residual = _entropy_sides_and_residual(f, rule, cutoff, projector, eigen)
        gap = rhs - lhs
        if kind == "equality":
            status = "pass" if gap >= -1e-10 and abs(gap) < 1e-6 else "fail"
        else:
            status = "pass" if gap > 1e-4 else "fail"
        rows.append(
            {
                "test": "entropy",
                "f_description": name,
                "order": rule.order,
                "cutoff_J": cutoff,
                "lhs": lhs,
                "rhs": rhs,
                "gap": gap,
                "truncation_residual": residual,
                "status": status,
            }
        )
    return {
        "quadrature_gate_error": gate,
        "all_passed": gate <= _GATE_TOLERANCE and all(r["status"] == "pass" for r in rows),
        "rows": rows,
    }
