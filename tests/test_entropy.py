"""Quadrature, conformal factors, harmonic projection, and the entropy
and fractional-integral inequalities on S^2."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from speclab.entropy import (
    ConformalFactor,
    _entropy_eigen_floats,
    _node_values,
    SphereProjector,
    apply_spectral_operator,
    battery,
    beckner_check,
    build_quadrature,
    entropy_report,
    entropy_sides,
    giveaway_sides,
)
from speclab.polynomial import (
    SpherePoly,
    harmonic_decompose,
    integrate,
    moment_integral,
    normal_monomials,
)
from speclab.spectral import entropy_operator_eigen, first_order_eigen


@pytest.fixture(scope="module")
def rule():
    return build_quadrature(48)


@pytest.fixture(scope="module")
def projector(rule):
    return SphereProjector(rule, 22)


# ---------------------------------------------------------------------------
# the hard gate: quadrature against exact moments
# ---------------------------------------------------------------------------


def test_quadrature_exactness_gate(rule):
    assert rule.validate(12) < 1e-13
    assert abs(rule.integrate(np.ones(rule.size)) - 1.0) < 1e-14
    x0sq = rule.nodes[:, 0] ** 2
    assert abs(rule.integrate(x0sq) - 1.0 / 3.0) < 1e-13
    assert abs(rule.integrate(x0sq ** 2) - 1.0 / 5.0) < 1e-13


def test_quadrature_rule_is_stored_ring_by_ring():
    rule = build_quadrature(20)
    nz, nphi = len(rule.heights), rule.nphi
    assert (nz, nphi) == (11, 21) and rule.size == nz * nphi
    assert abs(rule.ring_weights.sum() - 2.0) < 1e-14
    k, p = np.divmod(np.arange(rule.size), nphi)
    assert np.array_equal(rule.nodes[:, 2], rule.heights[k])
    assert np.array_equal(rule.weights, rule.ring_weights[k] / (2.0 * nphi))
    phi = np.arctan2(rule.nodes[:, 1], rule.nodes[:, 0]) % (2 * np.pi)
    assert np.max(np.abs(phi - 2 * np.pi * (p + 0.5) / nphi)) < 1e-13


def test_full_gate_reads_every_monomial_up_to_the_order():
    # exact through the order, and the first degree past it is caught
    for order in (10, 11, 20):
        rule = build_quadrature(order)
        assert rule.validate() < 1e-13
        assert rule.validate(order + 1) > 1e-8
    assert build_quadrature(60).validate() < 1e-13


def _gate_by_monomial(rule, deg):
    """The gate one monomial at a time: the reference for validate."""
    x, y, z = rule.nodes[:, 0], rule.nodes[:, 1], rule.nodes[:, 2]
    worst = 0.0
    for e in normal_monomials(2, deg) + [(4, 0, 0)]:
        vals = x ** e[0] * y ** e[1] * z ** e[2]
        worst = max(worst, abs(rule.integrate(vals) - float(moment_integral(e, 2))))
    return worst


def test_gate_matches_the_monomial_loop_on_a_perturbed_rule():
    # a broken rule must read the same worst error both ways
    rng = np.random.default_rng(7)
    rule = build_quadrature(16)
    rule.weights = rule.weights * (1.0 + 1e-3 * rng.standard_normal(rule.size))
    for deg in (4, 12, 16):
        want = _gate_by_monomial(rule, deg)
        assert want > 1e-6
        assert abs(rule.validate(deg) - want) < 1e-14


def test_conformal_factor_unit_mass():
    # the |a| = 0.6 factor has a harmonic tail decaying like 0.6^order,
    # so the 1e-10 certificate needs the production order (60)
    rule60 = build_quadrature(60)
    for amp in (0.0, 0.1, 0.3, 0.6):
        cf = ConformalFactor((0.0, 0.0, amp))
        assert cf.unit_mass_error(rule60) < 1e-10


def test_conformal_factor_needs_interior_point():
    with pytest.raises(ValueError):
        ConformalFactor((0.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_projector_orthonormality(projector):
    assert projector.gram_error() < 1e-12


@pytest.mark.parametrize("order, jmax", [(48, 25), (20, 25), (21, 11)])
def test_projector_refuses_a_level_too_high_for_its_rule(order, jmax):
    # the sampled harmonics are orthonormal only for order >= 2 jmax;
    # unguarded, (48, 25) and (20, 25) read Gram errors of 1.0 and 1.79
    with pytest.raises(ValueError, match=rf"level {jmax}\b.*order {order}\b"):
        SphereProjector(build_quadrature(order), jmax)


def test_projector_admits_its_highest_level():
    for order in (20, 21, 48):
        assert SphereProjector(build_quadrature(order), order // 2).gram_error() < 1e-12


def test_default_cutoff_on_a_low_order_rule_is_refused():
    # entropy_sides projects a non-polynomial f at its default cutoff 25,
    # which a rule of order 48 cannot resolve
    with pytest.raises(ValueError, match="level 25"):
        entropy_sides(ConformalFactor((0.0, 0.0, 0.6)), build_quadrature(48))


def test_projector_at_the_cost_guard_is_small():
    # the order guard of the CLI (100) with the largest cutoff it admits
    # (46, so jmax 47): the tables, not a per-node basis
    proj = SphereProjector(build_quadrature(100), 47)
    held = sum(v.nbytes for v in vars(proj).values() if isinstance(v, np.ndarray))
    assert held < 2_000_000


# ---------------------------------------------------------------------------
# the dense reference: every harmonic sampled at every node
# ---------------------------------------------------------------------------


def _legendre_by_order(z, m, jmax):
    """Yield (l, P_l^m(z)) for l = m..jmax by the unnormalized recurrences
    (no Condon-Shortley phase)."""
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    pmm = np.ones_like(z)
    for t in range(1, m + 1):
        pmm = pmm * (2 * t - 1) * s
    yield m, pmm
    if m + 1 > jmax:
        return
    prev2, prev1 = pmm, z * (2 * m + 1) * pmm
    yield m + 1, prev1
    for l in range(m + 2, jmax + 1):
        cur = (z * (2 * l - 1) * prev1 - (l + m - 1) * prev2) / (l - m)
        yield l, cur
        prev2, prev1 = prev1, cur


class DenseProjector:
    """Reference for SphereProjector: each real spherical harmonic sampled
    at each node, phi recovered by arctan2, P_l^m scaled by factorial
    norms, and a coefficient the weighted sum over all nodes.  Rows are
    formed one at a time, so memory stays linear in the nodes."""

    def __init__(self, rule, jmax):
        self.rule = rule
        self.jmax = jmax
        self._phi = np.arctan2(rule.nodes[:, 1], rule.nodes[:, 0])

    def rows(self):
        """(l, sampled harmonic) for every harmonic of level <= jmax."""
        z = self.rule.nodes[:, 2]
        for m in range(self.jmax + 1):
            for l, plm in _legendre_by_order(z, m, self.jmax):
                if m == 0:
                    yield l, math.sqrt(2 * l + 1) * plm
                    continue
                norm = math.sqrt(2 * (2 * l + 1) * math.factorial(l - m) / math.factorial(l + m))
                yield l, norm * plm * np.cos(m * self._phi)
                yield l, norm * plm * np.sin(m * self._phi)

    def level_norms_sq(self, f_nodes):
        wf = self.rule.weights * f_nodes
        out = np.zeros(self.jmax + 1)
        for l, row in self.rows():
            out[l] += float(row @ wf) ** 2
        return out


def _battery_agreement(order, jmax, members):
    rule = build_quadrature(order)
    fast, dense = SphereProjector(rule, jmax), DenseProjector(rule, jmax)
    for name, _, f in members:
        vals = _node_values(f, rule)
        scale = rule.integrate(vals * vals)
        diff = np.max(np.abs(fast.level_norms_sq(vals) - dense.level_norms_sq(vals)))
        assert diff <= 1e-13 * scale, (order, jmax, name, diff)


def test_dense_reference_is_orthonormal():
    rule = build_quadrature(20)
    dense = DenseProjector(rule, 10)
    basis = np.array([row for _, row in dense.rows()])
    assert basis.shape == (121, rule.size)
    assert np.max(np.abs((basis * rule.weights) @ basis.T - np.eye(121))) < 1e-13


def test_ring_projection_matches_the_dense_reference_on_the_battery():
    _battery_agreement(60, 26, battery())


@pytest.mark.parametrize("order, jmax", [(48, 22), (20, 10), (100, 47)])
def test_ring_projection_matches_the_dense_reference_at_other_sizes(order, jmax):
    members = battery()
    _battery_agreement(order, jmax, [members[i] for i in (0, 6, 18, 23)])


def test_entropy_report_matches_the_dense_reference(monkeypatch):
    from speclab import entropy

    monkeypatch.setattr(entropy, "_FIXED_COSTS", {})
    fast = entropy_report(order=60)
    monkeypatch.setattr(entropy, "SphereProjector", DenseProjector)
    monkeypatch.setattr(entropy, "_FIXED_COSTS", {})
    dense = entropy_report(order=60)
    assert fast["all_passed"] and dense["all_passed"]
    for a, b in zip(fast["rows"], dense["rows"]):
        assert a["f_description"] == b["f_description"]
        assert a["status"] == b["status"]
        for key in ("lhs", "rhs", "gap"):
            assert abs(a[key] - b[key]) < 1e-12, (a["f_description"], key)


def test_projector_matches_exact_decomposition(rule, projector):
    p = SpherePoly(
        2,
        {
            (0, 2, 0): Fraction(1),
            (1, 0, 1): Fraction(1, 3),
            (0, 0, 0): Fraction(1, 2),
            (0, 1, 2): Fraction(-2, 7),
        },
    )
    norms = projector.level_norms_sq(p.eval_array(rule.nodes))
    decomp = harmonic_decompose(p)
    for j in range(6):
        part = decomp.restricted(j) if j in decomp.degrees else SpherePoly.zero(2)
        exact = float(integrate(part * part))
        assert abs(norms[j] - exact) < 1e-12


# ---------------------------------------------------------------------------
# spectral application on polynomials
# ---------------------------------------------------------------------------


def test_apply_spectral_identity_on_constants():
    f = SpherePoly.one(2)
    out = apply_spectral_operator(f, lambda j: Fraction(1) if j == 0 else Fraction(0))
    assert out == f


def test_apply_spectral_entropy_eigen_on_coordinate():
    f = SpherePoly.coordinate(2, 1)
    out = apply_spectral_operator(f, lambda j: entropy_operator_eigen(2, j))
    assert out == f * Fraction(2)


def test_apply_spectral_first_order_on_square():
    f = SpherePoly.monomial(2, (0, 2, 0))
    out = apply_spectral_operator(f, lambda j: first_order_eigen(2, j))
    decomp = harmonic_decompose(f)
    want = decomp.restricted(0) * Fraction(1, 2) + decomp.restricted(2) * Fraction(5, 2)
    assert out == want


# ---------------------------------------------------------------------------
# the inequality sides
# ---------------------------------------------------------------------------


def test_constant_gives_equality(rule):
    lhs, rhs = entropy_sides(SpherePoly.one(2), rule)
    assert abs(lhs) < 1e-14 and abs(rhs) < 1e-14


def test_polynomial_member_is_strict(rule):
    f = SpherePoly(2, {(0, 0, 0): Fraction(1), (0, 0, 1): Fraction(1, 2)})
    lhs, rhs = entropy_sides(f, rule)
    assert rhs - lhs > 1e-4


def test_conformal_members_give_equality(rule, projector):
    for amp in (0.1, 0.3, 0.6):
        cf = ConformalFactor((0.0, 0.0, amp))
        lhs, rhs = entropy_sides(cf, rule, cutoff=22, projector=projector)
        gap = rhs - lhs
        assert gap >= -1e-10
        assert abs(gap) < 1e-6


def test_positivity_guard(rule):
    f = SpherePoly(2, {(0, 0, 0): Fraction(1), (0, 0, 1): Fraction(2)})
    with pytest.raises(ValueError):
        entropy_sides(f, rule)


def test_giveaway_trivial_case(rule, projector):
    lhs, rhs = giveaway_sides(SpherePoly.one(2), rule, cutoff=22, projector=projector)
    assert abs(lhs) < 1e-14 and abs(rhs) < 1e-14


def test_giveaway_holds_with_larger_gap(rule, projector):
    f = SpherePoly(2, {(0, 0, 0): Fraction(1), (0, 0, 1): Fraction(1, 2)})
    l1, r1 = entropy_sides(f, rule, cutoff=22, projector=projector)
    l2, r2 = giveaway_sides(f, rule, cutoff=22, projector=projector)
    assert r2 - l2 > 0
    # the logarithmic form gives away sharpness: its gap exceeds half of
    # the sharp form's gap (their left sides differ by the factor 2)
    assert (r2 - l2) >= (r1 - l1) / 2 - 1e-12


def test_gap_grows_with_perturbation(rule, projector):
    gaps = []
    for t in (0.0, 0.1, 0.2, 0.4, 0.6):
        f = SpherePoly(
            2, {(0, 0, 0): Fraction(1), (0, 0, 1): Fraction(t).limit_denominator(10)}
        )
        lhs, rhs = entropy_sides(f, rule, cutoff=22, projector=projector)
        gaps.append(rhs - lhs)
    assert abs(gaps[0]) < 1e-12
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


# ---------------------------------------------------------------------------
# the fractional-integral inequality
# ---------------------------------------------------------------------------


def test_beckner_trivial_and_equality(rule, projector):
    lhs, rhs = beckner_check(
        SpherePoly.one(2), Fraction(1, 2), rule, cutoff=22, projector=projector
    )
    assert abs(lhs - 1.0) < 1e-12 and abs(rhs - 1.0) < 1e-12
    for amp in (0.1, 0.3, 0.6):
        cf = ConformalFactor((0.0, 0.0, amp))
        lhs, rhs = beckner_check(cf, Fraction(1, 2), rule, cutoff=22, projector=projector)
        assert lhs - rhs >= -1e-10
        assert abs(lhs - rhs) < 1e-6


def test_beckner_strict_member(rule, projector):
    F = SpherePoly(2, {(0, 0, 0): Fraction(1), (0, 2, 0): Fraction(1, 4)})
    lhs, rhs = beckner_check(F, Fraction(1, 2), rule, cutoff=22, projector=projector)
    assert lhs - rhs > 1e-4


def test_beckner_range_guard(rule):
    with pytest.raises(ValueError):
        beckner_check(SpherePoly.one(2), Fraction(3, 2), rule)


def test_derivative_of_beckner_deficit_matches_entropy_deficit(rule, projector):
    # d/dr at 0 of the fractional-integral deficit equals the entropy
    # deficit (central differences at +-1e-3, tolerance 1e-5); this pits
    # the gamma-ratio family against the harmonic-sum family
    from speclab.entropy import beckner_deficit

    h = 1e-3
    for F in (
        ConformalFactor((0.0, 0.0, 0.25)),
        SpherePoly(2, {(0, 0, 0): Fraction(1), (0, 0, 1): Fraction(2, 5)}),
    ):
        dr = (
            beckner_deficit(F, h, rule, cutoff=22, projector=projector)
            - beckner_deficit(F, -h, rule, cutoff=22, projector=projector)
        ) / (2 * h)
        f_nodes = _as_nodes(F, rule)
        lhs, rhs = entropy_sides(f_nodes, rule, cutoff=22, projector=projector)
        assert abs(dr - (rhs - lhs)) < 1e-5


def _as_nodes(F, rule):
    if isinstance(F, SpherePoly):
        return F.eval_array(rule.nodes)
    return F(rule.nodes)


def test_beckner_check_rejects_nonpositive_order():
    rule = build_quadrature(20)
    with pytest.raises(ValueError):
        beckner_check(SpherePoly.one(2), -0.001, rule)


# ---------------------------------------------------------------------------
# battery and report
# ---------------------------------------------------------------------------


def test_battery_composition():
    members = battery()
    assert len(members) == 30
    kinds = [k for _, k, _ in members]
    assert kinds.count("equality") == 3
    assert kinds.count("strict") == 27


def test_entropy_eigen_table_matches_the_exact_eigenvalues():
    table = _entropy_eigen_floats(60)
    assert len(table) == 61
    assert all(v == float(entropy_operator_eigen(2, j)) for j, v in enumerate(table))


def test_entropy_report_quick():
    rep = entropy_report(order=40, cutoff=20, quick=True)
    assert rep["quadrature_gate_error"] < 1e-13
    assert rep["all_passed"]
    for row in rep["rows"]:
        assert set(row) >= {
            "test",
            "f_description",
            "order",
            "cutoff_J",
            "lhs",
            "rhs",
            "gap",
            "status",
        }


def test_entropy_report_reuses_its_rule_and_projector(monkeypatch):
    # the quadrature rule, its gate and the projector are built once per
    # (order, cutoff); a warm report equals the cold one bit for bit
    from speclab import entropy

    built = []
    real = entropy.SphereProjector

    def counting(rule, jmax):
        built.append(jmax)
        return real(rule, jmax)

    monkeypatch.setattr(entropy, "SphereProjector", counting)
    monkeypatch.setattr(entropy, "_FIXED_COSTS", {})
    cold = entropy_report(order=20, cutoff=4, quick=True)
    warm = entropy_report(order=20, cutoff=4, quick=True)
    assert built == [5]
    assert warm == cold
    for cutoff in (5, 6, 4):
        entropy_report(order=20, cutoff=cutoff, quick=True)
    # bounded, oldest dropped first: (20, 5) was evicted before (20, 4) came back
    assert built == [5, 6, 7, 5]
    assert list(entropy._FIXED_COSTS) == [(20, 7), (20, 5)]


def test_entropy_report_gate_reads_every_degree_the_projector_uses(monkeypatch):
    # a rule exact only through degree 12 but labelled order 60: a gate read
    # only through degree 12 reported 1.7e-16 for it, while the projector
    # integrates harmonic products up to degree 2 (cutoff + 1) = 52
    from speclab import entropy

    low = dataclasses.replace(build_quadrature(12), order=60)
    monkeypatch.setattr(entropy, "build_quadrature", lambda order: low)
    monkeypatch.setattr(entropy, "_FIXED_COSTS", {})
    rep = entropy_report(order=60, quick=True)
    assert rep["quadrature_gate_error"] > 1e-3
    assert rep["all_passed"] is False


def test_entropy_report_fails_on_its_gate_alone(monkeypatch):
    # every row passes on a sound rule; a gate error above the tolerance
    # still fails the report
    from speclab import entropy

    monkeypatch.setattr(entropy, "_FIXED_COSTS", {})
    sound = entropy_report(order=40, cutoff=20, quick=True)
    assert sound["all_passed"]
    monkeypatch.setattr(entropy.QuadratureRule, "validate", lambda self, deg=None: 1e-9)
    monkeypatch.setattr(entropy, "_FIXED_COSTS", {})
    rep = entropy_report(order=40, cutoff=20, quick=True)
    assert all(row["status"] == "pass" for row in rep["rows"])
    assert rep["quadrature_gate_error"] == 1e-9
    assert rep["all_passed"] is False
