"""Spinor fields (Gaussian-integer numerators over one shared denominator)
against a plain ``CRat`` term-map reference.

The reference below shares no code with ``SpinorPoly`` or the column
maps: a spinor is a list of dicts ``exponent -> CRat``, one per slot, and
x0^2 is rewritten one step at a time.  It builds P from its definition
x . (G - n/2) with the angular operator G = -sum_{i<j} e_i e_j (x_i d_j -
x_j d_i), U_i as (1/2)[P^2, x_i] and y_i as [P, x_i].  Every operation on
the lane must give the reference's values, leave the field in normal form
(no zero numerators, x0-exponents at most 1, gcd(denominator, numerators)
= 1), compare and hash like the spinor built from the reference's CRat
maps, and print the reference's text.
"""

import re
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from speclab import clifford
from speclab.clifford import (
    SpinorPoly,
    U_spin,
    clifford_x,
    dirac_apply,
    dirac_reference,
    gamma_algebra,
    y_apply,
)
from speclab.polynomial import SpherePoly, grlex_key, normal_monomials
from speclab.scalars import CRat

from oracles import gaussian_spinor, kron_gamma_matrices, mat_mul

DENOMINATORS = (1, 2, 4, 3, 5)
ZERO = CRat(0)

# ---------------------------------------------------------------------------
# the reference: lists of CRat term maps, textbook formulas
# ---------------------------------------------------------------------------


def ref_reduce(terms: dict, n: int) -> dict:
    out: dict = {}
    work = list(terms.items())
    while work:
        e, c = work.pop()
        if e[0] >= 2:  # x0^2 -> 1 - x1^2 - ... - xn^2
            rest = (e[0] - 2,) + e[1:]
            work.append((rest, c))
            for i in range(1, n + 1):
                f = list(rest)
                f[i] += 2
                work.append((tuple(f), -c))
        else:
            out[e] = out.get(e, ZERO) + c
    return {e: c for e, c in out.items() if c}


def ref_add(a: list, b: list, c) -> list:
    """Slotwise a + c b."""
    out = []
    for ta, tb in zip(a, b):
        t = dict(ta)
        for e, v in tb.items():
            t[e] = t.get(e, ZERO) + c * v
        out.append({e: v for e, v in t.items() if v})
    return out


def ref_scale(a: list, c) -> list:
    return ref_add([{} for _ in a], a, c)


def ref_shift(t: dict, i: int) -> dict:
    return {e[:i] + (e[i] + 1,) + e[i + 1 :]: c for e, c in t.items()}


def ref_deriv(t: dict, i: int) -> dict:
    out: dict = {}
    for e, c in t.items():
        if e[i]:
            f = e[:i] + (e[i] - 1,) + e[i + 1 :]
            out[f] = out.get(f, ZERO) + c * e[i]
    return out


def ref_coordinate_mul(a: list, i: int, n: int) -> list:
    return [ref_reduce(ref_shift(t, i), n) for t in a]


def ref_matrix(mat, a: list) -> list:
    out = []
    for row in mat:
        acc = [{}]
        for z, t in zip(row, a):
            acc = ref_add(acc, [t], z)
        out.append(acc[0])
    return out


def ref_dirac(a: list, n: int) -> list:
    gammas = kron_gamma_matrices(n)
    g = [{} for _ in a]
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            rotated = []
            for t in a:
                pair = ref_add([ref_shift(ref_deriv(t, j), i)], [ref_shift(ref_deriv(t, i), j)], -1)
                rotated.append(ref_reduce(pair[0], n))
            g = ref_add(g, ref_matrix(mat_mul(gammas[i], gammas[j]), rotated), -1)
    shifted = ref_add(g, a, Fraction(-n, 2))
    out = [{} for _ in a]
    for i in range(n + 1):
        out = ref_add(out, ref_coordinate_mul(ref_matrix(gammas[i], shifted), i, n), 1)
    return out


def ref_y(i: int, a: list, n: int) -> list:
    left = ref_dirac(ref_coordinate_mul(a, i, n), n)
    return ref_add(left, ref_coordinate_mul(ref_dirac(a, n), i, n), -1)


def ref_u(i: int, a: list, n: int) -> list:
    def p2(b):
        return ref_dirac(ref_dirac(b, n), n)

    diff = ref_add(p2(ref_coordinate_mul(a, i, n)), ref_coordinate_mul(p2(a), i, n), -1)
    return ref_scale(diff, Fraction(1, 2))


# ---------------------------------------------------------------------------
# strategies and checks
# ---------------------------------------------------------------------------


def ratio(draw):
    return Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from(DENOMINATORS)))


@st.composite
def crats(draw, real=False):
    return CRat(ratio(draw), 0 if real else ratio(draw))


@st.composite
def ref_spinors(draw, n, degree=2):
    monos = normal_monomials(n, degree)
    real = draw(st.booleans())
    out = []
    for _ in range(gamma_algebra(n).dim_spin):
        keys = draw(st.lists(st.sampled_from(monos), max_size=4, unique=True))
        t = {e: draw(crats(real=real)) for e in keys}
        out.append({e: c for e, c in t.items() if c})
    return out


@st.composite
def cancelling_pairs(draw, n):
    """(a, b, c) with b = -a / c plus a small change half of the time, so
    a + c b cancels most terms and often shrinks the denominator."""
    a = draw(ref_spinors(n))
    c = draw(st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 4), CRat(0, 1), CRat(1, -2)]))
    if draw(st.booleans()):
        inverse = CRat(-1) / (c if isinstance(c, CRat) else CRat(c))
        b = ref_add(ref_scale(a, inverse), draw(ref_spinors(n, degree=1)), 1)
    else:
        b = draw(ref_spinors(n))
    return a, b, c


def build(n: int, a: list) -> SpinorPoly:
    """The spinor of a reference value, from Fraction components where
    every coefficient is real, else through ``gaussian_spinor``."""
    if all(not c.im for t in a for c in t.values()):
        comps = [SpherePoly(n, {e: c.re for e, c in t.items()}, reduced=True) for t in a]
        return SpinorPoly(n, comps)
    return gaussian_spinor(n, a)


def ref_text(t: dict) -> str:
    chunks = []
    for e in sorted(t, key=grlex_key):
        mono = " ".join(f"x{i}^{k}" for i, k in enumerate(e) if k)
        chunks.append(f"{t[e]} * {mono}" if mono else str(t[e]))
    return " + ".join(chunks) or "0"


def ref_str(n: int, a: list) -> str:
    body = "; ".join(ref_text(t) for t in a)
    return f"SpinorPoly(n={n}, [{body}])"


def assert_matches(psi: SpinorPoly, a: list):
    n = psi.n
    assert list(psi.components) == a
    for t in psi.components:
        assert type(t) is dict and all(isinstance(c, CRat) for c in t.values())
    den = psi._den
    assert den > 0
    values = [*psi._re.values(), *psi._im.values()]
    assert all(values)
    assert gcd(den, *values) == 1
    keys = [*psi._re, *psi._im]
    assert all(e[0] <= 1 for e in keys)
    # one flat key (e_0, ..., e_n, slot) per term
    assert all(len(k) == n + 2 and 0 <= k[-1] < gamma_algebra(n).dim_spin for k in keys)
    twin = build(n, a)
    assert psi == twin and hash(psi) == hash(twin)
    assert str(psi) == ref_str(n, a)
    assert psi.is_zero == (not any(a))
    assert psi.degree() == max((sum(e) for t in a for e in t), default=-1)


# ---------------------------------------------------------------------------
# the ring operations
# ---------------------------------------------------------------------------


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(st.just(n), cancelling_pairs(n))))
def test_linear_operations_match_the_crat_reference(case):
    n, (a, b, c) = case
    pa, pb = build(n, a), build(n, b)
    assert_matches(pa, a)
    assert_matches(pa + pb, ref_add(a, b, 1))
    assert_matches(pa - pb, ref_add(a, b, -1))
    assert_matches(-pa, ref_scale(a, -1))
    assert_matches(pa.add_scaled(pb, c), ref_add(a, b, c))
    assert_matches(pb.scale(c), ref_scale(b, c))
    assert_matches(pa.scale(0), ref_scale(a, 0))
    assert_matches(pa - pa, [{} for _ in a])
    assert (pa - pa) == SpinorPoly.zero(n)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4]).flatmap(lambda n: st.tuples(st.just(n), ref_spinors(n))))
def test_coordinate_and_clifford_multiplication_match_the_reference(case):
    n, a = case
    psi = build(n, a)
    gammas = kron_gamma_matrices(n)
    for i in range(n + 1):
        assert_matches(psi.coordinate_mul(i), ref_coordinate_mul(a, i, n))
    want = [{} for _ in a]
    for i in range(n + 1):
        want = ref_add(want, ref_coordinate_mul(ref_matrix(gammas[i], a), i, n), 1)
    assert_matches(clifford_x(psi), want)


@settings(derandomize=True, max_examples=24, deadline=None)
@given(st.sampled_from([2, 3, 4]).flatmap(lambda n: st.tuples(st.just(n), ref_spinors(n))))
def test_gamma_slot_moves_match_the_matrices(case):
    # the signed slot moves GammaAlgebra keeps for each e_i and each
    # e_i e_j (i < j), which clifford_x and angular_apply use, against the
    # Kronecker-product matrices of the oracle and their products
    n, a = case
    alg = gamma_algebra(n)
    gammas = kron_gamma_matrices(n)
    psi = build(n, a)
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    assert sorted(alg.pair_moves) == pairs
    cases = [(alg.moves[i], gammas[i]) for i in range(n + 1)]
    cases += [(alg.pair_moves[i, j], mat_mul(gammas[i], gammas[j])) for i, j in pairs]
    for move, mat in cases:
        assert move is not None
        assert_matches(psi._move_slots(move), ref_matrix(mat, a))


# ---------------------------------------------------------------------------
# P, U_i and y_i: column maps against their defining routes
# ---------------------------------------------------------------------------


@settings(derandomize=True, max_examples=24, deadline=None)
@given(st.sampled_from([2, 3, 4]).flatmap(lambda n: st.tuples(st.just(n), ref_spinors(n))))
def test_dirac_column_map_matches_the_reference_routes(case):
    n, a = case
    psi = build(n, a)
    want = ref_dirac(a, n)
    assert_matches(dirac_reference(psi), want)
    assert_matches(dirac_apply(psi), want)
    clifford._DIRAC_CACHE.clear()
    assert_matches(dirac_apply(psi), want)  # warm columns only


@settings(derandomize=True, max_examples=16, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(st.just(n), ref_spinors(n, degree=1))))
def test_u_and_y_column_maps_match_the_commutator_routes(case):
    n, a = case
    psi = build(n, a)
    i = sum(len(t) for t in a) % (n + 1)
    want_u, want_y = ref_u(i, a, n), ref_y(i, a, n)
    try:
        clifford._clear_operator_caches()
        assert_matches(U_spin(i, psi), want_u)  # cold: columns built from P
        assert_matches(y_apply(i, psi), want_y)
        assert_matches(U_spin(i, psi), want_u)  # per-spinor result hits
        assert_matches(y_apply(i, psi), want_y)
        for table in (clifford._DIRAC_CACHE, clifford._U_CACHE, clifford._Y_CACHE):
            table.clear()
        assert_matches(U_spin(i, psi), want_u)  # warm columns only
        assert_matches(y_apply(i, psi), want_y)
    finally:
        clifford._clear_operator_caches()


def test_equal_fields_from_different_coefficient_types_are_equal():
    n = 2
    e = normal_monomials(n, 1)[1]
    zero = SpherePoly.zero(n)
    as_crat = SpinorPoly.unit(n, 0, SpherePoly.monomial(n, e)).scale(CRat(Fraction(1, 2)))
    as_fraction = SpinorPoly(n, [SpherePoly(n, {e: Fraction(1, 2)}, reduced=True), zero])
    as_sum = SpinorPoly.unit(n, 0, SpherePoly.monomial(n, e)).scale(Fraction(3, 4)).add_scaled(
        SpinorPoly.unit(n, 0, SpherePoly.monomial(n, e)), Fraction(-1, 4)
    )
    assert as_crat == as_fraction == as_sum
    assert len({hash(as_crat), hash(as_fraction), hash(as_sum)}) == 1
    assert as_sum._den == 2
    assert as_sum != as_sum.scale(2) and as_sum != as_sum.scale(CRat(0, 1))
    assert {as_crat: 1}[as_sum] == 1


def test_arithmetic_across_spheres_is_refused():
    # a slotwise sum of 2 and 4 slots would drop two of them silently
    a, b = SpinorPoly.unit(2, 0), SpinorPoly.unit(3, 3)
    for combine, spheres in [
        (lambda: a + b, "S^2 vs S^3"),
        (lambda: b - a, "S^3 vs S^2"),
        (lambda: a.add_scaled(b, 0), "S^2 vs S^3"),
        (lambda: SpinorPoly.combination([(1, a), (CRat(0, 1), b)]), "S^2 vs S^3"),
    ]:
        with pytest.raises(ValueError, match=re.escape(f"dimension mismatch: {spheres}")):
            combine()


def test_components_on_another_sphere_are_refused():
    x1 = SpherePoly(3, {(0, 1, 0, 0): 1})
    for build_field in (
        lambda: SpinorPoly(2, [x1, SpherePoly.zero(3)]),
        lambda: SpinorPoly.unit(2, 0, x1),
    ):
        with pytest.raises(ValueError, match=re.escape("dimension mismatch: S^2 vs S^3")):
            build_field()


def test_slots_that_are_not_sphere_polynomials_are_refused():
    # the components of a field are {exponents: CRat} dicts, not slots: read
    # back into the constructor they raised AttributeError on dict.n
    unit = SpinorPoly.unit(2, 0)
    for slots in (unit.components, [SpherePoly.one(2), 1]):
        with pytest.raises(TypeError, match="expected rational SpherePoly slots, got"):
            SpinorPoly(2, slots)


def test_columns_over_different_denominators_add_exactly(monkeypatch):
    # every column of one operator has the same denominator at every n that
    # the suites run, so halve one column of P to make the sum mix two
    build_column = clifford._p_column
    n, halved_key = 2, (2, 0, (0, 0, 0))

    def halved(n, slot, e):
        if (n, slot, e) != halved_key:
            return build_column(n, slot, e)
        image = dirac_reference(clifford._unit(n, slot, e))
        return image.scale(Fraction(1, 2))

    one = SpinorPoly.unit(n, 0)
    x1 = SpinorPoly.unit(n, 0, SpherePoly.coordinate(n, 1))
    want = dirac_reference(one).scale(Fraction(1, 2)) + dirac_reference(x1).scale(CRat(0, 3))
    monkeypatch.setattr(clifford, "_p_column", halved)
    try:
        clifford._clear_operator_caches()
        assert dirac_apply(one + x1.scale(CRat(0, 3))) == want
    finally:
        clifford._clear_operator_caches()


def test_operator_column_maps_stay_bounded(monkeypatch):
    n = 2
    ones = SpherePoly(n, {e: 1 for e in normal_monomials(n, 2)}, reduced=True)
    psi = SpinorPoly(n, [ones, ones.scale(Fraction(1, 3))])
    others = [psi.coordinate_mul(i) for i in range(n + 1)]
    want = [(dirac_apply(p), U_spin(1, p), y_apply(1, p)) for p in [psi] + others]
    tables = (
        clifford._DIRAC_CACHE,
        clifford._U_CACHE,
        clifford._Y_CACHE,
        clifford._DIRAC_COLUMNS,
        clifford._U_COLUMNS,
        clifford._Y_COLUMNS,
    )
    for table in tables:
        monkeypatch.setattr(table, "limit", 3)
    try:
        clifford._clear_operator_caches()
        for _ in range(2):  # the second pass mixes result hits and misses
            got = [(dirac_apply(p), U_spin(1, p), y_apply(1, p)) for p in [psi] + others]
            assert got == want
            assert all(len(table) <= 3 for table in tables)
    finally:
        clifford._clear_operator_caches()


def test_memoized_results_and_columns_are_stored_at_size():
    # keys that cancel in an accumulation leave a dict's table oversized;
    # the memo tables keep copies built to size
    tables = (
        clifford._DIRAC_CACHE,
        clifford._U_CACHE,
        clifford._Y_CACHE,
        clifford._DIRAC_COLUMNS,
        clifford._U_COLUMNS,
        clifford._Y_COLUMNS,
        clifford._X_CACHE,
    )
    try:
        clifford._clear_operator_caches()
        assert clifford.verify_spinor_identities(2, 1).all_passed
        maps = [m for table in tables for psi in table.values() for m in (psi._re, psi._im)]
        assert all(tables) and len(maps) > 1000
        assert all(sys.getsizeof(m) == sys.getsizeof({k: v for k, v in m.items()}) for m in maps)
    finally:
        clifford._clear_operator_caches()
