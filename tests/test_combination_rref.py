"""The one-pass linear combination and the sparse row reduction against
their slow references: ``combination`` against a chain of binary
``_kernel.add_scaled_terms`` calls over the coefficient maps,
``_kernel.rref`` against the dense Gauss-Jordan elimination in
``oracles.dense_rref``."""

import copy
import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from speclab import _kernel
from speclab.clifford import SpinorPoly, gamma_algebra
from speclab.polynomial import SpherePoly, normal_monomials
from speclab.scalars import CRat

from oracles import dense_rref, gaussian_spinor
from test_fast_paths import OTHERS, UNITS, _rand_map, _same

DENOMINATORS = (1, 2, 3, 4, 6)


def ratios(zero=True):
    out = st.builds(Fraction, st.integers(-6, 6), st.sampled_from(DENOMINATORS))
    return out if zero else out.filter(bool)


def coefficient_values(kind):
    if kind == "rational":
        return ratios(zero=False)
    if kind == "crat":
        return st.builds(CRat, ratios(), ratios()).filter(bool)
    return st.integers(-6, 6).filter(bool)


@st.composite
def sphere_polys(draw, n, kind):
    monos = normal_monomials(n, 3)
    keys = draw(st.lists(st.sampled_from(monos), max_size=5, unique=True))
    return SpherePoly(n, {e: draw(coefficient_values(kind)) for e in keys}, reduced=True)


@st.composite
def sphere_cases(draw):
    """(n, pairs): scaled polynomials of Fraction or of int coefficients,
    and half of the time the negated sum of a prefix, so the total often
    cancels to zero or to a polynomial of smaller content."""
    n = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["rational", "int"]))
    scalars = st.one_of(ratios(), st.integers(-3, 3))
    k = draw(st.integers(1, 5))
    pairs = [(draw(scalars), draw(sphere_polys(n, kind))) for _ in range(k)]
    if draw(st.booleans()):
        cut = draw(st.integers(1, k))
        pairs.append((-1, chain(pairs[:cut])))
    return n, pairs


def test_combine_terms_matches_chained_add_scaled_terms():
    """Every coefficient type and unit case of the kernel, on maps whose
    sums cancel in places; a zero coefficient or an empty map is skipped."""
    rng = random.Random(11)
    for crat in (False, True):
        for n in (2, 3):
            for _ in range(30):
                maps = [_rand_map(rng, n, crat, size=rng.randint(0, 6)) for _ in range(4)]
                first = maps[0]
                for e in list(first)[:2]:
                    maps[1][e] = -first[e]
                # floats mix with ints and Fractions, not with CRat
                floats = not crat and rng.random() < 0.5
                coeffs = [c for c in UNITS + OTHERS + [0] if floats or type(c) is not float]
                if floats:
                    coeffs = [c for c in coeffs if not isinstance(c, CRat)]
                pairs = [(rng.choice(coeffs), m) for m in maps]
                want = {}
                for c, m in pairs:
                    want = _kernel.add_scaled_terms(want, m, c)
                _same(_kernel.combine_terms(pairs), want)


def chain(pairs):
    """The sum by binary kernel steps over the coefficient maps (the
    ``SpherePoly.terms`` of a polynomial, the ``SpinorPoly.components`` of
    a spinor), from empty maps, through neither ``combination`` nor
    ``add_scaled``."""
    first = pairs[0][1]
    spinor = isinstance(first, SpinorPoly)

    def maps(v):
        return v.components if spinor else [v.terms]

    sums = [{} for _ in maps(first)]
    for c, v in pairs:
        sums = [_kernel.add_scaled_terms(t, m, c) for t, m in zip(sums, maps(v))]
    if spinor:
        return gaussian_spinor(first.n, sums)
    return SpherePoly(first.n, sums[0], reduced=True)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sphere_cases())
def test_sphere_combination_matches_chained_add_scaled(case):
    n, pairs = case
    got = SpherePoly.combination(pairs)
    want = chain(pairs)
    assert got == want
    assert (got._den, got._num) == (want._den, want._num)
    assert {e: type(v) for e, v in got._num.items()} == {e: type(v) for e, v in want._num.items()}
    assert all(got._num.values())
    assert got._den > 0 and gcd(got._den, *got._num.values()) == 1
    assert str(got) == str(want)


def test_sphere_combination_cancels_to_the_rational_zero():
    p = SpherePoly(3, {(1, 0, 2, 0): Fraction(1, 6), (0, 1, 0, 0): Fraction(-5, 4)})
    q = SpherePoly(3, {(0, 0, 0, 1): -2})
    for pairs in ([(Fraction(2, 3), p), (Fraction(-2, 3), p)], [(3, q), (-3, q)]):
        got = SpherePoly.combination(pairs)
        assert got.is_zero and got == SpherePoly.zero(3) and got._den == 1


def test_sphere_combination_divides_out_the_content():
    x = SpherePoly(2, {(0, 1, 0): Fraction(1, 2)})
    y = SpherePoly(2, {(0, 0, 1): Fraction(3, 2)})
    got = SpherePoly.combination([(1, x), (Fraction(2, 3), y), (1, x)])
    assert (got._den, got._num) == (1, {(0, 1, 0): 1, (0, 0, 1): 1})


@st.composite
def spinors(draw, n):
    monos = normal_monomials(n, 2)
    slots = []
    for _ in range(gamma_algebra(n).dim_spin):
        keys = draw(st.lists(st.sampled_from(monos), max_size=3, unique=True))
        slots.append({e: draw(coefficient_values("crat")) for e in keys})
    return gaussian_spinor(n, slots)


@st.composite
def spinor_cases(draw):
    n = draw(st.sampled_from([2, 3]))
    scalars = st.one_of(ratios(), coefficient_values("crat"), st.integers(-3, 3))
    k = draw(st.integers(1, 4))
    pairs = [(draw(scalars), draw(spinors(n))) for _ in range(k)]
    if draw(st.booleans()):  # c times -(prefix sum) / c
        cut = draw(st.integers(1, k))
        c = draw(st.sampled_from([-1, CRat(0, 1), Fraction(-1, 2)]))
        inverse = CRat(-1) / (c if isinstance(c, CRat) else CRat(c))
        pairs.append((c, chain(pairs[:cut]).scale(inverse)))
    return n, pairs


@settings(max_examples=50, deadline=None, derandomize=True)
@given(spinor_cases())
def test_spinor_combination_matches_chained_add_scaled(case):
    n, pairs = case
    got = SpinorPoly.combination(pairs)
    want = chain(pairs)
    assert got == want and hash(got) == hash(want)
    assert (got._den, got._re, got._im) == (want._den, want._re, want._im)
    values = [*got._re.values(), *got._im.values()]
    assert all(values)
    assert got._den > 0 and gcd(got._den, *values) == 1
    assert str(got) == str(want)


def test_spinor_combination_cancels_to_zero():
    psi = SpinorPoly.unit(2, 1, SpherePoly(2, {(1, 1, 0): Fraction(3, 4)}))
    got = SpinorPoly.combination([(CRat(1, 2), psi), (CRat(-1, -2), psi)])
    assert got.is_zero and got == SpinorPoly.zero(2) and got._den == 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(sphere_cases(), spinor_cases()))
def test_zero_test_matches_the_built_combination(case):
    # the law engine's zero test on raw numerators against the chained sum;
    # half of the cases append a negated prefix, so both answers occur
    _, pairs = case
    vector_type = type(pairs[0][1])
    assert vector_type.combination_is_zero(pairs) == chain(pairs).is_zero
    zero = [*pairs, (-1, chain(pairs))]
    assert vector_type.combination_is_zero(zero)


# ---------------------------------------------------------------------------
# rref
# ---------------------------------------------------------------------------


@st.composite
def matrices(draw):
    """Sparse rows over Fraction or CRat, with zero rows, duplicated rows,
    and rows whose first nonzero entry is already 1."""
    crat = draw(st.booleans())
    ncols = draw(st.integers(1, 7))
    zero = CRat(0) if crat else Fraction(0)
    entry = st.one_of(
        st.just(zero),
        st.just(zero),
        (coefficient_values("crat") if crat else ratios(zero=False)),
        st.just(CRat(1) if crat else Fraction(1)),
    )
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=7))
    if draw(st.booleans()):
        rows.append([zero] * ncols)
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):  # a combination of two rows
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        k = draw(entry)
        rows.append([x + k * y for x, y in zip(a, b)])
    return rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices())
def test_rref_matches_dense_reference(rows):
    snapshot = copy.deepcopy(rows)
    inner = list(rows)
    want_rows, want_pivots = dense_rref(rows)
    work = list(rows)
    pivots = _kernel.rref(work)
    assert pivots == want_pivots
    assert work == want_rows
    # the caller's row lists are never written to
    assert all(a is b for a, b in zip(rows, inner))
    assert rows == snapshot
    # reduced echelon shape: each pivot is a 1 alone in its column
    for r, col in enumerate(pivots):
        assert work[r][col] == 1
        assert all(not work[i][col] for i in range(len(work)) if i != r)


def test_rref_of_duplicate_and_zero_rows():
    f = Fraction
    rows = [
        [f(0), f(2), f(4), f(0)],
        [f(0), f(0), f(0), f(0)],
        [f(0), f(2), f(4), f(0)],
        [f(0), f(1), f(0), f(3)],
    ]
    snapshot = copy.deepcopy(rows)
    work = list(rows)
    assert _kernel.rref(work) == [1, 2]
    assert work == [
        [0, 1, 0, 3],
        [0, 0, 1, f(-3, 2)],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ]
    assert rows == snapshot
