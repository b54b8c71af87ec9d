"""Rational sphere polynomials (int numerators over one shared
denominator) against a plain ``Fraction`` term-map reference.

The reference below shares no code with ``SpherePoly``: it rewrites x0^2
one step at a time, builds T_i from its definition x_i E - d_i, and takes
both Laplacians as -sum_i T_i^2.  Every operation on the lane must give
the reference's values, leave the map in normal form (no zero numerators,
x0-exponents at most 1, gcd(denominator, numerators) = 1), compare and
hash like the polynomial rebuilt from its values, and print the
reference's text.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from speclab.entropy import apply_spectral_operator
from speclab.polynomial import SpherePoly, grlex_key, harmonic_decompose, integrate
from speclab.scalar_ops import T, U, conformal_laplacian, laplacian, laplacian_via_conformal_fields
from speclab.scalars import CRat

DENOMINATORS = (1, 2, 4, 8, 3, 5, 7)

# ---------------------------------------------------------------------------
# the reference: Fraction term maps, textbook formulas
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
            out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def ref_add(a: dict, b: dict, c) -> dict:
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, Fraction(0)) + c * v
    return {e: v for e, v in out.items() if v}


def ref_shift(a: dict, i: int) -> dict:
    return {e[:i] + (e[i] + 1,) + e[i + 1 :]: c for e, c in a.items()}


def ref_mul(a: dict, b: dict, n: int) -> dict:
    raw: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            raw[e] = raw.get(e, Fraction(0)) + ca * cb
    return ref_reduce(raw, n)


def ref_T(i: int, a: dict, n: int) -> dict:
    raw: dict = {}
    for e, c in a.items():
        up = e[:i] + (e[i] + 1,) + e[i + 1 :]
        raw[up] = raw.get(up, Fraction(0)) + c * sum(e)
        if e[i]:
            down = e[:i] + (e[i] - 1,) + e[i + 1 :]
            raw[down] = raw.get(down, Fraction(0)) - c * e[i]
    return ref_reduce(raw, n)


def ref_U(i: int, a: dict, n: int) -> dict:
    return ref_reduce(ref_add(ref_T(i, a, n), ref_shift(a, i), Fraction(n, 2)), n)


def ref_laplacian(a: dict, n: int) -> dict:
    out: dict = {}
    for i in range(n + 1):
        out = ref_add(out, ref_T(i, ref_T(i, a, n), n), -1)
    return out


def ref_moment(e, n: int) -> Fraction:
    if any(k % 2 for k in e):
        return Fraction(0)
    num, den = 1, 1
    for k in e:
        for odd in range(1, k, 2):
            num *= odd
    for s in range(sum(e) // 2):
        den *= n + 1 + 2 * s
    return Fraction(num, den)


def ref_str(a: dict) -> str:
    if not a:
        return "0"
    chunks = []
    for e in sorted(a, key=grlex_key):
        mono = " ".join(f"x{i}^{k}" for i, k in enumerate(e) if k)
        cs = f"{a[e].numerator}/{a[e].denominator}"
        chunks.append(f"{cs} * {mono}" if mono else cs)
    return " + ".join(chunks)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@st.composite
def rational_maps(draw, n, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, max_exp)) for _ in range(n + 1))
        c = Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from(DENOMINATORS)))
        if c:
            terms[e] = c
    return terms


@st.composite
def cases(draw):
    """(n, a, b, c): two raw maps and a coefficient.  Half the time b is
    built from a so that a + c b cancels, wholly or on shared terms."""
    n = draw(st.sampled_from((2, 3, 4, 5)))
    a = draw(rational_maps(n))
    c = Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from(DENOMINATORS)))
    b = draw(rational_maps(n))
    if c and draw(st.booleans()):
        b.update({e: -v / c for e, v in a.items()})
    return n, a, b, c


def lane(p: SpherePoly) -> dict:
    """The values of p, after checking that it is in normal form."""
    values = dict(p.terms)
    assert all(type(v) is Fraction and v for v in values.values())
    assert all(e[0] <= 1 for e in values)
    assert p._den > 0 and all(type(v) is int and v for v in p._num.values())
    assert gcd(p._den, *p._num.values()) == 1
    return values


def int_twin(p: SpherePoly) -> SpherePoly:
    """p from its int numerators, scaled down by its denominator."""
    return SpherePoly(p.n, dict(p._num), reduced=True).scale(Fraction(1, p._den))


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None, derandomize=True)
@given(cases())
def test_ring_operations_match_the_fraction_reference(case):
    n, a, b, c = case
    ra, rb = ref_reduce(a, n), ref_reduce(b, n)
    p, q = SpherePoly(n, a), SpherePoly(n, b)
    assert lane(p) == ra and lane(q) == rb
    assert lane(p.add_scaled(q, c)) == ref_add(ra, rb, c)
    assert lane(p.add_scaled(q, int(c))) == ref_add(ra, rb, int(c))
    assert lane(p + q) == ref_add(ra, rb, 1)
    assert lane(p - q) == ref_add(ra, rb, -1)
    assert lane(-p) == ref_add({}, ra, -1)
    assert lane(p.scale(c)) == ref_add({}, ra, c)
    assert lane(p * c) == lane(c * p) == ref_add({}, ra, c)
    assert lane(p * q) == ref_mul(ra, rb, n)
    for i in range(n + 1):
        assert lane(p.coordinate_mul(i)) == ref_reduce(ref_shift(ra, i), n)
    assert p.is_zero == (not ra)
    assert p.degree() == max((sum(e) for e in ra), default=-1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases())
def test_operators_match_the_fraction_reference(case):
    n, a, _, _ = case
    ra = ref_reduce(a, n)
    p = SpherePoly(n, a)
    for i in range(n + 1):
        assert lane(T(i, p)) == ref_T(i, ra, n)
        assert lane(U(i, p)) == ref_U(i, ra, n)
    lap = ref_laplacian(ra, n)
    assert lane(laplacian(p)) == lap
    assert lane(laplacian_via_conformal_fields(p)) == lap
    assert lane(conformal_laplacian(p)) == ref_add(lap, ra, Fraction(n * (n - 2), 4))
    assert integrate(p) == sum((c * ref_moment(e, n) for e, c in ra.items()), Fraction(0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases())
def test_harmonic_parts_match_the_fraction_reference(case):
    n, a, _, _ = case
    ra = ref_reduce(a, n)
    total: dict = {}
    for k, h in harmonic_decompose(SpherePoly(n, a)):
        assert all(type(v) is Fraction and v for v in h.values())
        assert all(sum(e) == k for e in h)
        # ambient-harmonic: the second derivatives cancel
        second: dict = {}
        for e, c in h.items():
            for i, m in enumerate(e):
                if m >= 2:
                    f = e[:i] + (m - 2,) + e[i + 1 :]
                    second[f] = second.get(f, Fraction(0)) + c * m * (m - 1)
        assert not any(second.values())
        total = ref_add(total, ref_reduce(h, n), 1)
    assert total == ra


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases())
def test_equality_hash_and_text_across_coefficient_types(case):
    n, a, b, c = case
    p, q = SpherePoly(n, a), SpherePoly(n, b)
    for x in (p, q, p.add_scaled(q, c), p * q):
        twin = int_twin(x)
        assert x == twin and twin == x and hash(x) == hash(twin)
        assert x.canonical_str() == ref_str(lane(x))
        # the reference map rebuilt from the view is the same polynomial
        rebuilt = SpherePoly(n, dict(x.terms), reduced=True)
        assert rebuilt == x and hash(rebuilt) == hash(x)
        # arithmetic on the twin from int numerators gives the same values
        assert twin + x == x.scale(2) and x - twin == SpherePoly.zero(n)
        assert U(0, twin) == U(0, x) and conformal_laplacian(twin) == conformal_laplacian(x)
    assert (p == q) == (ref_reduce(a, n) == ref_reduce(b, n))
    assert str(SpherePoly(n, {(0,) * (n + 1): Fraction(-3, 4)})) == "-3/4"


def test_odd_dimension_denominators_are_carried_and_cancelled():
    # on S^3, U_1 x1 = (5/2) x1^2 - 1 and D x1 = (15/4) x1 leave the
    # integers; U_1 of the even combination 2 x1 returns to them
    x1 = SpherePoly.coordinate(3, 1)
    assert (U(1, x1)._num, U(1, x1)._den) == ({(0, 2, 0, 0): 5, (0, 0, 0, 0): -2}, 2)
    assert conformal_laplacian(x1)._den == 4
    assert U(1, x1.scale(2))._den == 1
    assert (x1.scale(Fraction(1, 2)) - x1.scale(Fraction(1, 2))).terms == {}
    assert x1.scale(Fraction(1, 2)).add_scaled(x1, Fraction(-1, 2)) == SpherePoly.zero(3)


def test_coefficients_and_multipliers_that_are_not_rational_are_refused():
    # a SpherePoly is int numerators over one denominator: a CRat or float
    # coefficient or multiplier raises instead of taking another lane
    n, e = 3, (0, 1, 0, 0)
    p = SpherePoly(n, {e: Fraction(1, 2)})
    for c, name in ((CRat(0, 1), "CRat"), (0.5, "float")):
        refused = [
            lambda: SpherePoly(n, {e: c}),
            lambda: SpherePoly(n, {e: c}, reduced=True),
            lambda: SpherePoly.combination([(1, p), (c, p)]),
            lambda: SpherePoly.combination_is_zero([(c, p)]),
            lambda: p.scale(c),
            lambda: p.add_scaled(p, c),
            lambda: p * c,
            lambda: c * p,
            lambda: apply_spectral_operator(p, lambda j: c),
        ]
        for build in refused:
            with pytest.raises(TypeError, match=name):
                build()
