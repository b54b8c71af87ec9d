"""Fast paths against their slow references: the unit-coefficient kernel
paths, the fused U_i, and coordinate multiplication by exponent shift."""

import random
from fractions import Fraction

import pytest

from speclab import _kernel
from speclab.clifford import gamma_algebra
from speclab.polynomial import SpherePoly
from speclab.scalar_ops import T, U, coordinate_mul
from speclab.scalars import CRat

from oracles import gaussian_spinor
from test_polynomial import rand_poly

UNITS = [1, -1, Fraction(1), Fraction(-1), CRat(1), CRat(-1), 1.0, -1.0]
OTHERS = [2, Fraction(-3, 2), CRat(0, 1), CRat(Fraction(1, 2), -1), 0.5]


def _rand_map(rng, n, crat, size=8):
    terms = {}
    while len(terms) < size:
        e = tuple(rng.randint(0, 3) for _ in range(n + 1))
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if crat:
            v = CRat(re, Fraction(rng.choice([0, 0, 1, -2]), rng.randint(1, 3)))
        else:
            v = re
        if v:
            terms[e] = v
    return terms


def _pairs(seed):
    """Seeded (a, b) term maps with shared keys, some of which cancel."""
    rng = random.Random(seed)
    for crat in (False, True):
        for n in (2, 3, 4):
            a = _rand_map(rng, n, crat)
            b = _rand_map(rng, n, crat)
            keys = list(a)
            for e in keys[:3]:  # a + b cancels here
                b[e] = -a[e]
            for e in keys[3:5]:  # a - b cancels here
                b[e] = a[e]
            yield a, b, crat


def _add_scaled_reference(a, b, c):
    out = dict(a)
    for e, v in b.items():
        out[e] = c * v if e not in out else out[e] + c * v
    return {e: v for e, v in out.items() if v}


def _same(got, want):
    assert got == want
    assert {e: type(v) for e, v in got.items()} == {e: type(v) for e, v in want.items()}
    assert all(got.values())


def test_unit_kernels_match_general_formula():
    for a, b, crat in _pairs(20261018):
        for c in UNITS + OTHERS:
            if crat and isinstance(c, float):
                continue  # CRat has no float product, on any path
            _same(_kernel.add_scaled_terms(a, b, c), _add_scaled_reference(a, b, c))
            _same(_kernel.scale_terms(b, c), {e: c * v for e, v in b.items()})
        assert _kernel.add_scaled_terms(a, b, Fraction(1)) is not a
        assert _kernel.scale_terms(b, 1) is not b


def test_fused_u_matches_field_plus_coordinate_term():
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        # U_1 (1 + (n/4) x1^2) = x1 (E + n/2) p - d_1 p: the x1 terms cancel
        cancel = SpherePoly(n, {(0,) * (n + 1): Fraction(1), (0, 2) + (0,) * (n - 1): Fraction(n, 4)})
        cases = [(1, cancel)]
        for _ in range(3):
            p = rand_poly(rng, n, max_degree=5, terms=7)
            cases += [(i, p) for i in range(n + 1)]
        for i, p in cases:
            got = U(i, p)
            assert got == T(i, p) + SpherePoly.coordinate(n, i) * p * Fraction(n, 2)
            assert _normal(got)
        with pytest.raises(IndexError):
            U(n + 1, cancel)


def _x0_heavy(rng, n):
    """A reduced polynomial with many x0 terms, from a raw map with high
    powers of x0."""
    raw = {}
    for _ in range(8):
        e = (rng.randint(0, 5),) + tuple(rng.randint(0, 2) for _ in range(n))
        raw[e] = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4))
    return SpherePoly(n, raw)


def _normal(p):
    return all(e[0] <= 1 for e in p.terms) and all(p.terms.values())


def test_coordinate_mul_is_multiplication_by_the_coordinate():
    rng = random.Random(11)
    for n in (2, 3, 4, 5):
        polys = [_x0_heavy(rng, n) for _ in range(3)]
        for p in polys:
            for i in range(n + 1):
                got = coordinate_mul(i, p)
                assert got == SpherePoly.coordinate(n, i) * p
                assert _normal(got)
        for i in (-1, n + 1):
            with pytest.raises(IndexError):
                coordinate_mul(i, polys[0])


def test_spinor_coordinate_mul_is_multiplication_by_the_coordinate():
    rng = random.Random(13)
    for n in (2, 3, 4, 5):
        d = gamma_algebra(n).dim_spin
        comps = []
        for _ in range(d):
            p = _x0_heavy(rng, n)
            comps.append({e: CRat(c, rng.randint(-2, 2)) for e, c in p.terms.items()})
        psi = gaussian_spinor(n, comps)
        for i in range(n + 1):
            got = psi.coordinate_mul(i)
            xi = SpherePoly.coordinate(n, i).terms
            assert got == gaussian_spinor(n, [_kernel.mul_terms(xi, t) for t in psi.components])
            assert all(e[0] <= 1 and c for t in got.components for e, c in t.items())
        for i in (-1, n + 1):
            with pytest.raises(IndexError):
                psi.coordinate_mul(i)
