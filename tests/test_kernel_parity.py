"""The compiled kernel twin must agree with the pure fallback exactly."""

import random
from fractions import Fraction

import pytest

from speclab import _kernel
from speclab import _kernel_py

cy = pytest.importorskip("speclab._kernel_cy")


def rand_terms(rng, nvars=4, nterms=25):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, 3) for _ in range(nvars))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if c:
            terms[e] = c
    return terms


@pytest.mark.parametrize("seed", range(6))
def test_fraction_lane_parity(seed):
    rng = random.Random(seed)
    a, b = rand_terms(rng), rand_terms(rng)
    c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    assert cy.mul_terms(a, b) == _kernel_py.mul_terms(a, b)
    assert cy.add_scaled_terms(a, b, c) == _kernel_py.add_scaled_terms(a, b, c)
    assert cy.scale_terms(a, c) == _kernel_py.scale_terms(a, c)
    assert cy.reduce_terms(a, 3) == _kernel_py.reduce_terms(a, 3)


@pytest.mark.parametrize("seed", range(4))
def test_rref_parity(seed):
    rng = random.Random(200 + seed)
    rows_a = [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(12)]
        for _ in range(8)
    ]
    rows_b = [list(r) for r in rows_a]
    piv_cy = cy.frac_rref(rows_a)
    piv_py = _kernel_py.rref(rows_b)
    assert piv_cy == piv_py
    assert rows_a == rows_b


def test_rref_parity_on_degenerate_matrices():
    zero_row = [Fraction(0)] * 5
    rows = [
        [Fraction(1), Fraction(2), Fraction(0), Fraction(1), Fraction(0)],
        list(zero_row),
        [Fraction(2), Fraction(4), Fraction(0), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(3)],
    ]
    a = [list(r) for r in rows]
    b = [list(r) for r in rows]
    assert cy.frac_rref(a) == _kernel_py.rref(b) == [0, 4]
    assert a == b


def test_fraction_results_are_canonical():
    # compiled arithmetic must hand back normalized Fractions
    rng = random.Random(42)
    a, b = rand_terms(rng), rand_terms(rng)
    for v in cy.mul_terms(a, b).values():
        assert isinstance(v, Fraction)
        import math

        assert math.gcd(v.numerator, v.denominator) == 1
        assert v.denominator > 0
        assert v == Fraction(v.numerator, v.denominator)


def test_selector_reports_backend():
    assert _kernel.BACKEND in ("cython", "python")


def test_explicit_zero_inputs_never_survive_reduction():
    # raw user input may carry explicit zeros; reduction must drop them
    zero = Fraction(0)
    terms = {(1, 0, 0, 0): zero, (3, 1, 0, 0): zero, (0, 2, 0, 0): Fraction(2)}
    for impl in (cy.reduce_terms, _kernel_py.reduce_terms):
        out = impl(dict(terms), 3)
        assert all(v for v in out.values())
        assert out == {(0, 2, 0, 0): Fraction(2)}
