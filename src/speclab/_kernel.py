"""Kernel selector: compiled twin when available, pure Python otherwise.

Set SPECLAB_PURE_PYTHON=1 to force the fallback (used by the benchmark
and the parity tests).  The compiled kernel has one coefficient lane,
Fraction.  Everything else routes to the coefficient-generic pure
implementation: CRat term maps (spinor coefficients, whose int-triple
arithmetic lives in ``scalars.CRat``), mixed maps and floats from
spectral images.
"""

from __future__ import annotations

import os
from fractions import Fraction

from . import _kernel_py as _py

_cy = None
if not os.environ.get("SPECLAB_PURE_PYTHON"):
    try:
        from . import _kernel_cy as _cy  # type: ignore[no-redef]
    except ImportError:
        _cy = None

BACKEND = "cython" if _cy is not None else "python"


def _frac(terms: dict) -> bool:
    """True when the map's coefficients are Fractions (or it is empty)."""
    for v in terms.values():
        return type(v) is Fraction
    return True


def mul_terms(a: dict, b: dict) -> dict:
    if _cy is not None and _frac(a) and _frac(b):
        return _cy.mul_terms(a, b)
    return _py.mul_terms(a, b)


def add_scaled_terms(a: dict, b: dict, c) -> dict:
    if _cy is not None and type(c) is Fraction and _frac(a) and _frac(b):
        return _cy.add_scaled_terms(a, b, c)
    return _py.add_scaled_terms(a, b, c)


def scale_terms(a: dict, c) -> dict:
    if _cy is not None and type(c) is Fraction and _frac(a):
        return _cy.scale_terms(a, c)
    return _py.scale_terms(a, c)


def reduce_terms(terms: dict, n: int) -> dict:
    if _cy is not None and _frac(terms):
        return _cy.reduce_terms(terms, n)
    return _py.reduce_terms(terms, n)


def rref(rows: list) -> list:
    """Row echelon over any exact field; compiled lane for Fraction rows."""
    if _cy is not None and rows and all(type(v) is Fraction for v in rows[0]):
        return _cy.frac_rref(rows)
    return _py.rref(rows)
