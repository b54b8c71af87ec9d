"""Exact dense linear algebra over Fraction or CRat entries.

Everything is small lists of lists; the point is exactness (ranks,
kernels, span membership) rather than scale.  Row reduction is
``_kernel.rref``, which works over any exact field.
"""

from __future__ import annotations

from fractions import Fraction

from . import _kernel
from .scalars import CRat


def rref(rows: list) -> list:
    """Reduce in place, return pivot column indices."""
    return _kernel.rref(rows)


def rank(rows: list) -> int:
    work = [list(r) for r in rows]
    return len(_kernel.rref(work))


def nullspace(rows: list, ncols=None) -> list:
    """Basis of the right kernel of the matrix (rows = equations)."""
    if not rows:
        return []
    ncols = ncols if ncols is not None else len(rows[0])
    work = [list(r) for r in rows]
    pivots = _kernel.rref(work)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    zero, one = _zero_one(rows[0][0])
    basis = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][f]
        basis.append(vec)
    return basis


def _zero_one(sample):
    if isinstance(sample, CRat):
        return CRat(0), CRat(1)
    if isinstance(sample, Fraction):
        return Fraction(0), Fraction(1)
    return type(sample)(0), type(sample)(1)


def coords_in_span_multi(basis_rows: list, targets: list) -> list:
    """Coordinates of each target in the row span (None where outside).

    One echelon pass serves every target: the transpose system is
    augmented with all right-hand sides at once.  A reduced row whose
    basis part vanishes forces the corresponding right-hand entries to
    vanish too; any such row with a nonzero entry marks its target as
    inconsistent, regardless of what the other augmented columns hold.
    """
    if not targets:
        return []
    if not basis_rows:
        return [None if any(t) else [] for t in targets]
    ncols = len(targets[0])
    m = len(basis_rows)
    k = len(targets)
    zero, _one = _zero_one(basis_rows[0][0])
    rows = []
    for j in range(ncols):
        rows.append([basis_rows[b][j] for b in range(m)] + [t[j] for t in targets])
    pivots = _kernel.rref(rows)
    piv_of_col = {pc: r for r, pc in enumerate(pivots)}
    out = []
    for t_idx in range(k):
        col = m + t_idx
        if col in piv_of_col:
            out.append(None)
            continue
        coeffs = [zero] * m
        consistent = True
        for r, pc in enumerate(pivots):
            if pc >= m:
                if rows[r][col]:
                    consistent = False
                    break
                continue
            coeffs[pc] = rows[r][col]
        out.append(coeffs if consistent else None)
    return out


def echelon_coords(rows: list, targets: list) -> list:
    """Coordinates of each target in the span of nonzero rows in reduced
    echelon form, or None where outside: the target's entries at the
    pivots (each row's first nonzero entry, a 1 alone in its column),
    kept when the exact residual vanishes."""
    sparse = [[(k, x) for k, x in enumerate(row) if x] for row in rows]
    out = []
    for t in targets:
        coeffs = [t[row[0][0]] for row in sparse]
        residual = list(t)
        for c, row in zip(coeffs, sparse):
            if c:
                for k, x in row:
                    residual[k] -= c * x
        out.append(None if any(residual) else coeffs)
    return out


def mat_mul(a: list, b: list) -> list:
    bt = list(zip(*b))
    return [[_dot(row, col) for col in bt] for row in a]


def _dot(u, v):
    it = iter(zip(u, v))
    x, y = next(it)
    acc = x * y
    for x, y in it:
        acc = acc + x * y
    return acc


def mat_vec(a: list, v: list) -> list:
    return [_dot(row, v) for row in a]


def mat_scale(a: list, c) -> list:
    return [[c * x for x in row] for row in a]
