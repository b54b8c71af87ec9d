"""Exact row reduction over Fraction or CRat entries: ranks, kernels and
span membership.

Matrices are small lists of rows; the point is exactness rather than
scale.  Row reduction is ``_kernel.rref``, which works over any exact
field.  No matrix products live here: the gamma matrices act as signed
slot moves (``clifford.GammaAlgebra``).
"""

from __future__ import annotations

from . import _kernel


def rref(rows: list) -> list:
    """Reduce in place, return pivot column indices."""
    return _kernel.rref(rows)


def nullspace(rows: list, ncols=None) -> list:
    """Basis of the right kernel of the matrix (rows = equations)."""
    if not rows:
        return []
    ncols = ncols if ncols is not None else len(rows[0])
    work = [list(r) for r in rows]
    pivots = _kernel.rref(work)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    kind = type(rows[0][0])
    zero, one = kind(0), kind(1)
    basis = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][f]
        basis.append(vec)
    return basis


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
    zero = type(basis_rows[0][0])(0)
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

