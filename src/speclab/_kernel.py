"""Hot kernels: sparse term-map arithmetic and row echelon.

These are the inner loops everything else reduces to: merging sparse
exponent-keyed term maps (``combine_terms`` sums any number of scaled maps
in one pass), rewriting even powers of x0 through the sphere relation, and
exact Gaussian elimination, which touches only the nonzero entries of each
pivot row.  They are pure Python and
coefficient-generic: anything with field arithmetic works (Fraction,
CRat, float), and CRat maps run on CRat's own int arithmetic.  Callers
look the functions up on this module at call time
(``_kernel.mul_terms(...)``), so a wrapper bound here sees every call.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import add


def _unit_sign(c, v) -> int:
    """1 or -1 when multiplying coefficients of the type of ``v`` by c only
    copies or negates them, else 0.  That is c = +-1 given as an int, a
    Fraction or that same type: a float 1.0 would turn Fraction
    coefficients into floats, and CRat(1) would turn them into CRat."""
    t = type(c)
    if t is int or t is Fraction or t is type(v):
        if c == 1:
            return 1
        if c == -1:
            return -1
    return 0


def _merge(out: dict, m: dict, c) -> None:
    """Add c*m into ``out`` in place (zero coefficients dropped); c and m
    nonzero.  One merge loop per case, so c = +-1 costs no multiply."""
    sign = _unit_sign(c, next(iter(m.values())))
    if sign == 1:
        for e, v in m.items():
            prev = out.get(e)
            if prev is None:
                out[e] = v
            else:
                s = prev + v
                if s:
                    out[e] = s
                else:
                    del out[e]
    elif sign == -1:
        for e, v in m.items():
            prev = out.get(e)
            if prev is None:
                out[e] = -v
            else:
                s = prev - v
                if s:
                    out[e] = s
                else:
                    del out[e]
    else:
        for e, v in m.items():
            prev = out.get(e)
            if prev is None:
                out[e] = c * v
            else:
                s = prev + c * v
                if s:
                    out[e] = s
                else:
                    del out[e]


def add_scaled_terms(a: dict, b: dict, c) -> dict:
    """Return a + c*b as a fresh term map (zero coefficients dropped)."""
    out = dict(a)
    if c and b:
        _merge(out, b, c)
    return out


def combine_terms(pairs) -> dict:
    """Return the sum of c * m over the ``(c, m)`` pairs as one fresh term
    map (zero coefficients dropped).

    One accumulator for all pairs: it starts as ``scale_terms`` of the
    first nonzero map, and every later map is merged into it in one pass."""
    out: dict = {}
    for c, m in pairs:
        if not c or not m:
            continue
        if out:
            _merge(out, m, c)
        else:
            out = scale_terms(m, c)
    return out


def scale_terms(a: dict, c) -> dict:
    if not c or not a:
        return {}
    sign = _unit_sign(c, next(iter(a.values())))
    if sign == 1:
        return dict(a)
    if sign == -1:
        return {e: -v for e, v in a.items()}
    return {e: c * v for e, v in a.items()}


def mul_terms(a: dict, b: dict) -> dict:
    """Raw sparse product (no sphere reduction)."""
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            c = ca * cb
            prev = out.get(e)
            if prev is None:
                out[e] = c
            else:
                s = prev + c
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


# cache of the expansions (1 - x1^2 - ... - xn^2)^k, keyed by (n, k, key
# width); entries are lists of (exponents of x1..xn padded with zeros to
# width - 1 entries, integer coefficient), oldest dropped first beyond the
# limit
_POW_CACHE: dict = {}
_POW_LIMIT = 256


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _pow_one_minus_s(n: int, k: int, width: int):
    key = (n, k, width)
    hit = _POW_CACHE.get(key)
    if hit is not None:
        return hit
    rows = []
    for t in range(k + 1):
        base = comb(k, t) * (-1) ** t
        for beta in _compositions(t, n):
            coeff = base * factorial(t)
            for bi in beta:
                coeff //= factorial(bi)
            rows.append((tuple(2 * bi for bi in beta) + (0,) * (width - n - 1), coeff))
    if len(_POW_CACHE) >= _POW_LIMIT:
        del _POW_CACHE[next(iter(_POW_CACHE))]
    _POW_CACHE[key] = rows
    return rows


def reduce_terms(terms: dict, n: int) -> dict:
    """Canonical form modulo the sphere relation: x0^2 -> 1 - sum x_i^2.

    The quotient ring is free over {1, x0} as a module over the other
    variables, so splitting each exponent e0 = 2k + r and expanding
    (1 - s)^k is exactly the unique division remainder.  Key entries past
    e_n (the slot of a spinor key) are carried through unchanged.
    """
    out: dict = {}
    for e, c in terms.items():
        e0 = e[0]
        if e0 < 2:
            prev = out.get(e)
            if prev is None:
                if c:
                    out[e] = c
            else:
                s = prev + c
                if s:
                    out[e] = s
                else:
                    del out[e]
            continue
        k, r = divmod(e0, 2)
        head = e[1:]
        for pe, pc in _pow_one_minus_s(n, k, len(e)):
            ne = (r, *map(add, head, pe))
            cc = c * pc
            prev = out.get(ne)
            if prev is None:
                if cc:
                    out[ne] = cc
            else:
                s = prev + cc
                if s:
                    out[ne] = s
                else:
                    del out[ne]
    return out


def rref(rows: list) -> list:
    """Reduced row echelon form; returns the pivot column list.

    The list ``rows`` is reduced in place, but the row lists it held are
    never written to: a row is copied before it changes.  Works over any
    exact field.  Deterministic: scans columns left to right, takes the
    first nonzero entry as pivot.  The rows are sparse, so each pivot row
    is divided at its nonzero entries only, and each other row is updated
    at those entries only.  Left of its pivot a pivot row is zero, since
    every column there is a pivot column or had no pivot candidate.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    nrows = len(rows)
    for col in range(ncols):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if rows[i][col]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        support = [k for k in range(col, ncols) if prow[k]]
        inv = prow[col]
        if inv != 1:
            rows[r] = prow = list(prow)
            for k in support:
                prow[k] = prow[k] / inv
        entries = [(k, prow[k]) for k in support]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][col]
            if f:
                rows[i] = ri = list(rows[i])
                for k, y in entries:
                    ri[k] = ri[k] - f * y
        pivots.append(col)
        r += 1
    return pivots
