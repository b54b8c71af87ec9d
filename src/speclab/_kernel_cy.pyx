# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled twin of ``_kernel_py``: same signatures, Fraction-specialized.

The arithmetic below unpacks Fractions into (numerator, denominator)
integer pairs, normalizes with gcd directly and rebuilds results through
``Fraction.__new__``, skipping the generic constructor and operator
dispatch.  Semantics are identical to the pure kernel on Fraction inputs;
mixed-type inputs belong to the pure kernel (the selector enforces this).
"""

from fractions import Fraction
from math import comb, factorial, gcd

BACKEND = "cython"

cdef object _Fraction = Fraction
cdef object _gcd = gcd
cdef object _alloc = object.__new__


cdef inline object _mk(object num, object den):
    # num/den must already be normalized with den > 0; allocates without
    # running the (slow, validating) Fraction constructor
    f = _alloc(_Fraction)
    f._numerator = num
    f._denominator = den
    return f


cdef inline object _mul(object a, object b):
    an = a._numerator
    ad = a._denominator
    bn = b._numerator
    bd = b._denominator
    g1 = _gcd(an, bd)
    if g1 > 1:
        an //= g1
        bd //= g1
    g2 = _gcd(bn, ad)
    if g2 > 1:
        bn //= g2
        ad //= g2
    return _mk(an * bn, ad * bd)


cdef inline object _add(object a, object b):
    # Knuth's algorithm: two small gcds instead of one on the big products
    an = a._numerator
    ad = a._denominator
    bn = b._numerator
    bd = b._denominator
    g = _gcd(ad, bd)
    if g == 1:
        num = an * bd + bn * ad
        if num == 0:
            return _mk(0, 1)
        return _mk(num, ad * bd)
    s = ad // g
    t = an * (bd // g) + bn * s
    if t == 0:
        return _mk(0, 1)
    g2 = _gcd(t, g)
    if g2 == 1:
        return _mk(t, s * bd)
    return _mk(t // g2, s * (bd // g2))


cdef inline object _sub(object a, object b):
    an = a._numerator
    ad = a._denominator
    bn = b._numerator
    bd = b._denominator
    g = _gcd(ad, bd)
    if g == 1:
        num = an * bd - bn * ad
        if num == 0:
            return _mk(0, 1)
        return _mk(num, ad * bd)
    s = ad // g
    t = an * (bd // g) - bn * s
    if t == 0:
        return _mk(0, 1)
    g2 = _gcd(t, g)
    if g2 == 1:
        return _mk(t, s * bd)
    return _mk(t // g2, s * (bd // g2))


cdef inline object _mul_int(object a, object k):
    # a * k with integer k
    an = a._numerator
    ad = a._denominator
    g = _gcd(k, ad)
    if g > 1:
        k //= g
        ad //= g
    return _mk(an * k, ad)


cdef inline object _div(object a, object b):
    an = a._numerator
    ad = a._denominator
    bn = b._numerator
    bd = b._denominator
    g1 = _gcd(an, bn)
    if g1 > 1:
        an //= g1
        bn //= g1
    g2 = _gcd(bd, ad)
    if g2 > 1:
        bd //= g2
        ad //= g2
    num = an * bd
    den = ad * bn
    if den < 0:
        num = -num
        den = -den
    return _mk(num, den)


cdef inline tuple _tadd(tuple ea, tuple eb):
    cdef Py_ssize_t m = len(ea)
    cdef Py_ssize_t i
    cdef list out = [0] * m
    for i in range(m):
        out[i] = ea[i] + eb[i]
    return tuple(out)


def add_scaled_terms(dict a, dict b, object c):
    """Return a + c*b as a fresh term map (zero coefficients dropped)."""
    cdef dict out = dict(a)
    if not c:
        return out
    for e, cb in b.items():
        v = _mul(c, cb)
        prev = out.get(e)
        if prev is None:
            out[e] = v
        else:
            s = _add(prev, v)
            if s._numerator:
                out[e] = s
            else:
                del out[e]
    return out


def scale_terms(dict a, object c):
    cdef dict out = {}
    if not c:
        return out
    for e, v in a.items():
        out[e] = _mul(c, v)
    return out


def mul_terms(dict a, dict b):
    """Raw sparse product (no sphere reduction)."""
    if len(a) > len(b):
        a, b = b, a
    cdef dict out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = _tadd(<tuple> ea, <tuple> eb)
            c = _mul(ca, cb)
            prev = out.get(e)
            if prev is None:
                out[e] = c
            else:
                s = _add(prev, c)
                if s._numerator:
                    out[e] = s
                else:
                    del out[e]
    return out


_POW_CACHE = {}


def _compositions(int total, int parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _pow_one_minus_s(int n, int k):
    key = (n, k)
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
            exps = (0,) + tuple(2 * bi for bi in beta)
            rows.append((exps, coeff))
    _POW_CACHE[key] = rows
    return rows


def reduce_terms(dict terms, int n):
    """Canonical form modulo the sphere relation: x0^2 -> 1 - sum x_i^2."""
    cdef dict out = {}
    cdef Py_ssize_t m, i
    cdef list buf
    for e, c in terms.items():
        e0 = (<tuple> e)[0]
        if e0 < 2:
            prev = out.get(e)
            if prev is None:
                if c._numerator:
                    out[e] = c
            else:
                s = _add(prev, c)
                if s._numerator:
                    out[e] = s
                else:
                    del out[e]
            continue
        k = e0 >> 1
        r = e0 & 1
        for pe, pc in _pow_one_minus_s(n, k):
            m = len(<tuple> e)
            buf = [0] * m
            buf[0] = r
            for i in range(1, m):
                buf[i] = (<tuple> e)[i] + (<tuple> pe)[i]
            ne = tuple(buf)
            cc = _mul_int(c, pc)
            prev = out.get(ne)
            if prev is None:
                if cc._numerator:
                    out[ne] = cc
            else:
                s = _add(prev, cc)
                if s._numerator:
                    out[ne] = s
                else:
                    del out[ne]
    return out


def frac_rref(list rows):
    """In-place reduced row echelon form over Fraction; returns pivot columns."""
    if not rows:
        return []
    cdef Py_ssize_t nrows = len(rows)
    cdef Py_ssize_t ncols = len(<list> rows[0])
    cdef Py_ssize_t r = 0, col, i, j
    cdef list pivots = []
    cdef list prow, ri, nri
    for col in range(ncols):
        if r == nrows:
            break
        pr = -1
        for i in range(r, nrows):
            if (<list> rows[i])[col]._numerator:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = <list> rows[r]
        piv = prow[col]
        if piv._numerator != piv._denominator:
            nri = [0] * ncols
            for j in range(ncols):
                nri[j] = _div(prow[j], piv)
            rows[r] = prow = nri
        for i in range(nrows):
            if i == r:
                continue
            ri = <list> rows[i]
            f = ri[col]
            if f._numerator:
                nri = [0] * ncols
                for j in range(ncols):
                    pj = prow[j]
                    if pj._numerator:
                        nri[j] = _sub(ri[j], _mul(f, pj))
                    else:
                        nri[j] = ri[j]
                rows[i] = nri
        pivots.append(col)
        r += 1
    return pivots
