"""Slow, independent references that only the tests use.

Each one recomputes something the package does by a different route:
exact evaluation at a point, harmonic dimensions by the rank of the
ambient Laplacian, the unit-step descent of an off-lattice Dirac
candidate, and a dense row reduction to compare ``_kernel.rref`` with.
"""

from fractions import Fraction

from speclab import _kernel
from speclab.polynomial import ambient_laplacian_terms, monomials_of_degree


def eval_exact(p, point):
    """Evaluate a SpherePoly at an exact point (a sequence of n+1 exact
    coordinates)."""
    total = Fraction(0)
    for e, c in p.terms.items():
        v = c
        for xi, k in zip(point, e):
            for _ in range(k):
                v = v * xi
        total = total + v
    return total


def harmonic_dimension_by_rank(n: int, j: int) -> int:
    """Kernel dimension of the ambient Laplacian on degree-j homogeneous
    polynomials in n+1 variables, by the exact rank of its matrix."""
    if j < 0:
        return 0
    dom = list(monomials_of_degree(n + 1, j))
    if j < 2:
        return len(dom)
    cod = {e: idx for idx, e in enumerate(monomials_of_degree(n + 1, j - 2))}
    rows = []
    for e in dom:
        row = [Fraction(0)] * len(cod)
        for f, c in ambient_laplacian_terms({e: Fraction(1)}).items():
            row[cod[f]] = c
        rows.append(row)
    return len(dom) - len(_kernel.rref(rows))


def refute_dirac_candidate(n: int, lam) -> list:
    """Descend from an off-lattice Dirac eigenvalue candidate through the
    lam - 1 branch until the spectral bound lam^2 >= n(n-1)/4 fails.

    Works on |lam| (the spectrum is symmetric); the forbidden band has
    width sqrt(n(n-1)) > 1, so unit steps cannot jump over it.
    """
    lam = abs(Fraction(lam))
    t = lam - Fraction(n, 2)
    if t.denominator == 1 and t >= 0:
        raise ValueError(f"{lam} is the level-{int(t)} Dirac eigenvalue on S^{n}")
    bound = Fraction(n * (n - 1), 4)
    chain = [lam]
    cur = lam
    for _ in range(int(lam) + 2):
        cur = cur - 1
        chain.append(cur)
        if cur * cur < bound:
            return chain
    raise AssertionError("descent failed to violate the bound")


def dense_rref(rows: list) -> tuple:
    """``(reduced rows, pivot columns)`` of a copy of ``rows`` by textbook
    Gauss-Jordan elimination: the first nonzero entry of each column at or
    below the current row is the pivot, its whole row is divided by it, and
    every entry of every other row is updated."""
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(len(work[0]) if work else 0):
        pr = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        pivot = work[r][col]
        work[r] = [v / pivot for v in work[r]]
        for i in range(len(work)):
            if i != r:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    return work, pivots
