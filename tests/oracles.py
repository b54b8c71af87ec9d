"""Slow, independent references that only the tests use.

Each one recomputes something the package does by a different route:
exact evaluation at a point, harmonic dimensions by the rank of the
ambient Laplacian, the unit-step descent of an off-lattice Dirac
candidate, a dense row reduction to compare ``_kernel.rref`` with, the
two-Fraction quadratic surd (with the eigenvalue step and the scalar
refutation on it) to compare ``speclab.surd.Quad`` with, and the gamma
matrices as dense Kronecker products, with a dense matrix product, to
compare the signed slot moves of ``clifford.GammaAlgebra`` with.  The
one builder here, ``gaussian_spinor``, makes a spinor of Gaussian
rational slot maps through the public API.
"""

from fractions import Fraction
from math import isqrt

from speclab import _kernel
from speclab.clifford import SpinorPoly
from speclab.polynomial import SpherePoly, ambient_laplacian_terms, monomials_of_degree
from speclab.scalars import CRat, as_rat
from speclab.surd import rational_sqrt, squarefree_split


def gaussian_spinor(n: int, slots) -> SpinorPoly:
    """The spinor on S^n with the slot maps ``slots`` (``exponents ->``
    ``CRat``, ``Fraction`` or int; raw exponents are reduced): the
    combination of its real field and i times its imaginary field, each
    built from rational ``SpherePoly`` slots."""
    slots = [{e: c if isinstance(c, CRat) else CRat(c) for e, c in t.items()} for t in slots]
    re = SpinorPoly(n, [SpherePoly(n, {e: z.re for e, z in t.items()}) for t in slots])
    im = SpinorPoly(n, [SpherePoly(n, {e: z.im for e, z in t.items()}) for t in slots])
    return SpinorPoly.combination([(1, re), (CRat(0, 1), im)])


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


class RefQuad:
    """Reference quadratic surd: a + b*sqrt(d) kept as two Fractions and
    a squarefree integer d > 1, every result rebuilt by the public
    constructor (which factors d again).  The package's ``Quad`` keeps the
    same values as ints; this is the form it replaced.

    Values that collapse to rationals are normalized to b == 0, d == 1.
    Comparisons are exact sign determinations, no floating point.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=1):
        a, b = as_rat(a), as_rat(b)
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        if d in (0, 1) or b == 0:
            a, b, d = a + b * isqrt(d), Fraction(0), 1
        else:
            s, d0 = squarefree_split(d)
            if d0 == 1:
                a, b, d = a + b * s, Fraction(0), 1
            else:
                b, d = b * s, d0
        self.a, self.b, self.d = a, b, d

    # -- constructors ------------------------------------------------------

    @classmethod
    def sqrt(cls, q) -> "RefQuad":
        """Exact square root of a nonnegative rational."""
        q = as_rat(q)
        r = rational_sqrt(q)
        if r is not None:
            return cls(r)
        # sqrt(p/q) = sqrt(p*q)/q
        return cls(0, Fraction(1, q.denominator), q.numerator * q.denominator)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    # -- arithmetic ----------------------------------------------------------

    def _join(self, other):
        if isinstance(other, RefQuad):
            if self.d != other.d and self.b and other.b:
                raise ValueError("mixed radicands")
            return other
        return RefQuad(as_rat(other))

    def __add__(self, other):
        o = self._join(other)
        d = self.d if self.b else o.d
        return RefQuad(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._join(other)
        d = self.d if self.b else o.d
        return RefQuad(self.a - o.a, self.b - o.b, d)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RefQuad(-self.a, -self.b, self.d)

    def __mul__(self, other):
        o = self._join(other)
        if self.b and o.b:
            return RefQuad(
                self.a * o.a + self.b * o.b * self.d,
                self.a * o.b + self.b * o.a,
                self.d,
            )
        d = self.d if self.b else o.d
        return RefQuad(self.a * o.a, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._join(other)
        # multiply by the conjugate of o
        norm = o.a * o.a - o.b * o.b * o.d
        if not norm:
            raise ZeroDivisionError("division by zero in Q[sqrt(d)]")
        conj = RefQuad(o.a, -o.b, o.d)
        prod = self * conj
        return RefQuad(prod.a / norm, prod.b / norm, prod.d)

    # -- exact ordering --------------------------------------------------------

    def sign(self) -> int:
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 d, decided by the sign of a
        lhs, rhs = a * a, b * b * d
        if lhs == rhs:
            return 0
        bigger_rational = lhs > rhs
        return (1 if bigger_rational else -1) * (1 if a > 0 else -1)

    def _cmp(self, other) -> int:
        return (self - other).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (RefQuad, Fraction, int)):
            return self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        return float(self.a) + float(self.b) * self.d ** 0.5

    def __repr__(self):
        if self.is_rational:
            return str(self.a)
        op = "+" if self.b > 0 else "-"
        babs = f"{abs(self.b)}*" if abs(self.b) != 1 else ""
        if self.a == 0:
            return f"{'-' if self.b < 0 else ''}{babs}sqrt({self.d})"
        return f"{self.a}{op}{babs}sqrt({self.d})"

    def to_json(self):
        if self.is_rational:
            return str(self.a)
        return {"a": str(self.a), "b": str(self.b), "d": self.d}


def ref_sqrt_in_field(x) -> "RefQuad | None":
    """Square root of x inside its own field Q[sqrt(d)], if one exists.

    For rational x this is the usual perfect-square test (possibly landing
    in a fresh Q[sqrt(d)]); for irrational x = a + b sqrt(d) it solves
    (p + q sqrt(d))^2 = x exactly.
    """
    if isinstance(x, (Fraction, int)):
        return RefQuad.sqrt(as_rat(x))
    if x.sign() < 0:
        return None
    if x.is_rational:
        return RefQuad.sqrt(x.a)
    a, b, d = x.a, x.b, x.d
    # p^2 + q^2 d = a, 2 p q = b  =>  t = p^2 solves t^2 - a t + b^2 d / 4 = 0
    disc = a * a - b * b * d
    rd = rational_sqrt(disc) if disc >= 0 else None
    if rd is None:
        return None
    for t in ((a + rd) / 2, (a - rd) / 2):
        if t < 0:
            continue
        p = rational_sqrt(t)
        if p is None or p == 0:
            continue
        q = b / (2 * p)
        cand = RefQuad(p, q, d)
        if cand.sign() >= 0 and cand * cand == x:
            return cand
        cand = -cand
        if cand.sign() >= 0 and cand * cand == x:
            return cand
    return None


def ref_eigenvalue_step(lam, direction: str):
    """lambda -> lambda + 1 +- sqrt(4 lambda + 1) on RefQuad, with no
    rational shortcut: a Fraction when the result is rational, else a
    RefQuad."""
    sign = 1 if direction == "+" else -1
    if isinstance(lam, RefQuad) and not lam.is_rational:
        disc = lam * 4 + 1
        if disc.sign() < 0:
            raise ValueError("negative discriminant")
        root = ref_sqrt_in_field(disc)
        if root is None:
            raise ValueError("step leaves the quadratic field Q[sqrt(d)]")
    else:
        lam = lam.as_fraction() if isinstance(lam, RefQuad) else Fraction(lam)
        disc = 4 * lam + 1
        if disc < 0:
            raise ValueError("negative discriminant")
        root = RefQuad.sqrt(disc)
    res = RefQuad(1) * lam + 1 + (root if sign > 0 else -root)
    if res.is_rational:
        return res.as_fraction()
    return res


def ref_refutation(n: int, lam) -> dict:
    """``RefutationChain.to_dict()`` of an off-spectrum candidate lam at or
    above n(n-2)/4, recomputed on RefQuad: nu = sqrt(4 lam + 1) steps to
    |nu - 2| until (nu^2 - 1)/4 falls below the bound."""
    lam = Fraction(lam)
    bound = Fraction(n * (n - 2), 4)
    nu = RefQuad.sqrt(4 * lam + 1)
    steps = []
    for _ in range(10**4):
        nu = abs(nu - 2)
        step = (nu * nu - 1) * Fraction(1, 4)
        steps.append(step.to_json())
        if step < bound:
            return {
                "start": str(lam),
                "steps": steps,
                "violated_bound": str(bound),
                "final_below_bound": True,
            }
    raise AssertionError("descent did not reach the bound")


def _kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


_SIGMA1 = [[CRat(0), CRat(1)], [CRat(1), CRat(0)]]
_SIGMA2 = [[CRat(0), CRat(0, -1)], [CRat(0, 1), CRat(0)]]
_SIGMA3 = [[CRat(1), CRat(0)], [CRat(0), CRat(-1)]]
_ID2 = [[CRat(1), CRat(0)], [CRat(0), CRat(1)]]


def kron_gamma_matrices(n: int) -> list:
    """e_0..e_n as dense ``CRat`` matrices by the tensor-product
    construction: with m = floor((n+1)/2), i times sigma_3^(a-1) x sigma
    x 1^(m-a) for a = 1..m and sigma = sigma_1, sigma_2, then i times
    sigma_3^m, the first n+1 of these."""
    m = (n + 1) // 2
    hermitian = []
    for a in range(1, m + 1):
        for sig in (_SIGMA1, _SIGMA2):
            mat = [[CRat(1)]]
            for factor in [_SIGMA3] * (a - 1) + [sig] + [_ID2] * (m - a):
                mat = _kron(mat, factor)
            hermitian.append(mat)
    top = [[CRat(1)]]
    for _ in range(m):
        top = _kron(top, _SIGMA3)
    hermitian.append(top)
    return [[[CRat(0, 1) * x for x in row] for row in g] for g in hermitian[: n + 1]]


def mat_mul(a: list, b: list) -> list:
    """The dense matrix product A B."""
    return [[sum((x * y for x, y in zip(row, col)), CRat(0)) for col in zip(*b)] for row in a]
