"""Spectral functions of the intertwinor families.

Every conformally covariant operator family treated here is diagonal on
the eigenspace ladder, so a family is just a function of the level (or of
the signed Dirac eigenvalue).  Two evaluation regimes:

* exact rationals whenever the gamma arguments differ by integers (the
  half-integral parameter lattice: closed product forms, residues), and
* high precision floats through mpmath elsewhere, at a working
  precision of 64 decimal digits.

Poles and residues are first-class values, not exceptions: the raw gamma
ratio genuinely blows up on the excluded parameter lattice, and the
residue family is the object that satisfies the recurrence there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .scalars import as_rat


class ExcludedParameterError(ValueError):
    """Parameter combination outside a family's hypotheses."""


_DPS = 64  # mpmath working precision of the transcendental branch, in digits


def _workdps():
    """Scoped mpmath working precision of ``_DPS`` decimal digits; the
    global ``mpmath.mp.dps`` is restored on exit."""
    import mpmath

    return mpmath.workdps(_DPS)


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralValue:
    kind: str  # "finite" | "pole" | "residue"
    value: object = None  # Fraction or float when kind == "finite"
    residue_value: object = None  # set when kind in {"pole", "residue"}

    def __post_init__(self):
        if self.kind == "pole" and self.value is not None:
            raise ValueError("a pole carries no finite value")
        if self.kind == "residue" and self.residue_value is None:
            raise ValueError("a residue value is required")

    @property
    def payload(self):
        """The number this row contributes to recurrences (None at a pole)."""
        if self.kind == "finite":
            return self.value
        if self.kind == "residue":
            return self.residue_value
        return None

    @property
    def is_exact(self) -> bool:
        return isinstance(self.payload, Fraction)

    def __float__(self):
        p = self.payload
        if p is None:
            raise ValueError("pole has no finite value")
        return float(p)


def finite(v) -> SpectralValue:
    return SpectralValue(kind="finite", value=v)


# ---------------------------------------------------------------------------
# the order-2r scalar family
# ---------------------------------------------------------------------------


def intertwinor_eigen(n: int, r, j: int) -> SpectralValue:
    """Eigenvalue of the order-2r intertwinor on level j: the ratio
    Gamma(n/2+j+r) / Gamma(n/2+j-r).

    Exact product forms on the half-integral lattice 2r in Z (reciprocal
    products skip vanishing factors); poles of the gamma ratio are
    reported with their exact residue attached.
    """
    if j < 0:
        raise ValueError("level must be >= 0")
    base = Fraction(n, 2) + j
    try:
        r_exact = as_rat(r)
    except (TypeError, ValueError):
        r_exact = None
    if r_exact is not None and (2 * r_exact).denominator == 1:
        r = r_exact
        two_r = int(2 * r)
        if two_r > 0:
            prod = Fraction(1)
            for t in range(two_r):
                prod *= base + r - 1 - t
            return finite(prod)
        if two_r == 0:
            return finite(Fraction(1))
        # negative half-integral r: pole lattice, else reciprocal product
        a = base + r  # numerator gamma argument
        if a.denominator == 1 and a <= 0:
            j0 = int(-r - Fraction(n, 2))
            return SpectralValue(
                kind="pole", residue_value=intertwinor_residue(n, j0, j)
            )
        prod = Fraction(1)
        for p in range(1, -two_r + 1):
            factor = base - r - p
            if factor:
                prod *= factor
        return finite(1 / prod)
    # transcendental parameter: high-precision float
    import mpmath as mp

    with _workdps():
        rf = _to_mpf(mp, r)
        bf = _to_mpf(mp, base)
        val = mp.gammaprod([bf + rf], [bf - rf])
    return finite(float(val))


def _to_mpf(mp, x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def intertwinor_residue(n: int, j0: int, j: int) -> Fraction:
    """Residue in the order parameter of the gamma-ratio family at the
    pole r = -n/2 - j0, evaluated on level j.

    Exact for every input: (-1)^(j0-j) / ((j0-j)! * (n+j+j0-1)!) for
    j <= j0, zero above (no pole means no residue).
    """
    if j0 < 0 or j < 0:
        raise ValueError("levels must be >= 0")
    if j > j0:
        return Fraction(0)
    m = j0 - j
    return Fraction((-1) ** m, math.factorial(m) * math.factorial(n + j + j0 - 1))


def intertwinor_residue_value(n: int, j0: int, j: int) -> SpectralValue:
    return SpectralValue(kind="residue", residue_value=intertwinor_residue(n, j0, j))


def normalized_intertwinor_eigen(n: int, r, j: int) -> SpectralValue:
    """The entropy-section normalization: level-0 eigenvalue scaled to 1.

    Equals the raw family divided by its level-0 value; on the excluded
    lattice this becomes the ratio of residues, which is the unique
    recurrence solution there (and vanishes for levels above the pole
    order).
    """
    zj = intertwinor_eigen(n, r, j)
    z0 = intertwinor_eigen(n, r, 0)
    if zj.kind == "pole" and z0.kind == "pole":
        return finite(zj.residue_value / z0.residue_value)
    if z0.kind == "pole":
        return finite(Fraction(0) if zj.is_exact else 0.0)
    if zj.kind == "pole":
        raise ExcludedParameterError("pole above a finite level-0 value")
    v0 = z0.value
    if v0 == 0:
        raise ExcludedParameterError("level-0 eigenvalue vanishes")
    return finite(zj.value / v0)


def product_operator_eigen(n: int, r: int, j: int) -> Fraction:
    """Eigenvalue of the order-2r product differential operator: the
    product over p = 1..r of (Laplace eigenvalue + (n/2+p-1)(n/2-p))."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    lap = Fraction(j * (n - 1 + j))
    prod = Fraction(1)
    for p in range(1, r + 1):
        prod *= lap + (Fraction(n, 2) + p - 1) * (Fraction(n, 2) - p)
    return prod


def recurrence_check(n: int, r, rows: list, rel_tol: float = 1e-12) -> bool:
    """Adjacent-level consistency of a spectral table:
    mu_{j+1} (n + 2j - 2r) = mu_j (n + 2j + 2r).

    Exact where both sides are exact rationals, relative tolerance
    otherwise.  Rows are (level, SpectralValue); any pole row fails.
    """
    if len(rows) < 2:
        raise ValueError("need at least two rows")
    rows = sorted(rows, key=lambda kv: kv[0])
    try:
        r_exact = as_rat(r)
    except (TypeError, ValueError):
        r_exact = None
    for (j, mu_j), (j1, mu_j1) in zip(rows, rows[1:]):
        if j1 != j + 1:
            raise ValueError("table levels must be consecutive")
        a, b = mu_j.payload, mu_j1.payload
        if a is None or b is None:
            return False
        if isinstance(a, Fraction) and isinstance(b, Fraction) and r_exact is not None:
            lhs = b * (n + 2 * j - 2 * r_exact)
            rhs = a * (n + 2 * j + 2 * r_exact)
            if lhs != rhs:
                return False
        else:
            rf = float(r_exact) if r_exact is not None else float(r)
            lhs = float(b) * (n + 2 * j - 2 * rf)
            rhs = float(a) * (n + 2 * j + 2 * rf)
            scale = max(1.0, abs(lhs), abs(rhs))
            if abs(lhs - rhs) > rel_tol * scale:
                return False
    return True


# ---------------------------------------------------------------------------
# entropy side: derivative family and its logarithmic bound
# ---------------------------------------------------------------------------


def entropy_operator_eigen(n: int, j: int) -> Fraction:
    """Level-j eigenvalue of the derivative-at-zero-order operator in the
    normalized family: the harmonic partial sum
    2/m + 2/(m+1) + ... + 2/(m+j-1) with m = n/2 (zero at j = 0)."""
    if j < 0:
        raise ValueError("level must be >= 0")
    m = Fraction(n, 2)
    if m <= 0 and m.denominator == 1 and -m < j:
        raise ValueError(f"pole below level {j}: n/2 + {-m} vanishes")
    return sum((Fraction(2) / (m + t) for t in range(j)), Fraction(0))


def first_order_eigen(n: int, j: int) -> Fraction:
    """Eigenvalue of the square root of (Laplacian + ((n-1)/2)^2)."""
    if j < 0:
        raise ValueError("level must be >= 0")
    return Fraction(n - 1, 2) + j


def entropy_log_bound(n: int, j: int) -> tuple:
    """(harmonic-sum eigenvalue, 2 log((n-1+2j)/(n-1))); the first is
    always <= the second (midpoint Riemann sum of a convex integrand)."""
    mu = entropy_operator_eigen(n, j)
    log_term = 2.0 * math.log((n - 1 + 2 * j) / (n - 1))
    return mu, log_term


# ---------------------------------------------------------------------------
# Dirac-side families
# ---------------------------------------------------------------------------


def dirac_step_candidates(lam) -> tuple:
    """Roots of the cubic compatibility equation between adjacent Dirac
    eigenvalues: (-lam, lam - 1, lam + 1)."""
    lam = as_rat(lam)
    return (-lam, lam - 1, lam + 1)


def odd_intertwinor_eigen(k: int, lam) -> Fraction:
    """Eigenvalue of the order-(2k+1) polynomial intertwinor:
    lam * (lam^2 - 1)(lam^2 - 4) ... (lam^2 - k^2)."""
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    lam = as_rat(lam)
    out = lam
    for q in range(1, k + 1):
        out *= lam * lam - q * q
    return out


# -- the odd family's coefficients in lam, for the spinor law table

def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for jj, y in enumerate(b):
                out[i + jj] += x * y
    return out


def _odd_poly_coeffs(k: int) -> list:
    out = [Fraction(0), Fraction(1)]  # lam
    for q in range(1, k + 1):
        out = _poly_mul(out, [Fraction(-q * q), Fraction(0), Fraction(1)])
    return out


def odd_intertwinor_transfer_identity(k: int) -> bool:
    """Check, as an identity in lam, that the polynomial family passes
    eigenvalue transfer across every adjacent move mu in {-lam, lam-1,
    lam+1}:

        alpha(mu) ((mu^2-lam^2)/2 - (k+1/2)) = alpha(lam) ((mu^2-lam^2)/2 + (k+1/2))

    alpha has degree 2k + 1 and (mu^2 - lam^2)/2 degree <= 1, so both
    sides are polynomials in lam of degree <= 2k + 2: holding exactly at
    the 2k + 3 points lam = 0, 1, ..., 2k + 2 decides the identity.
    """
    alpha = lambda lam: odd_intertwinor_eigen(k, lam)
    for t in range(2 * k + 3):
        lam = Fraction(t)
        for mu in dirac_step_candidates(lam):
            if not dirac_transfer_holds(alpha, lam, mu, k):
                return False
    return True


def dirac_intertwinor_eigen(n: int, k, lam) -> SpectralValue:
    """Eigenvalue of the order-(2k+1) nonlocal Dirac intertwinor on the
    eigenvalue lam: sgn(lam)^(n+1) Gamma(lam+k+1)/Gamma(lam-k).

    Exact rising-product branch when 2k is a nonnegative integer; the
    hypothesis that k + n/2 is not an integer is enforced (callers fall
    back to the explicit half-step formula for excluded combinations).
    """
    lam_exact = as_rat(lam) if not isinstance(lam, float) else None
    try:
        k_exact = as_rat(k)
    except (TypeError, ValueError):
        k_exact = None
    if k_exact is not None and (k_exact + Fraction(n, 2)).denominator == 1:
        raise ExcludedParameterError(
            f"k + n/2 = {k_exact + Fraction(n, 2)} is an integer"
        )
    if lam_exact is not None and lam_exact == 0:
        raise ValueError("zero is never a Dirac eigenvalue")
    if (
        k_exact is not None
        and (2 * k_exact).denominator == 1
        and k_exact >= 0
        and lam_exact is not None
    ):
        sign = 1 if lam_exact > 0 else -1
        parity_sign = sign if n % 2 == 0 else 1
        prod = Fraction(1)
        t = lam_exact - k_exact
        for _ in range(int(2 * k_exact) + 1):
            prod *= t
            t += 1
        return finite(parity_sign * prod)
    import mpmath as mp

    with _workdps():
        lam_f = _to_mpf(mp, lam if lam_exact is None else lam_exact)
        k_f = _to_mpf(mp, k if k_exact is None else k_exact)
        sign = mp.sign(lam_f) ** (n + 1)
        val = sign * mp.gammaprod([lam_f + k_f + 1], [lam_f - k_f])
    return finite(float(val))


def half_step_intertwinor_eigen(lam) -> Fraction:
    """The order-2 intertwinor written directly in the Dirac operator:
    lam |lam| - (1/4) lam/|lam|.  Exact, valid in both dimension parities."""
    lam = as_rat(lam)
    if lam == 0:
        raise ValueError("zero is never a Dirac eigenvalue")
    a = abs(lam)
    return lam * a - Fraction(1, 4) * (lam / a)


def dirac_transfer_holds(alpha, lam, mu, k, rel_tol: float | None = None) -> bool:
    """Value-level transfer relation between adjacent Dirac eigenvalues:
    alpha(mu) ((mu^2-lam^2)/2 - (k+1/2)) = alpha(lam) ((mu^2-lam^2)/2 + (k+1/2)).

    alpha is a callable; exact comparison for Fractions, relative
    tolerance for floats.
    """
    am, al = alpha(mu), alpha(lam)
    if isinstance(am, SpectralValue):
        am = am.payload
    if isinstance(al, SpectralValue):
        al = al.payload
    if rel_tol is None and isinstance(am, Fraction) and isinstance(al, Fraction):
        lam, mu = as_rat(lam), as_rat(mu)
        gap = (mu * mu - lam * lam) / 2
        half = as_rat(k) + Fraction(1, 2)
        return am * (gap - half) == al * (gap + half)
    lamf, muf, kf = float(lam), float(mu), float(k)
    gap = (muf * muf - lamf * lamf) / 2.0
    lhs = float(am) * (gap - (kf + 0.5))
    rhs = float(al) * (gap + (kf + 0.5))
    tol = rel_tol if rel_tol is not None else 1e-12
    return abs(lhs - rhs) <= tol * max(1.0, abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _dirac_levels(n: int, lam_max):
    """The Dirac eigenvalues n/2 + j, -(n/2 + j) for j = 0, 1, ... while
    n/2 + j <= lam_max."""
    top = as_rat(lam_max)
    lam = Fraction(n, 2)
    while lam <= top:
        yield lam
        yield -lam
        lam += 1


def fmt_value(v) -> str:
    if v is None:
        return "pole"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return format(float(v), ".17g")


@dataclass
class SpectrumTable:
    n: int
    family: str
    parameter: object
    rows: list  # (level, SpectralValue); level is an int or a rational label

    def to_csv(self) -> str:
        lines = ["level,value,kind"]
        for level, sv in self.rows:
            lines.append(f"{level},{fmt_value(sv.payload)},{sv.kind}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "dimension": self.n,
            "family": self.family,
            "parameter": str(self.parameter),
            "rows": [
                {"level": str(level), "value": fmt_value(sv.payload), "kind": sv.kind}
                for level, sv in self.rows
            ],
        }

    @classmethod
    def scalar(cls, n: int, r, jmax: int) -> "SpectrumTable":
        rows = [(j, intertwinor_eigen(n, r, j)) for j in range(jmax + 1)]
        return cls(n=n, family="scalar_gamma_ratio", parameter=r, rows=rows)

    @classmethod
    def scalar_normalized(cls, n: int, r, jmax: int) -> "SpectrumTable":
        rows = [(j, normalized_intertwinor_eigen(n, r, j)) for j in range(jmax + 1)]
        return cls(n=n, family="scalar_normalized", parameter=r, rows=rows)

    @classmethod
    def residue_family(cls, n: int, j0: int, jmax: int) -> "SpectrumTable":
        rows = [(j, intertwinor_residue_value(n, j0, j)) for j in range(jmax + 1)]
        return cls(n=n, family="residue", parameter=j0, rows=rows)

    @classmethod
    def entropy_derivative(cls, n: int, jmax: int) -> "SpectrumTable":
        # row j is entropy_operator_eigen(n, j), kept as a running sum
        m = Fraction(n, 2)
        mu = Fraction(0)
        rows = []
        for j in range(jmax + 1):
            rows.append((j, finite(mu)))
            if j < jmax:
                if m + j == 0:
                    raise ValueError(f"pole below level {j + 1}: n/2 + {-m} vanishes")
                mu += Fraction(2) / (m + j)
        return cls(n=n, family="entropy_derivative", parameter=0, rows=rows)

    @classmethod
    def product_operator(cls, n: int, r: int, jmax: int) -> "SpectrumTable":
        rows = [(j, finite(product_operator_eigen(n, r, j))) for j in range(jmax + 1)]
        return cls(n=n, family="product_operator", parameter=r, rows=rows)

    @classmethod
    def first_order(cls, n: int, jmax: int) -> "SpectrumTable":
        rows = [(j, finite(first_order_eigen(n, j))) for j in range(jmax + 1)]
        return cls(n=n, family="first_order", parameter=Fraction(1, 2), rows=rows)

    @classmethod
    def dirac(cls, n: int, k, lam_max) -> "SpectrumTable":
        rows = [(s, dirac_intertwinor_eigen(n, k, s)) for s in _dirac_levels(n, lam_max)]
        return cls(n=n, family="dirac_gamma_ratio", parameter=k, rows=rows)

    @classmethod
    def dirac_odd(cls, n: int, k: int, lam_max) -> "SpectrumTable":
        rows = [(s, finite(odd_intertwinor_eigen(k, s))) for s in _dirac_levels(n, lam_max)]
        return cls(n=n, family="dirac_odd_poly", parameter=k, rows=rows)

    @classmethod
    def dirac_adjacent(cls, n: int, lam) -> "SpectrumTable":
        cands = dirac_step_candidates(lam)
        rows = [(c, finite(c)) for c in cands]
        return cls(n=n, family="dirac_adjacent", parameter=lam, rows=rows)
