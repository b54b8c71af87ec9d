"""speclab: exact spectral calculus for conformally covariant operators
on round spheres.

The package reconstructs the full eigenvalue lattices of the conformal
Laplacian and the Dirac operator on S^n from first-order conformal ladder
recursions alone, verifies every operator identity it relies on as an
executable exact test, evaluates the spectral functions of the
intertwinor families (differential and nonlocal, scalar and spinor), and
numerically certifies the sharp logarithmic entropy inequality on S^2.
"""

import importlib as _importlib

from .polynomial import (
    HarmonicDecomposition,
    SpherePoly,
    harmonic_decompose,
    harmonic_dimension,
    integrate,
    moment_integral,
)
from .scalars import CRat, Rat
from .surd import Quad
from .scalar_ops import (
    RefutationChain,
    ScalarEigenpair,
    T,
    U,
    build_eigenspace,
    conformal_laplacian,
    eigenvalue_step,
    generate_spectrum,
    ladder_minus,
    ladder_plus,
    ladder_sums,
    laplacian,
    laplacian_via_conformal_fields,
    refute_candidate,
    verify_scalar_identities,
)
from .spectral import (
    SpectralValue,
    SpectrumTable,
    dirac_intertwinor_eigen,
    entropy_operator_eigen,
    first_order_eigen,
    intertwinor_eigen,
    intertwinor_residue,
    normalized_intertwinor_eigen,
    odd_intertwinor_eigen,
    product_operator_eigen,
    recurrence_check,
)
from .report import VerificationReport

__version__ = "0.1.0"

# the one kernel implementation (``speclab._kernel``) is pure Python
kernel_backend = "python"

# The entropy layer imports numpy, and the spinor layer is the largest
# module, which the scalar theory never needs: their names are resolved
# on first access.
_LAZY_NAMES = {
    "entropy": (
        "ConformalFactor",
        "QuadratureRule",
        "SphereProjector",
        "apply_spectral_operator",
        "beckner_check",
        "build_quadrature",
        "entropy_report",
        "entropy_sides",
        "giveaway_sides",
    ),
    "clifford": (
        "GammaAlgebra",
        "SpinorPoly",
        "TruncationModel",
        "dirac_apply",
        "eigenspinor_basis",
        "gamma_algebra",
        "monogenic_basis",
        "spinor_ladders",
        "truncation_matrices",
        "verify_spinor_identities",
    ),
}


def __getattr__(name):
    for module, names in _LAZY_NAMES.items():
        if name == module or name in names:
            mod = _importlib.import_module(f".{module}", __name__)
            return mod if name == module else getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(
    {name for name in dir() if not name.startswith("_")}
    | set(_LAZY_NAMES)
    | {name for names in _LAZY_NAMES.values() for name in names}
)
