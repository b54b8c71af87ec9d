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
from .clifford import (
    GammaAlgebra,
    SpinorPoly,
    TruncationModel,
    dirac_apply,
    eigenspinor_basis,
    gamma_algebra,
    monogenic_basis,
    spinor_ladders,
    truncation_matrices,
    verify_spinor_identities,
)
from .report import VerificationReport

__version__ = "0.1.0"

# the one kernel implementation (``speclab._kernel``) is pure Python
kernel_backend = "python"

# The entropy layer imports numpy, which nothing else needs: its names
# are resolved on first access.
_ENTROPY_NAMES = (
    "ConformalFactor",
    "QuadratureRule",
    "SphereProjector",
    "apply_spectral_operator",
    "beckner_check",
    "build_quadrature",
    "entropy_report",
    "entropy_sides",
    "giveaway_sides",
)


def __getattr__(name):
    if name == "entropy" or name in _ENTROPY_NAMES:
        entropy = _importlib.import_module(".entropy", __name__)
        return entropy if name == "entropy" else getattr(entropy, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(
    {name for name in dir() if not name.startswith("_")} | {"entropy", *_ENTROPY_NAMES}
)
