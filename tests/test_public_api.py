"""The public API: ``speclab.__all__`` is pinned to a literal list, so a
name leaves it only by an edit here, which CHANGES.md and the README must
record."""

import speclab

PUBLIC_NAMES = [
    "CRat",
    "ConformalFactor",
    "GammaAlgebra",
    "HarmonicDecomposition",
    "Quad",
    "QuadratureRule",
    "Rat",
    "RefutationChain",
    "ScalarEigenpair",
    "SpectralValue",
    "SpectrumTable",
    "SpherePoly",
    "SphereProjector",
    "SpinorPoly",
    "T",
    "TruncationModel",
    "U",
    "VerificationReport",
    "apply_spectral_operator",
    "beckner_check",
    "build_eigenspace",
    "build_quadrature",
    "clifford",
    "conformal_laplacian",
    "dirac_apply",
    "dirac_intertwinor_eigen",
    "eigenspinor_basis",
    "eigenvalue_step",
    "entropy",
    "entropy_operator_eigen",
    "entropy_report",
    "entropy_sides",
    "first_order_eigen",
    "gamma_algebra",
    "generate_spectrum",
    "giveaway_sides",
    "harmonic_decompose",
    "harmonic_dimension",
    "integrate",
    "intertwinor_eigen",
    "intertwinor_residue",
    "kernel_backend",
    "ladder_minus",
    "ladder_plus",
    "ladder_sums",
    "laplacian",
    "laplacian_via_conformal_fields",
    "linalg",
    "moment_integral",
    "monogenic_basis",
    "normalized_intertwinor_eigen",
    "odd_intertwinor_eigen",
    "polynomial",
    "product_operator_eigen",
    "recurrence_check",
    "refute_candidate",
    "report",
    "scalar_ops",
    "scalars",
    "spectral",
    "spinor_ladders",
    "surd",
    "truncation_matrices",
    "verify_scalar_identities",
    "verify_spinor_identities",
]


def test_public_names_are_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert speclab.__all__ == PUBLIC_NAMES


def test_public_names_resolve():
    for name in PUBLIC_NAMES:
        assert getattr(speclab, name) is not None, name
