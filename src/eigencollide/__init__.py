"""Collision laboratory for spectra of matrix-valued Gaussian fields.

Exact dichotomy predicates and Hausdorff-dimension formulas for multiple
collisions of eigenvalue and singular-value processes, together with the
Monte Carlo machinery to check them: field samplers, matrix ensembles,
spectral statistics, collision-probability and box-dimension estimators,
and direct integrators for the classical eigenvalue SDEs.
"""

from .theory import (
    CollisionPattern,
    DegenerateSpace,
    HurstVector,
    LieGroupDims,
    SpectralKind,
    TheoryVerdict,
    Verdict,
    codimension,
    dichotomy,
    hausdorff_dim,
    lie_group_dims,
    manifold_dim,
)
from .gfield import (
    FactorizationError,
    FieldSample,
    KernelSpec,
    TimeGrid,
    kernel_eval,
    kernel_gram,
    sample_fbm_1d,
    sample_sheet,
    verify_assumptions,
)
from .matfield import (
    EnsembleSpec,
    MatrixPath,
    affine,
    assemble_rect,
    assemble_selfadjoint,
    sample_ensemble,
)
from .spectra import (
    NumericalError,
    SpectralPath,
    eigvals_selfadjoint,
    pattern_gap_values,
    singvals,
    spectral_path,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # theory
    "CollisionPattern",
    "DegenerateSpace",
    "HurstVector",
    "LieGroupDims",
    "SpectralKind",
    "TheoryVerdict",
    "Verdict",
    "codimension",
    "dichotomy",
    "hausdorff_dim",
    "lie_group_dims",
    "manifold_dim",
    # gfield
    "FactorizationError",
    "FieldSample",
    "KernelSpec",
    "TimeGrid",
    "kernel_eval",
    "kernel_gram",
    "sample_fbm_1d",
    "sample_sheet",
    "verify_assumptions",
    # matfield
    "EnsembleSpec",
    "MatrixPath",
    "affine",
    "assemble_rect",
    "assemble_selfadjoint",
    "sample_ensemble",
    # spectra
    "NumericalError",
    "SpectralPath",
    "eigvals_selfadjoint",
    "pattern_gap_values",
    "singvals",
    "spectral_path",
]
