"""Discrete-ordinates radiative transfer operators, Krylov solvers, and
spectral-clustering diagnostics.

The library assembles the transfer operator (per-ray triangular integral
blocks from the implicit-Euler formal solver), the scattering operator
(per-space-node symmetric kernel blocks), and the global operator
A = Id - transfer * scattering as matrix-free linear maps; solves the
resulting systems with from-scratch GMRES/BiCGStab; and measures how
strongly the eigenvalues of A cluster at one under grid refinement.
"""

__version__ = "0.1.0"

from rtkrylov.quadrature import QuadratureRule, gauss_legendre, trapezoid
from rtkrylov.grid import FieldVector, Grid, Ordering, build_grid, permute
from rtkrylov.errors import CoverageError, DENSE_CAP_DEFAULT, NumericalError, ResourceLimitError
from rtkrylov.transfer import TransferOperator, build_transfer, materialize_transfer
from rtkrylov.scattering import (
    CoherentKernel,
    CRDKernel,
    LegendreKernel,
    ScatteringOperator,
    ScatteringStrengthWarning,
    apply_scattering,
    build_scattering,
    kernel_normalization,
    materialize_scattering,
    psi_matrix,
)
from rtkrylov.operator import RTProblem, apply_A, build_rhs, materialize_A
from rtkrylov.krylov import SolveConfig, SolveReport, bicgstab, gmres, solve_system
from rtkrylov.spectrum import SpectrumReport, TrendSummary, clustering_trend, compute_spectrum
from rtkrylov.multidim import (
    CartesianGrid2D,
    CharacteristicLine,
    Interpolator,
    RayFamily,
    TransferOperator2D,
    anisotropic_2d,
    build_interpolators,
    build_transfer_2d,
    trace_rays,
)
from rtkrylov import presets

__all__ = [
    "QuadratureRule", "gauss_legendre", "trapezoid",
    "FieldVector", "Grid", "Ordering", "build_grid", "permute",
    "CoverageError", "DENSE_CAP_DEFAULT", "NumericalError", "ResourceLimitError",
    "TransferOperator", "build_transfer", "materialize_transfer",
    "CoherentKernel", "CRDKernel", "LegendreKernel", "ScatteringOperator",
    "ScatteringStrengthWarning", "apply_scattering", "build_scattering",
    "kernel_normalization", "materialize_scattering", "psi_matrix",
    "RTProblem", "apply_A", "build_rhs", "materialize_A",
    "SolveConfig", "SolveReport", "bicgstab", "gmres", "solve_system",
    "SpectrumReport", "TrendSummary", "clustering_trend", "compute_spectrum",
    "CartesianGrid2D", "CharacteristicLine", "Interpolator", "RayFamily",
    "TransferOperator2D", "anisotropic_2d", "build_interpolators",
    "build_transfer_2d", "trace_rays",
    "presets",
]
