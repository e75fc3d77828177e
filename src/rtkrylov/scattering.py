"""Block-diagonal scattering operator: per-space-node kernel blocks.

Each spatial node carries the product Gamma * Psi * W of the scattering
coefficient, the symmetric kernel matrix over rays, and the quadrature
weights. The matrix-free apply exploits kernel structure: separable Legendre
kernels contract through L+1 angular moments, complete redistribution
through a single profile moment, coherent scattering through per-frequency
angular moments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from rtkrylov.errors import DENSE_CAP_DEFAULT, ResourceLimitError
from rtkrylov.quadrature import legendre_basis


class ScatteringStrengthWarning(UserWarning):
    """Scattering strength outside the guaranteed fixed-point contraction regime."""


@dataclass(frozen=True)
class LegendreKernel:
    """Separable anisotropic kernel sum_l d_l P_l(mu) P_l(mu')."""

    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))


@dataclass(frozen=True)
class CoherentKernel:
    """Isotropic kernel with no frequency redistribution (discrete delta in nu)."""

    profile: Callable


@dataclass(frozen=True)
class CRDKernel:
    """Isotropic complete-redistribution kernel phi(nu) phi(nu')."""

    profile: Callable


Kernel = Union[LegendreKernel, CoherentKernel, CRDKernel]


def psi_matrix(kernel: Kernel, grid) -> np.ndarray:
    """Symmetric kernel matrix over ray pairs (exact symmetry by construction)."""
    if isinstance(kernel, LegendreKernel):
        d = np.asarray(kernel.coefficients)
        basis = legendre_basis(d.size - 1, grid.ray_mu)
        m = basis.T @ (d[:, None] * basis)
        return np.triu(m) + np.triu(m, 1).T
    if isinstance(kernel, CRDKernel):
        pv = np.asarray(kernel.profile(grid.ray_nu), dtype=float)
        return np.outer(pv, pv)
    if isinstance(kernel, CoherentKernel):
        # couples only rays with the identical frequency node; the frequency
        # weight divides out so that Gamma Psi W leaves a pure angular integral
        pv = np.asarray(kernel.profile(grid.ray_nu), dtype=float)
        same_nu = grid.ray_nu[:, None] == grid.ray_nu[None, :]
        return np.where(same_nu, (pv / grid.ray_frequency_weight)[:, None], 0.0)
    raise TypeError(f"unknown kernel {kernel!r}")


@dataclass
class ScatteringOperator:
    grid: object
    kernel: Kernel
    gamma_table: np.ndarray  # (n_space, n_rays)

    @property
    def n_total(self) -> int:
        return self.grid.n_total


def build_scattering(grid, kernel: Kernel, gamma) -> ScatteringOperator:
    """Sample the scattering coefficient and cache kernel contractions.

    Rejects a non-finite coefficient or kernel with ValueError. Emits a
    diagnostic warning when max(gamma) * kernel normalization reaches one,
    where plain source iteration is no longer guaranteed to contract.
    """
    gamma_table = grid.sample_coefficient(gamma)
    if not np.all(np.isfinite(gamma_table)):
        raise ValueError("scattering coefficient must be finite")
    normalization = kernel_normalization(kernel, grid)
    if not np.isfinite(normalization):
        raise ValueError("kernel normalization must be finite")
    strength = float(np.max(np.abs(gamma_table))) * normalization
    if strength >= 1.0:
        warnings.warn(
            f"scattering strength {strength:.3g} >= 1: fixed-point iteration may "
            "not contract (Krylov solvers are unaffected)",
            ScatteringStrengthWarning,
            stacklevel=2,
        )
    return ScatteringOperator(grid=grid, kernel=kernel, gamma_table=gamma_table)


def apply_scattering(op: ScatteringOperator, field: np.ndarray) -> np.ndarray:
    """Matrix-free Gamma Psi W applied per space node to a space-major vector."""
    values = np.asarray(field, dtype=float)
    if values.size != op.n_total:
        raise ValueError(f"expected length {op.n_total}, got {values.size}")
    g = op.grid
    mat = values.reshape(g.n_space, g.n_rays)
    w = g.combined_weights
    kernel = op.kernel
    if isinstance(kernel, LegendreKernel):
        d = np.asarray(kernel.coefficients)
        basis = legendre_basis(d.size - 1, g.ray_mu)  # (L+1, n_rays)
        moments = mat @ (w * basis).T                  # (n_space, L+1)
        out = op.gamma_table * ((moments * d) @ basis)
    elif isinstance(kernel, CRDKernel):
        pv = np.asarray(kernel.profile(g.ray_nu), dtype=float)
        m = mat @ (w * pv)                             # (n_space,)
        out = op.gamma_table * np.outer(m, pv)
    elif isinstance(kernel, CoherentKernel):
        pv = np.asarray(kernel.profile(g.nu_nodes), dtype=float)
        cube = mat.reshape(g.n_space, g.n_angles, g.n_freq)
        ang = np.tensordot(cube, g.angular_weights, axes=([1], [0]))  # (n_space, n_freq)
        out = op.gamma_table * np.tile(pv[None, :] * ang, (1, g.n_angles))
    else:
        raise TypeError(f"unknown kernel {kernel!r}")
    return out.ravel()


def materialize_scattering(op: ScatteringOperator, dense_cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
    """Dense space-major block-diagonal matrix Gamma Psi W."""
    n = op.n_total
    if n > dense_cap:
        raise ResourceLimitError(f"dense scattering of size {n} exceeds cap {dense_cap}")
    g = op.grid
    psi_w = psi_matrix(op.kernel, g) * g.combined_weights[None, :]
    out = np.zeros((n, n))
    view = out.reshape(g.n_space, g.n_rays, g.n_space, g.n_rays)
    for i in range(g.n_space):
        view[i, :, i, :] = op.gamma_table[i][:, None] * psi_w
    return out


def kernel_normalization(kernel: Kernel, grid) -> float:
    """Discrete photon-conservation integral of the kernel.

    Returns the double quadrature sum of the kernel against the combined
    weights, divided by the squared measure of the direction domain. Equals
    d_0 for Legendre kernels (higher orders integrate to zero against
    constants) and the squared (truncated) profile mass for CRD.
    """
    w = grid.combined_weights
    psi = psi_matrix(kernel, grid)
    return float(w @ (psi @ w)) / grid.sphere_measure**2
