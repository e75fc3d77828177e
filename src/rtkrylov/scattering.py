"""Block-diagonal scattering operator: per-space-node kernel blocks.

Each spatial node carries the product Gamma * Psi * W of the scattering
coefficient, the symmetric kernel matrix over rays, and the quadrature
weights. Every kernel is one low-rank factor Psi = P diag(d) P^T with a thin
P (n_rays x r) whose rank stays fixed under grid refinement: the L+1
Legendre polynomials at the ray directions, the single profile column of
complete redistribution, or the n_freq frequency indicators of coherent
scattering. The kernel matrix, the normalization, the strength bound and the
matrix-free apply all derive from that factor; the apply contracts through
the r moments.
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

    def factor(self, grid):
        """P = Legendre polynomials at the ray directions, d = coefficients."""
        d = np.asarray(self.coefficients)
        return legendre_basis(d.size - 1, grid.ray_mu).T, d


@dataclass(frozen=True)
class CoherentKernel:
    """Isotropic kernel with no frequency redistribution (discrete delta in nu)."""

    profile: Callable

    def factor(self, grid):
        """P = ray-to-frequency-node indicator, d = phi(nu) / frequency weight.

        The frequency weight divides out so that Gamma Psi W leaves a pure
        angular integral per frequency.
        """
        p = (grid.ray_nu[:, None] == grid.nu_nodes[None, :]).astype(float)
        pv = np.asarray(self.profile(grid.nu_nodes), dtype=float)
        return p, pv / grid.frequency_weights


@dataclass(frozen=True)
class CRDKernel:
    """Isotropic complete-redistribution kernel phi(nu) phi(nu')."""

    profile: Callable

    def factor(self, grid):
        """P = the profile column phi(nu), d = [1]."""
        return np.asarray(self.profile(grid.ray_nu), dtype=float)[:, None], np.ones(1)


Kernel = Union[LegendreKernel, CoherentKernel, CRDKernel]


def psi_matrix(kernel: Kernel, grid) -> np.ndarray:
    """Symmetric kernel matrix over ray pairs (exact symmetry by construction)."""
    p, d = kernel.factor(grid)
    m = p @ (d[:, None] * p.T)
    return np.triu(m) + np.triu(m, 1).T


@dataclass
class ScatteringOperator:
    grid: object
    kernel: Kernel
    gamma_table: np.ndarray  # (n_space, n_rays)
    wpt: np.ndarray          # (r, n_rays) quadrature-weighted factor (W P)^T
    d: np.ndarray            # (r,)
    pt: np.ndarray           # (r, n_rays) P^T

    @property
    def n_total(self) -> int:
        return self.grid.n_total


def build_scattering(grid, kernel: Kernel, gamma) -> ScatteringOperator:
    """Sample the scattering coefficient and cache the kernel factor.

    Rejects a non-finite coefficient or kernel with ValueError. Emits a
    diagnostic warning when ||Gamma Psi W||_inf reaches one, where plain
    source iteration is no longer guaranteed to contract (the transfer's
    row sums stay below one).
    """
    gamma_table = grid.sample_coefficient(gamma)
    if not np.all(np.isfinite(gamma_table)):
        raise ValueError("scattering coefficient must be finite")
    p, d = kernel.factor(grid)
    pt = np.ascontiguousarray(p.T)
    op = ScatteringOperator(grid, kernel, gamma_table, pt * grid.combined_weights, d, pt)
    strength = _strength_bound(op)
    if strength >= 1.0:
        warnings.warn(
            f"scattering strength {strength:.3g} >= 1: fixed-point iteration may "
            "not contract (Krylov solvers are unaffected)",
            ScatteringStrengthWarning,
            stacklevel=2,
        )
    return op


def _strength_bound(op: ScatteringOperator) -> float:
    """||Gamma Psi W||_inf = max over nodes i and rays k of |gamma_ik| (|Psi| |w|)_k.

    |Psi| |w| goes through the factor, so the n_rays x n_rays kernel matrix
    is never formed. Rejects a non-finite kernel with ValueError.
    """
    w = np.abs(op.grid.combined_weights)
    if np.all(op.pt >= 0.0) and np.all(op.d >= 0.0):
        row_sums = _row_sums_nonnegative(op.pt, op.d, w)
    else:
        row_sums = _row_sums_blocked(op.pt, op.d, w)
    if not np.all(np.isfinite(row_sums)):
        raise ValueError("scattering kernel must be finite")
    return float(np.max(np.abs(op.gamma_table) * row_sums))


def _row_sums_nonnegative(pt: np.ndarray, d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|Psi| w for a factor with no negative entry (coherent, CRD): there
    |Psi| = Psi = P diag(d) P^T, so the sums contract in O(n_rays r)."""
    return (d * (pt @ w)) @ pt


def _row_sums_blocked(pt: np.ndarray, d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|Psi| w for any factor (Legendre has negative entries), forming |Psi|
    one block of rows at a time: n_rays^2 r flops."""
    n_rays = pt.shape[1]
    dpt = d[:, None] * pt
    row_sums = np.empty(n_rays)
    # 64 KiB temporaries stay on the heap: freeing a larger, mmap-served one
    # raises glibc's mmap threshold, which grew the peak RSS of a process that
    # builds crd and coherent 200x24x50 by 3.4 MB (2 MB blocks)
    block = max(1, 2**13 // n_rays)
    for start in range(0, n_rays, block):
        row_sums[start:start + block] = np.abs(pt[:, start:start + block].T @ dpt) @ w
    return row_sums


def apply_scattering(op: ScatteringOperator, field: np.ndarray) -> np.ndarray:
    """Matrix-free Gamma Psi W applied per space node to a space-major vector."""
    values = np.asarray(field, dtype=float)
    if values.size != op.n_total:
        raise ValueError(f"expected length {op.n_total}, got {values.size}")
    # (W P)^T is stored row-major and read through its transpose: a row-major
    # W P makes BLAS sum in another order and moves the last bits of the result
    moments = values.reshape(op.grid.n_space, op.grid.n_rays) @ op.wpt.T  # (n_space, r)
    out = (moments * op.d) @ op.pt
    out *= op.gamma_table
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
    constants) and the squared (truncated) profile mass for CRD. Contracts
    through the factor, never forming the n_rays x n_rays kernel matrix.
    """
    p, d = kernel.factor(grid)
    s = grid.combined_weights @ p
    return float(s @ (d * s)) / grid.sphere_measure**2
