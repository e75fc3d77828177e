"""Block-diagonal transfer operator: per-ray triangular integral blocks.

Radiation marches along each ray with the implicit-Euler formal solver.
Downward rays (mu < 0) enter at the surface and give lower-triangular blocks
with a zero first row; upward rays (mu > 0) enter at depth and give
upper-triangular blocks with a zero last row. The matrix-free apply marches
the O(n_space) recursion of every ray in one banded solve (see _kernels);
dense blocks are assembled from the closed-form coefficient products and
serve as the independent testing path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rtkrylov import _kernels
from rtkrylov.errors import DENSE_CAP_DEFAULT, ResourceLimitError
from rtkrylov.grid import Grid


def lower_block(dtau: np.ndarray) -> np.ndarray:
    """Dense downward-ray block from the closed-form coefficients.

    Entry (i, j) is dtau_{j-1} / prod_{l=j..i} (1 + dtau_{l-1}) in 1-based
    indexing; the first row is zero (inflow node carries no source term).
    """
    q = np.concatenate([[1.0], np.cumprod(1.0 + dtau)])  # q[m] = prod_{l<=m}
    col = np.concatenate([[0.0], dtau * q[:-1]])
    return np.tril(np.outer(1.0 / q, col))


def upper_block(dtau: np.ndarray) -> np.ndarray:
    """Dense upward-ray block; entry (i, j) = dtau_j / prod_{l=i..j} (1 + dtau_l)."""
    q = np.concatenate([[1.0], np.cumprod(1.0 + dtau)])
    col = np.concatenate([dtau / q[1:], [0.0]])
    return np.triu(np.outer(q, col))


def lower_decay(dtau: np.ndarray) -> np.ndarray:
    """Boundary attenuation f_i = 1 / prod_{l<i} (1 + dtau_l); f_1 = 1."""
    return np.concatenate([[1.0], 1.0 / np.cumprod(1.0 + dtau)])


def upper_decay(dtau: np.ndarray) -> np.ndarray:
    """Boundary attenuation h_i = 1 / prod_{l=i..n-1} (1 + dtau_l); h_n = 1."""
    q = np.concatenate([[1.0], np.cumprod(1.0 + dtau)])
    return q / q[-1]


def _per_frequency_values(grid: Grid, value) -> np.ndarray:
    """Expand a boundary specification (scalar, per-frequency array, or callable
    of nu) to one value per ray."""
    if callable(value):
        return np.asarray(value(grid.ray_nu), dtype=float) * np.ones(grid.n_rays)
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(grid.n_rays, float(arr))
    if arr.size == grid.n_freq:
        return np.tile(arr, grid.n_angles)
    raise ValueError(f"boundary values must be scalar or length {grid.n_freq}")


@dataclass
class TransferOperator:
    grid: Grid
    dtau: np.ndarray          # (n_rays, n_space - 1) optical-depth increments
    n_down: int               # rays 0..n_down-1 enter at the surface (mu < 0)
    inflow: np.ndarray        # (n_rays,) boundary intensity feeding each ray
    band_down: np.ndarray     # marching matrix of the mu < 0 rays (lower band)
    band_up: np.ndarray       # marching matrix of the mu > 0 rays (upper band)

    @property
    def n_total(self) -> int:
        return self.grid.n_total

    # protocol shared with the 2D long-characteristics operator
    def apply_space_major(self, source: np.ndarray) -> np.ndarray:
        """Apply the homogeneous part (no boundary term) of the transfer operator.

        source and result are space-major. Their transposed copy holds one
        contiguous run per ray and is the right-hand side both sweeps solve in.
        """
        values = np.asarray(source, dtype=float)
        if values.size != self.n_total:
            raise ValueError(f"expected length {self.n_total}, got {values.size}")
        g = self.grid
        rhs = values.reshape(g.n_space, g.n_rays).T.copy()
        down, up = rhs[:self.n_down], rhs[self.n_down:]
        down[:, 0] = 0.0
        down[:, 1:] *= self.dtau[:self.n_down]
        up[:, -1] = 0.0
        up[:, :-1] *= self.dtau[self.n_down:]
        _kernels.sweep(self.band_down, down.reshape(-1), lower=True)
        _kernels.sweep(self.band_up, up.reshape(-1), lower=False)
        return rhs.T.ravel()

    def boundary_space_major(self) -> np.ndarray:
        """Inflow contribution: attenuation times the boundary intensity, space-major."""
        q = np.cumprod(1.0 + self.dtau, axis=1)
        qfull = np.concatenate([np.ones((self.grid.n_rays, 1)), q], axis=1)
        d = self.n_down
        decay = np.concatenate([1.0 / qfull[:d], qfull[d:] / qfull[d:, -1:]])
        mat = decay * self.inflow[:, None]  # (n_rays, n_space)
        return mat.T.ravel()

    def materialize(self, dense_cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
        return materialize_transfer(self, dense_cap)


def _ray_band(dtau: np.ndarray, lower: bool) -> np.ndarray:
    """Band of equal-length rays; each ray's entry node gets a zero increment."""
    n_rays, n_space = dtau.shape[0], dtau.shape[1] + 1
    pad = np.zeros((n_rays, 1))
    per_node = np.hstack([pad, dtau] if lower else [dtau, pad])
    return _kernels.band(per_node.ravel(), np.arange(n_rays + 1) * n_space, lower)


def build_transfer(grid: Grid, i_in_deep=0.0, i_in_surf=0.0) -> TransferOperator:
    """Precompute per-ray increments, the marching bands, and inflow values.

    mu > 0 rays carry the boundary value from t_deep upward, mu < 0 rays
    carry the value from t_surf downward. The grid lists the mu < 0 rays
    first, so each direction is one contiguous half of the rays.
    """
    dtau = grid.delta_tau_table()
    if not np.all(np.isfinite(dtau)):
        raise ValueError("optical-depth increments must be finite")
    n_down = int(np.count_nonzero(grid.ray_mu < 0))
    deep = _per_frequency_values(grid, i_in_deep)
    surf = _per_frequency_values(grid, i_in_surf)
    inflow = np.concatenate([surf[:n_down], deep[n_down:]])
    return TransferOperator(
        grid=grid, dtau=dtau, n_down=n_down, inflow=inflow,
        band_down=_ray_band(dtau[:n_down], lower=True),
        band_up=_ray_band(dtau[n_down:], lower=False),
    )


def materialize_transfer(op: TransferOperator, dense_cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
    """Assemble the dense space-major matrix from the coefficient tables."""
    n = op.n_total
    if n > dense_cap:
        raise ResourceLimitError(f"dense transfer of size {n} exceeds cap {dense_cap}")
    g = op.grid
    out = np.zeros((n, n))
    view = out.reshape(g.n_space, g.n_rays, g.n_space, g.n_rays)
    for k in range(g.n_rays):
        block = lower_block(op.dtau[k]) if k < op.n_down else upper_block(op.dtau[k])
        view[:, k, :, k] = block
    return out
