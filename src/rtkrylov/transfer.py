"""Block-diagonal transfer operator: per-ray triangular integral blocks.

Radiation marches along each ray with the implicit-Euler formal solver.
Every ray is stored entry-first: downward rays (mu < 0) enter at the surface
and keep the space order, upward rays (mu > 0) enter at depth and are
reversed in space. In its own order each ray's block is lower triangular
with a zero first row, so one lower band marches every ray (see _kernels:
the recursion is divided through by 1 + dtau, so the source enters with the
weight w = dtau / (1 + dtau) kept in the band) and the boundary term is that
same sweep of the inflow; the same sweep with one right-hand side per node
also yields every ray's block (ray_blocks).
Dense blocks are assembled from the closed-form coefficient products and
serve as the independent testing path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rtkrylov import _kernels
from rtkrylov.errors import DENSE_CAP_DEFAULT, ResourceLimitError
from rtkrylov.grid import Grid


def lower_block(dtau: np.ndarray) -> np.ndarray:
    """Dense block of one ray in its marching order, from the closed-form coefficients.

    dtau holds the ray's n - 1 increments in marching order. Entry (i, j) is
    dtau_{j-1} / prod_{l=j..i} (1 + dtau_{l-1}) in 1-based indexing; the
    first row is zero (inflow node carries no source term).
    """
    q = np.concatenate([[1.0], np.cumprod(1.0 + dtau)])  # q[m] = prod_{l<=m}
    col = np.concatenate([[0.0], dtau * q[:-1]])
    return np.tril(np.outer(1.0 / q, col))


def _per_frequency_values(grid: Grid, value) -> np.ndarray:
    """Expand a boundary specification (scalar or per-frequency array) to one
    value per ray."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(grid.n_rays, float(arr))
    if arr.size == grid.n_freq:
        return np.tile(arr, grid.n_angles)
    raise ValueError(f"boundary values must be scalar or length {grid.n_freq}")


@dataclass
class TransferOperator:
    grid: Grid
    dtau: np.ndarray          # (n_rays, n_space) increment entering each node, entry-first
    n_down: int               # rays 0..n_down-1 enter at the surface (mu < 0)
    band: np.ndarray          # marching matrix of all rays, see _kernels.band
    boundary: np.ndarray      # (n_rays, n_space) attenuated inflow, entry-first

    @property
    def n_total(self) -> int:
        return self.grid.n_total

    def _to_space_major(self, rays: np.ndarray) -> np.ndarray:
        """Space-major copy of an entry-first (n_rays, n_space) ray array."""
        d = self.n_down
        out = np.empty((self.grid.n_space, self.grid.n_rays))
        out[:, :d] = rays[:d].T
        out[::-1, d:] = rays[d:].T
        return out.ravel()

    # protocol shared with the 2D long-characteristics operator
    def apply_space_major(self, source: np.ndarray) -> np.ndarray:
        """Apply the homogeneous part (no boundary term) of the transfer operator.

        source and result are space-major, the result a new array; the sweep
        runs on an entry-first array that holds one contiguous run per ray,
        weighted as it is gathered.
        """
        values = np.asarray(source, dtype=float)
        if values.size != self.n_total:
            raise ValueError(f"expected length {self.n_total}, got {values.size}")
        mat = values.reshape(self.grid.n_space, self.grid.n_rays)
        w = _kernels.weights(self.band).reshape(self.dtau.shape)
        d = self.n_down
        rhs = np.empty_like(self.dtau)
        np.multiply(mat[:, :d].T, w[:d], out=rhs[:d])
        np.multiply(mat[::-1, d:].T, w[d:], out=rhs[d:])
        _kernels.sweep(self.band, rhs.reshape(-1))
        return self._to_space_major(rhs)

    def boundary_space_major(self) -> np.ndarray:
        """Inflow contribution: attenuation times the boundary intensity, space-major."""
        return self._to_space_major(self.boundary)

    def ray_blocks(self) -> np.ndarray:
        """(n_rays, n_space, n_space) diagonal blocks of the transfer, space order.

        One sweep with n_space right-hand sides: column c holds the weight w at
        the c-th entry-first node of every ray, so it marches out column c of
        every ray's block at once. Up-ray blocks are then reversed in both
        indices.
        """
        n_rays, n_space = self.dtau.shape
        nodes = np.arange(n_space)
        cols = np.zeros((n_space, n_rays, n_space), order="F")  # (node, ray, column)
        cols[nodes, :, nodes] = _kernels.weights(self.band).reshape(n_rays, n_space).T
        _kernels.sweep(self.band, cols.reshape(n_rays * n_space, n_space, order="F"))
        d = self.n_down
        out = np.empty((n_rays, n_space, n_space))
        out[:d] = cols[:, :d].transpose(1, 0, 2)
        out[d:] = cols[::-1, d:, ::-1].transpose(1, 0, 2)
        return out

    @property
    def ray_blocks_scratch(self) -> int:
        """Entries of the largest temporary of ray_blocks: as many as its result."""
        return self.dtau.size * self.grid.n_space

    def materialize(self, dense_cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
        return materialize_transfer(self, dense_cap)


def build_transfer(grid: Grid, i_in_deep=0.0, i_in_surf=0.0) -> TransferOperator:
    """Precompute the entry-first increments, the marching band and the boundary term.

    mu > 0 rays carry the boundary value from t_deep upward, mu < 0 rays
    carry the value from t_surf downward. The grid lists the mu < 0 rays
    first, so each direction is one contiguous half of the rays. Non-finite
    increments or boundary values are rejected with ValueError.
    """
    table = grid.delta_tau_table()
    if not np.all(np.isfinite(table)):
        raise ValueError("optical-depth increments must be finite")
    n_down = int(np.count_nonzero(grid.ray_mu < 0))
    dtau = np.zeros((grid.n_rays, grid.n_space))
    dtau[:n_down, 1:] = table[:n_down]
    dtau[n_down:, 1:] = table[n_down:, ::-1]
    band = _kernels.band(dtau.ravel(), np.arange(grid.n_rays + 1) * grid.n_space)
    boundary = np.zeros_like(dtau)
    boundary[:n_down, 0] = _per_frequency_values(grid, i_in_surf)[:n_down]
    boundary[n_down:, 0] = _per_frequency_values(grid, i_in_deep)[n_down:]
    if not np.all(np.isfinite(boundary)):
        raise ValueError("boundary intensities must be finite")
    _kernels.sweep(band, boundary.reshape(-1))
    return TransferOperator(grid=grid, dtau=dtau, n_down=n_down, band=band,
                            boundary=boundary)


def materialize_transfer(op: TransferOperator, dense_cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
    """Assemble the dense space-major matrix from the coefficient tables.

    Up rays are stored reversed in space, so their block goes in at reversed
    indices.
    """
    n = op.n_total
    if n > dense_cap:
        raise ResourceLimitError(f"dense transfer of size {n} exceeds cap {dense_cap}")
    g = op.grid
    out = np.zeros((n, n))
    view = out.reshape(g.n_space, g.n_rays, g.n_space, g.n_rays)
    for k in range(g.n_rays):
        block = lower_block(op.dtau[k, 1:])
        view[:, k, :, k] = block if k < op.n_down else block[::-1, ::-1]
    return out
