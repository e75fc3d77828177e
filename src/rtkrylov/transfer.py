"""Block-diagonal transfer operator: per-ray triangular integral blocks.

Radiation marches along each ray with the implicit-Euler formal solver.
Every ray is stored entry-first: downward rays (mu < 0) enter at the surface
and keep the space order, upward rays (mu > 0) enter at depth and are
reversed in space. In its own order each ray's block is lower triangular
with a zero first row, so one sweep marches every ray (see _kernels: the
recursion is divided through by 1 + dtau, so the source enters with the
weight w = dtau / (1 + dtau)); the boundary term is that same sweep of the
inflow, and the same sweep with one right-hand side per node yields every
ray's block (ray_blocks).

The sweep has two layouts, chosen by build_transfer from the ray count:
the band for fewer than LANE_MIN_RAYS rays, the lanes from there on. Every
array the operator sweeps is handled position-major, (n_space, n_rays) with
row p holding entry-first node p of every ray: for the lanes that is the
array itself, for the band the transpose of its entry-first array. So the
gather (a weighted copy, up rays taking the space rows in reverse) and the
copy back to space-major are one code for both. The cutoff is the crossover
of the two apply times on mono grids (lane time over band time, median of
60 calls, one BLAS thread, 2-core Xeon, two runs):

    rays   n_space 20   n_space 200   n_space 2000
    24     2.49-2.52    5.72-5.86     6.61-6.91
    128    1.40-1.42    1.57-1.58     1.14-1.15
    256    0.99-1.00    0.91-0.95     0.53-0.87
    512    0.72         0.69-0.73     0.39-0.41

So mono 4000x24, the Table cells (240 rays) and every 2D line stay on the
band, and the crd and coherent 200x24x50 problems (1200 rays) sweep lanes.
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


# Rays from which build_transfer sweeps lanes instead of the band: the
# crossover of their apply times (see the module docstring).
LANE_MIN_RAYS = 256


@dataclass
class TransferOperator:
    grid: Grid
    dtau: np.ndarray          # (n_rays, n_space) increment entering each node, entry-first
    n_down: int               # rays 0..n_down-1 enter at the surface (mu < 0)
    band: np.ndarray | None   # marching matrix of all rays (_kernels.band), or None
    lanes: np.ndarray | None  # (2, n_space, n_rays) w and r (_kernels.lanes), or None
    boundary: np.ndarray      # (n_space, n_rays) attenuated inflow, position-major (_work)

    @property
    def n_total(self) -> int:
        return self.grid.n_total

    def _work(self, make, *trailing: int) -> np.ndarray:
        """A position-major (n_space, n_rays, *trailing) array from np.empty or
        np.zeros, in the order the sweep needs: for the band, each ray's nodes
        (and then each right-hand side) contiguous; for the lanes, each
        position's rays."""
        shape = (self.grid.n_space, self.grid.n_rays, *trailing)
        return make(shape, order="C" if self.lanes is not None else "F")

    def _weights(self) -> np.ndarray:
        """The source weights w as an entry-first (n_rays, n_space) view."""
        if self.lanes is not None:
            return self.lanes[0].T
        return _kernels.weights(self.band).reshape(self.dtau.shape)

    def _sweep(self, x: np.ndarray) -> np.ndarray:
        """March a position-major array made by _work in place."""
        if self.lanes is not None:
            return _kernels.lane_sweep(self.lanes[1], x)
        _kernels.sweep(self.band, x.reshape(self.dtau.size, -1, order="F"))
        return x

    def _to_space_major(self, x: np.ndarray) -> np.ndarray:
        """Space-major copy of a position-major (n_space, n_rays) array."""
        d = self.n_down
        out = np.empty(x.shape)
        out[:, :d] = x[:, :d]
        out[::-1, d:] = x[:, d:]
        return out.ravel()

    # protocol shared with the 2D long-characteristics operator
    def apply_space_major(self, source: np.ndarray) -> np.ndarray:
        """Apply the homogeneous part (no boundary term) of the transfer operator.

        source and result are space-major, the result a new array. The source
        is weighted as it is gathered into the sweep's position-major layout:
        up rays take the space rows in reverse.
        """
        values = np.asarray(source, dtype=float)
        if values.size != self.n_total:
            raise ValueError(f"expected length {self.n_total}, got {values.size}")
        x = self._work(np.empty)
        # through ray-major views: numpy then walks the band's entry-first
        # array along its rays, and the lanes' operands, all transposed alike,
        # in memory order
        src, w, rays = values.reshape(self.grid.n_space, self.grid.n_rays).T, self._weights(), x.T
        d = self.n_down
        np.multiply(src[:d], w[:d], out=rays[:d])
        np.multiply(src[d:, ::-1], w[d:], out=rays[d:])
        return self._to_space_major(self._sweep(x))

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
        cols = self._work(np.zeros, n_space)  # (node, ray, column)
        cols[nodes, :, nodes] = self._weights().T
        self._sweep(cols)
        d = self.n_down
        out = np.empty((n_rays, n_space, n_space))
        out[:d] = cols[:, :d].transpose(1, 0, 2)
        out[d:] = cols[::-1, d:, ::-1].transpose(1, 0, 2)
        return out

    @property
    def ray_blocks_scratch(self) -> int:
        """Entries of the largest temporary of ray_blocks, the swept columns:
        as many as its result in either layout (the lane step's own
        temporary holds one position's n_rays * n_space)."""
        return self.dtau.size * self.grid.n_space

    def materialize(self, dense_cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
        return materialize_transfer(self, dense_cap)


def build_transfer(grid: Grid, i_in_deep=0.0, i_in_surf=0.0) -> TransferOperator:
    """Precompute the entry-first increments, the sweep tables and the boundary term.

    With LANE_MIN_RAYS rays or more the sweep marches position-major lanes,
    otherwise one band. mu > 0 rays carry the boundary value from t_deep
    upward, mu < 0 rays carry the value from t_surf downward. The grid lists
    the mu < 0 rays first, so each direction is one contiguous half of the
    rays. Non-finite increments or boundary values are rejected with
    ValueError.
    """
    table = grid.delta_tau_table()
    if not np.all(np.isfinite(table)):
        raise ValueError("optical-depth increments must be finite")
    n_down = int(np.count_nonzero(grid.ray_mu < 0))
    dtau = np.zeros((grid.n_rays, grid.n_space))
    dtau[:n_down, 1:] = table[:n_down]
    dtau[n_down:, 1:] = table[n_down:, ::-1]
    if grid.n_rays >= LANE_MIN_RAYS:
        band, lanes = None, _kernels.lanes(dtau)
    else:
        band, lanes = _kernels.band(dtau.ravel(), np.arange(grid.n_rays + 1) * grid.n_space), None
    op = TransferOperator(grid=grid, dtau=dtau, n_down=n_down, band=band, lanes=lanes,
                          boundary=np.empty(0))
    inflow = op._work(np.zeros)
    inflow[0, :n_down] = _per_frequency_values(grid, i_in_surf)[:n_down]
    inflow[0, n_down:] = _per_frequency_values(grid, i_in_deep)[n_down:]
    if not np.all(np.isfinite(inflow[0])):
        raise ValueError("boundary intensities must be finite")
    op.boundary = op._sweep(inflow)
    return op


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
