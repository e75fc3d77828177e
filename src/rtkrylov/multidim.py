"""2D long-characteristics transfer on a rectangle.

Each direction gets a family of parallel characteristic lines seeded from
the upstream boundary edges and traced to the opposite boundary. Transfer is
computed on the line nodes (the same implicit-Euler recursion as in 1D,
entry to exit) and coupled to the Cartesian grid by two sparse
interpolation operators: bilinear from Cartesian to line nodes, normalized
inverse-distance from line nodes back to Cartesian (both with rows summing
to one). The composed per-direction operator is
cartesian -> lines -> transfer -> cartesian. A family's lines are built, and
a callable opacity chi(x, y) or inflow(x, y) is evaluated, on whole arrays
of points at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from rtkrylov import _kernels
from rtkrylov.errors import CoverageError, DENSE_CAP_DEFAULT, ResourceLimitError
from rtkrylov.operator import RTProblem
from rtkrylov.scattering import LegendreKernel, build_scattering
from rtkrylov.transfer import lower_block

_SNAP = 1e-12


class CartesianGrid2D:
    """Rectangle nodes plus an equidistant-azimuth direction set.

    Node flattening is x-major: flat index = ix * n_y + iy. The direction
    descriptor exposed to the scattering kernels is mu = cos(azimuth).
    """

    sphere_measure = 2.0 * math.pi

    def __init__(self, n_x: int, n_y: int, n_angles: int,
                 domain=(0.0, 1.0, 0.0, 1.0)):
        if n_x < 2 or n_y < 2:
            raise ValueError("need at least a 2x2 grid")
        if n_angles < 1:
            raise ValueError("need at least one direction")
        self.x0, self.x1, self.y0, self.y1 = map(float, domain)
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("empty domain rectangle")
        self.n_x, self.n_y, self.n_angles = n_x, n_y, n_angles
        self.x_nodes = np.linspace(self.x0, self.x1, n_x)
        self.y_nodes = np.linspace(self.y0, self.y1, n_y)
        self.hx = (self.x1 - self.x0) / (n_x - 1)
        self.hy = (self.y1 - self.y0) / (n_y - 1)
        # offset keeps directions away from exact lattice degeneracies by default
        self.azimuths = 2.0 * math.pi * (np.arange(n_angles) + 0.5) / n_angles
        self.directions = np.column_stack([np.cos(self.azimuths), np.sin(self.azimuths)])

        self.n_space = n_x * n_y
        self.n_rays = n_angles
        self.n_freq = 1
        self.n_total = self.n_space * self.n_rays
        xg, yg = np.meshgrid(self.x_nodes, self.y_nodes, indexing="ij")
        self.node_xy = np.column_stack([xg.ravel(), yg.ravel()])

        self.ray_mu = np.cos(self.azimuths)
        self.ray_nu = np.zeros(n_angles)
        self.nu_nodes = np.zeros(1)
        self.frequency_weights = np.ones(1)
        self.ray_frequency_weight = np.ones(n_angles)
        self.angular_weights = np.full(n_angles, 2.0 * math.pi / n_angles)
        self.combined_weights = self.angular_weights.copy()

    def sample_coefficient(self, fn) -> np.ndarray:
        """Evaluate fn(x, y, mu, nu) on the node-by-direction product."""
        vals = fn(self.node_xy[:, 0:1], self.node_xy[:, 1:2],
                  self.ray_mu[None, :], self.ray_nu[None, :])
        return np.ascontiguousarray(
            np.broadcast_to(np.asarray(vals, dtype=float), (self.n_space, self.n_rays))
        )


@dataclass
class CharacteristicLine:
    entry: np.ndarray        # boundary point where radiation enters
    length: float
    nodes: np.ndarray        # (m, 2) Cartesian coordinates, entry to exit

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]


@dataclass
class RayFamily:
    """Parallel lines of one direction, stored flat: line l owns nodes
    node_offsets[l]:node_offsets[l + 1], entry first."""

    direction: np.ndarray
    nodes: np.ndarray         # (n_nodes, 2) Cartesian coordinates of every line node
    node_offsets: np.ndarray  # (n_lines + 1,) line starts in nodes
    entries: np.ndarray       # (n_lines, 2) boundary point where each line enters
    lengths: np.ndarray       # (n_lines,) arc length of each line

    @property
    def n_nodes(self) -> int:
        return int(self.node_offsets[-1])

    @property
    def lines(self) -> list:
        """One CharacteristicLine per line, viewing the flat arrays."""
        return [CharacteristicLine(entry, float(length), self.nodes[a:b]) for entry, length, a, b
                in zip(self.entries, self.lengths, self.node_offsets[:-1], self.node_offsets[1:])]


def trace_rays(grid: CartesianGrid2D, direction, spacing: Optional[float] = None,
               node_step: Optional[float] = None) -> RayFamily:
    """Cover the rectangle with parallel lines along one direction.

    Seeds sit every `spacing` along both upstream edges (grid spacing by
    default, one seed per boundary cell corner); duplicate lines are merged,
    zero-length corner lines dropped, and the rest ordered across the
    direction. Nodes are equidistant in arc length with step at most
    min(grid spacing, node_step); both overrides must be positive and finite.
    """
    d = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(d))
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    d = d / norm
    if not all(v is None or 0.0 < v < math.inf for v in (spacing, node_step)):
        raise ValueError("spacing and node_step must be positive and finite")
    step = min(grid.hx, grid.hy)
    spacing = step if spacing is None else spacing
    step = step if node_step is None else min(step, node_step)

    diag = math.hypot(grid.x1 - grid.x0, grid.y1 - grid.y0)
    bounds = ((grid.x0, grid.x1), (grid.y0, grid.y1))
    seeds = []
    for axis in (0, 1):  # the upstream edge normal to this axis, seeded along the other
        if abs(d[axis]) > 1e-14:
            lo, hi = bounds[1 - axis]
            edge = np.empty((int(round((hi - lo) / spacing)) + 1, 2))
            edge[:, axis] = bounds[axis][0 if d[axis] > 0 else 1]
            edge[:, 1 - axis] = np.minimum(lo + np.arange(edge.shape[0]) * spacing, hi)
            seeds.append(edge)
    seeds = np.concatenate(seeds)

    # arc length to the exit: the nearest downstream edge crossing
    length = np.full(seeds.shape[0], math.inf)
    for axis, (lo, hi) in enumerate(bounds):
        if d[axis] != 0.0:
            length = np.minimum(length, ((hi if d[axis] > 0 else lo) - seeds[:, axis]) / d[axis])
    keep = length > 1e-12 * diag
    seeds, length = seeds[keep], length[keep]
    # one line per offset across the direction, from its first seed, in offset order
    offset = np.rint(np.vecdot(np.array([-d[1], d[0]]), seeds) / (1e-9 * diag))
    _, first = np.unique(offset, return_index=True)
    if first.size == 0:
        raise ValueError("no line intersects the domain")
    entries, lengths = seeds[first], length[first]

    counts = np.maximum(2, np.ceil(lengths / step - 1e-9).astype(np.int64) + 1)
    node_offsets = np.concatenate([[0], np.cumsum(counts)])
    line = np.repeat(np.arange(counts.size), counts)
    # arc of node j on line l is j * length_l / (m_l - 1), the exit exactly length_l
    arc = (np.arange(node_offsets[-1]) - node_offsets[line]) * (lengths / (counts - 1))[line]
    arc[node_offsets[1:] - 1] = lengths
    nodes = entries[line] + arc[:, None] * d
    return RayFamily(direction=d, nodes=nodes, node_offsets=node_offsets,
                     entries=entries, lengths=lengths)


@dataclass
class Interpolator:
    """Sparse row map with nonnegative coefficients summing to one per row."""

    matrix: csr_matrix

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()


class InterpolatorPair(NamedTuple):
    cart_to_ray: Interpolator  # bilinear, Cartesian nodes -> line nodes
    ray_to_cart: Interpolator  # inverse distance, line nodes -> Cartesian nodes


def _bilinear_rows(grid: CartesianGrid2D, points: np.ndarray):
    """(cols, vals, keep) of the bilinear stencils, one row of four per point,
    columns ascending; keep marks the nonzero weights."""
    x, y = points[:, 0], points[:, 1]
    ix = np.clip(((x - grid.x0) / grid.hx).astype(np.int64), 0, grid.n_x - 2)
    iy = np.clip(((y - grid.y0) / grid.hy).astype(np.int64), 0, grid.n_y - 2)
    fx = (x - grid.x_nodes[ix]) / grid.hx
    fy = (y - grid.y_nodes[iy]) / grid.hy
    fx = np.where(fx < _SNAP, 0.0, np.where(fx > 1.0 - _SNAP, 1.0, fx))
    fy = np.where(fy < _SNAP, 0.0, np.where(fy > 1.0 - _SNAP, 1.0, fy))
    base = ix * grid.n_y + iy
    cols = np.column_stack([base, base + 1, base + grid.n_y, base + grid.n_y + 1])
    vals = np.column_stack([(1.0 - fx) * (1.0 - fy), (1.0 - fx) * fy,
                            fx * (1.0 - fy), fx * fy])
    return cols, vals, vals != 0.0


def _csr(cols, vals, keep, shape) -> csr_matrix:
    """CSR matrix with row r holding cols[r][keep[r]] (ascending) and their vals."""
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))])
    return csr_matrix((vals[keep], cols[keep], indptr), shape=shape)


def build_interpolators(family: RayFamily, grid: CartesianGrid2D) -> InterpolatorPair:
    """(cartesian->ray bilinear, ray->cartesian inverse distance) pair."""
    pts = family.nodes
    cart_to_ray = Interpolator(_csr(*_bilinear_rows(grid, pts), (family.n_nodes, grid.n_space)))

    k = min(4, family.n_nodes)
    dist, idx = cKDTree(pts).query(grid.node_xy, k=k)
    dist, idx = dist.reshape(grid.n_space, k), idx.reshape(grid.n_space, k)
    reach = 2.0 * max(grid.hx, grid.hy)
    if np.any(dist[:, 0] > reach):
        raise CoverageError(f"ray family too sparse: a Cartesian node is {dist[:, 0].max():.3g} "
                            f"away from the nearest line node (limit {reach:.3g})")
    # a node on a line takes that line node alone; the others weigh their k
    # nearest line nodes by inverse distance, in ascending column order
    exact = dist[:, 0] <= _SNAP * max(grid.hx, grid.hy)
    vals = np.zeros((grid.n_space, k))
    vals[exact, 0] = 1.0
    inv = 1.0 / dist[~exact]
    vals[~exact] = inv / inv.sum(axis=1, keepdims=True)
    order = np.argsort(idx, axis=1)
    order[exact] = np.arange(k)
    keep = ~exact[:, None] | (np.arange(k) == 0)
    ray_to_cart = Interpolator(_csr(np.take_along_axis(idx, order, axis=1),
                                    np.take_along_axis(vals, order, axis=1),
                                    keep, (grid.n_space, family.n_nodes)))
    return InterpolatorPair(cart_to_ray, ray_to_cart)


@dataclass
class TransferOperator2D:
    """Composed transfer over all directions with a matrix-free apply.

    dtau, band and boundary run over the line nodes of every direction in
    turn; direction k owns nodes offsets[k]:offsets[k + 1], and each apply
    sweeps every direction on its slice of the one band.
    """

    grid: CartesianGrid2D
    families: list            # RayFamily per direction
    blocks: list              # InterpolatorPair per direction
    dtau: np.ndarray          # increment entering each line node, 0 at line entries
    band: np.ndarray          # marching matrix of all lines, see _kernels.band
    boundary: np.ndarray      # attenuated inflow on the line nodes, swept at build time
    offsets: np.ndarray = field(init=False)  # (n_rays + 1,) direction starts

    def __post_init__(self):
        counts = [fam.n_nodes for fam in self.families]
        self.offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

    @property
    def n_total(self) -> int:
        return self.grid.n_total

    def _slices(self):
        return enumerate(zip(self.blocks, self.offsets[:-1], self.offsets[1:]))

    def apply_space_major(self, v: np.ndarray) -> np.ndarray:
        """Homogeneous transfer of a space-major vector, as a new array."""
        v = np.asarray(v, dtype=float)
        if v.size != self.n_total:
            raise ValueError(f"expected length {self.n_total}, got {v.size}")
        mat = v.reshape(self.grid.n_space, self.grid.n_rays)
        out = np.empty_like(mat)
        for k, (pair, a, b) in self._slices():
            rhs = pair.cart_to_ray.matrix @ np.ascontiguousarray(mat[:, k])
            rhs *= _kernels.weights(self.band)[a:b]
            out[:, k] = pair.ray_to_cart.matrix @ _kernels.sweep(self.band[:, a:b], rhs)
        return out.ravel()

    def boundary_space_major(self) -> np.ndarray:
        out = np.empty((self.grid.n_space, self.grid.n_rays))
        for k, (pair, a, b) in self._slices():
            out[:, k] = pair.ray_to_cart.matrix @ self.boundary[a:b]
        return out.ravel()

    def ray_blocks(self) -> np.ndarray:
        """(n_rays, n_space, n_space) diagonal blocks of the transfer, one per direction.

        Each direction sweeps w times the dense Cartesian-to-line matrix,
        one right-hand side per Cartesian node, and maps the result back.
        """
        out = np.empty((self.grid.n_rays, self.grid.n_space, self.grid.n_space))
        for k, (pair, a, b) in self._slices():
            cols = pair.cart_to_ray.matrix.toarray(order="F")
            cols *= _kernels.weights(self.band)[a:b, None]
            out[k] = pair.ray_to_cart.matrix @ _kernels.sweep(self.band[:, a:b], cols)
        return out

    @property
    def ray_blocks_scratch(self) -> int:
        """Entries of the largest temporary of ray_blocks: line nodes by n_space."""
        return max(fam.n_nodes for fam in self.families) * self.grid.n_space

    def materialize(self, dense_cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
        n = self.n_total
        if n > dense_cap:
            raise ResourceLimitError(f"dense 2D transfer of size {n} exceeds cap {dense_cap}")
        g = self.grid
        out = np.zeros((n, n))
        view = out.reshape(g.n_space, g.n_rays, g.n_space, g.n_rays)
        for k, (pair, a, b) in self._slices():
            dtau, lines = self.dtau[a:b], self.families[k].node_offsets
            lam_r = np.zeros((b - a, b - a))
            for l in range(lines.size - 1):
                i, j = lines[l], lines[l + 1]
                lam_r[i:j, i:j] = lower_block(dtau[i + 1:j])
            view[:, k, :, k] = (pair.ray_to_cart.matrix.toarray() @ lam_r
                                @ pair.cart_to_ray.matrix.toarray())
        return out


def build_transfer_2d(grid: CartesianGrid2D, chi: Union[float, Callable] = 1.0,
                      inflow: Union[float, Callable] = 0.0,
                      spacing: Optional[float] = None,
                      node_step: Optional[float] = None) -> TransferOperator2D:
    """Trace all direction families and assemble the composed transfer.

    chi is the opacity (scalar or chi(x, y)); optical-depth increments are
    arc length times the midpoint opacity. inflow is the boundary intensity
    at each line's entry point (scalar or inflow(x, y)). A callable is given
    arrays of x and y and returns one value per point. A non-finite
    optical-depth increment or boundary intensity is rejected with ValueError.
    """
    chi_fn = chi if callable(chi) else (lambda x, y: float(chi))
    inflow_fn = inflow if callable(inflow) else (lambda x, y: float(inflow))

    families = [trace_rays(grid, d, spacing, node_step) for d in grid.directions]
    blocks = [build_interpolators(fam, grid) for fam in families]
    # all directions' lines end to end; the terms bridging two lines are reset
    bases = np.cumsum([0] + [fam.n_nodes for fam in families])
    starts = np.concatenate([fam.node_offsets[:-1] + b for fam, b in zip(families, bases)])
    nodes = np.concatenate([fam.nodes for fam in families])
    entries = np.concatenate([fam.entries for fam in families])
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    dtau = np.empty(nodes.shape[0])
    dtau[1:] = (np.linalg.norm(np.diff(nodes, axis=0), axis=1)
                * np.asarray(chi_fn(mids[:, 0], mids[:, 1]), dtype=float))
    dtau[starts] = 0.0
    if not np.all(np.isfinite(dtau)):
        raise ValueError("optical-depth increments must be finite")
    boundary = np.zeros_like(dtau)
    boundary[starts] = np.asarray(inflow_fn(entries[:, 0], entries[:, 1]), dtype=float)
    if not np.all(np.isfinite(boundary)):
        raise ValueError("boundary intensities must be finite")
    band = _kernels.band(dtau, np.append(starts, bases[-1]))
    return TransferOperator2D(
        grid=grid, families=families, blocks=blocks, dtau=dtau, band=band,
        boundary=_kernels.sweep(band, boundary),
    )


def anisotropic_2d(n_x: int, n_y: int, n_angles: int, gamma_scale: float = 1.0,
                   coefficients=None) -> RTProblem:
    """Unit-square problem with the degree-7 kernel over mu = cos(azimuth).

    Opacity is one; the scattering fraction decays linearly with height so
    the effective albedo is (1 - y) / 2 under the direction average.
    """
    from rtkrylov.presets import LEGENDRE_L7

    grid = CartesianGrid2D(n_x, n_y, n_angles)
    transfer = build_transfer_2d(grid, chi=1.0, inflow=0.0)

    def gamma(x, y, mu, nu):
        return gamma_scale * (1.0 - y) / (4.0 * math.pi) * np.ones_like(mu + nu)

    kernel = LegendreKernel(coefficients if coefficients is not None else LEGENDRE_L7)
    scattering = build_scattering(grid, kernel, gamma)
    return RTProblem(
        grid=grid, transfer=transfer, scattering=scattering,
        thermal=np.zeros(grid.n_total),
        descriptor={"preset": "aniso2d", "kernel": "legendre",
                    "n_x": n_x, "n_y": n_y, "n_angles": n_angles,
                    "n_space": grid.n_space, "n_freq": 1},
    )

