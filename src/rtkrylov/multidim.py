"""2D long-characteristics transfer on a rectangle.

Each direction gets a family of parallel characteristic lines seeded from
the upstream boundary edges and traced to the opposite boundary. Transfer is
computed on the line nodes (the same implicit-Euler recursion as in 1D,
entry to exit) and coupled to the Cartesian grid by two sparse
interpolation operators: bilinear from Cartesian to line nodes, normalized
inverse-distance from line nodes back to Cartesian (both with rows summing
to one). The composed per-direction operator is
cartesian -> lines -> transfer -> cartesian.
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
    direction: np.ndarray
    lines: list
    node_offsets: np.ndarray = field(init=False)  # (n_lines + 1,) into flat node storage

    def __post_init__(self):
        counts = [ln.n_nodes for ln in self.lines]
        self.node_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

    @property
    def n_nodes(self) -> int:
        return int(self.node_offsets[-1])

    def all_nodes(self) -> np.ndarray:
        return np.concatenate([ln.nodes for ln in self.lines], axis=0)


def _exit_parameter(p, d, grid: CartesianGrid2D) -> float:
    t = math.inf
    if d[0] > 0:
        t = min(t, (grid.x1 - p[0]) / d[0])
    elif d[0] < 0:
        t = min(t, (grid.x0 - p[0]) / d[0])
    if d[1] > 0:
        t = min(t, (grid.y1 - p[1]) / d[1])
    elif d[1] < 0:
        t = min(t, (grid.y0 - p[1]) / d[1])
    return t


def trace_rays(grid: CartesianGrid2D, direction, spacing: Optional[float] = None,
               node_step: Optional[float] = None) -> RayFamily:
    """Cover the rectangle with parallel lines along one direction.

    Seeds sit every `spacing` along both upstream edges (grid spacing by
    default, one seed per boundary cell corner); duplicate lines are merged
    and zero-length corner lines dropped. Nodes are equidistant in arc
    length with step at most min(grid spacing, node_step).
    """
    d = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(d))
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    d = d / norm
    if spacing is None:
        spacing = min(grid.hx, grid.hy)
    step = min(grid.hx, grid.hy)
    if node_step is not None:
        step = min(step, node_step)

    diag = math.hypot(grid.x1 - grid.x0, grid.y1 - grid.y0)
    seeds = []
    if abs(d[0]) > 1e-14:
        x_edge = grid.x0 if d[0] > 0 else grid.x1
        n_seed = int(round((grid.y1 - grid.y0) / spacing))
        for j in range(n_seed + 1):
            seeds.append((x_edge, min(grid.y0 + j * spacing, grid.y1)))
    if abs(d[1]) > 1e-14:
        y_edge = grid.y0 if d[1] > 0 else grid.y1
        n_seed = int(round((grid.x1 - grid.x0) / spacing))
        for j in range(n_seed + 1):
            seeds.append((min(grid.x0 + j * spacing, grid.x1), y_edge))

    perp = np.array([-d[1], d[0]])
    lines = {}
    for seed in seeds:
        p = np.asarray(seed)
        length = _exit_parameter(p, d, grid)
        if length <= 1e-12 * diag:
            continue
        offset = round(float(np.dot(perp, p)) / (1e-9 * diag))
        if offset in lines:
            continue
        m = max(2, int(math.ceil(length / step - 1e-9)) + 1)
        arc = np.linspace(0.0, length, m)
        nodes = p[None, :] + arc[:, None] * d[None, :]
        lines[offset] = CharacteristicLine(entry=p, length=length, nodes=nodes)
    ordered = [lines[key] for key in sorted(lines)]
    if not ordered:
        raise ValueError("no line intersects the domain")
    return RayFamily(direction=d, lines=ordered)


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
    """(rows, cols, vals) of the bilinear stencils, four per point, zeros dropped."""
    x, y = points[:, 0], points[:, 1]
    ix = np.clip(((x - grid.x0) / grid.hx).astype(np.int64), 0, grid.n_x - 2)
    iy = np.clip(((y - grid.y0) / grid.hy).astype(np.int64), 0, grid.n_y - 2)
    fx = (x - grid.x_nodes[ix]) / grid.hx
    fy = (y - grid.y_nodes[iy]) / grid.hy
    fx = np.where(fx < _SNAP, 0.0, np.where(fx > 1.0 - _SNAP, 1.0, fx))
    fy = np.where(fy < _SNAP, 0.0, np.where(fy > 1.0 - _SNAP, 1.0, fy))
    base = ix * grid.n_y + iy
    cols = np.column_stack([base, base + grid.n_y, base + 1, base + grid.n_y + 1])
    vals = np.column_stack([(1.0 - fx) * (1.0 - fy), fx * (1.0 - fy),
                            (1.0 - fx) * fy, fx * fy])
    keep = vals != 0.0
    rows = np.broadcast_to(np.arange(points.shape[0])[:, None], keep.shape)
    return rows[keep], cols[keep], vals[keep]


def build_interpolators(family: RayFamily, grid: CartesianGrid2D) -> InterpolatorPair:
    """(cartesian->ray bilinear, ray->cartesian inverse distance) pair."""
    pts = family.all_nodes()
    rows, cols, vals = _bilinear_rows(grid, pts)
    cart_to_ray = Interpolator(csr_matrix(
        (vals, (rows, cols)), shape=(family.n_nodes, grid.n_space)
    ))

    tree = cKDTree(pts)
    k = min(4, family.n_nodes)
    dist, idx = tree.query(grid.node_xy, k=k)
    dist = np.atleast_2d(dist.reshape(grid.n_space, k))
    idx = np.atleast_2d(idx.reshape(grid.n_space, k))
    reach = 2.0 * max(grid.hx, grid.hy)
    if np.any(dist[:, 0] > reach):
        worst = float(dist[:, 0].max())
        raise CoverageError(
            f"ray family too sparse: a Cartesian node is {worst:.3g} away from "
            f"the nearest line node (limit {reach:.3g})"
        )
    # a node on a line takes that line node alone; the others weigh their k
    # nearest line nodes by inverse distance
    exact = dist[:, 0] <= _SNAP * max(grid.hx, grid.hy)
    vals = np.zeros((grid.n_space, k))
    vals[exact, 0] = 1.0
    inv = 1.0 / dist[~exact]
    vals[~exact] = inv / inv.sum(axis=1, keepdims=True)
    keep = ~exact[:, None] | (np.arange(k) == 0)
    rows = np.broadcast_to(np.arange(grid.n_space)[:, None], keep.shape)
    ray_to_cart = Interpolator(csr_matrix(
        (vals[keep], (rows[keep], idx[keep])), shape=(grid.n_space, family.n_nodes)
    ))
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
        v = np.asarray(v, dtype=float)
        if v.size != self.n_total:
            raise ValueError(f"expected length {self.n_total}, got {v.size}")
        mat = v.reshape(self.grid.n_space, self.grid.n_rays)
        out = np.empty_like(mat)
        for k, (pair, a, b) in self._slices():
            rhs = pair.cart_to_ray.matrix @ np.ascontiguousarray(mat[:, k])
            rhs *= self.dtau[a:b]
            out[:, k] = pair.ray_to_cart.matrix @ _kernels.sweep(self.band[:, a:b], rhs)
        return out.ravel()

    def boundary_space_major(self) -> np.ndarray:
        out = np.empty((self.grid.n_space, self.grid.n_rays))
        for k, (pair, a, b) in self._slices():
            out[:, k] = pair.ray_to_cart.matrix @ self.boundary[a:b]
        return out.ravel()

    def ray_blocks(self) -> np.ndarray:
        """(n_rays, n_space, n_space) diagonal blocks of the transfer, one per direction.

        Each direction sweeps dtau times the dense Cartesian-to-line matrix,
        one right-hand side per Cartesian node, and maps the result back.
        """
        out = np.empty((self.grid.n_rays, self.grid.n_space, self.grid.n_space))
        for k, (pair, a, b) in self._slices():
            cols = pair.cart_to_ray.matrix.toarray(order="F")
            cols *= self.dtau[a:b, None]
            out[k] = pair.ray_to_cart.matrix @ _kernels.sweep(self.band[:, a:b], cols)
        return out

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
    arc length times the midpoint opacity. inflow is the boundary intensity,
    evaluated at each line's entry point (scalar or inflow(x, y)). A
    non-finite optical-depth increment is rejected with ValueError.
    """
    chi_fn = chi if callable(chi) else (lambda x, y: np.full_like(np.asarray(x, dtype=float), float(chi)))
    inflow_fn = inflow if callable(inflow) else (lambda x, y: float(inflow))

    families, blocks = [], []
    dtau_parts, entry_values = [], []
    for k in range(grid.n_rays):
        family = trace_rays(grid, grid.directions[k], spacing=spacing, node_step=node_step)
        families.append(family)
        blocks.append(build_interpolators(family, grid))
        for line in family.lines:
            mids = 0.5 * (line.nodes[1:] + line.nodes[:-1])
            seg = np.linalg.norm(np.diff(line.nodes, axis=0), axis=1)
            dtau_line = seg * np.asarray(chi_fn(mids[:, 0], mids[:, 1]), dtype=float)
            if not np.all(np.isfinite(dtau_line)):
                raise ValueError("optical-depth increments must be finite")
            dtau_parts.append(np.concatenate([[0.0], dtau_line]))
            entry_values.append(float(inflow_fn(line.entry[0], line.entry[1])))
    dtau = np.concatenate(dtau_parts)
    line_offsets = np.concatenate([[0], np.cumsum([p.size for p in dtau_parts])])
    band = _kernels.band(dtau, line_offsets)
    boundary = np.zeros_like(dtau)
    boundary[line_offsets[:-1]] = entry_values
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

