import dataclasses
import math
import os
import sys
import threading

import numpy as np
import pytest
from scipy.sparse import csr_matrix, issparse
from scipy.spatial import cKDTree

from rtkrylov import _kernels, multidim
from rtkrylov.errors import CoverageError
from rtkrylov.krylov import SolveConfig, gmres
from rtkrylov.multidim import (
    CartesianGrid2D,
    anisotropic_2d,
    build_interpolators,
    build_transfer_2d,
    trace_rays,
)
from rtkrylov.operator import apply_A, build_rhs, materialize_A
from rtkrylov.transfer import lower_block

SNAP = 1e-12


def loop_trace_rays(grid, direction, spacing=None, node_step=None):
    # per-seed loop: the reference trace_rays must reproduce exactly;
    # returns (entry, length, nodes) per line in the family's order
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
        for j in range(int(round((grid.y1 - grid.y0) / spacing)) + 1):
            seeds.append((x_edge, min(grid.y0 + j * spacing, grid.y1)))
    if abs(d[1]) > 1e-14:
        y_edge = grid.y0 if d[1] > 0 else grid.y1
        for j in range(int(round((grid.x1 - grid.x0) / spacing)) + 1):
            seeds.append((min(grid.x0 + j * spacing, grid.x1), y_edge))
    perp = np.array([-d[1], d[0]])
    lines = {}
    for seed in seeds:
        p = np.asarray(seed)
        length = math.inf
        for axis, (lo, hi) in enumerate(((grid.x0, grid.x1), (grid.y0, grid.y1))):
            if d[axis] > 0:
                length = min(length, (hi - p[axis]) / d[axis])
            elif d[axis] < 0:
                length = min(length, (lo - p[axis]) / d[axis])
        if length <= 1e-12 * diag:
            continue
        offset = round(float(np.dot(perp, p)) / (1e-9 * diag))
        if offset in lines:
            continue
        m = max(2, int(math.ceil(length / step - 1e-9)) + 1)
        arc = np.linspace(0.0, length, m)
        lines[offset] = (p, length, p[None, :] + arc[:, None] * d[None, :])
    if not lines:
        raise ValueError("no line intersects the domain")
    return [lines[key] for key in sorted(lines)]


def loop_transfer_2d(grid, chi=1.0, inflow=0.0, spacing=None, node_step=None):
    # per-line dtau and inflow loops over the reference lines of every direction:
    # (per-direction lines, dtau, band, boundary) as build_transfer_2d must give them
    chi_fn = chi if callable(chi) else (lambda x, y: np.full_like(np.asarray(x, dtype=float), chi))
    families, dtau_parts, entry_values = [], [], []
    for direction in grid.directions:
        families.append(loop_trace_rays(grid, direction, spacing, node_step))
        for entry, _, nodes in families[-1]:
            mids = 0.5 * (nodes[1:] + nodes[:-1])
            seg = np.linalg.norm(np.diff(nodes, axis=0), axis=1)
            dtau_parts.append(np.concatenate([[0.0], seg * np.asarray(chi_fn(mids[:, 0], mids[:, 1]))]))
            entry_values.append(float(inflow(entry[0], entry[1]) if callable(inflow) else inflow))
    dtau = np.concatenate(dtau_parts)
    offsets = np.concatenate([[0], np.cumsum([part.size for part in dtau_parts])])
    band = _kernels.band(dtau, offsets)
    boundary = np.zeros_like(dtau)
    boundary[offsets[:-1]] = entry_values
    return families, dtau, band, _kernels.sweep(band, boundary)


def loop_interpolators(pts, grid):
    # per-point loops over the line nodes pts: the reference the vectorized
    # build must reproduce exactly
    rows, cols, vals = [], [], []
    for r, (x, y) in enumerate(pts):
        ix = min(max(int((x - grid.x0) / grid.hx), 0), grid.n_x - 2)
        iy = min(max(int((y - grid.y0) / grid.hy), 0), grid.n_y - 2)
        fx = (x - grid.x_nodes[ix]) / grid.hx
        fy = (y - grid.y_nodes[iy]) / grid.hy
        fx = 0.0 if fx < SNAP else (1.0 if fx > 1.0 - SNAP else fx)
        fy = 0.0 if fy < SNAP else (1.0 if fy > 1.0 - SNAP else fy)
        for jx, jy, w in ((ix, iy, (1.0 - fx) * (1.0 - fy)), (ix + 1, iy, fx * (1.0 - fy)),
                          (ix, iy + 1, (1.0 - fx) * fy), (ix + 1, iy + 1, fx * fy)):
            if w != 0.0:
                rows.append(r)
                cols.append(jx * grid.n_y + jy)
                vals.append(w)
    cart_to_ray = csr_matrix((vals, (rows, cols)), shape=(len(pts), grid.n_space))

    k = min(4, len(pts))
    dist, idx = cKDTree(pts).query(grid.node_xy, k=k)
    dist, idx = dist.reshape(grid.n_space, k), idx.reshape(grid.n_space, k)
    rows, cols, vals = [], [], []
    for r in range(grid.n_space):
        if dist[r, 0] <= SNAP * max(grid.hx, grid.hy):
            rows.append(r)
            cols.append(int(idx[r, 0]))
            vals.append(1.0)
            continue
        inv = 1.0 / dist[r]
        w = inv / inv.sum()
        for j in range(k):
            rows.append(r)
            cols.append(int(idx[r, j]))
            vals.append(float(w[j]))
    return cart_to_ray, csr_matrix((vals, (rows, cols)), shape=(grid.n_space, len(pts)))


def assert_identical(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def assert_csr_identical(got, ref):
    for attr in ("indptr", "indices", "data"):
        assert_identical(getattr(got, attr), getattr(ref, attr))


def assert_family_matches_loop(family, ref_lines):
    assert_identical(family.nodes, np.concatenate([nodes for _, _, nodes in ref_lines]))
    assert_identical(family.node_offsets,
                     np.cumsum([0] + [nodes.shape[0] for _, _, nodes in ref_lines]))
    assert_identical(family.entries, np.array([entry for entry, _, _ in ref_lines]))
    assert_identical(family.lengths, np.array([length for _, length, _ in ref_lines]))


def assert_build_matches_loops(grid, **kwargs):
    """build_transfer_2d equals the per-seed, per-line and per-point loops bit for bit."""
    op = build_transfer_2d(grid, **kwargs)
    ref_families, dtau, band, boundary = loop_transfer_2d(grid, **kwargs)
    for family, pair, ref_lines in zip(op.families, op.blocks, ref_families, strict=True):
        assert_family_matches_loop(family, ref_lines)
        for got, ref in zip(pair, loop_interpolators(family.nodes, grid)):
            assert_csr_identical(got.matrix, ref)
    assert_identical(op.dtau, dtau)
    assert_identical(op.band, band)
    assert_identical(op.boundary, boundary)


# grids and options on which the build must equal the reference loops bit for bit
BUILD_CASES = [
    ((4, 4, 8), {}),
    ((5, 9, 3), {"chi": 1.3, "inflow": 0.7}),
    ((16, 16, 12), {}),
    ((48, 48, 24), {}),
    ((9, 7, 5), {"spacing": 0.07, "node_step": 0.05}),
    ((10, 14, 6), {"chi": lambda x, y: 1.0 + x * y,
                   "inflow": lambda x, y: np.exp(-x) + np.sin(3.0 * y)}),
]


def loop_apply(op, pairs, v):
    # reference: each direction gathered, weighted, swept and scattered on its own
    mat = v.reshape(op.grid.n_space, op.grid.n_rays)
    out = np.empty_like(mat)
    for k, (pair, a, b) in enumerate(zip(pairs, op.offsets[:-1], op.offsets[1:])):
        rhs = pair.cart_to_ray.matrix @ np.ascontiguousarray(mat[:, k])
        rhs *= _kernels.weights(op.band)[a:b]
        out[:, k] = pair.ray_to_cart.matrix @ _kernels.sweep(op.band[:, a:b], rhs)
    return out.ravel()


def loop_boundary(op, pairs):
    out = np.empty((op.grid.n_space, op.grid.n_rays))
    for k, (pair, a, b) in enumerate(zip(pairs, op.offsets[:-1], op.offsets[1:])):
        out[:, k] = pair.ray_to_cart.matrix @ op.boundary[a:b]
    return out.ravel()


def loop_ray_blocks(op, pairs):
    out = np.empty((op.grid.n_rays, op.grid.n_space, op.grid.n_space))
    for k, (pair, a, b) in enumerate(zip(pairs, op.offsets[:-1], op.offsets[1:])):
        cols = pair.cart_to_ray.matrix.toarray(order="F")
        cols *= _kernels.weights(op.band)[a:b, None]
        out[k] = pair.ray_to_cart.matrix @ _kernels.sweep(op.band[:, a:b], cols)
    return out


def assert_stacked_matches_loops(grid, **kwargs):
    """The stacked apply, boundary and ray blocks equal the per-direction loops
    over build_interpolators' own maps, bit for bit."""
    op = build_transfer_2d(grid, **kwargs)
    pairs = [build_interpolators(family, grid) for family in op.families]
    rng = np.random.default_rng(11)
    for v in (rng.standard_normal(grid.n_total), np.ones(grid.n_total)):
        assert_identical(op.apply_space_major(v), loop_apply(op, pairs, v))
    assert_identical(op.boundary_space_major(), loop_boundary(op, pairs))
    if grid.n_rays * grid.n_space**2 <= 2**22:  # 32 MB of blocks
        assert_identical(op.ray_blocks(), loop_ray_blocks(op, pairs))


def owner_bytes(array) -> int:
    """Bytes of the array whose memory array views."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array.nbytes


def held_sparse_bytes(value) -> int:
    """Bytes of the sparse arrays reachable from value through fields, lists and
    tuples, counting the whole array that each one views."""
    if issparse(value):
        return sum(owner_bytes(getattr(value, attr)) for attr in ("indptr", "indices", "data"))
    if isinstance(value, (list, tuple)):
        return sum(held_sparse_bytes(v) for v in value)
    if hasattr(value, "__dict__"):
        return sum(held_sparse_bytes(v) for v in vars(value).values())
    return 0


@pytest.fixture
def unit_grid_4():
    return CartesianGrid2D(4, 4, 8)


@pytest.fixture
def unit_grid_8():
    return CartesianGrid2D(8, 8, 8)


class TestTraceRays:
    def test_diagonal_five_line_cover(self, unit_grid_4):
        family = trace_rays(unit_grid_4, (1.0, 1.0))
        assert len(family.lines) == 5
        lengths = [ln.length for ln in family.lines]
        counts = [ln.n_nodes for ln in family.lines]
        # the longest (main diagonal) line carries the most nodes
        assert counts[int(np.argmax(lengths))] == max(counts)
        assert max(lengths) == pytest.approx(math.sqrt(2.0))
        assert family.n_nodes == sum(counts)

    def test_axis_aligned_rows(self, unit_grid_4):
        family = trace_rays(unit_grid_4, (1.0, 0.0))
        assert len(family.lines) == 4
        for line in family.lines:
            assert np.allclose(line.nodes[:, 1], line.nodes[0, 1])
            assert line.n_nodes == 4
            np.testing.assert_allclose(np.diff(line.nodes[:, 0]), unit_grid_4.hx)

    def test_all_nodes_inside_domain(self, unit_grid_8):
        for k in range(unit_grid_8.n_rays):
            family = trace_rays(unit_grid_8, unit_grid_8.directions[k])
            pts = family.nodes
            assert np.all(pts[:, 0] >= unit_grid_8.x0 - 1e-12)
            assert np.all(pts[:, 0] <= unit_grid_8.x1 + 1e-12)
            assert np.all(pts[:, 1] >= unit_grid_8.y0 - 1e-12)
            assert np.all(pts[:, 1] <= unit_grid_8.y1 + 1e-12)
            assert all(ln.n_nodes >= 2 for ln in family.lines)

    def test_zero_direction_rejected(self, unit_grid_4):
        with pytest.raises(ValueError, match="direction must be nonzero"):
            trace_rays(unit_grid_4, (0.0, 0.0))

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
    @pytest.mark.parametrize("override", ["spacing", "node_step"])
    def test_invalid_spacing_rejected(self, unit_grid_4, override, bad):
        with pytest.raises(ValueError, match="must be positive and finite"):
            trace_rays(unit_grid_4, (1.0, 1.0), **{override: bad})

    def test_no_line_rejected(self, unit_grid_4):
        # the one seed sits on the bottom-left corner, and the line leaves at once
        with pytest.raises(ValueError, match="no line intersects the domain"):
            trace_rays(unit_grid_4, (1.0, -1e-15), spacing=10.0)

    @pytest.mark.parametrize("direction", [(1.0, 0.0), (1.0, 1.0), (0.0, -2.0), (-1.0, 0.3)])
    @pytest.mark.parametrize("shape, domain, spacing, node_step", [
        ((4, 4, 1), (0.0, 1.0, 0.0, 1.0), None, None),
        ((5, 9, 1), (0.0, 1.0, 0.0, 1.0), None, None),
        ((7, 6, 1), (-1.0, 2.5, 0.3, 1.1), 0.15, 0.05),
        ((6, 6, 1), (0.0, 2.0, 0.0, 1.0), 0.27, None),
        # the seed at 3 * 0.3 = 0.8999999999999999 starts a line 1.6e-16 long, dropped
        ((4, 4, 1), (0.0, 0.9, 0.0, 1.0), 0.3, None),
    ])
    def test_matches_per_seed_loop(self, direction, shape, domain, spacing, node_step):
        grid = CartesianGrid2D(*shape, domain=domain)
        family = trace_rays(grid, direction, spacing=spacing, node_step=node_step)
        ref_lines = loop_trace_rays(grid, direction, spacing, node_step)
        assert_family_matches_loop(family, ref_lines)
        for line, (entry, length, nodes) in zip(family.lines, ref_lines, strict=True):
            assert_identical(line.entry, entry)
            assert line.length == length and line.n_nodes == nodes.shape[0]
            assert_identical(line.nodes, nodes)

    def test_diagonal_merges_corner_seeds_and_drops_corner_lines(self, unit_grid_4):
        # four seeds on each upstream edge share the corner (0, 0); the lines
        # from (0, 1) and (1, 0) have zero length
        family = trace_rays(unit_grid_4, (1.0, 1.0))
        assert len(family.lines) == 4 + 4 - 1 - 2
        assert family.lengths.min() > 0.0
        np.testing.assert_array_equal(family.entries[2], [0.0, 0.0])


class TestInterpolators:
    def test_partition_of_unity(self, unit_grid_8):
        family = trace_rays(unit_grid_8, unit_grid_8.directions[1])
        c2r, r2c = build_interpolators(family, unit_grid_8)
        np.testing.assert_allclose(c2r.matrix @ np.ones(unit_grid_8.n_space), 1.0, atol=1e-14)
        np.testing.assert_allclose(r2c.matrix @ np.ones(family.n_nodes), 1.0, atol=1e-14)

    def test_row_sums_and_ranges(self, unit_grid_8):
        family = trace_rays(unit_grid_8, unit_grid_8.directions[2])
        for interp in build_interpolators(family, unit_grid_8):
            np.testing.assert_allclose(interp.row_sums(), 1.0, atol=1e-14)
            dense = interp.matrix.toarray()
            assert np.all(dense >= 0.0) and np.all(dense <= 1.0)
            # nonnegative rows summing to one: infinity norm is exactly one
            assert np.abs(dense).sum(axis=1).max() <= 1.0 + 1e-14
            assert np.max((dense != 0).sum(axis=1)) <= 4

    def test_bilinear_exact_on_linear_field(self, unit_grid_8):
        family = trace_rays(unit_grid_8, unit_grid_8.directions[1])
        c2r, _ = build_interpolators(family, unit_grid_8)
        field = unit_grid_8.node_xy[:, 0]  # f(x, y) = x
        at_nodes = c2r.matrix @ field
        np.testing.assert_allclose(at_nodes, family.nodes[:, 0], atol=1e-13)

    def test_axis_aligned_selection(self, unit_grid_4):
        family = trace_rays(unit_grid_4, (1.0, 0.0))
        c2r, _ = build_interpolators(family, unit_grid_4)
        dense = c2r.matrix.toarray()
        assert np.all((dense == 0.0) | (dense == 1.0))
        assert np.all(dense.sum(axis=1) == 1.0)

    @pytest.mark.parametrize("shape", [(5, 9, 3), (8, 8, 8), (12, 10, 8)])
    def test_matches_per_point_loops(self, shape):
        grid = CartesianGrid2D(*shape)
        for direction in grid.directions:
            family = trace_rays(grid, direction)
            pair = build_interpolators(family, grid)
            for got, ref in zip(pair, loop_interpolators(family.nodes, grid)):
                assert_csr_identical(got.matrix, ref)

    def test_untied_rows_match_brute_force_four_nearest(self):
        # the tree decides only among equidistant line nodes: every row whose
        # 4th and 5th nearest distances differ keeps the brute-force 4-set (a
        # node on a line keeps its nearest line node alone)
        grid = CartesianGrid2D(16, 16, 12)
        h = max(grid.hx, grid.hy)
        checked = tied = 0
        for direction in grid.directions:
            family = trace_rays(grid, direction)
            r2c = build_interpolators(family, grid).ray_to_cart.matrix
            dist = np.linalg.norm(grid.node_xy[:, None, :] - family.nodes[None, :, :], axis=2)
            nearest = np.argsort(dist, axis=1, kind="stable")[:, :5]
            d = np.take_along_axis(dist, nearest, axis=1)
            for row in range(grid.n_space):
                cols = r2c.indices[r2c.indptr[row]:r2c.indptr[row + 1]]
                m = cols.size
                if d[row, m] - d[row, m - 1] <= 1e-12 * h:
                    tied += 1
                    continue
                assert set(cols) == set(nearest[row, :m]), (direction, row)
                checked += 1
        assert checked > 0.9 * grid.n_space * grid.n_rays
        assert tied > 0  # the rule is stated on a grid that has ties

    def test_coverage_error_for_sparse_family(self, unit_grid_8):
        family = trace_rays(unit_grid_8, (1.0, 0.0), spacing=10.0)
        with pytest.raises(CoverageError):
            build_interpolators(family, unit_grid_8)


class TestTransfer2D:
    def test_identity_boundary_sanity(self, unit_grid_8):
        # transparent medium: inflow reaches every node unattenuated
        op = build_transfer_2d(unit_grid_8, chi=0.0, inflow=1.0)
        np.testing.assert_allclose(op.boundary_space_major(), 1.0, atol=1e-13)

    def test_thick_limit_reproduces_source(self, unit_grid_8):
        op = build_transfer_2d(unit_grid_8, chi=1e8)
        out = op.apply_space_major(np.ones(unit_grid_8.n_total))
        mat = out.reshape(unit_grid_8.n_space, unit_grid_8.n_rays)
        interior = []
        for i, (x, y) in enumerate(unit_grid_8.node_xy):
            if 0.2 < x < 0.8 and 0.2 < y < 0.8:
                interior.append(i)
        np.testing.assert_allclose(mat[interior], 1.0, atol=1e-5)

    @pytest.mark.parametrize("chi", [math.nan, lambda x, y: np.where(x > 0.5, math.inf, 1.0)])
    def test_non_finite_opacity_rejected(self, unit_grid_4, chi):
        with pytest.raises(ValueError, match="optical-depth increments must be finite"):
            build_transfer_2d(unit_grid_4, chi=chi)

    @pytest.mark.parametrize("inflow", [math.inf, math.nan,
                                        lambda x, y: np.where(y > 0.5, math.nan, 1.0)])
    def test_non_finite_inflow_rejected(self, unit_grid_4, inflow):
        with pytest.raises(ValueError, match="boundary intensities must be finite"):
            build_transfer_2d(unit_grid_4, inflow=inflow)

    def test_callable_inflow_receives_entry_arrays(self, unit_grid_4):
        seen = []
        op = build_transfer_2d(unit_grid_4, inflow=lambda x, y: seen.append((x, y)) or x + y)
        entries = np.concatenate([fam.entries for fam in op.families])
        (x, y), = seen
        assert_identical(x, entries[:, 0])
        assert_identical(y, entries[:, 1])

    @pytest.mark.parametrize("shape, kwargs", BUILD_CASES)
    def test_matches_per_line_loops(self, shape, kwargs):
        assert_build_matches_loops(CartesianGrid2D(*shape), **kwargs)

    def test_matches_per_line_loops_on_shifted_domain(self):
        grid = CartesianGrid2D(7, 11, 6, domain=(-1.0, 2.5, 0.3, 1.1))
        assert_build_matches_loops(grid, chi=lambda x, y: 0.5 + x**2, inflow=lambda x, y: y - x,
                                   spacing=0.1, node_step=0.04)

    def test_matrix_free_matches_dense_composition(self, unit_grid_8):
        op = build_transfer_2d(unit_grid_8, chi=1.3)
        dense = op.materialize()
        rng = np.random.default_rng(5)
        for _ in range(5):
            v = rng.standard_normal(unit_grid_8.n_total)
            np.testing.assert_allclose(op.apply_space_major(v), dense @ v,
                                       rtol=1e-12, atol=1e-13)

    def test_lines_independent(self, unit_grid_8):
        # one family, constant source: each line reproduces its own 1D solution,
        # the scaled recursion acc = r * acc + w * 1 run along that line alone
        op = build_transfer_2d(unit_grid_8, chi=0.9)
        first, last = op.offsets[3], op.offsets[4]
        dtau, lines = op.dtau[first:last], op.families[3].node_offsets
        from rtkrylov import _kernels

        r, w = 1.0 / (1.0 + dtau), dtau / (1.0 + dtau)
        swept = _kernels.sweep(op.band[:, first:last], w.copy())  # unit source
        for l in range(lines.size - 1):
            a, b = lines[l], lines[l + 1]
            expected = np.zeros(b - a)
            for i in range(1, b - a):
                expected[i] = r[a + i] * expected[i - 1] + w[a + i]
            # a fused or unfused multiply-add: under 2 ulps of the largest value per step
            np.testing.assert_allclose(swept[a:b], expected, rtol=0,
                                       atol=2 * (b - a) * np.finfo(float).eps * expected.max())
            np.testing.assert_allclose(swept[a:b], lower_block(dtau[a + 1:b]) @ np.ones(b - a),
                                       rtol=1e-13, atol=1e-15)


class TestStackedMaps:
    """One gather and one scatter map hold the interpolators of every direction."""

    @pytest.mark.parametrize("shape, kwargs", BUILD_CASES + [((8, 8, 1), {"inflow": 1.0})])
    def test_matches_per_direction_loops(self, shape, kwargs):
        assert_stacked_matches_loops(CartesianGrid2D(*shape), **kwargs)

    def test_matches_per_direction_loops_on_shifted_domain(self):
        grid = CartesianGrid2D(7, 11, 6, domain=(-1.0, 2.5, 0.3, 1.1))
        assert_stacked_matches_loops(grid, chi=lambda x, y: 0.5 + x**2,
                                     inflow=lambda x, y: y - x, spacing=0.1, node_step=0.04)

    @pytest.mark.parametrize("shape", [(16, 16, 12), (48, 48, 24)])
    def test_sparse_storage_held_once(self, shape):
        # no more than the per-direction maps, and nothing besides the two stacked ones
        grid = CartesianGrid2D(*shape)
        op = build_transfer_2d(grid)
        per_direction = sum(held_sparse_bytes(build_interpolators(family, grid))
                            for family in op.families)
        assert held_sparse_bytes(op) == held_sparse_bytes((op.gather, op.scatter))
        assert held_sparse_bytes(op) <= per_direction

    def test_layout(self, unit_grid_8):
        # gather rows are line nodes, scatter rows space-major unknowns; the
        # unknown of Cartesian node c and direction k is c * n_rays + k
        op = build_transfer_2d(unit_grid_8)
        g, n_lines = unit_grid_8, op.offsets[-1]
        assert op.gather.shape == (n_lines, g.n_total) and op.scatter.shape == (g.n_total, n_lines)
        for m in (op.gather, op.scatter):
            assert m.indices.dtype == m.indptr.dtype == np.int32
        direction = np.repeat(np.arange(g.n_rays), np.diff(op.offsets))  # of each line node
        rows = np.repeat(np.arange(n_lines), np.diff(op.gather.indptr))
        assert np.array_equal(op.gather.indices % g.n_rays, direction[rows])
        rows = np.repeat(np.arange(g.n_total), np.diff(op.scatter.indptr))
        assert np.array_equal(direction[op.scatter.indices], rows % g.n_rays)

    def test_blocks_derived_and_read_only(self, unit_grid_8):
        op = build_transfer_2d(unit_grid_8)
        assert "blocks" not in {field.name for field in dataclasses.fields(op)}
        for pair in op.blocks:
            for interpolator in pair:
                for attr in ("indptr", "indices", "data"):
                    with pytest.raises(ValueError, match="read-only"):
                        getattr(interpolator.matrix, attr)[0] = 0
        assert_stacked_matches_loops(unit_grid_8)


class TestThreadedBuild:
    """The directions are built on a thread pool; the result must not show it."""

    def test_without_affinity_sized_from_cpu_count(self, monkeypatch):
        # macOS and Windows have no sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert multidim._usable_cores() == (os.cpu_count() or 1)
        assert_build_matches_loops(CartesianGrid2D(16, 16, 12))
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert multidim._usable_cores() == 1

    @pytest.mark.parametrize("kwargs, error, message", [
        ({"spacing": 10.0}, CoverageError, "ray family too sparse"),
        ({"node_step": math.nan}, ValueError, "spacing and node_step must be positive and finite"),
    ])
    def test_worker_error_raised_unchanged(self, unit_grid_8, kwargs, error, message):
        threads = threading.active_count()
        with pytest.raises(error, match=message) as info:
            build_transfer_2d(unit_grid_8, **kwargs)
        assert info.type is error
        assert threading.active_count() == threads

    def test_concurrent_builds_match_sequential(self):
        grid = CartesianGrid2D(24, 24, 16)
        ref = build_transfer_2d(grid)
        start = threading.Barrier(2, timeout=60)
        results, errors = [None, None], []

        def build(i):
            try:
                start.wait()
                results[i] = build_transfer_2d(grid)
            except Exception as exc:  # reported by the main thread below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for op in results:
            for fam, pair, ref_fam, ref_pair in zip(op.families, op.blocks,
                                                     ref.families, ref.blocks, strict=True):
                for attr in ("nodes", "node_offsets", "entries", "lengths"):
                    assert_identical(getattr(fam, attr), getattr(ref_fam, attr))
                for got, want in zip(pair, ref_pair, strict=True):
                    assert_csr_identical(got.matrix, want.matrix)
            for attr in ("dtau", "band", "boundary", "offsets"):
                assert_identical(getattr(op, attr), getattr(ref, attr))


class TestProblem2D:
    def test_gamma_zero_identity(self):
        p = anisotropic_2d(6, 6, 8, gamma_scale=0.0)
        rng = np.random.default_rng(6)
        v = rng.standard_normal(p.n_total)
        assert np.array_equal(apply_A(p, v), v)

    def test_apply_matches_dense(self):
        p = anisotropic_2d(8, 8, 8)
        dense = materialize_A(p)
        rng = np.random.default_rng(7)
        for _ in range(5):
            v = rng.standard_normal(p.n_total)
            np.testing.assert_allclose(apply_A(p, v), dense @ v, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("coefficients", [(1.0,), None])  # isotropic, degree-7
    def test_gmres_robust_under_refinement(self, coefficients):
        iters = []
        for n in (8, 16):
            p = anisotropic_2d(n, n, 8, coefficients=coefficients)
            b = build_rhs(p, override_ones=True)
            rep = gmres(lambda v: apply_A(p, v), b, SolveConfig(rel_tol=1e-12, max_iter=100))
            assert rep.converged
            iters.append(rep.iterations)
        assert abs(iters[1] - iters[0]) <= 3
