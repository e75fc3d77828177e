import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

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


def loop_interpolators(family, grid):
    # per-point loops: the reference the vectorized build must reproduce exactly
    rows, cols, vals = [], [], []
    for r, (x, y) in enumerate(family.all_nodes()):
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
    cart_to_ray = csr_matrix((vals, (rows, cols)), shape=(family.n_nodes, grid.n_space))

    k = min(4, family.n_nodes)
    dist, idx = cKDTree(family.all_nodes()).query(grid.node_xy, k=k)
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
    return cart_to_ray, csr_matrix((vals, (rows, cols)), shape=(grid.n_space, family.n_nodes))


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
            pts = family.all_nodes()
            assert np.all(pts[:, 0] >= unit_grid_8.x0 - 1e-12)
            assert np.all(pts[:, 0] <= unit_grid_8.x1 + 1e-12)
            assert np.all(pts[:, 1] >= unit_grid_8.y0 - 1e-12)
            assert np.all(pts[:, 1] <= unit_grid_8.y1 + 1e-12)
            assert all(ln.n_nodes >= 2 for ln in family.lines)

    def test_zero_direction_rejected(self, unit_grid_4):
        with pytest.raises(ValueError):
            trace_rays(unit_grid_4, (0.0, 0.0))


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
        np.testing.assert_allclose(at_nodes, family.all_nodes()[:, 0], atol=1e-13)

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
            for got, ref in zip(pair, loop_interpolators(family, grid)):
                for attr in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(got.matrix, attr), getattr(ref, attr))

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
        with pytest.raises(ValueError):
            build_transfer_2d(unit_grid_4, chi=chi)

    def test_matrix_free_matches_dense_composition(self, unit_grid_8):
        op = build_transfer_2d(unit_grid_8, chi=1.3)
        dense = op.materialize()
        rng = np.random.default_rng(5)
        for _ in range(5):
            v = rng.standard_normal(unit_grid_8.n_total)
            np.testing.assert_allclose(op.apply_space_major(v), dense @ v,
                                       rtol=1e-12, atol=1e-13)

    def test_lines_independent(self, unit_grid_8):
        # one family, constant source: each line reproduces its own 1D solution
        op = build_transfer_2d(unit_grid_8, chi=0.9)
        first, last = op.offsets[3], op.offsets[4]
        dtau, lines = op.dtau[first:last], op.families[3].node_offsets
        from rtkrylov import _kernels

        swept = _kernels.sweep(op.band[:, first:last], dtau.copy())  # unit source
        for l in range(lines.size - 1):
            a, b = lines[l], lines[l + 1]
            expected = lower_block(dtau[a + 1:b]) @ np.ones(b - a)
            np.testing.assert_allclose(swept[a:b], expected, rtol=1e-13, atol=1e-15)


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
