import warnings

import numpy as np
import pytest

from rtkrylov import presets, transfer
from rtkrylov.errors import ResourceLimitError
from rtkrylov.grid import Grid, build_grid
from rtkrylov.transfer import LANE_MIN_RAYS, build_transfer, lower_block, materialize_transfer


def single_ray_grid(mu, n_space, dtau_value=1.0):
    # spatial step chosen so that every optical-depth increment equals dtau_value
    dt = dtau_value * abs(mu)
    t = np.arange(n_space) * dt
    return Grid(t, np.array([mu]), np.array([1.0]), np.array([0.0]), np.array([1.0]))


def varied_ray_grid(mu, dtau):
    # one ray whose optical-depth increments are close to dtau; the test
    # reads the exact ones back with delta_tau_table
    t = np.concatenate([[0.0], np.cumsum(dtau * abs(mu))])
    g = Grid(t, np.array([mu]), np.array([1.0]), np.array([0.0]), np.array([1.0]))
    return g, g.delta_tau_table()[0]


def attenuation(dtau):
    # share of the inflow reaching each node of a ray in marching order:
    # f_1 = 1, f_i = 1 / prod_{l<i} (1 + dtau_l)
    return np.array([1.0 / np.prod(1.0 + dtau[:i]) for i in range(dtau.size + 1)])


def oracle_lower_block(dtau):
    # nested-loop transcription of the closed-form coefficients (1-based indices):
    # f_{i,j} = dtau_{j-1} / prod_{l=j..i} (1 + dtau_{l-1})
    n = dtau.size + 1
    out = np.zeros((n, n))
    for i in range(2, n + 1):
        for j in range(2, i + 1):
            prod = 1.0
            for l in range(j, i + 1):
                prod *= 1.0 + dtau[l - 2]
            out[i - 1, j - 1] = dtau[j - 2] / prod
    return out


def oracle_upper_block(dtau):
    # h_{i,j} = dtau_j / prod_{l=i..j} (1 + dtau_l)
    n = dtau.size + 1
    out = np.zeros((n, n))
    for i in range(1, n):
        for j in range(i, n):
            prod = 1.0
            for l in range(i, j + 1):
                prod *= 1.0 + dtau[l - 1]
            out[i - 1, j - 1] = dtau[j - 1] / prod
    return out


class TestCoefficients:
    def test_single_step_down(self):
        blk = lower_block(np.array([1.0]))
        assert blk[1, 1] == pytest.approx(0.5)
        assert blk[0, 0] == 0.0 and blk[0, 1] == 0.0
        op = build_transfer(single_ray_grid(mu=-0.5, n_space=2), i_in_surf=1.0)
        np.testing.assert_allclose(op.boundary_space_major(), [1.0, 0.5])

    def test_hand_unrolled_three_nodes_down(self):
        blk = lower_block(np.ones(2))
        op = build_transfer(single_ray_grid(mu=-0.5, n_space=3), i_in_surf=1.0)
        np.testing.assert_allclose(op.boundary_space_major(), [1.0, 0.5, 0.25])
        assert blk[2, 1] == pytest.approx(0.25)
        assert blk[2, 2] == pytest.approx(0.5)

    def test_hand_unrolled_three_nodes_up(self):
        blk = materialize_transfer(build_transfer(single_ray_grid(mu=0.5, n_space=3)))
        assert blk[0, 0] == pytest.approx(0.5)
        assert blk[0, 1] == pytest.approx(0.25)
        assert blk[1, 1] == pytest.approx(0.5)
        assert np.all(blk[-1] == 0.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_blocks_match_nested_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dtau = rng.uniform(0.05, 3.0, size=9)
        np.testing.assert_allclose(lower_block(dtau), oracle_lower_block(dtau), rtol=1e-14)
        for mu, oracle in ((-0.3, oracle_lower_block), (0.3, oracle_upper_block)):
            g, exact = varied_ray_grid(mu, dtau)
            np.testing.assert_allclose(materialize_transfer(build_transfer(g)), oracle(exact),
                                       rtol=1e-14)

    def test_coefficient_ranges_and_row_sums(self):
        rng = np.random.default_rng(5)
        dtau = rng.uniform(0.01, 10.0, size=19)
        g, up_dtau = varied_ray_grid(0.4, dtau)
        low, up = lower_block(dtau), materialize_transfer(build_transfer(g))
        low_dec, up_dec = attenuation(dtau), attenuation(up_dtau[::-1])[::-1]
        for blk, dec in ((low, low_dec), (up, up_dec)):
            nonzero = blk[blk != 0.0]
            assert np.all((nonzero > 0.0) & (nonzero < 1.0))
            assert np.all((dec > 0.0) & (dec <= 1.0))
            # telescoping: sum of row coefficients plus decay equals 1
            assert np.all(blk.sum(axis=1) <= 1.0 + 1e-12)
        np.testing.assert_allclose(low.sum(axis=1) + low_dec, 1.0, rtol=1e-12)
        rows = np.arange(dtau.size)  # all but the outflow boundary row
        np.testing.assert_allclose(up.sum(axis=1)[rows] + up_dec[rows], 1.0, rtol=1e-12)


class TestApply:
    def test_zero_source(self):
        g = build_grid(n_space=6, n_angles=4, n_freq=1, t_surf=0.0, t_deep=1.0)
        op = build_transfer(g, i_in_deep=1.0, i_in_surf=0.0)
        out = op.apply_space_major(np.zeros(g.n_total))
        assert np.all(out == 0.0)

    def test_two_node_single_down_ray(self):
        g = single_ray_grid(mu=-0.5, n_space=2, dtau_value=1.0)
        op = build_transfer(g)
        s = np.array([3.0, 4.0])
        out = op.apply_space_major(s)
        np.testing.assert_allclose(out, [0.0, 0.5 * 4.0])

    # (4, 24, 12) has 288 rays and sweeps lanes, the others the band
    @pytest.mark.parametrize("n_space,n_angles,n_freq",
                             [(7, 4, 3), (25, 6, 5), (40, 12, 1), (4, 24, 12)])
    def test_matches_dense_materialization(self, n_space, n_angles, n_freq):
        g = build_grid(n_space, n_angles, n_freq, 0.0, 1.0,
                       profile=lambda nu: 1.0 / (np.pi * (nu**2 + 1.0)))
        op = build_transfer(g, i_in_deep=1.0)
        dense = materialize_transfer(op)
        rng = np.random.default_rng(42)
        for _ in range(10):
            s = rng.standard_normal(g.n_total)
            out = op.apply_space_major(s)
            ref = dense @ s
            np.testing.assert_allclose(out, ref, rtol=1e-13, atol=1e-15)

    def test_length_mismatch(self):
        g = build_grid(5, 2, 1, 0.0, 1.0)
        op = build_transfer(g)
        with pytest.raises(ValueError):
            op.apply_space_major(np.zeros(7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_increments_rejected(self, bad):
        g = build_grid(5, 2, 3, 0.0, 1.0, profile=lambda nu: np.where(nu > 0, bad, 1.0))
        with pytest.raises(ValueError):
            build_transfer(g)

    @pytest.mark.parametrize("side", ["i_in_deep", "i_in_surf"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, [1.0, np.nan, 1.0]])
    def test_non_finite_boundary_rejected(self, side, bad):
        g = build_grid(5, 2, 3, 0.0, 1.0)
        with pytest.raises(ValueError, match="boundary intensities must be finite"):
            build_transfer(g, **{side: bad})

    def test_pure_absorption_decays_along_propagation(self):
        g = build_grid(30, 4, 1, 0.0, 1.0)
        op = build_transfer(g, i_in_deep=1.0, i_in_surf=1.0)
        full = op.boundary_space_major()  # S = 0 -> intensity is just the boundary part
        mat = full.reshape(g.n_space, g.n_rays)
        for k, ray in enumerate(g.rays):
            ray_profile = mat[:, k]
            if ray.mu < 0:  # enters at t_surf, marches toward deep
                assert np.all(np.diff(ray_profile) < 0)
            else:  # enters at t_deep, marches toward surface
                assert np.all(np.diff(ray_profile) > 0)


class TestBoundaryTerm:
    def test_reference_setting_downward_zero(self):
        g = build_grid(8, 6, 1, 0.0, 1.0)
        op = build_transfer(g, i_in_deep=1.0, i_in_surf=0.0)
        vals = op.boundary_space_major().reshape(g.n_space, g.n_rays)
        down = np.array([r.mu < 0 for r in g.rays])
        assert np.all(vals[:, down] == 0.0)
        assert np.all(vals[:, ~down] > 0.0)

    def test_hand_unrolled_up_ray(self):
        g = single_ray_grid(mu=0.5, n_space=3, dtau_value=1.0)
        op = build_transfer(g, i_in_deep=1.0, i_in_surf=0.0)
        np.testing.assert_allclose(op.boundary_space_major(), [0.25, 0.5, 1.0])

    def test_zero_inflow(self):
        g = build_grid(6, 4, 2, 0.0, 1.0)
        op = build_transfer(g)
        assert np.all(op.boundary_space_major() == 0.0)

    def test_boundary_nodes_carry_exact_inflow(self):
        g = build_grid(12, 4, 1, 0.0, 1.0)
        op = build_transfer(g, i_in_deep=2.5, i_in_surf=1.5)
        vals = op.boundary_space_major().reshape(g.n_space, g.n_rays)
        for k, ray in enumerate(g.rays):
            if ray.mu < 0:
                assert vals[0, k] == 2.5 or vals[0, k] == 1.5
                assert vals[0, k] == 1.5  # fed from the surface
            else:
                assert vals[-1, k] == 2.5  # fed from depth


class TestMaterialize:
    def test_single_ray_equals_block(self):
        g = single_ray_grid(mu=-0.5, n_space=5, dtau_value=0.7)
        op = build_transfer(g)
        dense = materialize_transfer(op)
        np.testing.assert_allclose(dense, lower_block(np.full(4, 0.7)), rtol=1e-14)

    def test_block_structure_in_ray_major(self):
        g = build_grid(6, 4, 2, 0.0, 1.0)
        op = build_transfer(g)
        dense = materialize_transfer(op)  # space-major
        n_s, n_r = g.n_space, g.n_rays
        tilde = dense.reshape(n_s, n_r, n_s, n_r).transpose(1, 0, 3, 2).reshape(g.n_total, g.n_total)
        for k in range(n_r):
            for kp in range(n_r):
                blk = tilde[k * n_s:(k + 1) * n_s, kp * n_s:(kp + 1) * n_s]
                if k != kp:
                    assert np.all(blk == 0.0)  # rays never couple
                elif g.rays[k].mu < 0:
                    assert np.all(blk[0] == 0.0)
                    assert np.all(np.triu(blk, 1) == 0.0)
                else:
                    assert np.all(blk[-1] == 0.0)
                    assert np.all(np.tril(blk, -1) == 0.0)

    def test_permutation_relation_exact(self):
        g = build_grid(4, 2, 3, 0.0, 1.0)
        op = build_transfer(g)
        dense = materialize_transfer(op)
        n = g.n_total
        # P maps space-major to ray-major: row r of P has a 1 at column s(r)
        perm = np.zeros((n, n))
        for k in range(g.n_rays):
            for i in range(g.n_space):
                perm[k * g.n_space + i, i * g.n_rays + k] = 1.0
        tilde = perm @ dense @ perm.T
        assert np.array_equal(perm.T @ tilde @ perm, dense)

    def test_cap_enforced(self):
        g = build_grid(30, 4, 1, 0.0, 1.0)
        op = build_transfer(g)
        with pytest.raises(ResourceLimitError):
            materialize_transfer(op, dense_cap=100)

    def test_singular_value_cluster_under_space_refinement(self):
        # strong zero cluster: outliers above a fixed threshold stay O(1).
        # The count at n_space = 50 still under-resolves grazing rays
        # (steps with dtau ~ 0.6), so the bounded-tail check starts at 100.
        counts = []
        fro = []
        for n_space in (50, 100, 200):
            g = build_grid(n_space, 12, 1, 0.0, 1.0)
            op = build_transfer(g)
            dense = materialize_transfer(op)
            sv = np.linalg.svd(dense, compute_uv=False)
            counts.append(int(np.sum(sv > 0.1)))
            fro.append(np.linalg.norm(dense))
        assert counts[2] <= counts[1] + 2
        assert abs(counts[2] - counts[1]) < abs(counts[1] - counts[0])
        assert max(fro) / min(fro) < 1.1


RAY_BLOCK_CASES = [
    pytest.param(("mono", dict(n_space=9, n_angles=6)), id="mono"),
    # down and up rays at each frequency
    pytest.param(("crd", dict(n_space=7, n_angles=4, n_freq=3)), id="crd"),
    pytest.param(("crd", dict(n_space=4, n_angles=24, n_freq=12)), id="crd-lanes"),  # 288 rays
    pytest.param(("aniso2d", dict(n_x=5, n_y=4, n_angles=6)), id="aniso2d"),
]


def diagonal_blocks(dense, grid):
    view = dense.reshape(grid.n_space, grid.n_rays, grid.n_space, grid.n_rays)
    return np.stack([view[:, k, :, k] for k in range(grid.n_rays)])


class TestRayBlocks:
    @pytest.fixture(params=RAY_BLOCK_CASES)
    def problem(self, request):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return presets.build(request.param[0], **request.param[1])

    def test_match_diagonal_blocks_of_materialization(self, problem):
        op, g = problem.transfer, problem.grid
        blocks = op.ray_blocks()
        assert blocks.shape == (g.n_rays, g.n_space, g.n_space)
        np.testing.assert_allclose(blocks, diagonal_blocks(op.materialize(), g),
                                   rtol=1e-13, atol=1e-15)

    def test_match_apply_of_unit_vectors(self, problem):
        # the apply sweeps the same right-hand side column by column
        op, g = problem.transfer, problem.grid
        applied = np.column_stack([op.apply_space_major(e) for e in np.eye(g.n_total)])
        assert np.array_equal(op.ray_blocks(), diagonal_blocks(applied, g))


def held_bytes(op):
    return sum(value.nbytes for value in vars(op).values() if isinstance(value, np.ndarray))


class TestSweepLayout:
    """Wide problems sweep position-major lanes, narrow ones the band; the
    choice is the ray count against LANE_MIN_RAYS."""

    @pytest.mark.parametrize("n_freq,lanes", [(10, False), (11, True)])
    def test_chosen_by_ray_count(self, n_freq, lanes):
        g = build_grid(3, 24, n_freq, 0.0, 1.0)  # 240 or 264 rays
        op = build_transfer(g)
        assert (g.n_rays >= LANE_MIN_RAYS) == lanes
        assert (op.lanes is not None) == lanes and (op.band is None) == lanes

    def test_lane_storage_replaces_band(self, monkeypatch):
        g = build_grid(4, 24, 12, 0.0, 1.0)
        op = build_transfer(g, i_in_deep=1.0)
        assert op.band is None and op.lanes.shape == (2, g.n_space, g.n_rays)
        monkeypatch.setattr(transfer, "LANE_MIN_RAYS", g.n_rays + 1)
        banded = build_transfer(g, i_in_deep=1.0)
        assert banded.lanes is None
        assert held_bytes(op) == held_bytes(banded)
        # the two layouts run the same recursion: the boundary has no
        # multiply-add to fuse, and the apply differs by rounding alone
        assert np.array_equal(op.boundary_space_major(), banded.boundary_space_major())
        v = np.random.default_rng(8).standard_normal(g.n_total)
        np.testing.assert_allclose(op.apply_space_major(v), banded.apply_space_major(v),
                                   rtol=0, atol=2 * g.n_space * np.finfo(float).eps
                                   * np.abs(v).max())
