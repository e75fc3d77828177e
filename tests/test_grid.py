import math

import numpy as np
import pytest

from rtkrylov.grid import FieldVector, Grid, Ordering, build_grid, permute


def delta_tau(grid, ray, interval):
    # optical-depth increment phi(nu) * (t_{i+1} - t_i) / |mu| of one ray over
    # the 0-based interval i: the oracle for Grid.delta_tau_table
    dt = grid.t_nodes[interval + 1] - grid.t_nodes[interval]
    return float(np.asarray(grid.profile(ray.nu), dtype=float)) * dt / abs(ray.mu)


def lorentzian(nu):
    return 1.0 / (np.pi * (nu**2 + 1.0))


@pytest.fixture
def poly_grid():
    return build_grid(
        n_space=5, n_angles=4, n_freq=3, t_surf=0.0, t_deep=1.0,
        f_lo=-10.0, f_hi=10.0, profile=lorentzian,
    )


class TestBuildGrid:
    def test_equidistant_nodes(self):
        g = build_grid(n_space=3, n_angles=2, n_freq=1, t_surf=0.0, t_deep=1.0)
        np.testing.assert_allclose(g.t_nodes, [0.0, 0.5, 1.0])

    def test_single_point_gl_half_intervals(self):
        # 1-point GL on [-1,0) and (0,1] puts the nodes at the midpoints
        g = build_grid(n_space=2, n_angles=2, n_freq=1, t_surf=0.0, t_deep=1.0)
        assert g.rays[0].mu == pytest.approx(-0.5)
        assert g.rays[1].mu == pytest.approx(0.5)
        assert g.rays[0].angular_weight == pytest.approx(1.0)
        assert g.rays[1].angular_weight == pytest.approx(1.0)

    def test_total_size(self):
        g = build_grid(n_space=10, n_angles=12, n_freq=1, t_surf=0.0, t_deep=1.0)
        assert g.n_rays == 12
        assert g.n_total == 120

    def test_mu_never_zero_and_split(self, poly_grid):
        mus = np.array([r.mu for r in poly_grid.rays])
        assert np.all(mus != 0.0)
        assert np.sum(mus < 0) == poly_grid.n_rays // 2
        assert np.sum(mus > 0) == poly_grid.n_rays // 2

    def test_ray_ordering_mu_major_nu_minor(self, poly_grid):
        # r_k = (mu_ceil(k/N_nu), nu_((k-1) mod N_nu + 1)), k = 1..N_r
        n_nu = poly_grid.n_freq
        mu_values = poly_grid.mu_nodes
        nu_values = poly_grid.nu_nodes
        for k, ray in enumerate(poly_grid.rays, start=1):
            assert ray.index == k
            assert ray.mu == mu_values[math.ceil(k / n_nu) - 1]
            assert ray.nu == nu_values[(k - 1) % n_nu]

    def test_angular_weights_sum_to_two_per_frequency(self, poly_grid):
        for j in range(poly_grid.n_freq):
            total = sum(r.angular_weight for r in poly_grid.rays if r.nu == poly_grid.nu_nodes[j])
            assert total == pytest.approx(2.0, abs=1e-13)

    def test_frequency_weights_are_trapezoid(self, poly_grid):
        total = sum(
            r.frequency_weight for r in poly_grid.rays if r.mu == poly_grid.mu_nodes[0]
        )
        assert total == pytest.approx(20.0, rel=1e-13)

    def test_monochromatic_weight_is_one(self):
        g = build_grid(n_space=4, n_angles=2, n_freq=1, t_surf=0.0, t_deep=1.0)
        assert all(r.frequency_weight == 1.0 for r in g.rays)
        assert all(g.profile(r.nu) == 1.0 for r in g.rays)

    def test_odd_angle_count_rejected(self):
        with pytest.raises(ValueError):
            build_grid(n_space=4, n_angles=3, n_freq=1, t_surf=0.0, t_deep=1.0)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            build_grid(n_space=4, n_angles=2, n_freq=1, t_surf=1.0, t_deep=0.0)

    def test_unsorted_directions_rejected(self):
        # the transfer sweep relies on the mu < 0 rays coming first
        with pytest.raises(ValueError):
            Grid([0.0, 1.0], [0.5, -0.5], [1.0, 1.0], [0.0], [1.0])


class TestDeltaTau:
    def test_direct_ratio(self):
        g = build_grid(n_space=3, n_angles=2, n_freq=1, t_surf=0.0, t_deep=1.0)
        ray_up = g.rays[1]  # mu = +0.5, Delta t = 0.5, phi = 1
        assert delta_tau(g, ray_up, 0) == pytest.approx(1.0)

    def test_profile_and_negative_mu(self):
        # Delta t = 0.1, mu = -0.2, phi(0) = 1/pi -> 0.1 * (1/pi) / 0.2
        g = build_grid(
            n_space=11, n_angles=2, n_freq=1, t_surf=0.0, t_deep=1.0,
            profile=lorentzian, f_lo=-10.0, f_hi=10.0,
        )
        ray = g.rays[0]
        assert ray.mu < 0
        expected = 0.1 * lorentzian(ray.nu) / abs(ray.mu)
        assert delta_tau(g, ray, 3) == pytest.approx(expected, rel=1e-13)
        # arithmetic oracle from the definition at mu = -0.2, nu = 0
        assert 0.1 * lorentzian(0.0) / 0.2 == pytest.approx(0.15915, abs=1e-5)

    def test_grazing_rays_grow(self):
        g = build_grid(n_space=3, n_angles=2, n_freq=1, t_surf=0.0, t_deep=1.0)

        class FakeRay:
            mu = 0.01
            nu = 0.0

        assert delta_tau(g, FakeRay, 0) == pytest.approx(50.0)

    def test_positive_for_all_rays(self, poly_grid):
        table = poly_grid.delta_tau_table()
        assert table.shape == (poly_grid.n_rays, poly_grid.n_space - 1)
        assert np.all(table > 0)
        for k, ray in enumerate(poly_grid.rays):
            for i in range(poly_grid.n_space - 1):
                assert table[k, i] == pytest.approx(delta_tau(poly_grid, ray, i), rel=1e-15)


class TestPermute:
    def test_two_by_two_transpose(self):
        g = build_grid(n_space=2, n_angles=2, n_freq=1, t_surf=0.0, t_deep=1.0)
        v = FieldVector(np.array([1.0, 2.0, 3.0, 4.0]), Ordering.SPACE_MAJOR)
        w = permute(g, v, Ordering.RAY_MAJOR)
        np.testing.assert_array_equal(w.values, [1.0, 3.0, 2.0, 4.0])
        assert w.ordering is Ordering.RAY_MAJOR

    def test_round_trip_bit_exact(self, poly_grid):
        rng = np.random.default_rng(7)
        v = FieldVector(rng.standard_normal(poly_grid.n_total), Ordering.SPACE_MAJOR)
        back = permute(poly_grid, permute(poly_grid, v, Ordering.RAY_MAJOR), Ordering.SPACE_MAJOR)
        assert np.array_equal(back.values, v.values)

    def test_index_formula_against_nested_loops(self):
        g = build_grid(n_space=5, n_angles=6, n_freq=1, t_surf=0.0, t_deep=1.0)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(g.n_total)
        w = permute(g, FieldVector(v, Ordering.SPACE_MAJOR), Ordering.RAY_MAJOR).values
        # oracle: explicit nested loops over (space i, ray k), both 1-based
        for i in range(1, g.n_space + 1):
            for k in range(1, g.n_rays + 1):
                space_major_pos = (i - 1) * g.n_rays + (k - 1)
                ray_major_pos = (k - 1) * g.n_space + (i - 1)
                assert w[ray_major_pos] == v[space_major_pos]

    def test_isometry(self, poly_grid):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(poly_grid.n_total)
        w = permute(poly_grid, FieldVector(v, Ordering.SPACE_MAJOR), Ordering.RAY_MAJOR).values
        # pure reordering: the value multiset is preserved bit-exactly
        assert np.array_equal(np.sort(w), np.sort(v))
        assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(v), rel=1e-15)

    def test_noop_when_already_in_target(self, poly_grid):
        v = FieldVector(np.arange(poly_grid.n_total, dtype=float), Ordering.RAY_MAJOR)
        w = permute(poly_grid, v, Ordering.RAY_MAJOR)
        assert np.array_equal(w.values, v.values)

    def test_length_mismatch(self, poly_grid):
        with pytest.raises(ValueError):
            permute(poly_grid, FieldVector(np.zeros(3), Ordering.SPACE_MAJOR), Ordering.RAY_MAJOR)
