import time

import numpy as np
import pytest

from rtkrylov import presets
from rtkrylov.errors import ResourceLimitError
from rtkrylov.grid import build_grid
from rtkrylov.operator import apply_A, build_rhs, materialize_A
from rtkrylov.scattering import CoherentKernel, CRDKernel, LegendreKernel, build_scattering
from rtkrylov.transfer import build_transfer


class TestApplyA:
    def test_identity_when_gamma_zero(self):
        p = presets.monochromatic(7, 4, gamma_scale=0.0)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(p.n_total)
        out = apply_A(p, v)
        assert np.array_equal(out, v)

    @pytest.mark.parametrize("factory", [
        lambda: presets.monochromatic(12, 8),
        lambda: presets.coherent(6, 4, 7),
        lambda: presets.crd(6, 4, 7),
    ])
    def test_matches_dense_oracle(self, factory):
        p = factory()
        dense = materialize_A(p)
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = rng.standard_normal(p.n_total)
            np.testing.assert_allclose(apply_A(p, v), dense @ v, rtol=1e-12, atol=1e-13)

    def test_boundary_rows_are_unit_rows(self):
        p = presets.monochromatic(10, 12)
        dense = materialize_A(p)
        g = p.grid
        for k, ray in enumerate(g.rays):
            row = k if ray.mu < 0 else (g.n_space - 1) * g.n_rays + k
            expected = np.zeros(p.n_total)
            expected[row] = 1.0
            np.testing.assert_array_equal(dense[row], expected)

    def test_linearity(self):
        p = presets.coherent(5, 4, 5)
        rng = np.random.default_rng(2)
        u, v = rng.standard_normal((2, p.n_total))
        lhs = apply_A(p, 2.5 * u - 1.5 * v)
        rhs = 2.5 * apply_A(p, u) - 1.5 * apply_A(p, v)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-14)

    def test_length_mismatch(self):
        p = presets.monochromatic(5, 4)
        with pytest.raises(ValueError):
            apply_A(p, np.zeros(11))

    def test_identity_perturbation_norm_bounded_in_space(self):
        fro = []
        for ns in (50, 100, 200):
            p = presets.monochromatic(ns, 12)
            a = materialize_A(p)
            a[np.diag_indices(p.n_total)] -= 1.0
            fro.append(np.linalg.norm(a))
        assert max(fro) / min(fro) < 1.10

    def test_apply_cost_scales_linearly(self):
        # moment-form scattering keeps the apply at O(N * L); allow a 3x
        # slack on the ideal 4x ratio for a 4x size increase
        def best_time(p, v):
            best = np.inf
            for _ in range(5):
                t0 = time.perf_counter()
                apply_A(p, v)
                best = min(best, time.perf_counter() - t0)
            return best

        p_small = presets.monochromatic(250, 12)
        p_big = presets.monochromatic(1000, 12)
        rng = np.random.default_rng(3)
        v_small = rng.standard_normal(p_small.n_total)
        v_big = rng.standard_normal(p_big.n_total)
        apply_A(p_small, v_small)  # warm up (jit, caches)
        apply_A(p_big, v_big)
        ratio = best_time(p_big, v_big) / best_time(p_small, v_small)
        assert ratio < 12.0


class TestBuildRhs:
    def test_zero_sources(self):
        p = presets.monochromatic(6, 4)
        p.transfer.boundary[:] = 0.0
        assert np.all(build_rhs(p) == 0.0)

    def test_override_ones(self):
        p = presets.monochromatic(6, 4)
        np.testing.assert_array_equal(build_rhs(p, override_ones=True), np.ones(p.n_total))

    def test_constant_thermal_source_linearity(self):
        p = presets.monochromatic(6, 4)
        p.transfer.boundary[:] = 0.0
        p.thermal = np.full(p.n_total, 3.0)
        expected = 3.0 * p.transfer.apply_space_major(np.ones(p.n_total))
        np.testing.assert_allclose(build_rhs(p), expected, rtol=1e-14)

    @pytest.mark.parametrize("thermal, sweeps", [(0.0, 0), (3.0, 1)])
    def test_thermal_swept_only_when_nonzero(self, monkeypatch, thermal, sweeps):
        p = presets.crd(6, 4, 5)
        p.thermal = np.full(p.n_total, thermal)
        expected = p.transfer.apply_space_major(p.thermal) + p.transfer.boundary_space_major()
        calls = []
        sweep = p.transfer.apply_space_major
        monkeypatch.setattr(p.transfer, "apply_space_major",
                            lambda v: calls.append(1) or sweep(v))
        assert np.array_equal(build_rhs(p), expected)
        assert len(calls) == sweeps

    def test_physical_rhs_combines_boundary_and_thermal(self):
        p = presets.monochromatic(6, 4)
        b = build_rhs(p)
        g = p.grid
        mat = b.reshape(g.n_space, g.n_rays)
        up = np.array([r.mu > 0 for r in g.rays])
        assert np.all(mat[-1, up] == 1.0)  # deep inflow reaches the deep node intact

    @pytest.mark.parametrize("preset,params", [
        ("mono", dict(n_space=9, n_angles=6)),
        ("crd", dict(n_space=7, n_angles=4, n_freq=5)),
    ])
    def test_boundary_matches_closed_form(self, preset, params):
        # inflow / prod(1 + dtau) over the intervals between the entry and each node
        p = presets.build(preset, **params)
        g = p.grid
        surf, deep = 0.5, np.linspace(1.0, 2.0, g.n_freq)
        p.transfer = build_transfer(g, i_in_deep=deep, i_in_surf=surf)
        dtau = g.delta_tau_table()
        got = build_rhs(p).reshape(g.n_space, g.n_rays)
        for k in range(g.n_rays):
            if g.ray_mu[k] < 0:
                expected = [surf / np.prod(1.0 + dtau[k, :i]) for i in range(g.n_space)]
            else:
                inflow = deep[k % g.n_freq]
                expected = [inflow / np.prod(1.0 + dtau[k, i:]) for i in range(g.n_space)]
            np.testing.assert_allclose(got[:, k], expected, rtol=1e-13)


class TestMaterializeA:
    def test_gamma_zero_gives_identity(self):
        p = presets.monochromatic(5, 4, gamma_scale=0.0)
        np.testing.assert_array_equal(materialize_A(p), np.eye(p.n_total))

    def test_cap(self):
        p = presets.monochromatic(100, 12)
        with pytest.raises(ResourceLimitError):
            materialize_A(p, dense_cap=500)


def two_builder_slab(kind, n_space, n_angles, n_freq=1, gamma_scale=1.0):
    """(grid, transfer, scattering) as built by separate mono and line-kernel
    builders, the form the presets had before one builder served all three."""
    cal, mean = presets.STRENGTH_CAL, presets.ANGULAR_MEAN
    if kind == "mono":
        grid = build_grid(n_space, n_angles, 1, 0.0, 1.0)

        def gamma(t, mu, nu):
            return (gamma_scale * cal * mean
                    * 0.5 * (1.0 - t) * np.ones_like(mu + nu))

        kernel = LegendreKernel(presets.LEGENDRE_L7)
    else:
        profile = presets.lorentzian_profile
        grid = build_grid(n_space, n_angles, n_freq, 0.0, 1.0,
                          f_lo=presets.FREQ_LO, f_hi=presets.FREQ_HI, profile=profile)

        def gamma(t, mu, nu):
            return (gamma_scale * cal * mean
                    * 0.5 * (1.0 - t) / profile(nu) * np.ones_like(mu))

        kernel = CoherentKernel(profile) if kind == "coherent" else CRDKernel(profile)
    transfer = build_transfer(grid, i_in_deep=1.0, i_in_surf=0.0)
    return grid, transfer, build_scattering(grid, kernel, gamma)


class TestSlabPresets:
    @pytest.mark.parametrize("kind,args", [("mono", (12, 8)), ("coherent", (6, 4, 7)),
                                           ("crd", (6, 4, 7))])
    @pytest.mark.parametrize("gamma_scale", [1.0, 0.3])
    def test_bit_identical_to_two_builder_reference(self, kind, args, gamma_scale):
        build = {"mono": presets.monochromatic, "coherent": presets.coherent,
                 "crd": presets.crd}[kind]
        p = build(*args, gamma_scale=gamma_scale)
        grid, transfer, scattering = two_builder_slab(kind, *args, gamma_scale=gamma_scale)
        assert np.array_equal(p.grid.ray_nu, grid.ray_nu)
        assert np.array_equal(p.scattering.gamma_table, scattering.gamma_table)
        assert np.array_equal(p.transfer.band, transfer.band)
        assert np.array_equal(p.transfer.boundary, transfer.boundary)
