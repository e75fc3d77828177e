import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from rtkrylov import presets
from rtkrylov.errors import NumericalError, ResourceLimitError
from rtkrylov.multidim import TransferOperator2D, build_transfer_2d
from rtkrylov.operator import materialize_A
from rtkrylov.scattering import LegendreKernel, build_scattering, materialize_scattering
from rtkrylov.spectrum import (
    _scattering_core,
    check_spectrum_size,
    clustering_trend,
    compute_spectrum,
)
from rtkrylov.transfer import TransferOperator

from conftest import assert_matches_dense_spectrum


def numerical_rank(preset, n_angles, n_freq=1, **_):
    """Rank of the preset's kernel at this angle and frequency count."""
    return {"mono": min(8, n_angles), "coherent": n_freq, "crd": 1,
            "aniso2d": min(8, math.ceil(n_angles / 2))}[preset]


class TestComputeSpectrum:
    def test_identity_limit(self):
        p = presets.monochromatic(6, 4, gamma_scale=0.0)
        rep = compute_spectrum(p)
        np.testing.assert_array_equal(rep.eigenvalues, np.ones(p.n_total))
        assert rep.cluster_fraction == 1.0
        assert rep.cluster_fraction_one_sided == 1.0
        assert rep.min_modulus == 1.0
        assert all(c == 0 for c in rep.outlier_counts.values())
        assert rep.reduced_dim == p.n_total  # rank 8 > 4 angles: dense eigensolve

    def test_monochromatic_reference_cell(self):
        rep = compute_spectrum(presets.monochromatic(10, 12))
        assert rep.cluster_fraction * 100 == pytest.approx(68.3, abs=3.0)
        assert rep.min_modulus > 0.82
        assert rep.n == 120

    def test_spectrum_invariant_under_permutation(self):
        p = presets.monochromatic(8, 6)
        dense = materialize_A(p)
        rng = np.random.default_rng(4)
        perm = rng.permutation(p.n_total)
        permuted = dense[np.ix_(perm, perm)]
        lam = np.sort_complex(np.linalg.eigvals(dense))
        lam_p = np.sort_complex(np.linalg.eigvals(permuted))
        np.testing.assert_allclose(lam, lam_p, atol=1e-10)

    def test_conjugate_pair_symmetry(self):
        rep = compute_spectrum(presets.monochromatic(10, 12))
        lam = rep.eigenvalues
        assert np.any(np.abs(lam.imag) > 1e-14)  # genuinely complex pairs occur
        np.testing.assert_allclose(
            np.sort_complex(lam), np.sort_complex(np.conj(lam)), atol=1e-10
        )

    def test_scattering_singular_value_rank_structure(self):
        p = presets.monochromatic(9, 12)
        sv = np.linalg.svd(materialize_scattering(p.scattering), compute_uv=False)
        cutoff = 8 * p.grid.n_space
        assert sv[cutoff] <= 1e-10 * sv[0]

    @pytest.mark.parametrize("preset,params", [
        ("mono", dict(n_space=12, n_angles=12)),
        ("coherent", dict(n_space=6, n_angles=8, n_freq=5)),
        ("crd", dict(n_space=6, n_angles=8, n_freq=5)),
        ("aniso2d", dict(n_x=6, n_y=6, n_angles=12)),
        ("aniso2d", dict(n_x=6, n_y=6, n_angles=8)),   # k = 36 * 4 = 144
        ("aniso2d", dict(n_x=5, n_y=4, n_angles=3)),   # k = 20 * 2 = 40
    ])
    def test_reduced_core_matches_dense_eigensolve(self, preset, params):
        p = presets.build(preset, **params)
        rep = compute_spectrum(p)
        assert rep.reduced_dim == p.grid.n_space * numerical_rank(preset, **params) < p.n_total
        assert_matches_dense_spectrum(p, rep)

    def test_reduced_core_with_coefficient_not_separable(self):
        # every preset's gamma is a product g(space) h(ray); for those the
        # spectrum does not see on which side of the transfer gamma acts
        p = presets.monochromatic(12, 12)
        p.scattering = build_scattering(p.grid, p.scattering.kernel,
                                        lambda t, mu, nu: 0.1 * (1.0 - t) * (1.0 + mu * t))
        assert_matches_dense_spectrum(p, compute_spectrum(p))

    @pytest.mark.parametrize("preset,params", [
        ("mono", dict(n_space=100, n_angles=24)),
        ("coherent", dict(n_space=10, n_angles=24, n_freq=10)),
        ("crd", dict(n_space=10, n_angles=24, n_freq=10)),
    ])
    def test_full_rank_cells_solve_the_raw_factor_core(self, preset, params):
        # the Table 1/2 cells keep their stored factor, so their spectra are
        # exactly those of the core built from it
        p = presets.build(preset, **params)
        s = p.scattering
        core = _scattering_core(p, s.wpt, s.pt, s.d)
        expected = np.concatenate([1.0 - np.linalg.eigvals(core),
                                   np.ones(p.n_total - core.shape[0])])
        assert np.array_equal(compute_spectrum(p).eigenvalues, expected)

    @pytest.mark.parametrize("coefficients", [(0.0, 0.0), (0.0,) * 8])
    def test_zero_kernel_leaves_only_ones(self, coefficients):
        for p in (presets.monochromatic(6, 12), presets.build("aniso2d", n_x=4, n_y=4, n_angles=8)):
            p.scattering = build_scattering(p.grid, LegendreKernel(coefficients),
                                            lambda *xs: 0.5 * np.ones_like(sum(xs)))
            rep = compute_spectrum(p)
            assert rep.reduced_dim == 0  # numerical rank 0
            assert np.array_equal(rep.eigenvalues, np.ones(p.n_total))

    def test_single_azimuth_2d_stays_dense(self):
        p = presets.build("aniso2d", n_x=4, n_y=3, n_angles=1, gamma_scale=0.3)
        rep = compute_spectrum(p)
        assert rep.reduced_dim == p.n_total  # rank 1 = n_rays
        assert_matches_dense_spectrum(p, rep)

    @pytest.mark.parametrize("preset,params", [
        ("mono", dict(n_space=40, n_angles=24)),
        ("crd", dict(n_space=10, n_angles=8, n_freq=5)),
        ("aniso2d", dict(n_x=6, n_y=6, n_angles=12)),
    ])
    def test_core_path_never_materializes_transfer(self, preset, params, monkeypatch):
        def fail(self, dense_cap=None):
            raise AssertionError("transfer materialized on the core path")

        p = presets.build(preset, **params)
        monkeypatch.setattr(TransferOperator, "materialize", fail)
        monkeypatch.setattr(TransferOperator2D, "materialize", fail)
        rep = compute_spectrum(p)
        assert rep.n == p.n_total
        assert rep.reduced_dim < p.n_total

    def test_core_path_allocates_less_than_one_n_by_k_array(self):
        # the Table 1 cell (100,24): N = 2400, k = 800
        p = presets.monochromatic(100, 24)
        tracemalloc.start()
        try:
            rep = compute_spectrum(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * p.n_total * rep.reduced_dim

    def test_eigensolver_failure_raises_numerical_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(NumericalError):
            compute_spectrum(presets.monochromatic(4, 4))

    def test_dense_cap(self):
        p = presets.monochromatic(50, 12)
        with pytest.raises(ResourceLimitError):
            compute_spectrum(p, dense_cap=100)

    @pytest.mark.parametrize("cap", [0, -100])
    @pytest.mark.parametrize("n_angles", [4, 12])  # dense path (k >= N), core path
    def test_dense_cap_below_one_rejected(self, cap, n_angles):
        with pytest.raises(ValueError, match="dense_cap must be at least 1"):
            compute_spectrum(presets.monochromatic(10, n_angles), dense_cap=cap)

    def test_core_path_caps_core_and_ray_blocks(self):
        # crd (20,8,10): N = 1600, core k = 20, ray blocks 80 * 20^2 = 32000 entries
        p = presets.crd(20, 8, 10)
        assert compute_spectrum(p, dense_cap=179).reduced_dim == 20  # 179^2 = 32041
        with pytest.raises(ResourceLimitError):
            compute_spectrum(p, dense_cap=178)  # 178^2 = 31684 < 32000
        with pytest.raises(ResourceLimitError):
            compute_spectrum(presets.coherent(20, 8, 10), dense_cap=190)  # k = 200

    def test_core_path_caps_kernel_products(self):
        # coherent (2,2,40): N = 160, k = 80, ray blocks 80 * 2^2 = 320 entries,
        # kernel products 80 rays * 40^2 = 128000 entries > 100^2
        p = presets.coherent(2, 2, 40)
        with pytest.raises(ResourceLimitError, match="128000"):
            compute_spectrum(p, dense_cap=100)
        assert compute_spectrum(p, dense_cap=358).reduced_dim == 80  # 358^2 = 128164

    def test_core_path_caps_2d_line_scratch(self):
        # aniso2d (4,4,12): numerical rank 6, so k = 96 = the cap, ray blocks
        # 12 * 16^2 = 3072 entries; default lines give 352 scratch entries,
        # node_step 1e-3 gives 68000 > 96^2
        p = presets.build("aniso2d", n_x=4, n_y=4, n_angles=12)
        assert compute_spectrum(p, dense_cap=96).reduced_dim == 96
        with pytest.raises(ResourceLimitError, match="9216"):
            compute_spectrum(p, dense_cap=95)  # the 96 x 96 core
        fine = dataclasses.replace(p, transfer=build_transfer_2d(p.grid, node_step=1e-3))
        with pytest.raises(ResourceLimitError, match="68000"):
            compute_spectrum(fine, dense_cap=96)

    @pytest.mark.parametrize("preset,params", [
        ("mono", dict(n_space=6, n_angles=12, n_freq=1)),
        ("coherent", dict(n_space=5, n_angles=4, n_freq=6)),
        ("crd", dict(n_space=5, n_angles=4, n_freq=6)),
        ("aniso2d", dict(n_x=3, n_y=3, n_angles=10)),
    ])
    def test_kernel_rank_matches_built_problem(self, preset, params):
        p = presets.build(preset, **params)
        r = presets.kernel_rank(preset, params.get("n_freq", 1))
        assert r == p.scattering.d.size
        g = p.grid
        on_core = check_spectrum_size(p.n_total, g.n_space, g.n_rays, r)
        assert on_core == (g.n_space * r < p.n_total)


class TestClusteringTrend:
    def test_identity_sequence_trivially_consistent(self):
        reports = [compute_spectrum(presets.monochromatic(ns, 4, gamma_scale=0.0))
                   for ns in (5, 10, 20)]
        trend = clustering_trend(reports)
        assert trend.strong_cluster_consistent
        assert all(all(c == 0 for c in series) for series in trend.outlier_counts.values())

    def test_fraction_increases_with_angular_refinement(self):
        reports = [compute_spectrum(presets.monochromatic(10, nom)) for nom in (12, 24)]
        trend = clustering_trend(reports)
        assert trend.cluster_fractions[1] > trend.cluster_fractions[0]
        assert trend.strong_cluster_consistent

    def test_requires_two_reports(self):
        rep = compute_spectrum(presets.monochromatic(5, 4))
        with pytest.raises(ValueError):
            clustering_trend([rep])

    def test_inconsistent_when_counts_blow_up(self):
        rep = compute_spectrum(presets.monochromatic(5, 4, gamma_scale=0.0))
        inflated = compute_spectrum(presets.monochromatic(10, 4, gamma_scale=0.0))
        inflated.outlier_counts = {k: v + 10 for k, v in inflated.outlier_counts.items()}
        trend = clustering_trend([rep, inflated])
        assert not trend.strong_cluster_consistent
