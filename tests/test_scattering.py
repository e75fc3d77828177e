import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import legendre

from rtkrylov.errors import ResourceLimitError
from rtkrylov.grid import build_grid
from rtkrylov.multidim import CartesianGrid2D
from rtkrylov.quadrature import legendre_basis
from rtkrylov.scattering import (
    CoherentKernel,
    CRDKernel,
    LegendreKernel,
    ScatteringStrengthWarning,
    _strength_bound,
    apply_scattering,
    build_scattering,
    kernel_normalization,
    materialize_scattering,
    psi_matrix,
    reduced_factor,
)

L7_COEFFS = (1.0, 1.98398, 1.50823, 0.70075, 0.23489, 0.05133, 0.00760, 0.00048)


def lorentzian(nu):
    return 1.0 / (np.pi * (np.asarray(nu) ** 2 + 1.0))


KERNELS = [
    lambda: LegendreKernel(L7_COEFFS),
    lambda: CoherentKernel(lorentzian),
    lambda: CRDKernel(lorentzian),
]


def gamma_half(t, mu, nu):
    return 0.5 * np.ones_like(t + mu + nu)


def gamma_depth(t, mu, nu):
    return 0.5 * (1.0 - t) * np.ones_like(mu + nu)


def kernel_phi(kernel, grid, r, rp):
    """Direct kernel evaluation between two ray indices (test oracle)."""
    mu, mup = grid.ray_mu[r], grid.ray_mu[rp]
    nu, nup = grid.ray_nu[r], grid.ray_nu[rp]
    if isinstance(kernel, LegendreKernel):
        # numpy's Legendre series in mu with coefficients d_l P_l(mu')
        d = np.asarray(kernel.coefficients)
        return float(legendre.legval(mu, d * legendre.legval(mup, np.eye(d.size))))
    if isinstance(kernel, CRDKernel):
        return kernel.profile(nu) * kernel.profile(nup)
    if isinstance(kernel, CoherentKernel):
        # discrete delta: couples identical frequencies, profile over the
        # frequency weight so that Gamma Psi W reproduces the angular integral
        if nu == nup:
            return kernel.profile(nu) / grid.ray_frequency_weight[r]
        return 0.0
    raise TypeError(kernel)


def branch_psi_matrix(kernel, grid):
    """Per-kernel assembly of Psi without the factor (bit-level oracle)."""
    if isinstance(kernel, LegendreKernel):
        d = np.asarray(kernel.coefficients)
        basis = legendre_basis(d.size - 1, grid.ray_mu)
        m = basis.T @ (d[:, None] * basis)
        return np.triu(m) + np.triu(m, 1).T
    if isinstance(kernel, CRDKernel):
        pv = np.asarray(kernel.profile(grid.ray_nu), dtype=float)
        return np.outer(pv, pv)
    pv = np.asarray(kernel.profile(grid.ray_nu), dtype=float)
    same_nu = grid.ray_nu[:, None] == grid.ray_nu[None, :]
    return np.where(same_nu, (pv / grid.ray_frequency_weight)[:, None], 0.0)


def branch_apply(op, field):
    """Per-kernel matrix-free apply without the factor (bit-level oracle)."""
    g = op.grid
    mat = np.asarray(field, dtype=float).reshape(g.n_space, g.n_rays)
    w = g.combined_weights
    kernel = op.kernel
    if isinstance(kernel, LegendreKernel):
        d = np.asarray(kernel.coefficients)
        basis = legendre_basis(d.size - 1, g.ray_mu)
        moments = mat @ (w * basis).T
        out = op.gamma_table * ((moments * d) @ basis)
    elif isinstance(kernel, CRDKernel):
        pv = np.asarray(kernel.profile(g.ray_nu), dtype=float)
        m = mat @ (w * pv)
        out = op.gamma_table * np.outer(m, pv)
    else:
        pv = np.asarray(kernel.profile(g.nu_nodes), dtype=float)
        cube = mat.reshape(g.n_space, g.n_angles, g.n_freq)
        ang = np.tensordot(cube, g.angular_weights, axes=([1], [0]))
        out = op.gamma_table * np.tile(pv[None, :] * ang, (1, g.n_angles))
    return out.ravel()


def oracle_dense(grid, kernel, gamma):
    """Independent dense assembly from the kernel definition."""
    n_r, n_s = grid.n_rays, grid.n_space
    gam = grid.sample_coefficient(gamma)
    out = np.zeros((grid.n_total, grid.n_total))
    for i in range(n_s):
        for r in range(n_r):
            for rp in range(n_r):
                out[i * n_r + r, i * n_r + rp] = (
                    gam[i, r] * kernel_phi(kernel, grid, r, rp) * grid.combined_weights[rp]
                )
    return out


@pytest.fixture
def mono_grid():
    return build_grid(6, 8, 1, 0.0, 1.0)


@pytest.fixture
def poly_grid():
    return build_grid(4, 4, 5, 0.0, 1.0, f_lo=-10.0, f_hi=10.0, profile=lorentzian)


@pytest.fixture
def factor_grid():
    """Enough directions for the full Legendre rank: 12 angles x 5 frequencies."""
    return build_grid(5, 12, 5, 0.0, 1.0, f_lo=-10.0, f_hi=10.0, profile=lorentzian)


class TestBuild:
    def test_reference_legendre_coefficients_accepted(self, mono_grid):
        op = build_scattering(mono_grid, LegendreKernel(L7_COEFFS), gamma_depth)
        assert op.kernel.coefficients == L7_COEFFS

    def test_isotropic_limit_constant_kernel(self, mono_grid):
        psi = psi_matrix(LegendreKernel((1.0,)), mono_grid)
        assert np.all(psi == 1.0)

    def test_zero_gamma_gives_zero_operator(self, mono_grid):
        op = build_scattering(mono_grid, LegendreKernel((1.0,)),
                              lambda t, mu, nu: np.zeros_like(t + mu + nu))
        v = np.ones(mono_grid.n_total)
        assert np.all(apply_scattering(op, v) == 0.0)

    def test_degenerate_coherent_single_frequency_allowed(self):
        g = build_grid(3, 4, 1, 0.0, 1.0)
        op = build_scattering(g, CoherentKernel(lambda nu: np.ones_like(np.asarray(nu, dtype=float))),
                              gamma_half)
        out = apply_scattering(op, np.ones(g.n_total))
        np.testing.assert_allclose(out, 1.0, rtol=1e-13)

    def test_strength_warning_for_large_gamma(self, poly_grid):
        # ||Gamma Psi W||_inf = 1.2
        with pytest.warns(ScatteringStrengthWarning):
            build_scattering(
                poly_grid, CoherentKernel(lorentzian),
                lambda t, mu, nu: 0.6 * (1.0 - t) / lorentzian(nu),
            )

    def test_no_warning_in_contractive_regime(self, mono_grid):
        # ||Gamma Psi W||_inf = 0.8
        with warnings.catch_warnings():
            warnings.simplefilter("error", ScatteringStrengthWarning)
            build_scattering(mono_grid, LegendreKernel(L7_COEFFS),
                             lambda t, mu, nu: 0.4 * (1.0 - t) * np.ones_like(mu + nu))

    def test_strength_bound_sums_absolute_kernel_entries(self, mono_grid):
        # the kernel 0.2 + mu mu' is negative where mu mu' < -0.2: the bound sums |Gamma Psi W|
        op = build_scattering(mono_grid, LegendreKernel((0.2, 1.0)), gamma_depth)
        dense = materialize_scattering(op)
        assert np.any(dense < 0.0)
        assert _strength_bound(op) == pytest.approx(np.abs(dense).sum(axis=1).max(), rel=1e-12)
        assert _strength_bound(op) > np.abs(dense.sum(axis=1)).max()

    @pytest.mark.parametrize("preset", ["crd", "coherent"])
    @pytest.mark.parametrize("size", [(10, 8, 5), (200, 24, 50)])
    def test_line_presets_build_without_warning(self, preset, size):
        # their ||Gamma Psi W||_inf is below one (0.86 and 0.497 at (10,8,5))
        from rtkrylov import presets

        n_space, n_angles, n_freq = size
        with warnings.catch_warnings():
            warnings.simplefilter("error", ScatteringStrengthWarning)
            presets.build(preset, n_space=n_space, n_angles=n_angles, n_freq=n_freq)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coefficient_rejected(self, mono_grid, bad):
        with pytest.raises(ValueError):
            build_scattering(mono_grid, LegendreKernel((1.0,)),
                             lambda t, mu, nu: bad * np.ones_like(t + mu + nu))

    def test_non_finite_kernel_rejected(self, mono_grid):
        with pytest.raises(ValueError):
            build_scattering(mono_grid, LegendreKernel((1.0, math.nan)), gamma_half)

    def test_preset_with_nan_strength_rejected(self):
        from rtkrylov import presets

        with pytest.raises(ValueError):
            presets.build("mono", n_space=10, n_angles=4, gamma_scale=math.nan)

    @pytest.mark.parametrize("preset", ["mono", "coherent", "crd", "aniso2d"])
    @pytest.mark.parametrize("scale", [math.inf, -math.inf, math.nan])
    def test_preset_rejects_non_finite_strength_before_sampling(self, monkeypatch, preset, scale):
        from rtkrylov import multidim, presets

        def unreachable(*args, **kwargs):
            raise AssertionError("built a problem with a non-finite gamma_scale")

        monkeypatch.setattr(presets, "build_grid", unreachable)
        monkeypatch.setattr(multidim, "CartesianGrid2D", unreachable)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="gamma_scale must be finite"):
                presets.build(preset, n_space=10, n_angles=4, n_freq=3, n_x=4, n_y=4,
                              gamma_scale=scale)


class TestApply:
    def test_zero_field(self, mono_grid):
        op = build_scattering(mono_grid, LegendreKernel(L7_COEFFS), gamma_depth)
        assert np.all(apply_scattering(op, np.zeros(mono_grid.n_total)) == 0.0)

    def test_isotropic_weight_sum(self, mono_grid):
        # gamma = 1/2, Phi = 1: S = (1/2) * sum of weights = (1/2) * 2 = 1
        op = build_scattering(mono_grid, LegendreKernel((1.0,)), gamma_half)
        out = apply_scattering(op, np.ones(mono_grid.n_total))
        np.testing.assert_allclose(out, 1.0, rtol=1e-13)

    @pytest.mark.parametrize("kernel_factory", KERNELS)
    def test_matches_independent_dense_oracle(self, poly_grid, kernel_factory):
        kernel = kernel_factory()
        gamma = lambda t, mu, nu: 0.4 * (1.0 - t) * np.ones_like(mu + nu)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScatteringStrengthWarning)
            op = build_scattering(poly_grid, kernel, gamma)
        dense_oracle = oracle_dense(poly_grid, kernel, gamma)
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(poly_grid.n_total)
            np.testing.assert_allclose(
                apply_scattering(op, v), dense_oracle @ v, rtol=1e-13, atol=1e-14
            )
        np.testing.assert_allclose(materialize_scattering(op), dense_oracle,
                                   rtol=1e-13, atol=1e-16)

    def test_length_mismatch(self, mono_grid):
        op = build_scattering(mono_grid, LegendreKernel((1.0,)), gamma_half)
        with pytest.raises(ValueError):
            apply_scattering(op, np.zeros(5))


class TestStructure:
    @pytest.mark.parametrize("kernel_factory", KERNELS)
    def test_psi_exactly_symmetric(self, poly_grid, factor_grid, kernel_factory):
        kernel = kernel_factory()
        for grid in (poly_grid, factor_grid):
            psi = psi_matrix(kernel, grid)
            assert np.array_equal(psi, psi.T)
            assert np.array_equal(psi, branch_psi_matrix(kernel, grid))

    def test_block_diagonal_exact_zeros(self, poly_grid):
        op = build_scattering(poly_grid, CRDKernel(lorentzian), gamma_depth)
        dense = materialize_scattering(op)
        n_r = poly_grid.n_rays
        for i in range(poly_grid.n_space):
            for j in range(poly_grid.n_space):
                blk = dense[i * n_r:(i + 1) * n_r, j * n_r:(j + 1) * n_r]
                if i != j:
                    assert np.all(blk == 0.0)

    def test_legendre_rank_exactly_eight(self):
        g = build_grid(3, 12, 1, 0.0, 1.0)
        psi = psi_matrix(LegendreKernel(L7_COEFFS), g)
        sv = np.linalg.svd(psi, compute_uv=False)
        assert sv[8] <= 1e-12 * sv[0]
        assert sv[7] > 1e-10 * sv[0]

    def test_sigma_outliers_fixed_under_frequency_refinement(self):
        counts = []
        fro = []
        for n_freq in (8, 16, 32, 64):
            g = build_grid(6, 4, n_freq, 0.0, 1.0, profile=lorentzian)
            gamma = lambda t, mu, nu: 0.5 * (1.0 - t) / lorentzian(nu)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ScatteringStrengthWarning)
                op = build_scattering(g, CRDKernel(lorentzian), gamma)
            dense = materialize_scattering(op)
            sv = np.linalg.svd(dense, compute_uv=False)
            counts.append(int(np.sum(sv > 0.1)))
            fro.append(np.linalg.norm(dense))
        assert max(counts) - min(counts) <= 2
        # Frobenius norm saturates once the Lorentzian wings are resolved
        assert max(fro[1:]) / min(fro[1:]) < 1.1

    def test_cap_enforced(self, poly_grid):
        op = build_scattering(poly_grid, CRDKernel(lorentzian), gamma_depth)
        with pytest.raises(ResourceLimitError):
            materialize_scattering(op, dense_cap=10)


class TestNormalization:
    def test_legendre_unit_d0(self):
        g = build_grid(3, 8, 1, 0.0, 1.0)
        assert kernel_normalization(LegendreKernel(L7_COEFFS), g) == pytest.approx(1.0, abs=1e-10)

    def test_legendre_scaled_d0(self):
        g = build_grid(3, 8, 1, 0.0, 1.0)
        d = (2.0,) + L7_COEFFS[1:]
        assert kernel_normalization(LegendreKernel(d), g) == pytest.approx(2.0, abs=1e-10)

    def test_crd_truncated_lorentzian(self):
        g = build_grid(3, 8, 201, 0.0, 1.0, f_lo=-10.0, f_hi=10.0, profile=lorentzian)
        expected = ((2.0 / math.pi) * math.atan(10.0)) ** 2  # ~0.8771
        assert kernel_normalization(CRDKernel(lorentzian), g) == pytest.approx(expected, abs=2e-3)

    def test_coherent_single_profile_mass(self):
        g = build_grid(3, 8, 201, 0.0, 1.0, f_lo=-10.0, f_hi=10.0, profile=lorentzian)
        expected = (2.0 / math.pi) * math.atan(10.0)
        assert kernel_normalization(CoherentKernel(lorentzian), g) == pytest.approx(expected, abs=2e-3)


class TestFactor:
    @pytest.mark.parametrize("kernel_factory, rank", zip(KERNELS, (8, 5, 1)))
    def test_thin_factor_has_kernel_rank(self, factor_grid, kernel_factory, rank):
        p, d = kernel_factory().factor(factor_grid)
        assert p.shape == (factor_grid.n_rays, rank)
        assert d.shape == (rank,)
        assert np.linalg.matrix_rank(p) == rank

    @pytest.mark.parametrize("kernel_factory", KERNELS)
    def test_apply_matches_branch_apply(self, factor_grid, kernel_factory):
        kernel = kernel_factory()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ScatteringStrengthWarning)
            op = build_scattering(factor_grid, kernel, gamma_depth)
        v = np.random.default_rng(4).standard_normal(factor_grid.n_total)
        out, expected = apply_scattering(op, v), branch_apply(op, v)
        if isinstance(kernel, CoherentKernel):
            # the frequency weight is multiplied into W P and divided out in d
            assert np.max(np.abs(out - expected)) <= 1e-15 * np.max(np.abs(expected))
        else:
            assert np.array_equal(out, expected)

    def test_apply_matches_branch_apply_on_2d_grid(self):
        grid = CartesianGrid2D(5, 4, 12)
        op = build_scattering(grid, LegendreKernel(L7_COEFFS),
                              lambda x, y, mu, nu: 0.4 * (1.0 - y) * np.ones_like(mu + nu))
        assert np.array_equal(psi_matrix(op.kernel, grid), branch_psi_matrix(op.kernel, grid))
        v = np.random.default_rng(5).standard_normal(grid.n_total)
        assert np.array_equal(apply_scattering(op, v), branch_apply(op, v))

    @pytest.mark.parametrize("kernel_factory", KERNELS)
    def test_normalization_matches_dense_sum(self, factor_grid, kernel_factory):
        kernel = kernel_factory()
        w = factor_grid.combined_weights
        dense = float(w @ (branch_psi_matrix(kernel, factor_grid) @ w)) / factor_grid.sphere_measure**2
        assert kernel_normalization(kernel, factor_grid) == pytest.approx(dense, rel=1e-14)


def quiet_scattering(grid, kernel):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScatteringStrengthWarning)
        return build_scattering(grid, kernel, lambda *xs: 0.5 * np.ones_like(sum(xs)))


class TestReducedFactor:
    @pytest.mark.parametrize("n_angles", range(1, 25))
    def test_2d_rank_counts_mirrored_azimuths_once(self, n_angles):
        op = quiet_scattering(CartesianGrid2D(2, 2, n_angles), LegendreKernel(L7_COEFFS))
        wpt, pt, d = reduced_factor(op)
        assert d.size == min(8, math.ceil(n_angles / 2))
        assert pt.shape == wpt.shape == (d.size, n_angles)
        # the thinned factor spans the same kernel and carries the same weights
        psi = psi_matrix(op.kernel, op.grid)
        np.testing.assert_allclose(pt.T @ (d[:, None] * pt), psi, rtol=0, atol=1e-13 * np.abs(psi).max())
        np.testing.assert_array_equal(wpt, pt * op.grid.combined_weights)

    @pytest.mark.parametrize("n_angles", range(2, 25, 2))
    def test_mono_rank(self, n_angles):
        op = quiet_scattering(build_grid(2, n_angles, 1, 0.0, 1.0), LegendreKernel(L7_COEFFS))
        assert reduced_factor(op)[2].size == min(8, n_angles)

    @pytest.mark.parametrize("n_freq", [1, 2, 5, 20])
    def test_line_kernel_ranks(self, n_freq):
        grid = build_grid(2, 4, n_freq, 0.0, 1.0, f_lo=-10.0, f_hi=10.0, profile=lorentzian)
        assert reduced_factor(quiet_scattering(grid, CoherentKernel(lorentzian)))[2].size == n_freq
        assert reduced_factor(quiet_scattering(grid, CRDKernel(lorentzian)))[2].size == 1

    @pytest.mark.parametrize("kernel_factory", KERNELS)
    def test_full_rank_returns_stored_arrays(self, factor_grid, kernel_factory):
        op = quiet_scattering(factor_grid, kernel_factory())
        wpt, pt, d = reduced_factor(op)
        assert wpt is op.wpt and pt is op.pt and d is op.d
