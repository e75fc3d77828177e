import numpy as np
import pytest

from rtkrylov.krylov import SolveConfig, bicgstab, gmres, solve_system


def dense_apply(a):
    return lambda v: a @ v


def random_well_conditioned(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) / np.sqrt(n) + 2.0 * np.eye(n)
    return a, rng.standard_normal(n)


class TestGMRES:
    def test_identity_one_iteration(self):
        b = np.array([1.0, -2.0, 3.0])
        rep = gmres(lambda v: v, b, SolveConfig())
        assert rep.converged
        assert rep.iterations == 1
        assert len(rep.residual_history) == 1
        np.testing.assert_allclose(rep.solution, b, rtol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_lu_oracle(self, seed):
        a, b = random_well_conditioned(50, seed)
        rep = gmres(dense_apply(a), b, SolveConfig(rel_tol=1e-13, max_iter=100))
        assert rep.converged
        ref = np.linalg.solve(a, b)  # LU oracle
        np.testing.assert_allclose(rep.solution, ref, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("seed", [3, 4, 5, 6, 7])
    def test_full_dimension_convergence(self, seed):
        # exact-arithmetic termination: n iterations suffice on a 30x30 system
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((30, 30))
        b = rng.standard_normal(30)
        rep = gmres(dense_apply(a), b, SolveConfig(rel_tol=1e-10, max_iter=30))
        assert rep.converged
        assert rep.iterations <= 30

    def test_residual_history_monotone(self):
        a, b = random_well_conditioned(60, 11)
        rep = gmres(dense_apply(a), b, SolveConfig(rel_tol=1e-13, max_iter=80))
        hist = np.array(rep.residual_history)
        assert np.all(np.diff(hist) <= 1e-15)

    def test_true_residual_recorded(self):
        a, b = random_well_conditioned(40, 12)
        cfg = SolveConfig(rel_tol=1e-12)
        rep = gmres(dense_apply(a), b, cfg)
        assert rep.converged
        assert rep.true_residual is not None
        assert rep.true_residual <= 10 * cfg.rel_tol

    def test_happy_breakdown_on_invariant_subspace(self):
        a = np.diag(np.arange(1.0, 6.0))
        b = np.zeros(5)
        b[2] = 2.0  # eigenvector: Krylov space closes after one step
        rep = gmres(dense_apply(a), b, SolveConfig(rel_tol=1e-30, max_iter=10))
        assert rep.converged
        assert rep.breakdown
        assert rep.iterations == 1
        np.testing.assert_allclose(rep.solution, b / 3.0, rtol=1e-14)

    def test_singular_hessenberg_reports_breakdown(self):
        rep = gmres(lambda v: np.zeros_like(v), np.ones(5), SolveConfig())
        assert rep.breakdown and not rep.converged
        np.testing.assert_array_equal(rep.solution, np.zeros(5))
        assert rep.true_residual == 1.0
        # singular at the second step: the first step's iterate is kept
        shift = np.array([[0.0, 1.0], [0.0, 0.0]])
        rep = gmres(dense_apply(shift), np.array([0.0, 1.0]), SolveConfig())
        assert rep.breakdown and not rep.converged and rep.iterations == 2
        assert np.all(np.isfinite(rep.solution))
        assert rep.true_residual == 1.0

    def test_max_iter_exceeded(self):
        a, b = random_well_conditioned(50, 13)
        rep = gmres(dense_apply(a), b, SolveConfig(rel_tol=1e-13, max_iter=3))
        assert not rep.converged
        assert rep.iterations == 3

    def test_restarted_still_converges(self):
        a, b = random_well_conditioned(40, 14)
        rep_full = gmres(dense_apply(a), b, SolveConfig(rel_tol=1e-12, max_iter=200))
        rep_restart = gmres(dense_apply(a), b,
                            SolveConfig(rel_tol=1e-12, max_iter=200, restart=5))
        assert rep_restart.converged
        np.testing.assert_allclose(rep_restart.solution, rep_full.solution, rtol=1e-9)
        assert rep_restart.iterations >= rep_full.iterations

    def test_zero_rhs(self):
        rep = gmres(lambda v: v, np.zeros(4), SolveConfig())
        assert rep.converged
        assert np.all(rep.solution == 0.0)
        assert rep.residual_history == [0.0]

    def test_permutation_invariance(self):
        a, b = random_well_conditioned(35, 15)
        rng = np.random.default_rng(16)
        perm = rng.permutation(35)
        p = np.eye(35)[perm]
        rep = gmres(dense_apply(a), b, SolveConfig(rel_tol=1e-13))
        rep_p = gmres(dense_apply(p @ a @ p.T), p @ b, SolveConfig(rel_tol=1e-13))
        np.testing.assert_allclose(rep_p.solution, p @ rep.solution, rtol=1e-10, atol=1e-12)
        assert abs(rep_p.iterations - rep.iterations) <= 1


class TestBiCGStab:
    def test_identity_one_iteration(self):
        b = np.array([2.0, 1.0])
        rep = bicgstab(lambda v: v, b, SolveConfig())
        assert rep.converged
        assert rep.iterations == 1
        np.testing.assert_allclose(rep.solution, b, rtol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_spd_matches_lu_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((50, 50))
        a = m @ m.T / 50 + 2.0 * np.eye(50)
        b = rng.standard_normal(50)
        rep = bicgstab(dense_apply(a), b, SolveConfig(rel_tol=1e-12, max_iter=200))
        assert rep.converged
        np.testing.assert_allclose(rep.solution, np.linalg.solve(a, b), rtol=1e-8)

    def test_nonsymmetric_system(self):
        a, b = random_well_conditioned(64, 21)
        rep = bicgstab(dense_apply(a), b, SolveConfig(rel_tol=1e-12, max_iter=300))
        assert rep.converged
        np.testing.assert_allclose(rep.solution, np.linalg.solve(a, b), rtol=1e-8)

    def test_breakdown_flagged(self):
        # shadow residual orthogonal to A p at the first step: alpha blows up
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        b = np.array([1.0, 0.0])
        rep = bicgstab(dense_apply(a), b, SolveConfig(rel_tol=1e-12, max_iter=10))
        assert rep.breakdown
        assert not rep.converged

    def test_max_iter(self):
        a, b = random_well_conditioned(50, 22)
        rep = bicgstab(dense_apply(a), b, SolveConfig(rel_tol=1e-14, max_iter=2))
        assert not rep.converged

    def test_zero_rhs(self):
        rep = bicgstab(lambda v: v, np.zeros(3), SolveConfig())
        assert rep.converged
        assert np.all(rep.solution == 0.0)


class TestOnOperatorPresets:
    def test_bicgstab_within_twice_gmres_iterations(self):
        from rtkrylov import presets
        from rtkrylov.operator import apply_A, build_rhs

        problem = presets.monochromatic(50, 12)
        b = build_rhs(problem, override_ones=True)
        cfg = SolveConfig(rel_tol=1e-12, max_iter=100)
        rep_g = gmres(lambda v: apply_A(problem, v), b, cfg)
        rep_b = bicgstab(lambda v: apply_A(problem, v), b, cfg)
        assert rep_g.converged and rep_b.converged
        assert rep_b.iterations <= 2 * rep_g.iterations
        np.testing.assert_allclose(rep_b.solution, rep_g.solution, rtol=1e-9)


class TestSolveSystem:
    def test_dispatch(self):
        a, b = random_well_conditioned(20, 30)
        rep_g = solve_system(dense_apply(a), b, SolveConfig(method="gmres"))
        rep_b = solve_system(dense_apply(a), b, SolveConfig(method="bicgstab"))
        np.testing.assert_allclose(rep_g.solution, rep_b.solution, rtol=1e-8)
        with pytest.raises(ValueError):
            solve_system(dense_apply(a), b, SolveConfig(method="jacobi"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            SolveConfig(restart=0)

    @pytest.mark.parametrize("tol", [np.inf, np.nan, -np.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(ValueError):
            SolveConfig(rel_tol=tol)
