import math

import numpy as np
import pytest

from rtkrylov import presets
from rtkrylov.krylov import (
    _ARNOLDI_BREAKDOWN,
    _BREAKDOWN_EPS,
    _TRUE_RESIDUAL_SLACK,
    SolveConfig,
    SolveReport,
    _solve_upper,
    _trivial_report,
    bicgstab,
    gmres,
    solve_system,
)
from rtkrylov.operator import apply_A, build_rhs


def dense_apply(a):
    return lambda v: a @ v


def random_well_conditioned(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) / np.sqrt(n) + 2.0 * np.eye(n)
    return a, rng.standard_normal(n)


# The solvers with out-of-place vector updates: the reference for the in-place
# ones, whose BLAS daxpy may fuse the multiply-add. The two must take the same
# iterations and agree within REFERENCE_TOL of the largest solution entry,
# fixed from float64 eps; whether daxpy fuses varies by CPU.
REFERENCE_TOL = 64 * np.finfo(float).eps


def reference_gmres(apply, b, cfg):
    """krylov.gmres with out-of-place vector updates."""
    b = np.asarray(b, dtype=float)
    n = b.size
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return _trivial_report("gmres", n)

    history: list = []
    x = np.zeros(n)
    r = b.copy()
    total_iters = 0
    cycle = cfg.restart if cfg.restart is not None else cfg.max_iter

    while total_iters < cfg.max_iter:
        beta = float(np.linalg.norm(r))
        if beta / b_norm <= cfg.rel_tol:  # restart landed on the solution
            history.append(beta / b_norm)
            return SolveReport(
                solution=x, iterations=max(total_iters, 1), residual_history=history,
                converged=True, method="gmres", true_residual=beta / b_norm,
            )
        basis = [r / beta]
        h_cols: list = []          # rotated Hessenberg columns (upper triangular)
        cos: list = []
        sin: list = []
        g = [beta]                 # rotated right-hand side
        breakdown = False

        steps = min(cycle, cfg.max_iter - total_iters)
        j = 0
        while j < steps:
            w = np.array(apply(basis[j]), dtype=float)  # copy: MGS mutates w
            col = np.empty(j + 2)
            for i in range(j + 1):
                col[i] = float(np.dot(basis[i], w))
                w -= col[i] * basis[i]
            col[j + 1] = float(np.linalg.norm(w))
            breakdown = col[j + 1] < _ARNOLDI_BREAKDOWN * b_norm
            if not breakdown:
                basis.append(w / col[j + 1])

            # apply stored rotations, then build the new one
            for i in range(j):
                tmp = cos[i] * col[i] + sin[i] * col[i + 1]
                col[i + 1] = -sin[i] * col[i] + cos[i] * col[i + 1]
                col[i] = tmp
            denom = np.hypot(col[j], col[j + 1])
            total_iters += 1
            if denom == 0.0:
                if j:
                    x = x + _reference_combine(basis, _solve_upper(h_cols, g[:j]))
                true_rel = float(np.linalg.norm(b - apply(x))) / b_norm
                history.append(true_rel)
                return SolveReport(
                    solution=x, iterations=total_iters, residual_history=history,
                    converged=False, method="gmres", breakdown=True,
                    true_residual=true_rel,
                )
            cj = col[j] / denom
            sj = col[j + 1] / denom
            cos.append(cj)
            sin.append(sj)
            col[j] = denom
            h_cols.append(col[: j + 1].copy())
            g.append(-sj * g[j])
            g[j] = cj * g[j]

            j += 1
            rel = abs(g[j]) / b_norm
            history.append(rel)

            if rel <= cfg.rel_tol or breakdown:
                y = _solve_upper(h_cols, g[:j])
                candidate = x + _reference_combine(basis, y)
                true_rel = float(np.linalg.norm(b - apply(candidate))) / b_norm
                if true_rel <= _TRUE_RESIDUAL_SLACK * cfg.rel_tol:
                    if breakdown:
                        history[-1] = true_rel
                    return SolveReport(
                        solution=candidate, iterations=total_iters,
                        residual_history=history, converged=True, method="gmres",
                        breakdown=breakdown, true_residual=true_rel,
                    )
                if breakdown:
                    # stalled with drifted residual: report honestly
                    return SolveReport(
                        solution=candidate, iterations=total_iters,
                        residual_history=history, converged=False, method="gmres",
                        breakdown=True, true_residual=true_rel,
                    )

        # cycle exhausted: form the iterate and restart
        y = _solve_upper(h_cols, g[:j])
        x = x + _reference_combine(basis, y)
        r = b - apply(x)

    true_rel = float(np.linalg.norm(r)) / b_norm
    return SolveReport(
        solution=x, iterations=total_iters, residual_history=history,
        converged=False, method="gmres", true_residual=true_rel,
    )


def _reference_combine(basis, y):
    out = y[0] * basis[0]
    for i in range(1, y.size):
        out += y[i] * basis[i]
    return out


def reference_bicgstab(apply, b, cfg):
    """krylov.bicgstab with out-of-place vector updates."""
    b = np.asarray(b, dtype=float)
    n = b.size
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return _trivial_report("bicgstab", n)

    x = np.zeros(n)
    r = b.copy()
    r_shadow = r.copy()
    rho_prev = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    history: list = []
    breakdown = False
    converged = False

    it = 0
    while it < cfg.max_iter:
        rho = float(np.dot(r_shadow, r))
        if abs(rho) < _BREAKDOWN_EPS:
            breakdown = True
            break
        if it == 0:
            p = r.copy()
        else:
            beta = (rho / rho_prev) * (alpha / omega)
            p = r + beta * (p - omega * v)
        v = apply(p)
        denom = float(np.dot(r_shadow, v))
        if abs(denom) < _BREAKDOWN_EPS:
            breakdown = True
            break
        alpha = rho / denom
        s = r - alpha * v
        it += 1
        s_norm = float(np.linalg.norm(s))
        if s_norm / b_norm <= cfg.rel_tol:
            x = x + alpha * p
            history.append(s_norm / b_norm)
            converged = True
            break
        t = apply(s)
        tt = float(np.dot(t, t))
        if tt < _BREAKDOWN_EPS:
            breakdown = True
            break
        omega = float(np.dot(t, s)) / tt
        if abs(omega) < _BREAKDOWN_EPS:
            breakdown = True
            break
        x = x + alpha * p + omega * s
        r = s - omega * t
        rho_prev = rho
        rel = float(np.linalg.norm(r)) / b_norm
        history.append(rel)
        if rel <= cfg.rel_tol:
            converged = True
            break

    true_rel = float(np.linalg.norm(b - apply(x))) / b_norm
    if converged:
        converged = true_rel <= _TRUE_RESIDUAL_SLACK * cfg.rel_tol
    if not history:
        history.append(true_rel)
    return SolveReport(
        solution=x, iterations=it, residual_history=history,
        converged=converged, method="bicgstab", breakdown=breakdown,
        true_residual=true_rel,
    )


def assert_same_solution(x, ref, tol=REFERENCE_TOL):
    assert np.max(np.abs(x - ref)) <= tol * np.max(np.abs(ref))


def assert_matches_reference(rep, ref, tol=REFERENCE_TOL):
    assert (rep.iterations, rep.converged, rep.breakdown) == \
        (ref.iterations, ref.converged, ref.breakdown)
    assert len(rep.residual_history) == len(ref.residual_history)
    assert_same_solution(rep.solution, ref.solution, tol)


SOLVERS = [(gmres, reference_gmres), (bicgstab, reference_bicgstab)]


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


SMALL_PRESETS = [
    ("crd", dict(n_space=20, n_angles=8, n_freq=5)),
    ("coherent", dict(n_space=20, n_angles=8, n_freq=5)),
    ("mono", dict(n_space=40, n_angles=12)),
    ("aniso2d", dict(n_x=6, n_y=6, n_angles=8)),
]


class TestMatchesReference:
    @pytest.mark.parametrize("restart", [None, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gmres_dense(self, seed, restart):
        a, b = random_well_conditioned(50, seed)
        cfg = SolveConfig(rel_tol=1e-13, max_iter=100, restart=restart)
        assert_matches_reference(gmres(dense_apply(a), b, cfg),
                                 reference_gmres(dense_apply(a), b, cfg))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bicgstab_dense(self, seed):
        a, b = random_well_conditioned(50, seed)
        cfg = SolveConfig(rel_tol=1e-12, max_iter=300)
        assert_matches_reference(bicgstab(dense_apply(a), b, cfg),
                                 reference_bicgstab(dense_apply(a), b, cfg))

    @pytest.mark.parametrize("name,params", SMALL_PRESETS)
    @pytest.mark.parametrize("solver,reference,restart", [
        (gmres, reference_gmres, None),
        (gmres, reference_gmres, 5),
        (bicgstab, reference_bicgstab, None),
    ])
    def test_presets(self, name, params, solver, reference, restart):
        problem = presets.build(name, **params)
        b = build_rhs(problem, override_ones=name == "aniso2d")
        cfg = SolveConfig(rel_tol=1e-12, restart=restart)
        rep = solver(lambda v: apply_A(problem, v), b, cfg)
        assert rep.converged
        assert_matches_reference(rep, reference(lambda v: apply_A(problem, v), b, cfg))


class Recorder:
    """Wraps an apply and keeps each array it returned with a copy of its values.

    check() asserts that the solver wrote into none of them.
    """

    def __init__(self, fn):
        self.fn = fn
        self.returned = {}

    def __call__(self, v):
        self.check()
        out = self.fn(v)
        self.returned[id(out)] = (out, out.copy())
        return out

    def check(self):
        for out, values in self.returned.values():
            np.testing.assert_array_equal(out, values)


def aliasing_applies(a):
    """Factories of apply callables whose results the solver must not write into."""
    def stored():
        buf = np.empty(a.shape[0])
        return lambda v: np.matmul(a, v, out=buf)

    return {
        "float32": lambda: lambda v: (a @ v).astype(np.float32),
        "strided": lambda: lambda v: np.repeat(a @ v, 2)[::2],
        "stored": stored,
    }


class TestAliasing:
    """The in-place updates write only into arrays the solver allocated. daxpy
    updates y in place only when it is contiguous float64; otherwise f2py
    silently works on a copy and the solver would go wrong."""

    @pytest.mark.parametrize("kind", ["float32", "strided", "stored"])
    @pytest.mark.parametrize("solver,reference,restart", [
        (gmres, reference_gmres, None),
        (gmres, reference_gmres, 3),
        (bicgstab, reference_bicgstab, None),
    ])
    def test_apply_results_and_b_untouched(self, solver, reference, restart, kind):
        a, b = random_well_conditioned(30, 40)
        b_values = b.copy()
        make = aliasing_applies(a)[kind]
        apply = Recorder(make())
        cfg = SolveConfig(rel_tol=1e-6, max_iter=60, restart=restart)
        rep = solver(apply, b, cfg)
        apply.check()
        np.testing.assert_array_equal(b, b_values)
        # the reference gets a copy of each result: its BiCGStab reads A p after
        # the next apply, which has overwritten a stored buffer by then. A
        # float32 result rounds where a last-bit change of its input can tip
        # it, so the bound follows the dtype the map returns.
        ref_apply = make()
        ref = reference(lambda v: np.array(ref_apply(v)), b, cfg)
        assert_matches_reference(rep, ref, tol=64 * np.finfo(ref_apply(b).dtype).eps)

    @pytest.mark.parametrize("solver,reference", SOLVERS)
    def test_identity_returns_its_input(self, solver, reference):
        # lambda v: v hands back the solver's own vector, which it may update
        # once done with it; b must stay as given
        b = np.array([1.0, -2.0, 3.0, 0.5])
        b_values = b.copy()
        rep = solver(lambda v: v, b, SolveConfig())
        np.testing.assert_array_equal(b, b_values)
        assert rep.converged
        assert_matches_reference(rep, reference(lambda v: v, b, SolveConfig()))


class TestNonFinite:
    """An inf or nan from the map stops the solver at once as a breakdown,
    keeping the last finite iterate and only finite history entries."""

    @pytest.mark.parametrize("solver", [gmres, bicgstab])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_map_stops_at_once(self, solver, value):
        calls = []

        def apply(v):
            calls.append(1)
            return v * value

        with np.errstate(invalid="ignore"):
            rep = solver(apply, np.ones(3), SolveConfig())
        assert rep.breakdown and not rep.converged
        assert rep.iterations <= 1
        assert len(calls) <= 2  # the failing step and the true residual
        np.testing.assert_array_equal(rep.solution, np.zeros(3))
        assert rep.residual_history == [1.0]  # the zero guess: its residual is b

    @pytest.mark.parametrize("solver,reference,finite_applies", [
        (gmres, reference_gmres, 3),
        (bicgstab, reference_bicgstab, 2),
    ])
    def test_keeps_last_finite_iterate(self, solver, reference, finite_applies):
        # the map turns nan after finite_applies calls: GMRES after three
        # Arnoldi steps, BiCGStab after one full step
        a, b = random_well_conditioned(20, 41)
        calls = []

        def apply(v):
            calls.append(1)
            return a @ v if len(calls) <= finite_applies else np.full_like(v, np.nan)

        rep = solver(apply, b, SolveConfig(rel_tol=1e-14))
        assert rep.breakdown and not rep.converged
        assert all(math.isfinite(h) for h in rep.residual_history)
        steps = 3 if solver is gmres else 1
        assert len(rep.residual_history) == steps
        assert rep.iterations == steps + (solver is gmres)  # GMRES counts the failed step
        last = reference(dense_apply(a), b, SolveConfig(rel_tol=1e-14, max_iter=steps))
        assert last.iterations == steps
        assert_same_solution(rep.solution, last.solution)


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
