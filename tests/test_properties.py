"""Property tests on random small configurations of every preset.

The matrix-free applies and the scattering strength bound are checked
against their dense materializations, the strength bound's shortcut for
nonnegative factors against its blocked path, the Krylov solvers against
the true residual, the 1D and 2D spectra against the dense eigensolve, and
the 2D build against its per-line loop reference. Examples are drawn
deterministically (derandomize=True), so every run checks the same cases.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rtkrylov import presets
from rtkrylov.multidim import CartesianGrid2D
from rtkrylov.krylov import SolveConfig, solve_system
from rtkrylov.operator import apply_A, materialize_A
from rtkrylov.scattering import (
    ScatteringStrengthWarning,
    _row_sums_blocked,
    _row_sums_nonnegative,
    _strength_bound,
    materialize_scattering,
)
from rtkrylov.spectrum import compute_spectrum

from conftest import assert_matches_dense_spectrum
from test_multidim import assert_build_matches_loops

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)
TOL = 1e-10


def quiet_build(preset, params):
    with warnings.catch_warnings():
        # a gamma_scale up to 1.2 can take ||Gamma Psi W||_inf past one
        warnings.simplefilter("ignore", ScatteringStrengthWarning)
        return presets.build(preset, **params)


@st.composite
def problems(draw):
    preset = draw(st.sampled_from(["mono", "coherent", "crd", "aniso2d"]))
    params = {"gamma_scale": draw(st.floats(0.0, 1.2))}
    if preset == "aniso2d":
        params.update(n_x=draw(st.integers(2, 7)), n_y=draw(st.integers(2, 7)),
                      n_angles=draw(st.integers(1, 8)))
    else:
        params.update(n_space=draw(st.integers(2, 12)),
                      n_angles=2 * draw(st.integers(1, 4)),
                      n_freq=draw(st.integers(2, 6)) if preset != "mono" else 1)
    problem = quiet_build(preset, params)
    seed = draw(st.integers(0, 2**32 - 1))
    return problem, np.random.default_rng(seed).standard_normal(problem.n_total)


@PROPERTY
@given(problems())
def test_apply_A_matches_materialization(case):
    p, v = case
    out = apply_A(p, v)
    np.testing.assert_allclose(out, materialize_A(p) @ v, rtol=1e-12,
                               atol=1e-13 * np.abs(out).max())


@PROPERTY
@given(problems())
def test_transfer_apply_matches_materialization(case):
    p, v = case
    out = p.transfer.apply_space_major(v)
    np.testing.assert_allclose(out, p.transfer.materialize() @ v, rtol=1e-12,
                               atol=1e-13 * np.abs(out).max())


@PROPERTY
@given(problems(), st.sampled_from(["gmres", "bicgstab"]))
def test_true_residual_within_tolerance(case, method):
    p, b = case
    rep = solve_system(lambda x: apply_A(p, x), b, SolveConfig(method=method, rel_tol=TOL))
    assert rep.converged
    residual = np.linalg.norm(b - apply_A(p, rep.solution)) / np.linalg.norm(b)
    assert residual <= 10 * TOL


@PROPERTY
@given(problems())
def test_strength_bound_is_scattering_infinity_norm(case):
    p, _ = case
    dense = np.abs(materialize_scattering(p.scattering)).sum(axis=1).max()
    np.testing.assert_allclose(_strength_bound(p.scattering), dense, rtol=1e-12, atol=0)


@st.composite
def nonnegative_factors(draw):
    # (P^T, d, w) with no negative entry; a share of exact zeros, as in the
    # coherent kernel's frequency indicators
    n_rays, r = draw(st.integers(1, 64)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pt = rng.uniform(0.0, 2.0, (r, n_rays))
    pt[rng.random(pt.shape) < draw(st.floats(0.0, 0.9))] = 0.0
    return pt, rng.uniform(0.0, 2.0, r), rng.uniform(0.0, 1.0, n_rays)


@PROPERTY
@given(nonnegative_factors())
def test_nonnegative_row_sums_match_blocked_path(factor):
    np.testing.assert_allclose(_row_sums_nonnegative(*factor), _row_sums_blocked(*factor),
                               rtol=1e-15, atol=0)


@st.composite
def spectrum_cells(draw):
    preset = draw(st.sampled_from(["mono", "coherent", "crd", "aniso2d"]))
    params = {"gamma_scale": draw(st.floats(0.0, 1.2))}
    # the 2D kernel has rank min(8, ceil(n_angles / 2)): every count from 2
    # up takes the reduced core, 1 the dense eigensolve
    if preset == "aniso2d":
        params.update(n_x=draw(st.integers(2, 5)), n_y=draw(st.integers(2, 5)),
                      n_angles=draw(st.integers(1, 12)))
        return quiet_build(preset, params)
    params["n_space"] = draw(st.integers(2, 10))
    if preset == "mono":
        params["n_angles"] = 2 * draw(st.integers(1, 10))
    else:
        params.update(n_angles=2 * draw(st.integers(1, 4)), n_freq=draw(st.integers(2, 6)))
    return quiet_build(preset, params)


@PROPERTY
@given(spectrum_cells())
def test_spectrum_matches_dense_eigensolve(p):
    assert_matches_dense_spectrum(p, compute_spectrum(p))


@st.composite
def builds_2d(draw):
    x0, y0 = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    width, height = draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))
    grid = CartesianGrid2D(draw(st.integers(2, 7)), draw(st.integers(2, 7)),
                           draw(st.integers(1, 8)), domain=(x0, x0 + width, y0, y0 + height))
    h = min(grid.hx, grid.hy)
    # line spacing up to 1.5 cells keeps every Cartesian node near a line node
    kwargs = {"chi": draw(st.floats(0.0, 3.0)), "inflow": draw(st.floats(-1.0, 1.0)),
              "spacing": draw(st.none() | st.floats(0.3, 1.5).map(lambda f: f * h)),
              "node_step": draw(st.none() | st.floats(0.3, 2.0).map(lambda f: f * h))}
    return grid, kwargs


@PROPERTY
@given(builds_2d())
def test_build_2d_matches_loop_reference(case):
    grid, kwargs = case
    assert_build_matches_loops(grid, **kwargs)
