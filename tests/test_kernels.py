import numpy as np
import pytest

from rtkrylov import _kernels
from rtkrylov.errors import NumericalError
from rtkrylov.grid import build_grid
from rtkrylov.multidim import CartesianGrid2D, build_transfer_2d
from rtkrylov.transfer import LANE_MIN_RAYS, build_transfer, lower_block


EPS = np.finfo(float).eps

# The implicit-Euler recursions as explicit loops, divided through by 1 + dtau:
# acc = r * acc + w * src with r = 1 / (1 + dtau) and w = dtau / (1 + dtau),
# the recursion the banded solve performs.


def scaled(dtau):
    return 1.0 / (1.0 + dtau), dtau / (1.0 + dtau)


def assert_matches_recursion(got, ref, steps, scale=None):
    # whether BLAS fuses the multiply-add of a step varies by build: fused and
    # unfused results differ by under 1.5 ulps of the largest value per step,
    # and the recursion contracts (r < 1), so after `steps` steps they differ
    # by at most 2 * steps ulps of the largest value
    scale = np.abs(ref).max() if scale is None else scale
    np.testing.assert_allclose(got, ref, rtol=0, atol=2 * steps * EPS * scale)


def march_down(dtau, src):
    # out_{i+1} = r_i out_i + w_i src_{i+1}, out_1 = 0
    r, w = scaled(dtau)
    out = np.empty_like(src)
    n = src.shape[1]
    out[:, 0] = 0.0
    acc = np.zeros(src.shape[0])
    for i in range(n - 1):
        acc = r[:, i] * acc + w[:, i] * src[:, i + 1]
        out[:, i + 1] = acc
    return out


def march_up(dtau, src):
    # out_{i-1} = r_{i-1} out_i + w_{i-1} src_{i-1}, out_n = 0
    r, w = scaled(dtau)
    out = np.empty_like(src)
    n = src.shape[1]
    out[:, n - 1] = 0.0
    acc = np.zeros(src.shape[0])
    for i in range(n - 1, 0, -1):
        acc = r[:, i - 1] * acc + w[:, i - 1] * src[:, i - 1]
        out[:, i - 1] = acc
    return out


def march_lines(dtau, src, node_off, dtau_off):
    # per-line down-sweep over ragged storage (lines concatenated)
    r, w = scaled(dtau)
    out = np.empty_like(src)
    for l in range(node_off.size - 1):
        a, b = node_off[l], node_off[l + 1]
        d = dtau_off[l]
        acc = 0.0
        out[a] = 0.0
        for i in range(b - a - 1):
            acc = r[d + i] * acc + w[d + i] * src[a + i + 1]
            out[a + i + 1] = acc
    return out


def banded_rays(dtau, src):
    # equal-length rows of src, each a ray entering at its first node
    m, n = src.shape
    node_dtau = np.hstack([np.zeros((m, 1)), dtau])
    ab = _kernels.band(node_dtau.ravel(), np.arange(m + 1) * n)
    return _kernels.sweep(ab, (scaled(node_dtau)[1] * src).ravel()).reshape(m, n)


def lane_rays(dtau, src):
    # the same rays marched as position-major lanes
    m, n = src.shape
    w, r = _kernels.lanes(np.hstack([np.zeros((m, 1)), dtau]))
    return _kernels.lane_sweep(r, w * src.T).T


def banded_lines(dtau, src, node_off):
    # dtau without entries (as march_lines takes it) spread to one value per node
    node_dtau = np.zeros(src.size)
    entry = np.zeros(src.size, dtype=bool)
    entry[node_off[:-1]] = True
    node_dtau[~entry] = dtau
    ab = _kernels.band(node_dtau, node_off)
    return _kernels.sweep(ab, scaled(node_dtau)[1] * src)


def march_longdouble(dtau, src, entry=0.0):
    # the division form of the recursion in extended precision, entry-first
    # along axis 0 (dtau[0] = 0 at the entry, where the value is entry)
    dtau, src = dtau.astype(np.longdouble), src.astype(np.longdouble)
    out = np.zeros_like(src)
    out[0] = entry
    for i in range(1, src.shape[0]):
        out[i] = (out[i - 1] + dtau[i] * src[i]) / (1 + dtau[i])
    return out


@pytest.fixture
def batch():
    rng = np.random.default_rng(0)
    dtau = rng.uniform(0.01, 5.0, size=(7, 19))
    src = rng.standard_normal((7, 20))
    return dtau, src


def ragged():
    rng = np.random.default_rng(1)
    node_off = np.array([0, 4, 9, 10, 12], dtype=np.int64)  # includes a one-node line
    dtau_off = node_off - np.arange(node_off.size)
    dtau = rng.uniform(0.05, 2.0, size=int(dtau_off[-1]))
    src = rng.standard_normal(int(node_off[-1]))
    return dtau, src, node_off, dtau_off


def test_rays_match_recursion(batch):
    dtau, src = batch
    steps = src.shape[1]
    for sweep_rays in (banded_rays, lane_rays):
        assert_matches_recursion(sweep_rays(dtau, src), march_down(dtau, src), steps)
        # an up ray is the same march on the space-reversed ray
        up = sweep_rays(dtau[:, ::-1], src[:, ::-1])[:, ::-1]
        assert_matches_recursion(up, march_up(dtau, src), steps)


def test_ragged_lines_match_recursion():
    dtau, src, node_off, dtau_off = ragged()
    assert_matches_recursion(banded_lines(dtau, src, node_off),
                             march_lines(dtau, src, node_off, dtau_off),
                             int(np.diff(node_off).max()))


def test_empty_batch_handled():
    assert banded_rays(np.zeros((0, 4)), np.zeros((0, 5))).shape == (0, 5)
    assert lane_rays(np.zeros((0, 4)), np.zeros((0, 5))).shape == (0, 5)
    empty = np.zeros(0)
    offsets = np.zeros(1, dtype=np.int64)
    assert np.array_equal(banded_lines(empty, empty, offsets),
                          march_lines(empty, empty, offsets, offsets))


def test_line_sweep_matches_batched_sweep_on_equal_lines():
    rng = np.random.default_rng(2)
    dtau = rng.uniform(0.1, 1.5, size=(3, 9))
    src = rng.standard_normal((3, 10))
    flat = banded_lines(dtau.ravel(), src.ravel(), np.arange(4, dtype=np.int64) * 10)
    assert np.array_equal(flat.reshape(3, 10), banded_rays(dtau, src))


def test_sweep_matches_closed_form_blocks(batch):
    dtau, src = batch
    for swept in (banded_rays(dtau, src), lane_rays(dtau, src)):
        for k in range(src.shape[0]):
            np.testing.assert_allclose(swept[k], lower_block(dtau[k]) @ src[k],
                                       rtol=1e-13, atol=1e-15)


def test_apply_transfer_matches_recursion():
    g = build_grid(25, 6, 5, 0.0, 1.0, profile=lambda nu: 1.0 / (np.pi * (nu**2 + 1.0)))
    op = build_transfer(g, i_in_deep=1.0)
    s = np.random.default_rng(3).standard_normal(g.n_total)
    mat = s.reshape(g.n_space, g.n_rays).T
    dtau, d = g.delta_tau_table(), op.n_down
    expected = np.concatenate([march_down(dtau[:d], mat[:d]), march_up(dtau[d:], mat[d:])])
    assert_matches_recursion(op.apply_space_major(s), expected.T.ravel(), g.n_space)


def test_2d_transfer_matches_recursion():
    grid = CartesianGrid2D(7, 6, 8)
    op = build_transfer_2d(grid, chi=1.3)
    v = np.random.default_rng(4).standard_normal(grid.n_total)
    mat = v.reshape(grid.n_space, grid.n_rays)
    expected = np.empty_like(mat)
    steps, scale = 0, 0.0
    for k, (pair, family) in enumerate(zip(op.blocks, op.families)):
        dtau = op.dtau[op.offsets[k]:op.offsets[k + 1]]
        node_off = family.node_offsets
        entry = np.zeros(dtau.size, dtype=bool)
        entry[node_off[:-1]] = True
        swept = march_lines(dtau[~entry], pair.cart_to_ray.matrix @ mat[:, k],
                            node_off, node_off - np.arange(node_off.size))
        expected[:, k] = pair.ray_to_cart.matrix @ swept
        steps = max(steps, int(np.diff(node_off).max()))
        scale = max(scale, np.abs(swept).max())
    # the line-to-Cartesian rows are convex weights, so the line-node bound carries over
    assert_matches_recursion(op.apply_space_major(v), expected.ravel(), steps, scale)


def test_sweep_solves_in_place_and_rejects_strided_rhs():
    ab = _kernels.band(np.ones(3), np.array([0, 3]))  # r = w = 1/2
    rhs = np.array([0.0, 1.0, 1.0])
    assert _kernels.sweep(ab, rhs) is rhs
    np.testing.assert_array_equal(rhs, [0.0, 1.0, 1.5])
    with pytest.raises(ValueError):
        _kernels.sweep(ab, np.zeros(6)[::2])


def test_multi_column_sweep_matches_column_sweeps_exactly():
    rng = np.random.default_rng(5)
    node_off = ragged()[2]
    ab = _kernels.band(rng.uniform(0.05, 2.0, size=int(node_off[-1])), node_off)
    rhs = np.asfortranarray(rng.standard_normal((ab.shape[1], 4)))
    expected = np.column_stack([_kernels.sweep(ab, col.copy()) for col in rhs.T])
    assert _kernels.sweep(ab, rhs) is rhs
    assert np.array_equal(rhs, expected)
    with pytest.raises(ValueError):
        _kernels.sweep(ab, np.ascontiguousarray(expected))


def test_singular_band_raises():
    with pytest.raises(NumericalError, match="at node 1$"):
        _kernels.band(np.array([0.0, -1.0]), np.array([0, 2]))
    with pytest.raises(NumericalError, match="at node 3$"):  # entry-first index
        _kernels.lanes(np.array([[0.0, 0.5], [0.0, -1.0]]))


def test_lane_sweep_rejects_mismatched_table():
    r = _kernels.lanes(np.zeros((3, 4)))[1]
    with pytest.raises(ValueError):
        _kernels.lane_sweep(r, np.zeros((3, 4)))


def test_backend_is_lapack():
    assert _kernels.backend() == "lapack"


# Optically thin rays: dtau = 1e-4 over a few thousand nodes, so the
# recursion barely contracts and rounding accumulates along the whole ray.
# Each value is a sum of positive terms, each a product of at most n rounded
# factors, so against the exact recursion the error stays below n ulps of
# the largest value (measured: 1/28 to 1/13 of that).

needs_long_double = pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS,
                                       reason="long double is double precision here")


def thin_grid(n_space):
    # mu = +-1/2 and dt = 5e-5: every increment is 1e-4
    return build_grid(n_space, 2, 1, 0.0, 5e-5 * (n_space - 1))


def assert_within_thin_bound(got, ref, steps):
    ref = np.asarray(ref, dtype=np.longdouble)
    err = np.abs(got - ref).max() / np.abs(ref).max()
    assert err < steps * EPS, f"relative error {float(err):.3g} over {steps} steps"


@needs_long_double
def test_thin_ray_apply_against_long_double():
    g = thin_grid(4000)
    op = build_transfer(g)
    assert op.dtau.max() == pytest.approx(1e-4)
    v = np.random.default_rng(6).uniform(0.5, 1.5, g.n_total)  # positive: no cancellation
    mat = v.reshape(g.n_space, 2)
    ref = np.empty(mat.shape, dtype=np.longdouble)
    ref[:, 0] = march_longdouble(op.dtau[0], mat[:, 0])  # the down ray
    ref[::-1, 1] = march_longdouble(op.dtau[1], mat[::-1, 1])  # the up ray, entry at depth
    assert_within_thin_bound(op.apply_space_major(v).reshape(mat.shape), ref, g.n_space)


@needs_long_double
def test_thin_ray_blocks_against_long_double():
    g = thin_grid(1000)
    op = build_transfer(g)
    blocks = op.ray_blocks()
    eye = np.eye(g.n_space)
    assert_within_thin_bound(blocks[0], march_longdouble(op.dtau[0], eye), g.n_space)
    assert_within_thin_bound(blocks[1], march_longdouble(op.dtau[1], eye)[::-1, ::-1],
                             g.n_space)


@needs_long_double
def test_thin_lines_2d_apply_against_long_double():
    # lines of up to ~5600 nodes 2.5e-4 apart at opacity 0.4
    grid = CartesianGrid2D(4, 4, 4)
    op = build_transfer_2d(grid, chi=0.4, node_step=2.5e-4)
    v = np.random.default_rng(7).uniform(0.5, 1.5, grid.n_total)
    mat = v.reshape(grid.n_space, grid.n_rays)
    got = op.apply_space_major(v).reshape(mat.shape)
    steps = 0
    for k, (pair, family) in enumerate(zip(op.blocks, op.families)):
        dtau = op.dtau[op.offsets[k]:op.offsets[k + 1]]
        src = pair.cart_to_ray.matrix @ mat[:, k]
        node_off = family.node_offsets
        lines = np.concatenate([march_longdouble(dtau[a:b], src[a:b])
                                for a, b in zip(node_off[:-1], node_off[1:])])
        # the line-to-Cartesian rows are convex weights: the bound carries over
        ref = pair.ray_to_cart.matrix @ lines.astype(float)
        steps = max(steps, int(np.diff(node_off).max()))
        assert_within_thin_bound(got[:, k], ref, steps)


@needs_long_double
def test_lane_boundary_and_blocks_against_long_double():
    # 288 rays, so the operator sweeps lanes; both inflows nonzero
    g = build_grid(4, 24, 12, 0.0, 1.0, profile=lambda nu: 1.0 / (np.pi * (nu**2 + 1.0)))
    assert g.n_rays >= LANE_MIN_RAYS
    op = build_transfer(g, i_in_deep=1.0, i_in_surf=0.5)
    assert op.band is None
    n, d = g.n_space, op.n_down
    boundary = op.boundary_space_major().reshape(n, g.n_rays)
    blocks = op.ray_blocks()
    for k in range(g.n_rays):
        inflow = march_longdouble(op.dtau[k], np.zeros(n), 0.5 if k < d else 1.0)
        block = march_longdouble(op.dtau[k], np.eye(n))
        if k >= d:  # up rays enter at depth
            inflow, block = inflow[::-1], block[::-1, ::-1]
        assert_matches_recursion(boundary[:, k], inflow.astype(float), n)
        assert_matches_recursion(blocks[k], block.astype(float), n)
