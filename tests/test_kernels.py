import numpy as np
import pytest

from rtkrylov import _kernels
from rtkrylov.errors import NumericalError
from rtkrylov.grid import build_grid
from rtkrylov.multidim import CartesianGrid2D, build_transfer_2d
from rtkrylov.transfer import build_transfer, lower_block


# The implicit-Euler recursions as explicit loops: the reference the banded
# solve must reproduce bit for bit.

def march_down(dtau, src):
    # out_{i+1} = (out_i + dtau_i * src_{i+1}) / (1 + dtau_i), out_1 = 0
    out = np.empty_like(src)
    n = src.shape[1]
    out[:, 0] = 0.0
    acc = np.zeros(src.shape[0])
    for i in range(n - 1):
        acc = (acc + dtau[:, i] * src[:, i + 1]) / (1.0 + dtau[:, i])
        out[:, i + 1] = acc
    return out


def march_up(dtau, src):
    # out_{i-1} = (out_i + dtau_{i-1} * src_{i-1}) / (1 + dtau_{i-1}), out_n = 0
    out = np.empty_like(src)
    n = src.shape[1]
    out[:, n - 1] = 0.0
    acc = np.zeros(src.shape[0])
    for i in range(n - 1, 0, -1):
        acc = (acc + dtau[:, i - 1] * src[:, i - 1]) / (1.0 + dtau[:, i - 1])
        out[:, i - 1] = acc
    return out


def march_lines(dtau, src, node_off, dtau_off):
    # per-line down-sweep over ragged storage (lines concatenated)
    out = np.empty_like(src)
    for l in range(node_off.size - 1):
        a, b = node_off[l], node_off[l + 1]
        d = dtau_off[l]
        acc = 0.0
        out[a] = 0.0
        for i in range(b - a - 1):
            acc = (acc + dtau[d + i] * src[a + i + 1]) / (1.0 + dtau[d + i])
            out[a + i + 1] = acc
    return out


def banded_rays(dtau, src):
    # equal-length rows of src, each a ray entering at its first node
    m, n = src.shape
    node_dtau = np.hstack([np.zeros((m, 1)), dtau])
    ab = _kernels.band(node_dtau.ravel(), np.arange(m + 1) * n)
    return _kernels.sweep(ab, (node_dtau * src).ravel()).reshape(m, n)


def banded_lines(dtau, src, node_off):
    # dtau without entries (as march_lines takes it) spread to one value per node
    node_dtau = np.zeros(src.size)
    entry = np.zeros(src.size, dtype=bool)
    entry[node_off[:-1]] = True
    node_dtau[~entry] = dtau
    ab = _kernels.band(node_dtau, node_off)
    return _kernels.sweep(ab, node_dtau * src)


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


def test_rays_match_recursion_exactly(batch):
    dtau, src = batch
    assert np.array_equal(banded_rays(dtau, src), march_down(dtau, src))
    # an up ray is the same march on the space-reversed ray
    up = banded_rays(dtau[:, ::-1], src[:, ::-1])[:, ::-1]
    assert np.array_equal(up, march_up(dtau, src))


def test_ragged_lines_match_recursion_exactly():
    dtau, src, node_off, dtau_off = ragged()
    assert np.array_equal(banded_lines(dtau, src, node_off),
                          march_lines(dtau, src, node_off, dtau_off))


def test_empty_batch_handled():
    assert banded_rays(np.zeros((0, 4)), np.zeros((0, 5))).shape == (0, 5)
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
    swept = banded_rays(dtau, src)
    for k in range(src.shape[0]):
        np.testing.assert_allclose(swept[k], lower_block(dtau[k]) @ src[k], rtol=1e-13, atol=1e-15)


def test_apply_transfer_matches_recursion_exactly():
    g = build_grid(25, 6, 5, 0.0, 1.0, profile=lambda nu: 1.0 / (np.pi * (nu**2 + 1.0)))
    op = build_transfer(g, i_in_deep=1.0)
    s = np.random.default_rng(3).standard_normal(g.n_total)
    mat = s.reshape(g.n_space, g.n_rays).T
    dtau, d = g.delta_tau_table(), op.n_down
    expected = np.concatenate([march_down(dtau[:d], mat[:d]), march_up(dtau[d:], mat[d:])])
    assert np.array_equal(op.apply_space_major(s), expected.T.ravel())


def test_2d_transfer_matches_recursion_exactly():
    grid = CartesianGrid2D(7, 6, 8)
    op = build_transfer_2d(grid, chi=1.3)
    v = np.random.default_rng(4).standard_normal(grid.n_total)
    mat = v.reshape(grid.n_space, grid.n_rays)
    expected = np.empty_like(mat)
    for k, (pair, family) in enumerate(zip(op.blocks, op.families)):
        dtau = op.dtau[op.offsets[k]:op.offsets[k + 1]]
        node_off = family.node_offsets
        entry = np.zeros(dtau.size, dtype=bool)
        entry[node_off[:-1]] = True
        swept = march_lines(dtau[~entry], pair.cart_to_ray.matrix @ mat[:, k],
                            node_off, node_off - np.arange(node_off.size))
        expected[:, k] = pair.ray_to_cart.matrix @ swept
    assert np.array_equal(op.apply_space_major(v), expected.ravel())


def test_sweep_solves_in_place_and_rejects_strided_rhs():
    ab = _kernels.band(np.ones(3), np.array([0, 3]))
    rhs = np.array([0.0, 2.0, 2.0])
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
    ab = _kernels.band(np.array([0.0, -1.0]), np.array([0, 2]))
    with pytest.raises(NumericalError):
        _kernels.sweep(ab, np.ones(2))


def test_backend_is_lapack():
    assert _kernels.backend() == "lapack"
