"""Grid enumeration conventions: everything else keys off these."""

import numpy as np
import pytest

import riskswitch as rs

import _oracles as orc


def test_axis_and_spacing():
    g = rs.build_grid(1, 2.0, 9)
    assert g.spacing == pytest.approx(0.5)
    np.testing.assert_allclose(g.axis_full, np.arange(-2.0, 2.01, 0.5))
    np.testing.assert_allclose(g.axis_interior, np.arange(-1.5, 1.51, 0.5))
    assert g.num_interior == 7
    assert g.interior_shape == (7,)


def test_origin_is_exact_node():
    # linspace can leave ~1e-17 at the center; normalization anchors there
    g = rs.build_grid(1, 3.0, 61)
    mid = (g.nodes_per_axis - 1) // 2
    assert g.axis_full[mid] == 0.0
    pts = g.interior_points()
    assert pts[g.origin_index, 0] == 0.0


def test_origin_index_2d():
    g = rs.build_grid(2, 1.0, 5)
    pts = g.interior_points()
    np.testing.assert_array_equal(pts[g.origin_index], [0.0, 0.0])


def test_even_node_count_rejected():
    with pytest.raises(ValueError):
        rs.build_grid(1, 1.0, 8)
    with pytest.raises(ValueError):
        rs.build_grid(1, 1.0, 2)
    with pytest.raises(ValueError):
        rs.build_grid(1, -1.0, 5)
    with pytest.raises(ValueError):
        rs.build_grid(0, 1.0, 5)


def test_interior_enumeration_row_major():
    g = rs.build_grid(2, 1.0, 5)
    pts = g.interior_points()
    assert pts.shape == (9, 2)
    # last coordinate varies fastest
    np.testing.assert_allclose(pts[0], [-0.5, -0.5])
    np.testing.assert_allclose(pts[1], [-0.5, 0.0])
    np.testing.assert_allclose(pts[3], [0.0, -0.5])
    # strides reproduce the flat enumeration
    idx = np.rint((pts - g.axis_interior[0]) / g.spacing).astype(int)
    np.testing.assert_array_equal(idx @ g.strides, np.arange(9))


def test_row_index_regime_major():
    g = rs.build_grid(1, 1.0, 5)
    assert g.row_index(0, 2) == 2
    assert g.row_index(1, 0) == g.num_interior
    assert g.row_index(2, 1) == 2 * g.num_interior + 1


def test_nearest_interior_index_rounds_and_clamps():
    g = rs.build_grid(1, 2.0, 9)
    X = np.array([[0.0], [0.24], [0.26], [-5.0], [5.0]])
    idx = g.nearest_interior_index(X)
    pts = g.interior_points()[:, 0]
    assert pts[idx[0]] == 0.0
    assert pts[idx[1]] == 0.0     # rounds down
    assert pts[idx[2]] == 0.5     # rounds up
    assert pts[idx[3]] == -1.5    # clamped to the interior, not the boundary
    assert pts[idx[4]] == 1.5


def test_nearest_interior_index_2d_batch():
    g = rs.build_grid(2, 1.0, 5)
    X = np.array([[0.4, -0.6], [0.0, 0.0]])
    idx = g.nearest_interior_index(X)
    np.testing.assert_allclose(g.interior_points()[idx[0]], [0.5, -0.5])
    np.testing.assert_allclose(g.interior_points()[idx[1]], [0.0, 0.0])


def test_grid_for_resolution():
    g = rs.grid_for_resolution(1, 4.0, 25)
    assert g.nodes_per_axis == 201
    assert g.spacing == pytest.approx(0.04)
    # non-integral tiling: 1.05 * 10 cells does not close the box
    with pytest.raises(ValueError):
        rs.grid_for_resolution(1, 1.05, 10)
    # fractional radius with integral tiling is accepted
    assert rs.grid_for_resolution(1, 1.5, 10).nodes_per_axis == 31


@pytest.mark.parametrize("dim,radius,npu", [(1, 3.0, 10), (1, 2.0, 2), (2, 3.0, 5), (2, 1.0, 3)])
def test_interpolate_equals_regular_grid_interpolator_bitwise(dim, radius, npu):
    g = rs.grid_for_resolution(dim, radius, npu)
    rng = np.random.default_rng(dim * 100 + npu)
    table = rng.random((3, g.num_interior)) + 0.1
    ax = g.axis_full
    parts = [
        rng.uniform(-radius, radius, (400, dim)),            # inside
        rng.uniform(-1.5 * radius, 1.5 * radius, (400, dim)),  # inside and out
        rng.choice(ax, (200, dim)),                          # nodes and corners
    ]
    for a in range(dim):
        for face in (-radius, radius):
            P = rng.uniform(-radius, radius, (50, dim))
            P[:, a] = face                                   # box faces
            parts.append(P)
        P = rng.uniform(-radius, radius, (50, dim))
        P[:, a] = rng.choice(ax, 50)                         # node lines
        parts.append(P)
    X = np.concatenate(parts)
    X[:7, 0] = np.nan
    X[7:9] = np.nan
    X[9] = 2.0 * radius  # NaN wins over outside
    X[9, 0] = np.nan
    K = rng.integers(0, 3, X.shape[0])
    got = g.interpolate(table, X, K)
    ref = orc.rgi_interpolate(g, table, X, K)
    np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))
    assert np.isnan(got[:10]).all()
    outside = np.any(np.abs(X) > radius, axis=1) & ~np.isnan(got)
    assert outside.sum() > 100 and (got[outside] == 0.0).all()
    # the boundary layer is zero, every interior node returns its table entry
    nodes = g.interior_points()
    for k in range(3):
        np.testing.assert_array_equal(
            g.interpolate(table, nodes, np.full(len(nodes), k)), table[k])
