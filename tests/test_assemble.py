"""Monotone finite-difference assembly: stencils, Metzler structure, bookkeeping."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

import riskswitch as rs
from riskswitch import MonotonicityViolation

import _oracles as orc


def scalar_model(drift_fn, cost_fn, sigma=math.sqrt(2.0)):
    return rs.SwitchingModel(
        name="scalar", dim=1, num_regimes=1, controls=[1.0],
        drift=lambda X, k, xi: drift_fn(X),
        diffusion=lambda X, k: np.full((X.shape[0], 1, 1), sigma),
        rates=lambda X, xi: np.zeros((X.shape[0], 1, 1)),
        cost=lambda X, k, xi: cost_fn(X),
    )


def test_single_node_laplacian_row():
    # radius 1, three nodes per axis: one interior unknown, h = 1; sigma = 2
    # gives a = 2 exactly in floating point, so the row is exactly [-2a/h^2]
    m = scalar_model(lambda X: np.zeros_like(X), lambda X: np.zeros(X.shape[0]),
                     sigma=2.0)
    g = rs.GridSpec(1, 1.0, 3)
    op = rs.assemble(m, g, rs.constant_policy(g, 1))
    np.testing.assert_array_equal(op.matrix.toarray(), [[-4.0]])
    np.testing.assert_array_equal(op.boundary_outflow, [4.0])


def test_hand_computed_upwind_matrix():
    # h = 0.5, interior {-0.5, 0, 0.5}, drift -x, a = 2, cost q x^2:
    #   x = -0.5: b = +0.5 -> forward difference; up = a/h^2 + b/h = 9
    #   x =  0.0: b = 0    -> pure diffusion, 8 each side
    #   x = +0.5: b = -0.5 -> backward difference; down = 9
    # all entries dyadic, so equality is exact
    q = 0.1875
    m = scalar_model(lambda X: -X, lambda X: q * X[:, 0] ** 2, sigma=2.0)
    g = rs.GridSpec(1, 1.0, 5)
    op = rs.assemble(m, g, rs.constant_policy(g, 1))
    expected = np.array([
        [-17.0 + q * 0.25, 9.0, 0.0],
        [8.0, -16.0, 8.0],
        [0.0, 9.0, -17.0 + q * 0.25],
    ])
    np.testing.assert_array_equal(op.matrix.toarray(), expected)
    np.testing.assert_array_equal(op.boundary_outflow, [8.0, 0.0, 8.0])
    np.testing.assert_array_equal(op.cost_vector, [q * 0.25, 0.0, q * 0.25])


def test_row_sum_bookkeeping_invariant():
    # A @ 1 + boundary_outflow must equal the cost row: the generator part
    # annihilates constants up to the recorded Dirichlet leak
    rng = np.random.default_rng(42)
    for _ in range(20):
        m, g = orc.random_instance(rng)
        pol = rs.constant_policy(g, m.num_regimes,
                                 control_index=rng.integers(m.num_controls))
        op = rs.assemble(m, g, pol)
        ones = np.ones(op.shape[0])
        np.testing.assert_allclose(
            op.matrix @ ones + op.boundary_outflow, op.cost_vector,
            atol=1e-10, rtol=0)


def test_metzler_structure():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m, g = orc.random_instance(rng)
        op = rs.assemble(m, g, rs.constant_policy(g, m.num_regimes))
        A = op.matrix.tocoo()
        off = A.data[A.row != A.col]
        assert off.min() >= 0.0
        assert np.all(op.boundary_outflow >= 0.0)


def test_quadratic_exactness_interior():
    # central second difference is exact on quadratics; rows not touching the
    # boundary reproduce a f'' = 2 a exactly
    m = scalar_model(lambda X: np.zeros_like(X), lambda X: np.zeros(X.shape[0]),
                     sigma=1.5)
    g = rs.GridSpec(1, 2.0, 17)
    op = rs.assemble(m, g, rs.constant_policy(g, 1))
    x = g.interior_points()[:, 0]
    Af = op.matrix @ (x ** 2)
    a = 0.5 * 1.5 ** 2
    inner = slice(1, -1)
    np.testing.assert_allclose(Af[inner], 2.0 * a, rtol=1e-12)


def test_linear_exactness_upwind():
    # one-sided differences are exact on linear functions, both drift signs
    m = scalar_model(lambda X: 0.7 - X, lambda X: np.zeros(X.shape[0]))
    g = rs.GridSpec(1, 2.0, 17)
    op = rs.assemble(m, g, rs.constant_policy(g, 1))
    x = g.interior_points()[:, 0]
    Af = op.matrix @ x
    np.testing.assert_allclose(Af[1:-1], 0.7 - x[1:-1], rtol=0, atol=1e-12)


def test_cross_term_corner_stencil_exact_on_bilinear():
    # f = x1 x2 has only the mixed second derivative; the corner stencil must
    # produce exactly 2 a12 at nodes with all four diagonal neighbors
    for s12 in (0.6, -0.6):
        sig = np.array([[1.0, s12], [s12, 1.0]])

        def diffusion(X, k):
            return np.broadcast_to(sig, (X.shape[0], 2, 2)).copy()

        m = rs.SwitchingModel(
            name="cross", dim=2, num_regimes=1, controls=[1.0],
            drift=lambda X, k, xi: np.zeros_like(X),
            diffusion=diffusion,
            rates=lambda X, xi: np.zeros((X.shape[0], 1, 1)),
            cost=lambda X, k, xi: np.zeros(X.shape[0]),
        )
        g = rs.GridSpec(2, 1.0, 9)
        op = rs.assemble(m, g, rs.constant_policy(g, 1))
        pts = g.interior_points()
        f = pts[:, 0] * pts[:, 1]
        Af = op.matrix @ f
        a12 = 0.5 * (sig @ sig.T)[0, 1]
        inner = np.all(np.abs(pts) < g.radius - 1.5 * g.spacing, axis=1)
        np.testing.assert_allclose(Af[inner], 2 * a12, rtol=1e-12)


def test_monotonicity_violation_refused():
    def diffusion(X, k):
        sig = np.array([[1.0, 0.0], [1.5, 0.1]])  # a12 = 0.75 > a11 = 0.5
        return np.broadcast_to(sig, (X.shape[0], 2, 2)).copy()

    m = rs.SwitchingModel(
        name="skew", dim=2, num_regimes=1, controls=[1.0],
        drift=lambda X, k, xi: np.zeros_like(X),
        diffusion=diffusion,
        rates=lambda X, xi: np.zeros((X.shape[0], 1, 1)),
        cost=lambda X, k, xi: np.zeros(X.shape[0]),
    )
    g = rs.GridSpec(2, 1.0, 5)
    with pytest.raises(MonotonicityViolation) as exc:
        rs.assemble(m, g, rs.constant_policy(g, 1))
    assert exc.value.a_matrix[0, 1] == pytest.approx(0.75)
    assert "monotone" in str(exc.value)


def test_monotonicity_boundary_case_allowed():
    # |a12| == min(a11, a22) is the degenerate edge of the stencil: allowed
    def diffusion(X, k):
        sig = np.array([[1.0, 0.0], [1.0, 0.0]])  # a = [[.5, .5], [.5, .5]]
        return np.broadcast_to(sig, (X.shape[0], 2, 2)).copy()

    m = rs.SwitchingModel(
        name="edge", dim=2, num_regimes=1, controls=[1.0],
        drift=lambda X, k, xi: np.zeros_like(X),
        diffusion=diffusion,
        rates=lambda X, xi: np.zeros((X.shape[0], 1, 1)),
        cost=lambda X, k, xi: np.zeros(X.shape[0]),
    )
    g = rs.GridSpec(2, 1.0, 5)
    op = rs.assemble(m, g, rs.constant_policy(g, 1))
    off = op.matrix.tocoo()
    assert off.data[off.row != off.col].min() >= 0.0


def test_constant_cost_shift_is_exact():
    # the cost joins the diagonal as the final separate term, so a constant
    # shift changes the diagonal by exactly kappa and nothing else
    m = rs.make_builtin("lq", controls=(1.0,))
    g = rs.GridSpec(1, 2.0, 17)
    pol = rs.constant_policy(g, 1)
    A = rs.assemble(m, g, pol).matrix
    kap = 0.75
    shifted = m.with_cost(lambda X, k, xi, base=m.cost: base(X, k, xi) + kap)
    B = rs.assemble(shifted, g, pol).matrix
    diff = (B - (A + kap * sp.identity(A.shape[0], format="csr"))).toarray()
    assert np.max(np.abs(diff)) == 0.0


def test_negative_cost_rejected():
    m = scalar_model(lambda X: -X, lambda X: np.full(X.shape[0], -0.1))
    g = rs.GridSpec(1, 1.0, 5)
    with pytest.raises(ValueError, match="nonnegative"):
        rs.assemble(m, g, rs.constant_policy(g, 1))


def test_malformed_rates_rejected_at_assembly():
    m = rs.make_builtin("ou2")
    bad = dataclasses.replace(
        m, rates=lambda X, xi: np.broadcast_to(
            np.array([[-1.0, 0.9], [1.0, -1.0]]), (X.shape[0], 2, 2)).copy())
    g = rs.GridSpec(1, 1.0, 5)
    with pytest.raises(ValueError, match="sum to zero"):
        rs.assemble(bad, g, rs.constant_policy(g, 2))
    bad2 = dataclasses.replace(
        m, rates=lambda X, xi: np.broadcast_to(
            np.array([[1.0, -1.0], [2.0, -2.0]]), (X.shape[0], 2, 2)).copy())
    with pytest.raises(ValueError, match="off-diagonal"):
        rs.assemble(bad2, g, rs.constant_policy(g, 2))


def test_regime_block_structure():
    # identical scalar dynamics in both regimes with symmetric constant
    # switching rho: the coupled matrix is [[B - rho I, rho I], [rho I, B - rho I]]
    rho = 0.8

    def drift(X, k, xi):
        return -X

    def diffusion(X, k):
        return np.full((X.shape[0], 1, 1), math.sqrt(2.0))

    def cost(X, k, xi):
        return 0.1 * X[:, 0] ** 2

    single = rs.SwitchingModel(
        name="s", dim=1, num_regimes=1, controls=[1.0],
        drift=drift, diffusion=diffusion,
        rates=lambda X, xi: np.zeros((X.shape[0], 1, 1)), cost=cost)
    coupled = rs.SwitchingModel(
        name="c", dim=1, num_regimes=2, controls=[1.0],
        drift=drift, diffusion=diffusion,
        rates=lambda X, xi: np.broadcast_to(
            np.array([[-rho, rho], [rho, -rho]]), (X.shape[0], 2, 2)).copy(),
        cost=cost)

    g = rs.GridSpec(1, 2.0, 9)
    B = rs.assemble(single, g, rs.constant_policy(g, 1)).matrix.toarray()
    A = rs.assemble(coupled, g, rs.constant_policy(g, 2)).matrix.toarray()
    M = g.num_interior
    eye = np.eye(M)
    np.testing.assert_allclose(A[:M, :M], B - rho * eye, atol=1e-14)
    np.testing.assert_allclose(A[M:, M:], B - rho * eye, atol=1e-14)
    np.testing.assert_array_equal(A[:M, M:], rho * eye)
    np.testing.assert_array_equal(A[M:, :M], rho * eye)


def test_policy_controls_enter_rows():
    # rows follow their own policy entry: drift, cost, and rate row all switch
    m = rs.make_builtin("lq", q=0.1, controls=(1.0, 3.0))
    g = rs.GridSpec(1, 1.0, 5)
    pol = rs.constant_policy(g, 1, control_index=0)
    pol[0, 1] = 1  # node at the origin uses control 3
    op = rs.assemble(m, g, pol)
    A = op.matrix.toarray()
    ref = rs.assemble(m, g, rs.constant_policy(g, 1, 0)).matrix.toarray()
    # origin has zero drift in this model, so its row is unchanged; perturb
    # instead a node with x != 0
    pol2 = rs.constant_policy(g, 1, 0)
    pol2[0, 2] = 1  # x = 0.5, drift goes from -0.5 to -1.5
    A2 = rs.assemble(m, g, pol2).matrix.toarray()
    assert A2[2, 1] == ref[2, 1] + 1.0 / g.spacing  # stronger backward pull
    np.testing.assert_array_equal(A2[[0, 1]], ref[[0, 1]])
    np.testing.assert_array_equal(A[[0, 2]], ref[[0, 2]])


def test_policy_validation():
    m = rs.make_builtin("ou2")
    g = rs.GridSpec(1, 1.0, 5)
    with pytest.raises(ValueError, match="shape"):
        rs.assemble(m, g, np.zeros((1, g.num_interior), dtype=int))
    bad = rs.constant_policy(g, 2, 0)
    bad[0, 0] = 7
    with pytest.raises(ValueError, match=r"control index 7 is outside \[0, 2\)"):
        rs.assemble(m, g, bad)


@pytest.mark.parametrize("name", ["bounded2d", "ou2"])
def test_policy_rows_equal_constant_policy_rows(name):
    # row r of a mixed policy's operator is, bitwise, row r of the operator
    # of the constant policy that uses row r's control
    m = rs.make_builtin(name)
    g = rs.grid_for_resolution(m.dim, 2.0, 4 if m.dim == 2 else 10)
    pol = rs.random_policies(m, g, 1, seed=5)[0]
    assert len(np.unique(pol)) == m.num_controls
    op = rs.assemble(m, g, pol)
    const = [rs.assemble(m, g, rs.constant_policy(g, m.num_regimes, c))
             for c in range(m.num_controls)]
    for r, c in enumerate(pol.reshape(-1)):
        row, ref = op.matrix[r], const[c].matrix[r]
        np.testing.assert_array_equal(row.indices, ref.indices)
        np.testing.assert_array_equal(row.data, ref.data)
        assert op.cost_vector[r] == const[c].cost_vector[r]
        assert op.boundary_outflow[r] == const[c].boundary_outflow[r]


def test_with_policy_validation():
    m = rs.make_builtin("ou2")
    g = rs.GridSpec(1, 1.0, 5)
    op = rs.assemble(m, g, rs.constant_policy(g, 2))
    with pytest.raises(ValueError, match="shape"):
        op.with_policy(np.zeros((1, g.num_interior), dtype=int))
    for index in (-1, m.num_controls):
        bad = rs.constant_policy(g, 2, 0)
        bad[1, 0] = index
        with pytest.raises(ValueError, match=r"control index %d is outside \[0, 2\)" % index):
            op.with_policy(bad)


def test_dim3_not_implemented():
    m = dataclasses.replace(
        rs.make_builtin("lq"), dim=3,
        drift=lambda X, k, xi: -X,
        diffusion=lambda X, k: np.broadcast_to(
            np.eye(3), (X.shape[0], 3, 3)).copy(),
        cost=lambda X, k, xi: np.zeros(X.shape[0]))
    g = rs.GridSpec(3, 1.0, 5)
    with pytest.raises(NotImplementedError):
        rs.assemble(m, g, rs.constant_policy(g, 1))


def test_matrix_market_roundtrip(tmp_path):
    m = rs.make_builtin("ou2")
    g = rs.GridSpec(1, 2.0, 9)
    op = rs.assemble(m, g, rs.constant_policy(g, 2))
    path = tmp_path / "op.mtx"
    op.write_matrix_market(path)
    back = scipy.io.mmread(str(path)).tocsr()
    assert (back != op.matrix).nnz == 0
    assert op.shape == (2 * g.num_interior, 2 * g.num_interior)
