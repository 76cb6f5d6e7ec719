"""Principal eigenpair, minimizing selector, policy iteration, sweeps."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import riskswitch as rs
import riskswitch.eigen as eigen_mod
from riskswitch import NoConvergenceError, NotIrreducibleError

import _oracles as orc


def test_dirichlet_diffusion_eigenvalue():
    # pure diffusion with a = 1 on [-1, 1]: continuum principal pair is
    # -pi^2/4 with profile cos(pi x / 2); central differences are O(h^2)
    m = rs.SwitchingModel(
        name="lap", dim=1, num_regimes=1, controls=[1.0],
        drift=lambda X, k, xi: np.zeros_like(X),
        diffusion=lambda X, k: np.full((X.shape[0], 1, 1), math.sqrt(2.0)),
        rates=lambda X, xi: np.zeros((X.shape[0], 1, 1)),
        cost=lambda X, k, xi: np.zeros(X.shape[0]),
    )
    g = rs.GridSpec(1, 1.0, 201)
    pair = rs.principal_eigenpair(rs.assemble(m, g, rs.constant_policy(g, 1)))
    assert pair.eigenvalue == pytest.approx(-math.pi ** 2 / 4.0, abs=1e-3)
    x = g.interior_points()[:, 0]
    ref = np.cos(math.pi * x / 2.0)
    got = pair.eigenfunction[0]
    cos_sim = np.dot(ref, got) / (np.linalg.norm(ref) * np.linalg.norm(got))
    assert cos_sim > 1 - 1e-8


def test_matches_dense_oracle_randomized():
    rng = np.random.default_rng(101)
    for _ in range(20):
        m, g = orc.random_instance(rng)
        op = rs.assemble(m, g, rs.constant_policy(g, m.num_regimes))
        lam_d, v_d = orc.rightmost_dense(op.matrix.toarray())
        pair = rs.principal_eigenpair(op, tol=1e-12)
        assert abs(pair.eigenvalue - lam_d) <= 1e-8
        # same normalization on the dense vector: unit value at the anchor
        psi_d = v_d.reshape(m.num_regimes, g.num_interior)
        psi_d = psi_d / psi_d[:, g.origin_index].min()
        diff = np.max(np.abs(pair.eigenfunction - psi_d)) / np.max(np.abs(psi_d))
        assert diff <= 1e-8


def test_normalization_and_positivity():
    m = rs.make_builtin("ou2")
    g = rs.grid_for_resolution(1, 3.0, 10)
    op = rs.assemble(m, g, rs.constant_policy(g, 2))
    pair = rs.principal_eigenpair(op)
    psi = pair.eigenfunction
    assert psi.shape == (2, g.num_interior)
    assert np.all(psi > 0)
    assert abs(psi[:, g.origin_index].min() - 1.0) <= 1e-12
    assert pair.residual <= 1e-10
    np.testing.assert_array_equal(pair.flat(), psi.reshape(-1))


def test_shift_invariance_randomized():
    # adding a constant to the cost moves the eigenvalue by exactly that much
    rng = np.random.default_rng(5)
    kappa = 0.35
    for _ in range(10):
        m, g = orc.random_instance(rng)
        pol = rs.constant_policy(g, m.num_regimes)
        lam0 = rs.principal_eigenpair(rs.assemble(m, g, pol), tol=1e-12).eigenvalue
        shifted = m.with_cost(
            lambda X, k, xi, _c=m.cost: _c(X, k, xi) + kappa, "shift")
        lam1 = rs.principal_eigenpair(rs.assemble(shifted, g, pol), tol=1e-12).eigenvalue
        assert abs(lam1 - (lam0 + kappa)) <= 1e-10


def test_symmetry_collapse():
    # identical regime dynamics under symmetric switching: the coupling
    # cancels and both regime components equal the uncoupled solution
    def drift(X, k, xi):
        return -1.3 * X

    def diffusion(X, k):
        return np.full((X.shape[0], 1, 1), math.sqrt(2.0))

    def cost(X, k, xi):
        return 0.12 * X[:, 0] ** 2

    single = rs.SwitchingModel(
        name="s", dim=1, num_regimes=1, controls=[1.0],
        drift=drift, diffusion=diffusion,
        rates=lambda X, xi: np.zeros((X.shape[0], 1, 1)), cost=cost)
    double = rs.SwitchingModel(
        name="d", dim=1, num_regimes=2, controls=[1.0],
        drift=drift, diffusion=diffusion,
        rates=lambda X, xi: np.broadcast_to(
            np.array([[-0.7, 0.7], [0.7, -0.7]]), (X.shape[0], 2, 2)).copy(),
        cost=cost)
    g = rs.GridSpec(1, 3.0, 41)
    p1 = rs.principal_eigenpair(rs.assemble(single, g, rs.constant_policy(g, 1)), tol=1e-12)
    p2 = rs.principal_eigenpair(rs.assemble(double, g, rs.constant_policy(g, 2)), tol=1e-12)
    assert abs(p1.eigenvalue - p2.eigenvalue) <= 1e-10
    np.testing.assert_allclose(p2.eigenfunction[0], p2.eigenfunction[1], atol=1e-10)
    np.testing.assert_allclose(p2.eigenfunction[0], p1.eigenfunction[0], atol=1e-10)


def test_solve_to_tolerance_is_deterministic():
    m = rs.make_builtin("ou2")
    g = rs.grid_for_resolution(1, 3.0, 10)
    op = rs.assemble(m, g, rs.constant_policy(g, 2))
    a = rs.principal_eigenpair(op)
    b = rs.principal_eigenpair(op)
    assert a.eigenvalue == b.eigenvalue
    np.testing.assert_array_equal(a.eigenfunction, b.eigenfunction)
    assert a.iterations == b.iterations


def test_start_vector_scale_invariance():
    # the iteration renormalizes every step; scaling x0 cannot move the output
    m = rs.make_builtin("ou2")
    g = rs.grid_for_resolution(1, 3.0, 10)
    op = rs.assemble(m, g, rs.constant_policy(g, 2))
    x0 = np.random.default_rng(0).random(op.shape[0]) + 0.5
    a = rs.principal_eigenpair(op, x0=x0)
    b = rs.principal_eigenpair(op, x0=2.0 * x0)
    assert abs(a.eigenvalue - b.eigenvalue) <= 1e-13
    np.testing.assert_allclose(a.eigenfunction, b.eigenfunction, atol=1e-13)
    with pytest.raises(ValueError):
        rs.principal_eigenpair(op, x0=-x0)
    with pytest.raises(ValueError):
        rs.principal_eigenpair(op, x0=x0[:-1])


def test_reducible_operator_raises():
    m = rs.make_builtin("ou2")
    nocoupling = dataclasses.replace(
        m, rates=lambda X, xi: np.zeros((X.shape[0], 2, 2)))
    g = rs.GridSpec(1, 2.0, 9)
    op = rs.assemble(nocoupling, g, rs.constant_policy(g, 2))
    with pytest.raises(NotIrreducibleError):
        rs.principal_eigenpair(op)


def test_no_convergence_error_carries_diagnostics():
    m = rs.make_builtin("ou2")
    g = rs.grid_for_resolution(1, 3.0, 25)
    op = rs.assemble(m, g, rs.constant_policy(g, 2))
    with pytest.raises(NoConvergenceError) as exc:
        rs.principal_eigenpair(op, max_iter=1)
    assert exc.value.iterations == 1
    assert exc.value.residual > exc.value.tol
    assert exc.value.cause == "budget"
    assert str(exc.value).startswith("no convergence after 1 iterations: residual ")


def test_roundoff_stall_accepted_without_spinning():
    # a tolerance of eps * ||A||_inf lies below the level where inverse
    # iteration stalls (about 2 eps * ||A||_inf on this grid, whatever the LU
    # ordering); the solve must stop at the roundoff stall and return its
    # best iterate, not spin through the whole budget and raise
    from riskswitch.eigen import ROUNDOFF_RESIDUAL
    m = rs.make_builtin("bounded2d")
    g = rs.grid_for_resolution(2, 4.0, 14)
    op = rs.assemble(m, g, rs.random_policies(m, g, 5, seed=59)[1])
    roundoff = np.finfo(float).eps * float(np.abs(op.matrix).sum(axis=1).max())
    tol = roundoff
    pair = rs.principal_eigenpair(op, tol=tol)
    assert tol < pair.residual <= ROUNDOFF_RESIDUAL * roundoff
    assert pair.iterations < 100
    assert np.all(pair.eigenfunction > 0)
    loose = rs.principal_eigenpair(op, tol=1e-10)
    assert abs(pair.eigenvalue - loose.eigenvalue) < 1e-10


# Eigenvalues on the solve_2d benchmark grid (bounded2d, R=4, 14 nodes per
# unit) at the verification tolerance, and on the fk_tail one (ou2, R=4,
# 2000 nodes per unit) at the default tolerance, as computed with SuperLU's
# default COLAMD column ordering.  The LU ordering changes only roundoff.
BOUNDED2D_LAMBDA = 0.044580358766807056
BOUNDED2D_SEED59_LAMBDAS = (0.050306386690818716, 0.050297695493992656,
                            0.0503275855259309, 0.05033141539446216,
                            0.050122913351102194)
OU2_FINE_LAMBDA = 0.02523776294759708


def test_eigenvalues_independent_of_lu_ordering_bounded2d():
    m = rs.make_builtin("bounded2d")
    g = rs.grid_for_resolution(2, 4.0, 14)
    tol = orc.verification_eig_tol(rs.assemble(m, g, rs.constant_policy(g, m.num_regimes)))
    sol = rs.solve_semilinear(m, g, eig_tol=tol)
    assert abs(sol.eigenpair.eigenvalue - BOUNDED2D_LAMBDA) < 1e-12
    for p, ref in zip(rs.random_policies(m, g, 5, seed=59), BOUNDED2D_SEED59_LAMBDAS):
        pair = rs.principal_eigenpair(rs.assemble(m, g, p), tol=tol)
        assert abs(pair.eigenvalue - ref) < 1e-12


def test_eigenvalue_independent_of_lu_ordering_ou2_fine():
    m = rs.make_builtin("ou2")
    g = rs.grid_for_resolution(1, 4.0, 2000)
    sol = rs.solve_semilinear(m, g)
    assert abs(sol.eigenpair.eigenvalue - OU2_FINE_LAMBDA) < 1e-10


def test_non_finite_operator_fails_fast():
    m = rs.make_builtin("ou2")
    g = rs.grid_for_resolution(1, 3.0, 25)
    op = rs.assemble(m, g, rs.constant_policy(g, 2))
    bad = op.matrix.copy()
    bad.data[7] = np.nan
    with pytest.raises(NoConvergenceError) as exc:
        rs.principal_eigenpair(dataclasses.replace(op, matrix=bad))
    assert exc.value.iterations == 0
    assert exc.value.cause == "non-finite"
    # finite operator, infinite start: the first residual is not finite
    x0 = np.ones(op.shape[0])
    x0[3] = np.inf
    with pytest.raises(NoConvergenceError) as exc:
        rs.principal_eigenpair(op, x0=x0)
    assert exc.value.iterations == 1
    assert exc.value.cause == "non-finite"
    assert "non-finite operator or residual" in str(exc.value)


def test_default_tolerance_tracks_matrix_norm():
    # on fine grids the residual of an exact pair sits at roundoff
    # eps * ||A||_inf ~ 1/h^2, above the 1e-10 floor; the default tolerance
    # must follow, or fine-grid solves would spin forever
    m = rs.make_builtin("ou2")
    g = rs.grid_for_resolution(1, 4.0, 250)
    op = rs.assemble(m, g, rs.constant_policy(g, 2))
    norm_inf = float(np.abs(op.matrix).sum(axis=1).max())
    auto_tol = max(1e-10, 32.0 * np.finfo(float).eps * norm_inf)
    assert auto_tol > 1e-10  # this grid is in the roundoff-limited range
    pair = rs.principal_eigenpair(op)
    assert pair.residual <= auto_tol


# ---------------------------------------------------------------------------
# selector and policy iteration


def test_selector_tie_breaks_to_lowest_index():
    m = rs.make_builtin("lq", controls=(1.0, 1.0))  # duplicated control value
    g = rs.grid_for_resolution(1, 4.0, 10)
    psi = np.ones((1, g.num_interior))
    pol = rs.minimizing_selector(rs.assemble(m, g, rs.constant_policy(g, 1)), psi)
    assert pol.shape == (1, g.num_interior)
    assert np.all(pol == 0)


def test_selector_prefers_stronger_reversion_in_bulk():
    # the stronger control has the lower growth rate; away from the box edge
    # the selector must pick it (a thin boundary layer may disagree)
    m = rs.make_builtin("lq")  # controls (1, 2)
    g = rs.grid_for_resolution(1, 6.0, 20)
    sol = rs.solve_semilinear(m, g)
    frac = float(np.mean(sol.policy == 1))
    assert frac > 0.9
    # the returned policy is a fixed point of the selector on its own psi
    np.testing.assert_array_equal(
        rs.minimizing_selector(rs.assemble(m, g, sol.policy),
                               sol.eigenpair.eigenfunction), sol.policy)


@pytest.mark.parametrize("name", ["bounded2d", "ou2"])
def test_selector_rows_satisfy_howard_inequality(name):
    # the selected rows applied to psi lie below every policy's rows, exactly
    m = rs.make_builtin(name)
    g = rs.grid_for_resolution(m.dim, 2.0, 5 if m.dim == 2 else 20)
    op = rs.assemble(m, g, rs.constant_policy(g, m.num_regimes))
    rng = np.random.default_rng(31)
    psi = rng.uniform(0.5, 2.0, size=(m.num_regimes, g.num_interior))
    best = op.with_policy(rs.minimizing_selector(op, psi)).matrix @ psi.reshape(-1)
    others = [rs.constant_policy(g, m.num_regimes, c) for c in range(m.num_controls)]
    others += rs.random_policies(m, g, 1, seed=37)
    for p in others:
        assert np.all(best <= op.with_policy(p).matrix @ psi.reshape(-1))


@pytest.mark.parametrize("name, radius, npu", [
    ("lq", 6.0, 20), ("ou2", 5.0, 40), ("dip", 6.0, 20), ("bounded2d", 3.0, 8)])
def test_selector_matches_model_bracket_oracle(name, radius, npu):
    # away from near-ties the row-wise argmin of A_c psi picks the control
    # minimizing the bracket evaluated straight from the model
    m = rs.make_builtin(name)
    g = rs.grid_for_resolution(m.dim, radius, npu)
    sol = rs.solve_semilinear(m, g)
    psi = sol.eigenpair.eigenfunction
    op = rs.assemble(m, g, sol.policy)
    scores = orc.bracket_scores(m, g, psi)
    two = np.sort(scores, axis=0)[:2]
    norm_inf = float(abs(op.stacked).sum(axis=1).max())
    decisive = two[1] - two[0] > 64 * np.finfo(float).eps * norm_inf * psi.max()
    assert decisive.mean() > 0.5
    picked = rs.minimizing_selector(op, psi)
    np.testing.assert_array_equal(picked[decisive],
                                  np.argmin(scores, axis=0)[decisive])


def test_solve_semilinear_lq_closed_form():
    m = rs.make_builtin("lq")
    g = rs.grid_for_resolution(1, 8.0, 50)
    sol = rs.solve_semilinear(m, g)
    assert sol.converged and not sol.oscillated
    target = orc.quadratic_cost_rate(2.0, 0.1875)  # optimal constant control
    assert sol.eigenpair.eigenvalue == pytest.approx(target, abs=1e-2)
    trace = sol.eigenvalue_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    assert sol.policy_iterations == len(trace)


@pytest.mark.parametrize("exit_kind", ["converged", "budget", "cycle"])
def test_policy_iteration_evaluates_each_policy_once(monkeypatch, exit_kind):
    m = rs.make_builtin("lq")  # controls (1, 2)
    g = rs.grid_for_resolution(1, 4.0, 25)
    strong = rs.constant_policy(g, 1, 1)
    weak = rs.constant_policy(g, 1, 0)
    kw = {"max_policy_iters": 1} if exit_kind == "budget" else {}
    if exit_kind == "cycle":
        # weak -> strong -> mixed -> weak: the best (strong) is not the last
        mixed = strong.copy()
        mixed[:, g.num_interior // 2:] = 0
        nxt = itertools.cycle([strong, mixed, weak])
        monkeypatch.setattr(eigen_mod.RatioBounds, "selector", lambda self: next(nxt))
    solve = eigen_mod.principal_eigenpair
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(eigen_mod, "principal_eigenpair", counted)
    sol = rs.solve_semilinear(m, g, **kw)
    trace = sol.eigenvalue_trace
    assert len(calls) == sol.policy_iterations == len(trace)
    assert sol.converged == (exit_kind != "budget")
    assert sol.oscillated == (exit_kind == "cycle")
    if exit_kind == "converged":
        return
    assert sol.eigenpair.eigenvalue == min(trace)
    np.testing.assert_array_equal(sol.policy,
                                  weak if exit_kind == "budget" else strong)
    if exit_kind == "cycle":
        assert len(trace) == 3 and trace[-1] > min(trace)
    again = solve(rs.assemble(m, g, sol.policy))
    assert again.eigenvalue == pytest.approx(sol.eigenpair.eigenvalue, abs=1e-8)


@pytest.mark.parametrize("builtin, radius, npu", [
    ("lq", 4.0, 20), ("ou2", 5.0, 20), ("dip", 6.0, 10), ("bounded2d", 3.0, 6)])
def test_policy_iteration_scores_each_policy_once(monkeypatch, builtin, radius, npu):
    # one stacked product per evaluated policy gives both the next policy and
    # the bracket; none is formed again for the returned pair
    m = rs.make_builtin(builtin)
    g = rs.grid_for_resolution(m.dim, radius, npu)
    scores = eigen_mod._control_scores
    calls = []

    def counted(op, psi):
        calls.append(1)
        return scores(op, psi)

    monkeypatch.setattr(eigen_mod, "_control_scores", counted)
    sol = rs.solve_semilinear(m, g)
    assert sol.converged
    assert len(calls) == sol.policy_iterations
    again = eigen_mod.collatz_wielandt_bounds(sol.operator, sol.eigenpair.eigenfunction)
    assert sol.bracket == again.bracket(sol.policy)


def test_policy_iteration_stops_on_its_certificate(monkeypatch):
    # a selector that never hands back the evaluated policy: the bracket
    # alone stops iteration, at the optimum and the same iteration
    m = rs.make_builtin("lq")  # controls (1, 2)
    g = rs.grid_for_resolution(1, 4.0, 20)
    plain = rs.solve_semilinear(m, g)
    select = eigen_mod.RatioBounds.selector

    def restless(self):
        nxt = select(self)
        return 1 - nxt if np.array_equal(nxt, self.operator.policy) else nxt

    monkeypatch.setattr(eigen_mod.RatioBounds, "selector", restless)
    sol = rs.solve_semilinear(m, g)
    assert sol.converged and not sol.oscillated
    assert sol.eigenvalue_trace == plain.eigenvalue_trace
    np.testing.assert_array_equal(sol.policy, plain.policy)
    assert sol.bracket == plain.bracket
    assert sol.bracket.gap(sol.eigenpair.eigenvalue) <= eigen_mod.LAMBDA_TOL


@pytest.mark.parametrize("exit_kind", ["converged", "budget", "cycle"])
def test_solution_carries_its_policy_operator(monkeypatch, exit_kind):
    m = rs.make_builtin("lq")
    g = rs.grid_for_resolution(1, 4.0, 25)
    kw = {"max_policy_iters": 1} if exit_kind == "budget" else {}
    if exit_kind == "cycle":
        # the best policy (constant strong control) is not the last one
        strong = rs.constant_policy(g, 1, 1)
        mixed = strong.copy()
        mixed[:, g.num_interior // 2:] = 0
        nxt = itertools.cycle([strong, mixed, rs.constant_policy(g, 1, 0)])
        monkeypatch.setattr(eigen_mod.RatioBounds, "selector", lambda self: next(nxt))
    sol = rs.solve_semilinear(m, g, **kw)
    np.testing.assert_array_equal(sol.operator.policy, sol.policy)
    fresh = rs.assemble(m, g, sol.policy)
    assert (sol.operator.matrix != fresh.matrix).nnz == 0
    np.testing.assert_array_equal(sol.operator.cost_vector, fresh.cost_vector)


def test_trace_non_increasing_randomized():
    rng = np.random.default_rng(23)
    done = 0
    while done < 10:
        m, g = orc.random_instance(rng)
        if m.num_controls < 2:
            continue
        trace = rs.solve_semilinear(m, g).eigenvalue_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        done += 1


def test_zero_cost_gives_negative_rate():
    # without running cost the Dirichlet leak makes the eigenvalue negative
    m = rs.make_builtin("ou2").with_cost(
        lambda X, k, xi: np.zeros(np.atleast_2d(X).shape[0]), "zero")
    sol = rs.solve_semilinear(m, rs.grid_for_resolution(1, 3.0, 10))
    assert sol.eigenpair.eigenvalue < 0


def test_domain_sweep_monotone_and_extrapolated():
    m = rs.make_builtin("lq", controls=(1.0,))
    sw = rs.domain_sweep(m, [2.0, 3.0, 4.0], nodes_per_unit=20)
    lams = sw.eigenvalues
    assert sw.monotone
    assert lams[0] < lams[1] < lams[2]
    assert sw.lambda_star >= lams[-1]
    assert sw.extrapolated >= lams[-1]
    np.testing.assert_allclose(sw.increments, np.diff(lams), atol=1e-15)
    # geometric tail: recompute the documented formula from the increments
    r = sw.increments[-1] / sw.increments[-2]
    if 0.0 < r < 0.95:
        expect = lams[-1] + sw.increments[-1] * r / (1.0 - r)
        assert sw.extrapolated == pytest.approx(expect, rel=1e-12)


def test_domain_sweep_rejects_bad_radii():
    m = rs.make_builtin("lq")
    with pytest.raises(ValueError, match="strictly increasing"):
        rs.domain_sweep(m, [3.0, 2.0], nodes_per_unit=10)
    with pytest.raises(ValueError, match="non-empty"):
        rs.domain_sweep(m, [], nodes_per_unit=10)


def test_uniqueness_check_passes_and_reports():
    m = rs.make_builtin("lq")
    g = rs.grid_for_resolution(1, 4.0, 25)
    rep = orc.uniqueness_check(m, g, trials=3, seed=7)
    assert rep.passed
    assert rep.eigenvalue_spread <= 1e-10
    assert rep.eigenfunction_spread <= 1e-8
    assert rep.trials == 3
    with pytest.raises(ValueError):
        orc.uniqueness_check(m, g, trials=1)


def test_uniqueness_check_surfaces_reducibility():
    m = rs.make_builtin("ou2")
    nocoupling = dataclasses.replace(
        m, rates=lambda X, xi: np.zeros((X.shape[0], 2, 2)))
    g = rs.GridSpec(1, 2.0, 9)
    rep = orc.uniqueness_check(nocoupling, g, trials=2,
                              policy=rs.constant_policy(g, 2))
    assert not rep.passed
    assert "components" in rep.error


def test_potential_monotonicity_check():
    m = rs.make_builtin("ou2")
    g = rs.grid_for_resolution(1, 4.0, 15)
    rep = orc.potential_monotonicity_check(m, g, bump_center=[1.0], bump_height=0.5)
    assert rep.passed
    assert 0 < rep.margin <= 0.5 + 1e-10
    assert rep.constant_shift_error <= 1e-10
    assert rep.eigenvalue_bumped > rep.eigenvalue_base
    with pytest.raises(ValueError):
        orc.potential_monotonicity_check(m, g, bump_center=[1.0], bump_height=0.0)
