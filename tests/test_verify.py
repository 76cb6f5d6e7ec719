"""Cross-checks between the eigensolver, the simulator, and the gates."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from riskswitch.eigen import (LAMBDA_TOL, collatz_wielandt_bounds,
                              principal_eigenpair, solve_semilinear, verification_tol)
from riskswitch.grid import grid_for_resolution
from riskswitch.model import make_builtin
from riskswitch.operator import assemble, constant_policy
from riskswitch.simulate import PathConfig
from riskswitch.verify import (lambda_equals_optimal_value,
                               near_monotone_suite, random_policies,
                               validate_near_monotone, verify_optimality)

import _oracles as orc


@pytest.fixture(scope="module")
def lq_setup():
    model = make_builtin("lq", controls=(1.0, 2.0))
    grid = grid_for_resolution(model.dim, 6.0, 20)
    solution = solve_semilinear(model, grid, eig_tol=1e-12)
    return model, grid, solution


# ---------------------------------------------------------------- optimality

def test_optimality_on_extracted_policy(lq_setup):
    model, grid, solution = lq_setup
    alts = random_policies(model, grid, 5, seed=3)
    rep = verify_optimality(solution, alt_policies=alts)
    assert rep.passed
    assert rep.fixed_point_ok
    assert len(rep.excesses) == 5
    assert all(e.ok for e in rep.excesses)
    assert rep.min_excess == min(e.excess_lower_bound for e in rep.excesses)
    lam = solution.eigenpair.eigenvalue
    assert rep.bracket.gap(lam) <= LAMBDA_TOL
    # eigensolves as the oracle: random two-control policies sit a
    # macroscopic distance above the optimum, and every certified lower
    # bound lies below the true excess
    tol = orc.verification_eig_tol(solution.operator)
    true = [principal_eigenpair(solution.operator.with_policy(p), tol=tol).eigenvalue - lam
            for p in alts]
    assert min(true) > 0.01
    assert min(true) == pytest.approx(0.034631293, abs=1e-6)
    for e, excess in zip(rep.excesses, true):
        assert e.excess_lower_bound <= excess


def test_optimality_internal_solve_matches(lq_setup):
    model, grid, solution = lq_setup
    rep = verify_optimality(solve_semilinear(model, grid, eig_tol=verification_tol))
    assert rep.passed
    assert rep.lambda_star == pytest.approx(solution.eigenpair.eigenvalue,
                                            abs=1e-10)
    # no alternatives supplied: the excess minimum is vacuous
    assert rep.min_excess == math.inf


def test_optimality_as_dict_round_trips(lq_setup):
    model, grid, solution = lq_setup
    rep = verify_optimality(solution, alt_policies=random_policies(model, grid, 2))
    d = rep.as_dict()
    assert d["passed"] is True
    assert len(d["alt_policies"]) == 2
    assert d["min_excess"] == rep.min_excess
    assert set(d) >= {"lambda_star", "bracket", "fixed_point_ok"}
    assert d["bracket"] == {"lower": rep.bracket.lower, "upper": rep.bracket.upper}
    assert set(d["alt_policies"][0]) == {"lower_bound", "excess_lower_bound", "ok"}


@pytest.mark.parametrize("seed", range(4))
def test_bracket_contains_every_table_policy(seed):
    # one regime, two controls, seven nodes: all 2^7 table policies
    rng = np.random.default_rng(seed)
    model, grid = orc.random_instance(rng, dim=1, num_regimes=1, num_controls=2,
                                      nodes_per_axis=9)
    assert grid.num_interior == 7
    sol = solve_semilinear(model, grid, eig_tol=1e-13)
    bounds = collatz_wielandt_bounds(sol.operator, sol.eigenpair.eigenfunction)
    assert sol.bracket == bounds.bracket(sol.policy)
    lams = []
    for table in itertools.product((0, 1), repeat=7):
        policy = np.array([table])
        lam, _ = orc.rightmost_dense(sol.operator.with_policy(policy).matrix.toarray())
        lams.append(lam)
        assert bounds.lower() <= bounds.lower(policy) <= lam <= bounds.upper(policy)
    assert sol.bracket.lower <= min(lams) <= sol.bracket.upper
    assert sol.bracket.upper - sol.bracket.lower <= LAMBDA_TOL


def test_perturbed_psi_fails_certificate(lq_setup):
    model, grid, solution = lq_setup
    pair = solution.eigenpair
    nodes = np.arange(pair.eigenfunction.size).reshape(pair.eigenfunction.shape)
    psi = pair.eigenfunction * (1.0 + 1e-6 * np.sin(nodes))
    rep = verify_optimality(dataclasses.replace(
        solution, eigenpair=dataclasses.replace(pair, eigenfunction=psi)))
    assert rep.bracket.gap(rep.lambda_star) > LAMBDA_TOL
    assert not rep.passed


def test_non_optimal_pair_fails_certificate(lq_setup):
    model, grid, solution = lq_setup
    op = solution.operator.with_policy(constant_policy(grid, model.num_regimes, 0))
    assert not np.array_equal(op.policy, solution.policy)
    pair = principal_eigenpair(op, tol=1e-12)
    rep = verify_optimality(dataclasses.replace(
        solution, eigenpair=pair, policy=op.policy, operator=op))
    assert pair.eigenvalue > solution.eigenpair.eigenvalue + 1e-3
    assert rep.bracket.gap(rep.lambda_star) > LAMBDA_TOL
    assert rep.bracket.lower < solution.eigenpair.eigenvalue
    assert not rep.passed


def test_optimality_rejects_malformed_policy(lq_setup):
    model, grid, solution = lq_setup
    bad = np.zeros((model.num_regimes, grid.num_interior + 1), dtype=int)
    with pytest.raises(ValueError):
        verify_optimality(solution, alt_policies=[bad])


def test_random_policies_seeded_and_in_range(lq_setup):
    model, grid, _ = lq_setup
    a = random_policies(model, grid, 4, seed=11)
    b = random_policies(model, grid, 4, seed=11)
    c = random_policies(model, grid, 4, seed=12)
    assert len(a) == 4
    for p, q in zip(a, b):
        assert np.array_equal(p, q)
    assert any(not np.array_equal(p, q) for p, q in zip(a, c))
    for p in a:
        assert p.shape == (model.num_regimes, grid.num_interior)
        assert p.min() >= 0 and p.max() < model.num_controls


def test_random_policies_refuse_a_negative_count(lq_setup):
    model, grid, _ = lq_setup
    with pytest.raises(ValueError, match="count must be >= 0"):
        random_policies(model, grid, -1)


def test_verification_tol_tracks_matrix_norm():
    model = make_builtin("ou2")
    tols = []
    for npu in (20, 80):
        grid = grid_for_resolution(model.dim, 5.0, npu)
        op = assemble(model, grid, constant_policy(grid, model.num_regimes))
        tols.append(verification_tol(op))
    assert tols[0] >= 1e-12
    # finer grid, larger row sums, looser reachable floor
    assert tols[1] > tols[0]
    assert tols[1] < 1e-10


# ---------------------------------------------------------- bounded-mode gate

def test_gate_accepts_bounded_builtins():
    for name in ("dip", "bounded2d"):
        gate = validate_near_monotone(make_builtin(name), box_radius=4.0)
        assert gate.passed, name
        assert {c.name for c in gate.checks} == {
            "bounded_coefficients", "rate_floor", "radial_drift_decay"}


def test_gate_details_for_constant_coefficients():
    gate = validate_near_monotone(make_builtin("dip"), box_radius=4.0)
    by_name = {c.name: c for c in gate.checks}
    assert by_name["bounded_coefficients"].detail["growth_ratio"] == \
        pytest.approx(1.0, abs=1e-5)
    assert by_name["rate_floor"].detail["floor"] == pytest.approx(0.5)


def test_gate_rejects_growing_coefficients():
    for name, lo, hi in (("lq", 5.0, 7.0), ("ou2", 3.5, 4.5)):
        gate = validate_near_monotone(make_builtin(name), box_radius=4.0)
        assert not gate.passed
        bc = {c.name: c for c in gate.checks}["bounded_coefficients"]
        assert not bc.passed
        # quadratic cost doubles per outer shell octave: ratio ~ cost degree
        assert lo < bc.detail["growth_ratio"] < hi


def test_gate_single_regime_rate_floor_is_vacuous():
    gate = validate_near_monotone(make_builtin("lq"), box_radius=4.0)
    rf = {c.name: c for c in gate.checks}["rate_floor"]
    assert rf.passed
    assert rf.detail["floor"] is None


def test_gate_as_dict_keys():
    gate = validate_near_monotone(make_builtin("dip"), box_radius=3.0)
    d = gate.as_dict()
    assert set(d) == {"bounded_coefficients", "rate_floor",
                      "radial_drift_decay"}
    assert all(v["passed"] for v in d.values())


# ------------------------------------------------------- bounded-mode suite

def test_suite_accepts_dip():
    rep = near_monotone_suite(make_builtin("dip"), radii=[3.0, 4.5],
                              nodes_per_unit=10)
    assert not rep.refused
    assert rep.passed
    assert rep.gate.passed
    assert rep.sweep_monotone and rep.sweep_converged
    assert rep.lambda_star == pytest.approx(0.3296065, abs=1e-6)
    assert rep.sweep_eigenvalues == sorted(rep.sweep_eigenvalues)
    assert rep.sublevel_contained
    assert rep.escaping_nodes == []
    # low-cost dip around the origin: the sub-level set hugs the center
    assert rep.sublevel_radius == pytest.approx(0.8, abs=1e-6)


def test_suite_refuses_growing_cost():
    rep = near_monotone_suite(make_builtin("lq"), radii=[3.0, 4.5],
                              nodes_per_unit=10)
    assert rep.refused
    assert not rep.passed
    assert math.isnan(rep.lambda_star)
    failing = [c.name for c in rep.gate.checks if not c.passed]
    assert failing == ["bounded_coefficients"]


def test_suite_as_dict():
    rep = near_monotone_suite(make_builtin("dip"), radii=[3.0, 4.5],
                              nodes_per_unit=10)
    d = rep.as_dict()
    assert d["passed"] is True
    assert len(d["sweep_eigenvalues"]) == 2


# ------------------------------------------------------ rate-vs-eigenvalue

@pytest.fixture(scope="module")
def ou2_match_setup():
    model = make_builtin("ou2")
    grid = grid_for_resolution(model.dim, 5.0, 80)
    return model, grid


def test_lambda_match_brackets_eigenvalue(ou2_match_setup):
    model, grid = ou2_match_setup
    cfg = PathConfig(step=0.0025, horizon=3.0, seed=21, paths=8000)
    sol = solve_semilinear(model, grid, eig_tol=verification_tol)
    rep = lambda_equals_optimal_value(model, sol, 2, cfg, seed=5, workers=4)
    assert rep.passed
    assert not rep.flagged
    assert rep.optimal_ok and not rep.optimal_flagged
    dev = abs(rep.optimal_rate.value - rep.lambda_star)
    assert dev <= 3.0 * rep.optimal_rate.std_error
    assert rep.optimal_rate.details["terminal_weighted"] is True
    assert len(rep.random_entries) == 2
    for p, e in zip(random_policies(model, grid, 2, seed=5), rep.random_entries):
        assert e.eig_ok and e.rate_ok and not e.unreliable
        # eigensolves as the oracle: suboptimal frozen policies sit strictly
        # above the optimum
        op = assemble(model, grid, p)
        assert principal_eigenpair(op, tol=orc.verification_eig_tol(op)).eigenvalue > \
            rep.lambda_star + 1e-3
        assert e.rate > rep.lambda_star
    d = rep.as_dict()
    assert d["passed"] is True
    assert len(d["random_policies"]) == 2
    assert set(d["random_policies"][0]) == {"rate", "std_error", "unreliable",
                                            "eig_ok", "rate_ok"}
    assert d["optimal_rate"]["value"] == rep.optimal_rate.value


def test_lambda_match_flags_wrong_eigenvalue(ou2_match_setup):
    model, grid = ou2_match_setup
    sol = solve_semilinear(model, grid)
    wrong = dataclasses.replace(
        sol, eigenpair=dataclasses.replace(
            sol.eigenpair, eigenvalue=sol.eigenpair.eigenvalue + 0.05))
    cfg = PathConfig(step=0.005, horizon=3.0, seed=21, paths=4000)
    rep = lambda_equals_optimal_value(model, wrong, 0, cfg, workers=4)
    assert not rep.passed
    assert not rep.optimal_ok
    assert abs(rep.optimal_rate.value - rep.lambda_star) > \
        10.0 * rep.optimal_rate.std_error


def test_lambda_match_runs_no_eigensolve(monkeypatch):
    # every rate policy's eig_ok is read from the solved eigenfunction's
    # Collatz-Wielandt bracket, so no operator is factored
    import riskswitch.eigen as eigen_mod

    factored = []
    splu = eigen_mod.spla.splu

    def counted(*args, **kwargs):
        factored.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(eigen_mod.spla, "splu", counted)
    model = make_builtin("ou2")
    grid = grid_for_resolution(1, 3.0, 10)
    sol = solve_semilinear(model, grid, eig_tol=1e-12)
    assert len(factored) == sol.policy_iterations
    factored.clear()
    cfg = PathConfig(step=0.05, horizon=1.0, seed=6, paths=512)
    rep = lambda_equals_optimal_value(model, sol, 3, cfg, workers=1)
    assert factored == []
    assert len(rep.random_entries) == 3
    assert all(e.eig_ok for e in rep.random_entries)


def test_lambda_match_fails_on_perturbed_psi(lq_setup):
    # the perturbation of test_perturbed_psi_fails_certificate: the bracket
    # no longer certifies any random policy
    model, grid, solution = lq_setup
    pair = solution.eigenpair
    nodes = np.arange(pair.eigenfunction.size).reshape(pair.eigenfunction.shape)
    psi = pair.eigenfunction * (1.0 + 1e-6 * np.sin(nodes))
    perturbed = dataclasses.replace(
        solution, eigenpair=dataclasses.replace(pair, eigenfunction=psi))
    cfg = PathConfig(step=0.01, horizon=1.0, seed=3, paths=512)
    rep = lambda_equals_optimal_value(model, perturbed, 3, cfg, workers=1)
    assert len(rep.random_entries) == 3
    assert not any(e.eig_ok for e in rep.random_entries)
    assert not rep.passed


def test_lambda_match_steps_its_rate_policies_together(monkeypatch):
    # the solved policy and its random ones run as one working set: one pool
    # at two workers, and at one worker each block's generator draws n_steps
    # times for all three policies
    import concurrent.futures
    import riskswitch.simulate as simulate

    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    draws = {}
    block_generator = simulate._block_generator

    class CountingGenerator:
        def __init__(self, seed, block):
            self.rng, self.block = block_generator(seed, block), block
            draws.setdefault(block, 0)

        def standard_normal(self, *args):
            draws[self.block] += 1
            return self.rng.standard_normal(*args)

        def random(self, *args):
            return self.rng.random(*args)

    model = make_builtin("ou2")
    grid = grid_for_resolution(1, 3.0, 10)
    cfg = PathConfig(step=0.05, horizon=1.0, seed=6, paths=2 * simulate.BLOCK)
    sol = solve_semilinear(model, grid)
    reps = [lambda_equals_optimal_value(model, sol, 2, cfg, workers=2)]
    assert pools == [2]
    monkeypatch.setattr(simulate, "_block_generator", CountingGenerator)
    reps.append(lambda_equals_optimal_value(model, sol, 2, cfg, workers=1))
    assert pools == [2]
    assert draws == {0: cfg.n_steps, 1: cfg.n_steps}
    assert reps[0].as_dict() == reps[1].as_dict()
