"""Monte Carlo engine: stepping, functionals, reproducibility, diagnostics."""

import concurrent.futures
import dataclasses
import math
import multiprocessing
import os
import pickle
import re
import threading

import numpy as np
import pytest

import riskswitch as rs
from riskswitch import PathConfig, StepSizeError
from riskswitch.model import NonFiniteCoefficientError
from riskswitch.simulate import resolve_workers
import riskswitch.simulate as simulate

import _oracles as orc


def ou1(xi=1.0, q=0.05):
    """Single-regime mean-reverting scalar model with quadratic cost."""
    return rs.SwitchingModel(
        name="ou1", dim=1, num_regimes=1, controls=[xi],
        drift=lambda X, k, x: -x[:, None] * X,
        diffusion=lambda X, k: np.full((X.shape[0], 1, 1), math.sqrt(2.0)),
        rates=lambda X, x: np.zeros((X.shape[0], 1, 1)),
        cost=lambda X, k, x: q * X[:, 0] ** 2)


def driftless():
    m = ou1(q=0.0)
    return dataclasses.replace(m, drift=lambda X, k, x: np.zeros_like(X), name="bm")


def with_rates(model, rate_matrix):
    R = np.asarray(rate_matrix, dtype=float)
    return dataclasses.replace(
        model, rates=lambda X, xi: np.broadcast_to(R, (X.shape[0],) + R.shape).copy())


# ---------------------------------------------------------------------------
# configuration plumbing


def test_path_config_validation():
    with pytest.raises(ValueError):
        PathConfig(step=0.0, horizon=1.0, seed=0, paths=10)
    with pytest.raises(ValueError):
        PathConfig(step=0.1, horizon=-1.0, seed=0, paths=10)
    with pytest.raises(ValueError):
        PathConfig(step=0.1, horizon=1.0, seed=0, paths=0)
    with pytest.raises(ValueError):
        PathConfig(step=0.1, horizon=1.0, seed=True, paths=10)
    with pytest.raises(ValueError):
        PathConfig(step=0.1, horizon=1.0, seed=2 ** 64, paths=10)
    cfg = PathConfig(step=0.3, horizon=1.0, seed=0, paths=10)
    assert cfg.n_steps == 3
    assert cfg.actual_horizon == pytest.approx(0.9)
    assert cfg.as_dict()["paths"] == 10
    assert PathConfig(step=0.3, horizon=1.0, seed=0, paths=np.int64(10)).paths == 10


@pytest.mark.parametrize("paths", [2.5, 4.0, True, "8", None])
def test_path_config_refuses_a_non_integer_path_count(paths):
    with pytest.raises(ValueError, match="paths must be an integer"):
        PathConfig(step=0.1, horizon=1.0, seed=0, paths=paths)


@pytest.mark.parametrize("step, horizon, match", [
    (np.inf, 1.0, "step must be positive and finite"),
    (np.nan, 1.0, "step must be positive and finite"),
    (0.1, np.inf, "horizon must be positive and finite"),
    (1e-300, 1e300, "horizon / step must be finite"),
])
def test_path_config_refuses_non_finite_values(step, horizon, match):
    with pytest.raises(ValueError, match=match):
        PathConfig(step=step, horizon=horizon, seed=0, paths=10)


def test_control_and_regime_indices_checked_before_stepping(monkeypatch):
    m = rs.make_builtin("ou2")  # two regimes, two controls
    g = rs.grid_for_resolution(1, 2.0, 5)
    cfg = PathConfig(step=0.01, horizon=1.0, seed=0, paths=4)
    monkeypatch.setattr(simulate, "_step_once", None)  # any step would fail
    ones = rs.EigenPair(eigenvalue=0.0, eigenfunction=np.ones((2, g.num_interior)),
                        residual=0.0, iterations=0, shift=0.0)
    table = np.zeros((2, g.num_interior), dtype=np.int64)
    table[1, 3] = 5
    cases = [
        (lambda: rs.simulate_paths(m, 2, cfg), r"control index 2 is outside \[0, 2\)"),
        (lambda: rs.estimate_risk_sensitive_rate(m, -1, cfg), "control index -1"),
        (lambda: rs.mean_position_diagnostic(m, table, cfg, grid=g), "control index 5"),
        (lambda: rs.simulate_paths(m, table[:1], cfg, grid=g),
         re.escape("= (2, %d), got (1, %d)" % (g.num_interior, g.num_interior))),
        (lambda: rs.simulate_paths(m, table[:, 1:], cfg, grid=g), "shape"),
        (lambda: rs.simulate_paths(m, 0, cfg, k0=2), r"start regime 2 is outside \[0, 2\)"),
        (lambda: rs.estimate_risk_sensitive_rate(m, 0, cfg, k0=-1), "start regime -1"),
        (lambda: rs.feynman_kac_annulus(m, 0, ones, g, 0.5, [(np.array([1.0]), 4)], cfg),
         "start regime 4"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError, match=message):
            call()


def policy_callers(m, g, policy, cfg):
    """Every caller of the policy rule, each called with ``policy``."""
    op = rs.assemble(m, g, rs.constant_policy(g, m.num_regimes))
    ones = rs.EigenPair(eigenvalue=0.0, eigenfunction=np.ones((2, g.num_interior)),
                        residual=0.0, iterations=0, shift=0.0)
    return {
        "assemble": lambda: rs.assemble(m, g, policy),
        "with_policy": lambda: op.with_policy(policy),
        "rate": lambda: rs.estimate_risk_sensitive_rate(m, policy, cfg, grid=g),
        "feynman_kac": lambda: rs.feynman_kac_annulus(m, policy, ones, g, 0.5,
                                                      [(np.array([1.0]), 0)], cfg),
        "mean_position": lambda: rs.mean_position_diagnostic(m, policy, cfg, grid=g),
        "paths": lambda: rs.simulate_paths(m, policy, cfg, grid=g),
    }


@pytest.mark.parametrize("caller", ["assemble", "with_policy", "rate", "feynman_kac",
                                    "mean_position", "paths"])
@pytest.mark.parametrize("name, message", [
    ("float table", "integer control indices, got dtype float64"),
    ("bool table", "integer control indices, got dtype bool"),
    ("bool constant", "integer control indices, got dtype bool"),
    ("function", "integer control indices, got dtype object"),
    ("wrong shape", r"must have shape \(num_regimes, num_interior\) = \(2, 19\), got \(2, 18\)"),
    ("out of range", r"control index 2 is outside \[0, 2\)"),
])
def test_policy_rule_refuses_before_any_step(caller, name, message, monkeypatch):
    # a float table was truncated (0.9 stepped control 0, 1.7 built control
    # 1's operator) and a bool read as control 0 or 1; one rule refuses each
    m = rs.make_builtin("ou2")  # two regimes, two controls
    g = rs.grid_for_resolution(1, 2.0, 5)
    cfg = PathConfig(step=0.01, horizon=1.0, seed=0, paths=4)
    M = g.num_interior
    policy = {"float table": np.full((2, M), 0.9), "bool table": np.ones((2, M), dtype=bool),
              "bool constant": True, "function": lambda X, K: np.ones(len(X), dtype=np.int64),
              "wrong shape": np.zeros((2, M - 1), dtype=np.int64),
              "out of range": np.full((2, M), 2)}[name]
    call = policy_callers(m, g, policy, cfg)[caller]
    monkeypatch.setattr(simulate, "_step_once", None)  # any step would fail
    with pytest.raises(ValueError, match=message):
        call()


def test_policy_stack_reads_a_table_at_the_nearest_node():
    m = rs.make_builtin("ou2")
    g = rs.grid_for_resolution(1, 2.0, 5)
    table = np.zeros((2, g.num_interior), dtype=np.int64)
    table[0, g.origin_index] = 1
    stack = simulate._PolicyStack(m, [table, np.int64(1), 0], g)
    assert stack.descriptions == ["table", "constant:1", "constant:0"]
    X = np.array([[0.05], [1.0], [0.05], [-7.0], [3.0]])
    K = np.array([0, 0, 1, 0, 1])
    controls = stack.at_rows(np.array([0, 0, 0, 1, 2]))
    np.testing.assert_array_equal(controls.control_indices(X, K), [1, 0, 0, 1, 0])
    np.testing.assert_array_equal(controls.control_values(X, K),
                                  m.controls[[1, 0, 0, 1, 0]])
    constants = simulate._PolicyStack(m, [1], g)  # no table: no node lookup
    assert constants.grid is None
    np.testing.assert_array_equal(constants.at_rows(np.zeros(2, dtype=np.int64))
                                  .control_indices(X[:2], K[:2]), [1, 1])
    with pytest.raises(ValueError, match="needs a grid for node lookup"):
        simulate._PolicyStack(m, [table], None)


@pytest.mark.parametrize("k0", [0.9, 1.7, np.float64(1.5), True, np.bool_(True),
                                np.int64(1)])
def test_start_regime_must_be_an_integer(k0, monkeypatch):
    # int() would truncate a fractional regime and read a bool as 0 or 1
    m = rs.make_builtin("ou2")
    g = rs.grid_for_resolution(1, 2.0, 5)
    cfg = PathConfig(step=0.01, horizon=1.0, seed=0, paths=4)
    ones = rs.EigenPair(eigenvalue=0.0, eigenfunction=np.ones((2, g.num_interior)),
                        residual=0.0, iterations=0, shift=0.0)
    drivers = [lambda: rs.estimate_risk_sensitive_rate(m, 0, cfg, k0=k0),
               lambda: rs.simulate_paths(m, 0, cfg, k0=k0),
               lambda: rs.mean_position_diagnostic(m, 0, cfg, k0=k0),
               lambda: rs.feynman_kac_annulus(m, 0, ones, g, 0.5, [(np.array([1.0]), k0)],
                                              dataclasses.replace(cfg, horizon=0.05))]
    if isinstance(k0, np.integer):
        outs = [call() for call in drivers]
        assert outs[0].details["k0"] == outs[3].results[0].regime == 1
        return
    monkeypatch.setattr(simulate, "_step_once", None)  # any step would fail
    for call in drivers:
        with pytest.raises(ValueError, match="start regime must be an integer, got "):
            call()


def test_policy_table_on_a_grid_of_another_dimension_refused(monkeypatch):
    # a 1-D grid would read a 2-D state at its first coordinate only
    m = rs.make_builtin("bounded2d")
    g = rs.grid_for_resolution(1, 2.0, 5)
    cfg = PathConfig(step=0.01, horizon=1.0, seed=0, paths=4)
    monkeypatch.setattr(simulate, "_step_once", None)  # any step would fail
    with pytest.raises(ValueError, match="its grid is 1-D, the model 2-D"):
        rs.simulate_paths(m, np.zeros((2, g.num_interior), dtype=np.int64), cfg, grid=g)


def test_terminal_weighting_rejects_a_start_on_or_outside_the_box(monkeypatch):
    m = rs.make_builtin("ou2")
    g = rs.grid_for_resolution(1, 3.0, 5)
    cfg = PathConfig(step=0.01, horizon=1.0, seed=0, paths=4)
    ones = rs.EigenPair(eigenvalue=0.0, eigenfunction=np.ones((2, g.num_interior)),
                        residual=0.0, iterations=0, shift=0.0)
    monkeypatch.setattr(simulate, "_step_once", None)  # any step would fail
    for x0 in ([3.0], [-3.5]):
        with pytest.raises(ValueError, match=r"x0=\[%s\], k0=1 .* radius 3" % x0[0]):
            rs.estimate_risk_sensitive_rate(m, 0, cfg, x0=x0, k0=1, grid=g,
                                            terminal_pair=ones)


def test_resolve_workers_env(monkeypatch):
    monkeypatch.delenv("RISKSWITCH_WORKERS", raising=False)
    assert resolve_workers(None) == 1
    monkeypatch.setenv("RISKSWITCH_WORKERS", "3")
    assert resolve_workers(None) == 3
    assert resolve_workers(2) == 2  # explicit argument wins
    with pytest.raises(ValueError):
        resolve_workers(0)


def test_step_size_guard():
    # leave probability per step must stay below one half
    m = with_rates(rs.make_builtin("ou2"), [[-2.0, 2.0], [2.0, -2.0]])
    cfg = PathConfig(step=0.3, horizon=1.2, seed=0, paths=8)
    with pytest.raises(StepSizeError) as exc:
        rs.simulate_paths(m, 0, cfg)
    assert exc.value.rate == pytest.approx(2.0)
    assert exc.value.step == pytest.approx(0.3)
    assert "reduce the step" in str(exc.value)


def test_negative_drawn_rate_refused():
    # a negative off-diagonal rate would be a negative move probability
    m = rs.make_builtin("bounded2d", rho=-1.0)
    cfg = PathConfig(step=0.01, horizon=1.0, seed=0, paths=8)
    with pytest.raises(ValueError, match=r"^rates has a negative off-diagonal entry at "
                       r"\[0, 1\] \(control 0.7 at x=\[0.0, 0.0\]\): -1$"):
        rs.simulate_paths(m, 0, cfg)


def test_leave_probability_guard_reads_the_drawn_rates():
    # the diagonal disagrees with its row: the draw leaves at rate 100, so the
    # guard must see step * 100 = 1, not step * 0.1
    m = with_rates(rs.make_builtin("ou2"), [[-0.1, 100.0], [100.0, -0.1]])
    cfg = PathConfig(step=0.01, horizon=1.0, seed=0, paths=100)
    with pytest.raises(StepSizeError) as exc:
        rs.simulate_paths(m, 0, cfg)
    assert (exc.value.step * exc.value.rate, exc.value.rate, exc.value.regime) == (1.0, 100.0, 0)
    assert exc.value.state.tolist() == [0.0]


# regime 2 leaves at rate 200, 2.0 per step of 0.01; regimes 0 and 1 never enter it
SHARED_RATES = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [100.0, 100.0, -200.0]])


def shared_rates_model(rates=SHARED_RATES):
    """Three regimes whose rates are one matrix for every row, a broadcast view."""
    m = rs.model_from_spec({
        "name": "shared", "dim": 1, "num_regimes": 3, "controls": [1.0],
        "drift": ["-x1"], "diffusion": [["1"]], "rates": [["0"] * 3] * 3, "cost": "x1^2"})
    return dataclasses.replace(m, rates=lambda X, xi: np.broadcast_to(rates, (len(X), 3, 3)))


def test_shared_rate_matrix_is_judged_at_visited_regimes_only(monkeypatch):
    # the draw reads one matrix for every row; a row of it that no path
    # visits is not refused, a visited one is, as the per-group oracle does
    m = shared_rates_model()
    assert m.rates(np.zeros((4, 1)), np.ones(4)).strides[0] == 0
    cfg = PathConfig(step=0.01, horizon=1.0, seed=0, paths=64)
    batch = rs.simulate_paths(m, 0, cfg, x0=[0.5], k0=0)
    assert set(np.unique(batch.regimes)) == {0, 1}
    errors = []
    for kernel in (simulate._step_once, orc.step_once_per_group):
        monkeypatch.setattr(simulate, "_step_once", kernel)
        with pytest.raises(StepSizeError) as exc:
            rs.simulate_paths(m, 0, cfg, x0=[0.5], k0=2)
        errors.append(exc.value)
    fused, ref = errors
    assert (fused.rate, fused.state.tolist(), fused.regime) == \
        (ref.rate, ref.state.tolist(), ref.regime) == (200.0, [0.5], 2)
    assert fused.step == ref.step == 0.01


def test_shared_rate_matrix_refuses_a_visited_nan_rate():
    unvisited, visited = SHARED_RATES.copy(), SHARED_RATES.copy()
    unvisited[2, 0] = visited[0, 1] = math.nan
    cfg = PathConfig(step=0.001, horizon=1.0, seed=0, paths=64)
    rs.simulate_paths(shared_rates_model(unvisited), 0, cfg, k0=0)
    with pytest.raises(NonFiniteCoefficientError, match="rates"):
        rs.simulate_paths(shared_rates_model(visited), 0, cfg, k0=0)


# ---------------------------------------------------------------------------
# trajectory recording


def test_simulate_paths_shapes_and_times():
    m = rs.make_builtin("ou2")
    cfg = PathConfig(step=0.05, horizon=1.0, seed=1, paths=7)
    batch = rs.simulate_paths(m, 0, cfg, x0=[0.5], k0=1)
    assert batch.positions.shape == (7, 21, 1)
    assert batch.regimes.shape == (7, 21)
    assert batch.paths == 7
    np.testing.assert_allclose(batch.times, np.arange(21) * 0.05)
    np.testing.assert_allclose(batch.positions[:, 0, 0], 0.5)
    assert np.all(batch.regimes[:, 0] == 1)
    occ = batch.occupation_fractions(2)
    assert occ.sum() == pytest.approx(1.0)
    assert np.all(batch.switch_counts() >= 0)


def test_simulate_paths_memory_guard():
    m = rs.make_builtin("ou2")
    cfg = PathConfig(step=1e-4, horizon=10.0, seed=0, paths=1000)
    with pytest.raises(ValueError, match="estimators"):
        rs.simulate_paths(m, 0, cfg)


def test_write_csv(tmp_path):
    m = rs.make_builtin("ou2")
    cfg = PathConfig(step=0.25, horizon=0.5, seed=2, paths=3)
    batch = rs.simulate_paths(m, 0, cfg)
    p = tmp_path / "paths.csv"
    batch.write_csv(p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "path,t,x1,regime"
    assert len(lines) == 1 + 3 * 3  # header + paths * (n_steps + 1)


def test_switch_counts_match_binomial():
    # symmetric constant rates: switches per path are Binomial(n, step*rate)
    m = with_rates(rs.make_builtin("ou2"), [[-0.8, 0.8], [0.8, -0.8]])
    cfg = PathConfig(step=0.01, horizon=2.0, seed=3, paths=4000)
    batch = rs.simulate_paths(m, 0, cfg)
    mean, sd = orc.switch_count_moments(0.01, cfg.n_steps, 0.8)
    z = (batch.switch_counts().mean() - mean) / (sd / math.sqrt(cfg.paths))
    assert abs(z) < 3.5


def test_occupation_fraction_includes_transient():
    # asymmetric rates from a fixed start: the exact per-step recursion is the
    # oracle; long-run 2/3 alone is off by the transient at this horizon
    m = with_rates(rs.make_builtin("ou2"), [[-1.0, 1.0], [2.0, -2.0]])
    cfg = PathConfig(step=0.005, horizon=3.0, seed=17, paths=3000)
    batch = rs.simulate_paths(m, 0, cfg, k0=0)
    frac0 = batch.occupation_fractions(2)[0]
    oracle = orc.occupation_average(0.005, cfg.n_steps, 1.0, 2.0, start=0)
    assert frac0 == pytest.approx(oracle, abs=6e-3)
    assert abs(oracle - 2.0 / 3.0) > 0.02  # the transient actually matters here


# ---------------------------------------------------------------------------
# risk-sensitive rate estimator


def test_constant_cost_reproduced_exactly():
    # dyadic step and constant cost: the exponent telescopes with no roundoff,
    # so every path weight is identical and the spread is exactly zero
    kappa = 0.75
    m = driftless().with_cost(lambda X, k, xi: np.full(X.shape[0], kappa), "flat")
    cfg = PathConfig(step=1.0 / 128.0, horizon=2.0, seed=9, paths=512)
    est = rs.estimate_risk_sensitive_rate(m, 0, cfg)
    assert est.value == kappa
    assert est.std_error == 0.0
    assert est.ess == pytest.approx(cfg.paths)
    assert not est.unreliable


def test_rate_matches_riccati_oracle():
    # light-tailed regime (q far below xi^2/4): the scalar Riccati ODE gives
    # the exact finite-horizon rate; the estimate must agree within noise
    m = ou1(xi=1.0, q=0.05)
    cfg = PathConfig(step=1.0 / 128.0, horizon=4.0, seed=99, paths=20000)
    est = rs.estimate_risk_sensitive_rate(m, 0, cfg)
    oracle = orc.finite_horizon_rate_ode(1.0, 0.05, cfg.actual_horizon)
    assert abs(est.value - oracle) <= 4.0 * est.std_error
    assert est.ess > 0.5 * cfg.paths
    assert not est.unreliable


def test_rate_requires_unit_horizon():
    m = ou1()
    with pytest.raises(ValueError, match="horizon"):
        rs.estimate_risk_sensitive_rate(
            m, 0, PathConfig(step=0.01, horizon=0.5, seed=0, paths=16))


def test_single_path_flags_ess_collapse():
    m = ou1()
    est = rs.estimate_risk_sensitive_rate(
        m, 0, PathConfig(step=0.01, horizon=1.0, seed=0, paths=1))
    assert est.ess == pytest.approx(1.0)
    assert "ess_collapse" in est.flags
    assert est.unreliable
    assert est.std_error == math.inf


def test_heavy_tail_flagged():
    # long horizon at modest path count: a handful of paths carry the whole
    # exponential mean (measured ess ~ 3 for this seed); both gates trip
    m = rs.make_builtin("lq", controls=(1.0,))
    cfg = PathConfig(step=1.0 / 64.0, horizon=30.0, seed=5, paths=2000)
    est = rs.estimate_risk_sensitive_rate(m, 0, cfg)
    assert "heavy_tail" in est.flags
    assert est.unreliable
    assert est.ess < 0.02 * cfg.paths


def test_lambda_ref_deviation_recorded():
    m = ou1()
    cfg = PathConfig(step=0.02, horizon=2.0, seed=1, paths=500)
    est = rs.estimate_risk_sensitive_rate(m, 0, cfg, lambda_ref=0.04)
    assert est.details["lambda_ref"] == 0.04
    assert est.details["deviation"] == pytest.approx(est.value - 0.04)


def test_clt_standard_error_scaling():
    # bounded cost keeps the weights light, so se should halve when the path
    # count quadruples (up to sampling noise in the spread estimate itself)
    m = driftless().with_cost(
        lambda X, k, xi: 0.5 / (1.0 + X[:, 0] ** 2), "bounded")
    cfg1 = PathConfig(step=0.02, horizon=2.0, seed=13, paths=2000)
    cfg2 = PathConfig(step=0.02, horizon=2.0, seed=13, paths=8000)
    se1 = rs.estimate_risk_sensitive_rate(m, 0, cfg1).std_error
    se2 = rs.estimate_risk_sensitive_rate(m, 0, cfg2).std_error
    assert se2 < se1
    assert se1 / se2 == pytest.approx(2.0, rel=0.25)


# ---------------------------------------------------------------------------
# reproducibility


def test_seed_determinism_and_sensitivity():
    m = rs.make_builtin("ou2")
    cfg = PathConfig(step=0.01, horizon=1.5, seed=42, paths=600)
    a = rs.estimate_risk_sensitive_rate(m, 0, cfg)
    b = rs.estimate_risk_sensitive_rate(m, 0, cfg)
    assert a.value == b.value and a.std_error == b.std_error
    c = rs.estimate_risk_sensitive_rate(
        m, 0, dataclasses.replace(cfg, seed=43))
    assert c.value != a.value


def test_worker_count_never_changes_results():
    # counter-based per-block generators with ordered reduction: the estimate
    # must be bitwise identical for any worker count (> 1 block here)
    m = rs.make_builtin("ou2")
    cfg = PathConfig(step=0.02, horizon=1.0, seed=7, paths=6000)
    vals = []
    for w in (1, 2, 8):
        est = rs.estimate_risk_sensitive_rate(m, 0, cfg, workers=w)
        vals.append((est.value, est.std_error, est.ess))
    assert vals[0] == vals[1] == vals[2]


def test_trajectories_worker_invariant():
    m = rs.make_builtin("ou2")
    cfg = PathConfig(step=0.05, horizon=1.0, seed=11, paths=5000)
    b1 = rs.simulate_paths(m, 0, cfg, workers=1)
    b2 = rs.simulate_paths(m, 0, cfg, workers=4)
    np.testing.assert_array_equal(b1.positions, b2.positions)
    np.testing.assert_array_equal(b1.regimes, b2.regimes)


# ---------------------------------------------------------------------------
# hitting-time functional


def test_annulus_hit_probability_matches_oracle():
    # cost 0, lambda 0, psi = 1: the payoff reduces to the indicator of
    # hitting the inner ball first, whose law is linear in the start point
    m = driftless()
    g = rs.grid_for_resolution(1, 3.0, 10)
    ones = rs.EigenPair(eigenvalue=0.0, eigenfunction=np.ones((1, g.num_interior)),
                        residual=0.0, iterations=0, shift=0.0)
    cfg = PathConfig(step=1e-3, horizon=2.0, seed=31, paths=5000)
    rep = rs.feynman_kac_annulus(m, 0, ones, g, 0.5, [(np.array([1.5]), 0)], cfg)
    r = rep.results[0]
    oracle = orc.bm_hit_probability(1.5, 0.5, 3.0)
    assert abs(r.estimate.value - oracle) <= 4.0 * r.estimate.std_error + 0.01
    assert r.hit_fraction + r.exit_fraction + r.capped_fraction == pytest.approx(1.0)
    assert r.capped_fraction == 0.0
    assert rep.capped_fraction == 0.0
    d = rep.as_dict()
    assert d["starts"][0]["hit_fraction"] == r.hit_fraction


def test_annulus_start_validation():
    m = driftless()
    g = rs.grid_for_resolution(1, 3.0, 10)
    ones = rs.EigenPair(eigenvalue=0.0, eigenfunction=np.ones((1, g.num_interior)),
                        residual=0.0, iterations=0, shift=0.0)
    cfg = PathConfig(step=1e-2, horizon=1.0, seed=0, paths=4)
    with pytest.raises(ValueError, match="annulus"):
        rs.feynman_kac_annulus(m, 0, ones, g, 0.5, [(np.array([0.2]), 0)], cfg)
    with pytest.raises(ValueError, match="annulus"):
        rs.feynman_kac_annulus(m, 0, ones, g, 0.5, [(np.array([3.5]), 0)], cfg)
    with pytest.raises(ValueError, match="inner radius"):
        rs.feynman_kac_annulus(m, 0, ones, g, 4.0, [(np.array([1.0]), 0)], cfg)


@pytest.mark.parametrize("r_inner", [0.0, -1.0])
def test_annulus_refuses_a_non_positive_inner_radius(monkeypatch, r_inner):
    # the inner ball would be empty: a start at the origin would have no
    # direction to the barrier and every path would count as a box exit
    monkeypatch.setattr(simulate, "_step_once", None)  # any step would fail
    m = driftless()
    g = rs.grid_for_resolution(1, 3.0, 10)
    ones = rs.EigenPair(eigenvalue=0.0, eigenfunction=np.ones((1, g.num_interior)),
                        residual=0.0, iterations=0, shift=0.0)
    cfg = PathConfig(step=1e-2, horizon=1.0, seed=0, paths=4)
    with pytest.raises(ValueError, match=r"^inner radius must lie in \(0, 3\), got "):
        rs.feynman_kac_annulus(m, 0, ones, g, r_inner, [(np.array([1.0]), 0)], cfg)


def test_annulus_refuses_a_single_path(monkeypatch):
    # one path has no standard error; a z-score of 0 would pass any estimate
    monkeypatch.setattr(simulate, "_step_once", None)  # any step would fail
    m = driftless()
    g = rs.grid_for_resolution(1, 3.0, 10)
    ones = rs.EigenPair(eigenvalue=0.0, eigenfunction=np.ones((1, g.num_interior)),
                        residual=0.0, iterations=0, shift=0.0)
    cfg = PathConfig(step=1e-2, horizon=1.0, seed=0, paths=1)
    with pytest.raises(ValueError, match="at least 2 paths"):
        rs.feynman_kac_annulus(m, 0, ones, g, 0.5, [(np.array([1.0]), 0)], cfg)


@pytest.mark.parametrize("step, horizon", [(1e10, 1e306), (1e-300, 1e6)])
def test_fk_refuses_a_step_cap_that_is_not_finite(step, horizon):
    # horizon / step is finite, 1000 * horizon / step is not
    m = rs.make_builtin("lq")
    g = rs.grid_for_resolution(1, 3.0, 10)
    ones = rs.EigenPair(eigenvalue=0.0, eigenfunction=np.ones((1, g.num_interior)),
                        residual=0.0, iterations=0, shift=0.0)
    cfg = PathConfig(step=step, horizon=horizon, seed=0, paths=4)
    with pytest.raises(ValueError, match=r"^the Feynman-Kac step cap, 1000 \* horizon / "
                                         r"step, is not finite at horizon "):
        rs.feynman_kac_annulus(m, 0, ones, g, 0.5, [(np.array([1.0]), 0)], cfg)


def nan_beyond(coefficient, limit):
    """ou2 with ``coefficient`` (drift or cost) NaN at states x1 > ``limit``."""
    base = rs.make_builtin("ou2")
    fn = getattr(base, coefficient)

    def masked(X, k, xi):
        values = np.array(fn(X, k, xi), dtype=float)
        values[X[:, 0] > limit] = np.nan
        return values

    return dataclasses.replace(base, **{coefficient: masked})


@pytest.mark.parametrize("coefficient", ["drift", "cost"])
def test_fk_refuses_rows_that_stop_with_non_finite_values(coefficient):
    # a NaN state compares false against both barriers, so it stops as a box
    # exit; a NaN exponent reaches exits too: both must not count as payoff 0
    m = nan_beyond(coefficient, 1.2)
    g = rs.grid_for_resolution(1, 3.0, 10)
    pair = rs.solve_semilinear(rs.make_builtin("ou2"), g).eigenpair
    cfg = PathConfig(step=0.01, horizon=0.5, seed=2, paths=400)
    with pytest.raises(
            rs.NonFiniteEstimateError,
            match=r"^feynman_kac_annulus estimate nan is not finite: [1-9][0-9]* of 400 "):
        rs.feynman_kac_annulus(m, 0, pair, g, 0.5, [(np.array([1.0]), 0)], cfg)


def test_fk_refuses_capped_rows_with_a_non_finite_exponent():
    # paths that never move are cut at the cap with a NaN exponent
    still = dataclasses.replace(
        driftless(), diffusion=lambda X, k: np.zeros((X.shape[0], 1, 1)),
        cost=lambda X, k, x: np.full(X.shape[0], np.nan))
    g = rs.grid_for_resolution(1, 3.0, 10)
    ones = rs.EigenPair(eigenvalue=0.0, eigenfunction=np.ones((1, g.num_interior)),
                        residual=0.0, iterations=0, shift=0.0)
    cfg = PathConfig(step=0.01, horizon=0.01, seed=0, paths=16)
    with pytest.raises(rs.NonFiniteEstimateError, match="16 of 16 "):
        rs.feynman_kac_annulus(still, 0, ones, g, 0.5, [(np.array([1.0]), 0)], cfg)


def test_recorded_paths_refuse_non_finite_values():
    cfg = PathConfig(step=0.01, horizon=1.0, seed=0, paths=64)
    with pytest.raises(
            rs.NonFiniteEstimateError, match=r"^paths estimate nan is not finite: [1-9]"):
        rs.simulate_paths(nan_beyond("drift", 1.2), 0, cfg, x0=[1.0])


def fk_outputs(report):
    return [(r.estimate.value, r.estimate.std_error, r.z_score, r.hit_fraction,
             r.exit_fraction, r.capped_fraction) for r in report.results]


def mixed_table(model, grid, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, model.num_controls,
                        size=(model.num_regimes, grid.num_interior))


def table_controls(model, table, grid, X, K):
    """Control index of each state X (n, dim) in regime K (n,) under a table
    policy on ``grid``, read as the step kernel reads it."""
    stack = simulate._PolicyStack(model, [table], grid)
    return stack.at_rows(np.zeros(len(K), dtype=np.int64)).control_indices(X, K)


@pytest.mark.parametrize("name", ["ou2", "bounded2d"])
def test_fk_starts_independent_of_each_other(name):
    # all starts share one working set, but each keeps its own block stream:
    # a start's results must not depend on which other starts run with it
    m = rs.make_builtin(name)
    if name == "ou2":
        g = rs.grid_for_resolution(1, 3.0, 10)
        policy = mixed_table(m, g)
        starts = [(np.array([1.0]), 0), (np.array([-1.5]), 1), (np.array([2.0]), 1)]
    else:
        g = rs.grid_for_resolution(2, 3.0, 5)
        policy = 1
        starts = [(np.array([1.0, 0.5]), 0), (np.array([-1.2, 1.0]), 1),
                  (np.array([0.3, -2.0]), 0)]
    pair = rs.solve_semilinear(m, g).eigenpair
    cfg = PathConfig(step=4e-3, horizon=0.5, seed=3, paths=300)
    together = rs.feynman_kac_annulus(m, policy, pair, g, 0.5, starts, cfg)
    alone = [fk_outputs(rs.feynman_kac_annulus(m, policy, pair, g, 0.5, [s], cfg))[0]
             for s in starts]
    assert fk_outputs(together) == alone
    assert together.capped_fraction == 0.0


def test_fk_worker_count_never_changes_results():
    # two blocks of paths: bitwise identical for any worker count
    m = rs.make_builtin("ou2")
    g = rs.grid_for_resolution(1, 3.0, 10)
    pair = rs.solve_semilinear(m, g).eigenpair
    starts = [(np.array([1.0]), 0), (np.array([-1.5]), 1)]
    cfg = PathConfig(step=5e-3, horizon=0.5, seed=7, paths=6000)
    outs = [rs.feynman_kac_annulus(m, mixed_table(m, g), pair, g, 0.5, starts, cfg,
                                   workers=w) for w in (1, 2, 8)]
    assert fk_outputs(outs[0]) == fk_outputs(outs[1]) == fk_outputs(outs[2])
    assert outs[0].max_abs_z == outs[1].max_abs_z == outs[2].max_abs_z


def test_fused_step_matches_per_group_oracle(monkeypatch):
    # bounded2d under a mixed table: both regimes and both controls occur, so
    # the fused kernel runs its multi-group path against the per-group oracle
    m = rs.make_builtin("bounded2d")
    g = rs.grid_for_resolution(2, 3.0, 5)
    table = mixed_table(m, g)
    cfg = PathConfig(step=0.01, horizon=1.0, seed=4, paths=300)
    pair = rs.solve_semilinear(m, g).eigenpair
    starts = [(np.array([1.0, 0.5]), 0), (np.array([-1.2, 1.0]), 1)]
    fk_cfg = PathConfig(step=4e-3, horizon=0.5, seed=5, paths=200)

    def run():
        batch = rs.simulate_paths(m, table, cfg, x0=[0.5, -0.5], k0=1, grid=g)
        fk = rs.feynman_kac_annulus(m, table, pair, g, 0.5, starts, fk_cfg)
        return batch, fk

    fused, fused_fk = run()
    monkeypatch.setattr(simulate, "_step_once", orc.step_once_per_group)
    ref, ref_fk = run()
    np.testing.assert_array_equal(fused.positions, ref.positions)
    np.testing.assert_array_equal(fused.regimes, ref.regimes)
    np.testing.assert_array_equal(fused.integrated_cost, ref.integrated_cost)
    assert fk_outputs(fused_fk) == fk_outputs(ref_fk)
    assert set(np.unique(ref.regimes)) == {0, 1}
    controls = table_controls(m, table, g, ref.positions.reshape(-1, 2),
                              ref.regimes.reshape(-1))
    assert set(np.unique(controls)) == {0, 1}


def three_regime_model(dim):
    """Three regimes, two controls, independent coordinates: every regime
    draw runs the kernel's cumulative sums past their first column."""
    diffusion = [["sqrt(2)" if i == j else "0" for j in range(dim)] for i in range(dim)]
    return rs.model_from_spec({
        "name": "three", "dim": dim, "num_regimes": 3, "controls": [0.5, 1.0],
        "params": {"kappa": [1.0, 2.0, 0.5]},
        "drift": ["-kappa * xi * x%d" % (i + 1) for i in range(dim)],
        "diffusion": diffusion,
        "rates": [["-1", "0.6", "0.4"], ["0.5", "-0.8", "0.3"], ["0.2", "0.7", "-0.9"]],
        "cost": "0.05 * (1 + k) * x1^2"})


THREE_RATES = np.array([[-1.0, 0.6, 0.4], [0.5, -0.8, 0.3], [0.2, 0.7, -0.9]])


def _state_rates(X, xi):
    return (1.0 + 0.1 * xi * np.sum(X * X, axis=1))[:, None, None] * THREE_RATES


# the layouts a rates callable may return, each with (stride-0 rows,
# C-contiguous): one matrix for every row as a broadcast view, and
# state-dependent matrices in C and in Fortran order
RATE_LAYOUTS = {
    "broadcast": (lambda X, xi: np.broadcast_to(THREE_RATES, (len(X), 3, 3)), (True, False)),
    "contiguous": (_state_rates, (False, True)),
    "fortran": (lambda X, xi: np.asfortranarray(_state_rates(X, xi)), (False, False)),
}


@pytest.mark.parametrize("layout", sorted(RATE_LAYOUTS))
@pytest.mark.parametrize("dim", [1, 2])
def test_rate_rows_of_every_layout_match_per_group_oracle(dim, layout, monkeypatch):
    # the kernel reads each row's rate row from the shared matrix of a
    # broadcast view and over a flat axis of any other array; every layout
    # steps the paths and the FK check bitwise as the per-group oracle does
    rates, flags = RATE_LAYOUTS[layout]
    m = dataclasses.replace(three_regime_model(dim), rates=rates)
    R = m.rates(np.ones((4, dim)), np.ones(4))
    assert (R.strides[0] == 0, R.flags.c_contiguous) == flags
    g = rs.grid_for_resolution(dim, 3.0, 5)
    table = mixed_table(m, g)
    pair = rs.EigenPair(eigenvalue=0.05, eigenfunction=np.ones((3, g.num_interior)),
                        residual=0.0, iterations=0, shift=0.0)
    x0 = np.linspace(0.5, -0.5, dim)
    starts = [(x0 + 0.8, 0), (-x0 - 1.2, 2)]

    def run():
        batch = rs.simulate_paths(m, table, PathConfig(step=0.01, horizon=1.0, seed=4, paths=300),
                                  x0=x0, k0=1, grid=g)
        fk = rs.feynman_kac_annulus(m, table, pair, g, 0.5, starts,
                                    PathConfig(step=4e-3, horizon=0.5, seed=5, paths=200))
        return batch, fk

    fused, fused_fk = run()
    monkeypatch.setattr(simulate, "_step_once", orc.step_once_per_group)
    ref, ref_fk = run()
    np.testing.assert_array_equal(fused.positions, ref.positions)
    np.testing.assert_array_equal(fused.regimes, ref.regimes)
    np.testing.assert_array_equal(fused.integrated_cost, ref.integrated_cost)
    assert fk_outputs(fused_fk) == fk_outputs(ref_fk)
    assert set(np.unique(ref.regimes)) == {0, 1, 2}
    assert all(0 < r.hit_fraction < 1 for r in ref_fk.results)


def test_each_coefficient_is_called_once_per_step(monkeypatch):
    # every (regime, control) group occurs in the set, yet each coefficient
    # is called once per step over all of its rows, in every driver
    m = rs.make_builtin("bounded2d")
    g = rs.grid_for_resolution(2, 3.0, 5)
    table = mixed_table(m, g)
    coefficients = ("drift", "diffusion", "rates", "cost")
    calls = dict.fromkeys(coefficients + ("step",), 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    m = dataclasses.replace(m, **{name: counted(name, getattr(m, name))
                                  for name in coefficients})
    monkeypatch.setattr(simulate, "_step_once", counted("step", simulate._step_once))
    cfg = PathConfig(step=0.01, horizon=1.0, seed=4, paths=300)
    batch = rs.simulate_paths(m, table, cfg, x0=[0.5, -0.5], k0=1, grid=g, workers=1)
    assert calls == dict.fromkeys(calls, cfg.n_steps)
    controls = table_controls(m, table, g, batch.positions.reshape(-1, 2),
                              batch.regimes.reshape(-1))
    groups = (batch.regimes.reshape(-1) * 2 + controls).reshape(batch.regimes.shape)
    assert max(len(np.unique(groups[:, t])) for t in range(cfg.n_steps)) == 4
    rs.estimate_risk_sensitive_rates(m, [table, 1], cfg, x0=[0.5, -0.5], grid=g, workers=1)
    pair = rs.solve_semilinear(rs.make_builtin("bounded2d"), g).eigenpair
    rs.feynman_kac_annulus(m, table, pair, g, 0.5, [(np.array([1.0, 0.5]), 0)],
                           PathConfig(step=4e-3, horizon=0.5, seed=5, paths=200), workers=1)
    assert calls["step"] > 2 * cfg.n_steps
    assert calls == dict.fromkeys(calls, calls["step"])


def test_step_size_error_names_state_inside_fk(monkeypatch):
    # switching intensity grows with |x|: the guard must trip inside the FK
    # loop at a visited state that breaches the bound, as the oracle does
    base = rs.make_builtin("ou2")
    m = dataclasses.replace(base, rates=lambda X, xi: np.abs(X[:, 0])[:, None, None]
                            * np.array([[-1.0, 1.0], [1.0, -1.0]]))
    g = rs.grid_for_resolution(1, 4.0, 10)
    ones = rs.EigenPair(eigenvalue=0.0, eigenfunction=np.ones((2, g.num_interior)),
                        residual=0.0, iterations=0, shift=0.0)
    cfg = PathConfig(step=0.2, horizon=1.0, seed=1, paths=64)
    starts = [(np.array([2.0]), 0)]
    errors = []
    for kernel in (simulate._step_once, orc.step_once_per_group):
        monkeypatch.setattr(simulate, "_step_once", kernel)
        with pytest.raises(StepSizeError) as exc:
            rs.feynman_kac_annulus(m, 0, ones, g, 0.5, starts, cfg)
        errors.append(exc.value)
    fused, ref = errors
    assert fused.step * fused.rate > 0.5
    assert fused.rate == pytest.approx(abs(float(fused.state[0])))
    assert (fused.rate, fused.state.tolist(), fused.regime) == \
        (ref.rate, ref.state.tolist(), ref.regime)
    assert "at state" in str(fused)


def test_run_cache_follows_shared_matrices_and_the_step(monkeypatch):
    # rates and diffusion return broadcast views of one array each.  First
    # the arrays are rewritten in place every 5 steps; then they stay fixed
    # while one model runs at two step sizes in one process.  What a run
    # keeps of a shared matrix (draw thresholds, shifted box) must follow its
    # bytes and the step, as the per-group oracle, which keeps nothing, does
    rate_cycle = [np.array([[-1.0, 1.0], [2.0, -2.0]]) * s for s in (1.0, 3.0, 0.5)]
    sig_cycle = [np.array([[1.5, 0.0], [0.3, 1.0]]) * s for s in (1.0, 2.5)]
    R, sig, steps = np.empty((2, 2)), np.empty((2, 2)), [0]
    m = dataclasses.replace(rs.make_builtin("bounded2d"),
                            rates=lambda X, xi: np.broadcast_to(R, (len(X), 2, 2)),
                            diffusion=lambda X, k: np.broadcast_to(sig, (len(X), 2, 2)))
    g = rs.grid_for_resolution(2, 3.0, 5)
    table = mixed_table(m, g)
    pair = rs.EigenPair(eigenvalue=0.05, eigenfunction=np.ones((2, g.num_interior)),
                        residual=0.0, iterations=0, shift=0.0)
    starts = [(np.array([1.0, 0.5]), 0), (np.array([-1.2, 1.0]), 1)]

    def run(kernel):
        def step(*args, **kwargs):
            t = steps[0] // 5 if rewrite else 0
            R[:], sig[:] = rate_cycle[t % 3], sig_cycle[t % 2]
            steps[0] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(simulate, "_step_once", step)
        outs = []
        for h, rewrite in ((0.01, True), (0.01, False), (0.004, False)):
            steps[0] = 0
            fk = rs.feynman_kac_annulus(m, table, pair, g, 0.5, starts,
                                        PathConfig(step=h, horizon=0.5, seed=5, paths=200))
            batch = rs.simulate_paths(m, table, PathConfig(step=h, horizon=0.5, seed=4, paths=200),
                                      x0=[0.5, -0.5], k0=1, grid=g)
            outs.append((batch.positions, batch.regimes, batch.integrated_cost,
                         fk_outputs(fk)))
        return outs

    fused = run(simulate._step_once)
    ref = run(orc.step_once_per_group)
    for (*paths, fk), (*ref_paths, ref_fk) in zip(fused, ref):
        for a, b in zip(paths, ref_paths):
            np.testing.assert_array_equal(a, b)
        assert fk == ref_fk
    assert set(np.unique(ref[0][1])) == {0, 1}


def test_fk_tail_of_criterion_05_starts_matches_per_group_oracle(monkeypatch):
    # criterion 05's five starts share one set, which parts at its first stop
    # and runs down to a tail of fewer than 10 alive rows: the |X| each hit
    # test hands to the next step, compacted at every stop, gives the
    # oracle's report, which takes |X| afresh
    m = rs.make_builtin("ou2")
    g = rs.grid_for_resolution(1, 4.0, 40)
    sol = rs.solve_semilinear(m, g)
    starts = [(np.array([x]), k) for x, k in ((1.0, 0), (-1.0, 1), (1.5, 0), (-1.5, 1), (2.0, 0))]
    cfg = PathConfig(step=2e-3, horizon=1.0, seed=11, paths=64)

    def run(kernel):
        alive = []

        def step(model, controls, X, *args):
            alive.append(len(X))
            return kernel(model, controls, X, *args)

        monkeypatch.setattr(simulate, "_step_once", step)
        report = rs.feynman_kac_annulus(m, sol.policy, sol.eigenpair, g, 0.5, starts, cfg)
        return report, alive

    (fused, alive), (ref, ref_alive) = run(simulate._step_once), run(orc.step_once_per_group)
    assert fused.as_dict() == ref.as_dict()
    assert alive == ref_alive
    assert alive[0] == len(starts) * cfg.paths and 0 < min(alive) < 10
    assert fused.capped_fraction == 0.0


# ---------------------------------------------------------------------------
# working sets


RAGGED = 3 * simulate.BLOCK + 123


def mc_outputs(m, g, policy, pair, starts, x0):
    """Every Monte Carlo entry point on RAGGED paths (one working set for the
    path steppers, two for two stacked rate policies and for the FK check
    over two starts)."""
    rate_cfg = PathConfig(step=0.05, horizon=1.0, seed=8, paths=RAGGED)
    rate = rs.estimate_risk_sensitive_rate(m, policy, rate_cfg, x0=x0, grid=g)
    weighted = rs.estimate_risk_sensitive_rate(m, policy, rate_cfg, x0=x0, k0=1,
                                               grid=g, terminal_pair=pair)
    stacked = rs.estimate_risk_sensitive_rates(m, [policy, 1], rate_cfg, x0=x0, k0=1,
                                               grid=g, terminal_pair=pair)
    batch = rs.simulate_paths(m, policy, PathConfig(step=0.1, horizon=1.0, seed=9,
                                                    paths=RAGGED), x0=x0, grid=g)
    mean_pos = rs.mean_position_diagnostic(m, policy, rate_cfg, x0=x0, grid=g)
    fk = rs.feynman_kac_annulus(m, policy, pair, g, 0.5, starts,
                                PathConfig(step=0.01, horizon=0.5, seed=10,
                                           paths=RAGGED))
    return ([(e.value, e.std_error, e.ess) for e in (rate, weighted, *stacked)],
            batch, (mean_pos.values, mean_pos.std_errors), fk_outputs(fk))


@pytest.mark.parametrize("name", ["ou2", "bounded2d"])
def test_working_sets_match_per_block_oracle(name, monkeypatch):
    # a ragged multi-block run stepped as working sets must be bitwise the
    # run of its blocks one at a time
    m = rs.make_builtin(name)
    if name == "ou2":
        g = rs.grid_for_resolution(1, 3.0, 10)
        sol = rs.solve_semilinear(m, g)
        policy, pair = sol.policy, sol.eigenpair
        starts = [(np.array([1.0]), 0), (np.array([-1.5]), 1)]
        x0 = [0.5]
    else:
        g = rs.grid_for_resolution(2, 3.0, 5)
        policy, pair = mixed_table(m, g), rs.solve_semilinear(m, g).eigenpair
        starts = [(np.array([1.0, 0.5]), 0), (np.array([-1.2, 1.0]), 1)]
        x0 = [0.5, -0.5]
    assert [len(simulate._working_sets(RAGGED, w)) for w in (1, 2)] == [1, 2]
    fused = mc_outputs(m, g, policy, pair, starts, x0)
    monkeypatch.setattr(simulate, "_horizon_block", orc.horizon_per_block)
    monkeypatch.setattr(simulate, "_fk_block", orc.fk_per_block)
    ref = mc_outputs(m, g, policy, pair, starts, x0)
    assert fused[0] == ref[0]
    np.testing.assert_array_equal(fused[1].positions, ref[1].positions)
    np.testing.assert_array_equal(fused[1].regimes, ref[1].regimes)
    np.testing.assert_array_equal(fused[1].integrated_cost, ref[1].integrated_cost)
    assert fused[2] == ref[2]
    assert fused[3] == ref[3]


def test_set_steppers_match_per_block_oracle():
    # the steppers' raw per-path outputs, whose order the estimates above
    # cannot see, laid out block by block as the per-block oracle does
    m = rs.make_builtin("bounded2d")
    g = rs.grid_for_resolution(2, 3.0, 5)
    stack = simulate._PolicyStack(m, [mixed_table(m, g)], g)
    pair = rs.solve_semilinear(m, g).eigenpair
    blocks = [(2, 300), (3, 123)]
    cfg = PathConfig(step=0.05, horizon=1.0, seed=15, paths=1)
    x0 = np.array([0.5, -0.5])
    # one policy, and three stacked (rows ordered block, policy, path)
    stacked = simulate._PolicyStack(m, [mixed_table(m, g), 1, mixed_table(m, g, seed=1)], g)
    for run in (stack, stacked):
        for fused, ref in zip(
                simulate._horizon_block(m, run, cfg, blocks, x0, 1, [0, 3, 25]),
                orc.horizon_per_block(m, run, cfg, blocks, x0, 1, [0, 3, 25])):
            np.testing.assert_array_equal(fused, ref)
    starts = [(np.array([1.0, 0.5]), 0), (np.array([-1.2, 1.0]), 1)]
    # both blocks stop rows and split their draws by start; at the cap of 10
    # steps, block 3 splits after its first stop (step 7) while block 2
    # reaches the cap before its first (step 12), sharing its draws to the end
    for fk_cfg, cap in ((PathConfig(step=0.01, horizon=0.5, seed=16, paths=1), 10000),
                        (PathConfig(step=0.002, horizon=0.5, seed=17, paths=1), 10)):
        fk_args = (starts, pair.eigenvalue, g, pair.eigenfunction, 0.5, cap)
        payoff, status = simulate._fk_block(m, stack, fk_cfg, blocks, *fk_args)
        for fused, ref in zip((payoff, status),
                              orc.fk_per_block(m, stack, fk_cfg, blocks, *fk_args)):
            np.testing.assert_array_equal(fused, ref)
    assert (status[:, :300] == 3).all() and (status[:, 300:] != 3).any()


def counting_draws(monkeypatch):
    """Row counts of each block's normal draws, in call order, keyed by
    block; copies of a block's generator count under its block."""
    draws = {}
    block_generator = simulate._block_generator

    class CountingGenerator:
        def __init__(self, seed, block):
            self.rng, self.block = block_generator(seed, block), block
            draws.setdefault(block, [])

        def standard_normal(self, size=None, out=None):
            draws[self.block].append(len(out) if size is None else size[0])
            return self.rng.standard_normal(size, out=out)

        def random(self, size=None, out=None):
            return self.rng.random(size, out=out)

    monkeypatch.setattr(simulate, "_block_generator", CountingGenerator)
    return draws


def test_blocks_draw_once_per_step_until_their_first_stop(monkeypatch):
    # a block's groups share its draw while all their rows run: an FK block
    # draws once per step up to its first stop, then once per start that
    # still has running rows, for that start's rows; rate paths never stop
    m = rs.make_builtin("ou2")
    g = rs.grid_for_resolution(1, 3.0, 10)
    pair = rs.solve_semilinear(m, g).eigenpair
    table = mixed_table(m, g)
    starts = [(np.array([1.0]), 0), (np.array([-1.5]), 1), (np.array([2.0]), 1)]
    cfg = PathConfig(step=4e-3, horizon=0.5, seed=3, paths=300)
    draws = counting_draws(monkeypatch)
    alone = []
    for s in starts:
        rs.feynman_kac_annulus(m, table, pair, g, 0.5, [s], cfg)
        alone.append(draws.pop(0))
    first = min(next(t for t, n in enumerate(a) if n < cfg.paths) for a in alone)
    assert 1 < first < min(map(len, alone))
    rs.feynman_kac_annulus(m, table, pair, g, 0.5, starts, cfg)
    assert draws.pop(0) == [cfg.paths] * first + [
        a[t] for t in range(first, max(map(len, alone))) for a in alone if t < len(a)]
    rate_cfg = PathConfig(step=0.05, horizon=1.0, seed=4, paths=simulate.BLOCK + 123)
    rs.estimate_risk_sensitive_rates(m, [table, 0, 1], rate_cfg, grid=g)
    assert draws == {0: [simulate.BLOCK] * rate_cfg.n_steps, 1: [123] * rate_cfg.n_steps}


@pytest.fixture
def four_cpus(monkeypatch):
    """Size pools for four usable CPUs, whatever the machine has."""
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 4)


def multi_set_outputs(m, g, table, pair, starts, w):
    """Every Monte Carlo entry point on runs of two or more working sets at
    two workers or more."""
    rate_cfg = PathConfig(step=0.05, horizon=1.0, seed=12, paths=5 * simulate.BLOCK + 17)
    fk_cfg = PathConfig(step=0.01, horizon=0.5, seed=13, paths=9000)
    est = rs.estimate_risk_sensitive_rate(m, table, rate_cfg, workers=w, grid=g)
    batch = rs.simulate_paths(m, table, rate_cfg, workers=w, grid=g)
    mean_pos = rs.mean_position_diagnostic(m, table, rate_cfg, workers=w, grid=g)
    fk = rs.feynman_kac_annulus(m, table, pair, g, 0.5, starts, fk_cfg, workers=w)
    sets = [simulate._working_sets(rate_cfg.paths, 1, w)] * 3 + \
        [simulate._working_sets(fk_cfg.paths, len(starts), w)]
    return ((est.value, est.std_error, est.ess),
            (batch.positions.tobytes(), batch.regimes.tobytes(),
             batch.integrated_cost.tobytes()),
            (mean_pos.values, mean_pos.std_errors), fk_outputs(fk)), sets


def test_worker_count_never_changes_multi_set_results(monkeypatch, four_cpus):
    # pools of min(workers, CPUs, sets) processes; the results are bitwise
    # those of one process stepping every set
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    m = rs.make_builtin("ou2")
    g = rs.grid_for_resolution(1, 3.0, 10)
    pair = rs.solve_semilinear(m, g).eigenpair
    table = mixed_table(m, g)
    starts = [(np.array([1.0]), 0), (np.array([-1.5]), 1)]
    outs = []
    for w in (1, 2, 8):
        pools.clear()
        out, sets = multi_set_outputs(m, g, table, pair, starts, w)
        outs.append(out)
        sizes = [min(w, 4, len(s)) for s in sets]
        assert pools == [n for n in sizes if n > 1]
    # workers, CPUs and sets each bound a pool at some worker count
    assert sizes == [4, 4, 4, 3]
    assert outs[0] == outs[1] == outs[2]


def test_one_set_or_one_worker_starts_no_pool(monkeypatch, four_cpus):
    # recorded, not only raised: a run that fails in a pool is stepped again
    # serially, which would hide the raise
    started = []

    def no_pool(*args, **kwargs):
        started.append(args)
        raise AssertionError("a run of one working set or one worker, or with another "
                             "thread running, started a pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    m = rs.make_builtin("ou2")
    g = rs.grid_for_resolution(1, 3.0, 10)
    pair = rs.solve_semilinear(m, g).eigenpair
    starts = [(np.array([1.0]), 0), (np.array([-1.5]), 1)]
    cfg = PathConfig(step=0.05, horizon=1.0, seed=14, paths=simulate.BLOCK)
    assert len(simulate._working_sets(cfg.paths, len(starts), 8)) == 1
    rs.estimate_risk_sensitive_rate(m, 0, cfg, workers=8)
    rs.simulate_paths(m, 0, cfg, workers=8)
    rs.mean_position_diagnostic(m, 0, cfg, workers=8)
    rs.feynman_kac_annulus(m, 0, pair, g, 0.5, starts,
                           dataclasses.replace(cfg, step=0.01, horizon=0.5), workers=8)
    multi_set_outputs(m, g, mixed_table(m, g), pair, starts, 1)
    # a fork copies only the calling thread, so another running thread
    # makes a multi-set run serial
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        two = rs.estimate_risk_sensitive_rate(m, 0, dataclasses.replace(cfg, paths=2 * cfg.paths),
                                              workers=2)
    finally:
        release.set()
        waiter.join(10)
    assert not waiter.is_alive()
    assert len(simulate._working_sets(2 * cfg.paths, 1, 2)) == 2
    assert math.isfinite(two.value)
    assert started == []


def test_working_sets_split_rows_between_workers(four_cpus):
    # one set per worker down to one block a set, and SET_ROWS at most; at
    # one worker the sets are those of a cap of SET_ROWS alone
    B = simulate.BLOCK
    assert simulate._working_sets(2 * B) == [[(0, B), (1, B)]]
    assert simulate._working_sets(2 * B, 1, 2) == [[(0, B)], [(1, B)]]
    assert simulate._working_sets(2 * B, 2, 8) == [[(0, B)], [(1, B)]]
    assert simulate._working_sets(B + 5, 1, 8) == [[(0, B)], [(1, 5)]]
    assert simulate._working_sets(10 * B, 1, 2) == \
        [[(b, B) for b in range(i, min(i + 4, 10))] for i in (0, 4, 8)]
    assert simulate._working_sets(6 * B + 1, 1, 1) == \
        [[(b, B) for b in range(4)], [(4, B), (5, B), (6, 1)]]


def fast_beyond(model, radius, rate):
    """``model`` with switching rate ``rate`` at states |x1| > ``radius``."""
    base = model.rates

    def rates(X, xi):
        m = np.array(base(X, xi), dtype=float)
        far = np.abs(X[:, 0]) > radius
        m[far] *= rate / -m[far, 0, 0][:, None, None]
        return m

    return dataclasses.replace(model, rates=rates)


def failing_runs():
    """(model, config) pairs that raise while stepping two blocks: at the first
    step and row 0 of block 0, or (``far_step_size``) where the worst row
    of a set, and so the state the error names, depends on the sets."""
    ou2 = rs.make_builtin("ou2")
    paths = 2 * simulate.BLOCK
    return {
        "step_size": (ou2, PathConfig(step=0.6, horizon=1.2, seed=1, paths=paths)),
        "far_step_size": (fast_beyond(ou2, 1.5, 100.0),
                          PathConfig(step=0.01, horizon=1.0, seed=0, paths=paths)),
        "nan_rate": (with_rates(ou2, [[-1.0, math.nan], [1.0, -1.0]]),
                     PathConfig(step=0.01, horizon=1.0, seed=2, paths=paths)),
        "negative_rate": (rs.make_builtin("bounded2d", rho=-1.0),
                          PathConfig(step=0.01, horizon=1.0, seed=3, paths=paths)),
    }


def described(exc):
    return type(exc), str(exc), repr(sorted(vars(exc).items()))


@pytest.mark.parametrize("driver", ["rate", "paths"])
@pytest.mark.parametrize("case", ["step_size", "far_step_size", "nan_rate",
                                  "negative_rate"])
def test_worker_errors_cross_the_process_boundary_intact(case, driver, monkeypatch):
    # an error raised in a worker process reaches the caller as the error the
    # one-worker run raises, never as a broken pool, and leaves no process behind
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    m, cfg = failing_runs()[case]
    run = {"rate": rs.estimate_risk_sensitive_rate, "paths": rs.simulate_paths}[driver]
    errors = []
    for w in (1, 2):
        with pytest.raises(Exception) as exc:
            run(m, 0, cfg, workers=w)
        errors.append(described(exc.value))
        assert multiprocessing.active_children() == []
    assert errors[0] == errors[1]
    assert errors[0][0] is {"step_size": StepSizeError, "far_step_size": StepSizeError,
                            "negative_rate": ValueError,
                            "nan_rate": NonFiniteCoefficientError}[case]


@pytest.mark.parametrize("name", ["ou2", "bounded2d"])
def test_rates_of_several_policies_match_runs_alone(name, monkeypatch):
    # stacked policies share each block's draws; every estimate, every field
    # of it, is the one its policy's run alone gives, at one worker and two
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    m = rs.make_builtin(name)
    g = rs.grid_for_resolution(m.dim, 3.0, 10 if m.dim == 1 else 5)
    sol = rs.solve_semilinear(m, g)
    policies = [sol.policy, mixed_table(m, g), 1]
    cfg = PathConfig(step=0.05, horizon=1.0, seed=17, paths=2 * simulate.BLOCK + 123)
    x0 = [0.5, -0.5][:m.dim]
    # 3 rows a path: two sets at one worker, the second of two blocks; three at two
    assert [len(simulate._working_sets(cfg.paths, 3, w)) for w in (1, 2)] == [2, 3]
    for pair in (None, sol.eigenpair):
        kwargs = dict(lambda_ref=0.02, x0=x0, k0=1, grid=g, terminal_pair=pair)
        alone = [rs.estimate_risk_sensitive_rate(m, p, cfg, **kwargs) for p in policies]
        assert len({e.value for e in alone}) == 3
        for w in (1, 2):
            assert rs.estimate_risk_sensitive_rates(m, policies, cfg, workers=w,
                                                    **kwargs) == alone


def fails_under_control(model, case, xi):
    """``model`` that breaches the step bound at 0.01 (switching rate 60), or
    has a NaN cost, under control ``xi`` only."""
    if case == "step_size":
        base = model.rates
        return dataclasses.replace(model, rates=lambda X, x: base(X, x) * np.where(
            x == xi, 60.0, 1.0)[:, None, None])
    base = model.cost
    return dataclasses.replace(model, cost=lambda X, k, x: base(X, k, x) + np.where(
        x == xi, math.nan, 0.0))


@pytest.mark.parametrize("case", ["step_size", "nan_cost"])
def test_errors_of_one_stacked_policy_are_its_own(case, monkeypatch):
    # one policy of three fails; the run of all three raises the error class
    # of that policy's run alone, at one worker and two
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    base = rs.make_builtin("ou2")
    m = fails_under_control(base, case, base.controls[1])
    cfg = PathConfig(step=0.01, horizon=1.0, seed=4, paths=2 * simulate.BLOCK)
    error = {"step_size": StepSizeError, "nan_cost": rs.NonFiniteEstimateError}[case]
    assert math.isfinite(rs.estimate_risk_sensitive_rate(m, 0, cfg).value)
    with pytest.raises(error) as alone:
        rs.estimate_risk_sensitive_rate(m, 1, cfg)
    for w in (1, 2):
        with pytest.raises(error) as stacked:
            rs.estimate_risk_sensitive_rates(m, [0, 1, 0], cfg, workers=w)
        if case == "nan_cost":  # the failing policy's path values, as alone
            assert str(stacked.value) == str(alone.value)
        assert multiprocessing.active_children() == []


def test_stacked_policies_need_at_least_one():
    m = rs.make_builtin("ou2")
    cfg = PathConfig(step=0.05, horizon=1.0, seed=0, paths=8)
    with pytest.raises(ValueError, match="at least one policy"):
        rs.estimate_risk_sensitive_rates(m, [], cfg)


def test_worker_errors_pickle_whole():
    for exc in (StepSizeError(0.6, 1.0, np.array([0.5]), 1),
                NonFiniteCoefficientError("rates", [0.0, -1.0], 1, 2.0, math.nan),
                NonFiniteCoefficientError("diffusion", [1.0], 0, None, math.inf)):
        assert described(pickle.loads(pickle.dumps(exc))) == described(exc)


def test_no_process_outlives_a_driver(monkeypatch):
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    m = rs.make_builtin("ou2")
    g = rs.grid_for_resolution(1, 3.0, 10)
    pair = rs.solve_semilinear(m, g).eigenpair
    cfg = PathConfig(step=0.05, horizon=1.0, seed=15, paths=2 * simulate.BLOCK)
    fk_cfg = dataclasses.replace(cfg, step=0.01, horizon=0.5)
    runs = [lambda: rs.estimate_risk_sensitive_rate(m, 0, cfg, workers=2),
            lambda: rs.simulate_paths(m, 0, cfg, workers=2),
            lambda: rs.mean_position_diagnostic(m, 0, cfg, workers=2),
            lambda: rs.feynman_kac_annulus(m, 0, pair, g, 0.5, [(np.array([1.0]), 0)],
                                           fk_cfg, workers=2)]
    for run in runs:
        run()
        assert multiprocessing.active_children() == []
    with pytest.raises(StepSizeError):
        rs.feynman_kac_annulus(m, 0, pair, g, 0.5, [(np.array([1.0]), 0)],
                               dataclasses.replace(fk_cfg, step=0.6), workers=2)
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# growth diagnostic


def test_mean_position_decay_driftless():
    cfg = PathConfig(step=0.02, horizon=16.0, seed=21, paths=2000)
    rep = rs.mean_position_diagnostic(driftless(), 0, cfg)
    assert rep.passed
    assert rep.decay_exponent == pytest.approx(-0.5, abs=0.12)
    assert rep.horizons == [1.0, 4.0, 16.0]
    assert len(rep.values) == 3 == len(rep.std_errors)
    assert rep.final.functional is rs.Functional.MEAN_ABS_POSITION


def test_mean_position_decay_mean_reverting():
    cfg = PathConfig(step=0.02, horizon=16.0, seed=21, paths=2000)
    rep = rs.mean_position_diagnostic(ou1(q=0.0), 0, cfg)
    assert rep.passed
    assert rep.decay_exponent == pytest.approx(-1.0, abs=0.15)


def test_mean_position_fails_for_expanding_dynamics():
    m = dataclasses.replace(driftless(), drift=lambda X, k, x: 0.3 * X)
    cfg = PathConfig(step=0.02, horizon=16.0, seed=21, paths=2000)
    rep = rs.mean_position_diagnostic(m, 0, cfg)
    assert not rep.passed
    assert rep.decay_exponent > 0


def test_mean_position_horizon_validation(monkeypatch):
    cfg = PathConfig(step=0.02, horizon=16.0, seed=0, paths=8)
    monkeypatch.setattr(simulate, "_step_once", None)  # any step would fail
    # one rung made np.polyfit raise LinAlgError (a numeric failure) after
    # the steps, none a TypeError
    for horizons, message in (([0.001, 1.0], "below one step"),
                              ([2.0, 1.0], "strictly increasing"),
                              ([1.0], "needs at least two horizons, got 1"),
                              ([], "needs at least two horizons, got 0")):
        with pytest.raises(ValueError, match=message):
            rs.mean_position_diagnostic(driftless(), 0, cfg, horizons=horizons)


def test_start_coercion():
    m = rs.make_builtin("bounded2d")
    cfg = PathConfig(step=0.05, horizon=1.0, seed=0, paths=4)
    with pytest.raises(ValueError, match="coordinates"):
        rs.simulate_paths(m, 0, cfg, x0=[1.0])
    batch = rs.simulate_paths(m, 0, cfg, x0=[1.0, -1.0])
    np.testing.assert_allclose(batch.positions[:, 0], [[1.0, -1.0]] * 4)
