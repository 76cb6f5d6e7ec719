"""Release gate: ten end-to-end checks at their stated tolerances.

Each test prints exactly one [criterion NN] PASS/FAIL line on the live
terminal (bypassing capture), so a plain ``pytest -v`` run shows the
scoreboard alongside the test results.
"""

import contextlib
import dataclasses
import io
import math
import time

import numpy as np
import pytest

import riskswitch as rs
from riskswitch.cli import main as cli_main
from riskswitch.eigen import LAMBDA_TOL, verification_tol
from riskswitch.verify import near_monotone_suite, random_policies, verify_optimality

import _oracles as orc


def emit(capsys, num, ok, detail):
    with capsys.disabled():
        print("[criterion %02d] %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    return ok


# 1 -------------------------------------------------------------------------

def test_criterion_01_quadratic_cost_sweep(capsys):
    target = orc.quadratic_cost_rate(1.0, 3.0 / 16.0)
    t0 = time.monotonic()
    model = rs.make_builtin("lq", controls=(1.0,))
    sweep = rs.domain_sweep(model, [2.0, 4.0, 6.0, 8.0, 10.0], 100)
    elapsed = time.monotonic() - t0
    lams = sweep.eigenvalues
    increasing = all(b > a for a, b in zip(lams, lams[1:]))
    err = abs(lams[-1] - target)
    ok = increasing and err < 1e-2 and elapsed < 60.0
    emit(capsys, 1, ok,
         "lambda(R=10) = %.6f vs %.6f closed form (err %.1e), "
         "sweep increasing=%s, %.1fs" % (lams[-1], target, err, increasing,
                                         elapsed))
    assert increasing
    assert err < 1e-2
    assert elapsed < 60.0


# 2 -------------------------------------------------------------------------

def test_criterion_02_two_control_optimum(capsys):
    target = orc.quadratic_cost_rate(2.0, 3.0 / 16.0)
    model = rs.make_builtin("lq", controls=(1.0, 2.0))
    grid = rs.grid_for_resolution(1, 18.0, 100)
    sol = rs.solve_semilinear(model, grid)
    err = abs(sol.eigenpair.eigenvalue - target)
    frac = float(np.mean(sol.policy == 1))
    ok = err < 1e-2 and frac >= 0.99
    emit(capsys, 2, ok,
         "lambda = %.6f vs %.6f closed form (err %.1e), strong-pull "
         "fraction %.2f%%" % (sol.eigenpair.eigenvalue, target, err,
                              100 * frac))
    assert sol.converged
    assert err < 1e-2
    assert frac >= 0.99


# 3 -------------------------------------------------------------------------

def test_criterion_03_dense_oracle_equivalence(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    worst_lam = 0.0
    worst_psi = 0.0
    for _ in range(20):
        model, grid = orc.random_instance(rng)
        op = rs.assemble(model, grid,
                         rs.constant_policy(grid, model.num_regimes))
        lam_d, v_d = orc.rightmost_dense(op.matrix.toarray())
        pair = rs.principal_eigenpair(op, tol=1e-12)
        psi_d = v_d.reshape(model.num_regimes, grid.num_interior)
        psi_d = psi_d / psi_d[:, grid.origin_index].min()
        worst_lam = max(worst_lam, abs(pair.eigenvalue - lam_d))
        worst_psi = max(worst_psi,
                        float(np.max(np.abs(pair.eigenfunction - psi_d))
                              / np.max(np.abs(psi_d))))
    elapsed = time.monotonic() - t0
    ok = worst_lam <= 1e-8 and worst_psi <= 1e-8 and elapsed < 30.0
    emit(capsys, 3, ok,
         "20 instances: max |dlambda| %.1e, max sup|dpsi| %.1e, %.1fs"
         % (worst_lam, worst_psi, elapsed))
    assert worst_lam <= 1e-8
    assert worst_psi <= 1e-8
    assert elapsed < 30.0


# 4 -------------------------------------------------------------------------

def test_criterion_04_structural_properties(capsys):
    # six properties, ten randomized instances each
    kappa = 0.35
    rng = np.random.default_rng(41)
    for _ in range(10):
        model, grid = orc.random_instance(rng)
        pol = rs.constant_policy(grid, model.num_regimes)
        lam0 = rs.principal_eigenpair(rs.assemble(model, grid, pol),
                                      tol=1e-12).eigenvalue
        shifted = model.with_cost(
            lambda X, k, xi, _c=model.cost: _c(X, k, xi) + kappa, "shift")
        lam1 = rs.principal_eigenpair(rs.assemble(shifted, grid, pol),
                                      tol=1e-12).eigenvalue
        assert abs(lam1 - (lam0 + kappa)) <= 1e-10

    rng = np.random.default_rng(42)
    for _ in range(10):
        model, grid = orc.random_instance(rng)
        center = np.zeros(model.dim)
        center[0] = 0.4 * grid.radius
        rep = orc.potential_monotonicity_check(
            model, grid, bump_center=center, bump_height=0.3,
            bump_radius=0.5 * grid.radius)
        assert rep.passed and rep.margin > 0.0

    rng = np.random.default_rng(43)
    for _ in range(10):
        model, grid = orc.random_instance(rng)
        npa = grid.full_shape[0]
        small = rs.GridSpec(model.dim, grid.radius, npa)
        big = rs.GridSpec(model.dim, 2.0 * grid.radius, 2 * npa - 1)
        lam_s = rs.principal_eigenpair(
            rs.assemble(model, small,
                        rs.constant_policy(small, model.num_regimes)),
            tol=1e-12).eigenvalue
        lam_b = rs.principal_eigenpair(
            rs.assemble(model, big,
                        rs.constant_policy(big, model.num_regimes)),
            tol=1e-12).eigenvalue
        assert lam_b >= lam_s - 1e-10

    rng = np.random.default_rng(44)
    for _ in range(10):
        model, grid = orc.random_instance(rng, num_regimes=1)
        rho = float(rng.uniform(0.3, 1.0))
        double = dataclasses.replace(
            model, num_regimes=2, name=model.name + "-dup",
            drift=lambda X, k, xi, _f=model.drift: _f(X, np.zeros_like(k), xi),
            diffusion=lambda X, k, _f=model.diffusion: _f(X, np.zeros_like(k)),
            cost=lambda X, k, xi, _f=model.cost: _f(X, np.zeros_like(k), xi),
            rates=lambda X, xi, _r=rho: np.broadcast_to(
                np.array([[-_r, _r], [_r, -_r]]),
                (X.shape[0], 2, 2)).copy())
        p1 = rs.principal_eigenpair(
            rs.assemble(model, grid, rs.constant_policy(grid, 1)), tol=1e-12)
        p2 = rs.principal_eigenpair(
            rs.assemble(double, grid, rs.constant_policy(grid, 2)),
            tol=1e-12)
        assert abs(p1.eigenvalue - p2.eigenvalue) <= 1e-10
        assert np.max(np.abs(p2.eigenfunction[0]
                             - p2.eigenfunction[1])) <= 1e-10
        assert np.max(np.abs(p2.eigenfunction[0]
                             - p1.eigenfunction[0])) <= 1e-10

    rng = np.random.default_rng(45)
    done = 0
    while done < 10:
        model, grid = orc.random_instance(rng)
        if model.num_controls < 2:
            continue
        sol = rs.solve_semilinear(model, grid, eig_tol=1e-12)
        trace = sol.eigenvalue_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        rep = orc.uniqueness_check(model, grid, trials=3, seed=done)
        assert rep.passed
        assert rep.eigenvalue_spread <= 1e-10
        assert rep.eigenfunction_spread <= 1e-8
        done += 1

    emit(capsys, 4, True,
         "shift, potential, domain, symmetry, trace, uniqueness: "
         "10 instances each")


# 5 -------------------------------------------------------------------------

def test_criterion_05_feynman_kac_consistency(capsys):
    t0 = time.monotonic()
    model = rs.make_builtin("ou2")
    grid = rs.grid_for_resolution(1, 4.0, 2000)
    sol = rs.solve_semilinear(model, grid)
    starts = [(np.array([1.0]), 0), (np.array([-1.0]), 1),
              (np.array([1.5]), 0), (np.array([-1.5]), 1),
              (np.array([2.0]), 0)]
    config = rs.PathConfig(step=5e-4, horizon=2.0, seed=11, paths=100000)
    base = rs.feynman_kac_annulus(model, sol.policy, sol.eigenpair, grid,
                                  0.5, starts, config, workers=8)
    wrong_pair = dataclasses.replace(
        sol.eigenpair, eigenvalue=sol.eigenpair.eigenvalue + 0.05)
    small = dataclasses.replace(config, paths=20000)
    wrong = rs.feynman_kac_annulus(model, sol.policy, wrong_pair, grid,
                                   0.5, starts, small, workers=8)
    elapsed = time.monotonic() - t0
    ok = (base.passed and base.max_abs_z <= 3.0
          and not wrong.passed and wrong.max_abs_z > 3.0
          and elapsed < 300.0)
    emit(capsys, 5, ok,
         "max|z| = %.2f over 5 starts at 1e5 paths; +0.05 eigenvalue shift "
         "gives max|z| = %.1f; %.0fs" % (base.max_abs_z, wrong.max_abs_z,
                                         elapsed))
    assert base.passed
    assert base.max_abs_z <= 3.0
    assert all(abs(r.z_score) <= 3.0 for r in base.results)
    assert not wrong.passed
    assert wrong.max_abs_z > 3.0
    assert elapsed < 300.0


# 6 -------------------------------------------------------------------------

def test_criterion_06_policy_suboptimality(capsys):
    worst = math.inf
    for name, radius, npu in (("lq", 4.0, 20), ("ou2", 4.0, 20),
                              ("bounded2d", 3.0, 7), ("dip", 4.0, 20)):
        model = rs.make_builtin(name)
        grid = rs.grid_for_resolution(model.dim, radius, npu)
        policies = random_policies(model, grid, 20, seed=7)
        sol = rs.solve_semilinear(model, grid, eig_tol=verification_tol)
        rep = verify_optimality(sol, alt_policies=policies)
        assert rep.passed, name
        assert rep.min_excess >= -1e-10, name
        worst = min(worst, rep.min_excess)
        # eigensolves as the oracle: every random policy's eigenvalue lies
        # above the optimum and above its certified lower bound
        for p, e in zip(policies, rep.excesses):
            op = rs.assemble(model, grid, p)
            lam = rs.principal_eigenpair(op, tol=orc.verification_eig_tol(op)).eigenvalue
            assert lam >= rep.lambda_star - LAMBDA_TOL, name
            assert lam >= e.lower_bound, name
    emit(capsys, 6, True,
         "20 random policies per builtin all sit above the optimum "
         "(smallest excess %.1e)" % worst)


# 7 -------------------------------------------------------------------------

def test_criterion_07_certificate_gate(capsys):
    model = rs.make_builtin("lq")
    grid = rs.grid_for_resolution(1, 4.0, 25)
    good = rs.check_lyapunov(model, model.certificate, grid)
    spec = rs.BUILTIN_MODELS["lq"]
    flat = rs.model_from_spec({**spec, "certificate": {**spec["certificate"], "lyap": "1"}})
    bad = rs.check_lyapunov(model, flat.certificate, grid)
    ok = good.status == "pass" and bad.status == "fail"
    emit(capsys, 7, ok,
         "shipped certificate: %s (margin %.3f); constant candidate: %s "
         "(margin %.2f)" % (good.status, good.margin_min, bad.status,
                            bad.margin_min))
    assert good.status == "pass"
    assert bad.status == "fail"


# 8 -------------------------------------------------------------------------

def test_criterion_08_rate_estimates(capsys):
    const = rs.SwitchingModel(
        name="const", dim=1, num_regimes=1, controls=[1.0],
        drift=lambda X, k, xi: -X,
        diffusion=lambda X, k: np.full((X.shape[0], 1, 1), math.sqrt(2.0)),
        rates=lambda X, xi: np.zeros((X.shape[0], 1, 1)),
        cost=lambda X, k, xi: np.full(X.shape[0], 0.75))
    cfg = rs.PathConfig(step=1.0 / 128, horizon=2.0, seed=1, paths=500)
    exact = rs.estimate_risk_sensitive_rate(const, 0, cfg)
    assert exact.value == 0.75
    assert exact.std_error == 0.0
    assert exact.ess == cfg.paths

    target = orc.quadratic_cost_rate(1.0, 3.0 / 16.0)
    model = rs.make_builtin("lq", controls=(1.0,))
    cfg8 = rs.PathConfig(step=1.0 / 128, horizon=20.0, seed=2024,
                         paths=100000)
    est = rs.estimate_risk_sensitive_rate(
        model, 0, cfg8, lambda_ref=target, workers=8)
    dev = abs(est.value - target)
    bracketed = dev <= 3.0 * est.std_error
    # a heavy-tailed exponential functional may legitimately miss the
    # bracket, but then it must say so
    honest = bracketed or bool(est.flags)
    ok = honest and not (dev > 3.0 * est.std_error and not est.flags)
    emit(capsys, 8, ok,
         "constant cost exact; quadratic-cost rate %.4f vs %.2f "
         "(dev %.1e, 3se %.1e, ess %.0f, flags %s)"
         % (est.value, target, dev, 3.0 * est.std_error, est.ess,
            list(est.flags) or "none"))
    assert honest
    if not bracketed:
        assert est.unreliable
        assert "heavy_tail" in est.flags


# 9 -------------------------------------------------------------------------

def test_criterion_09_bounded_coefficient_mode(capsys):
    rep = near_monotone_suite(rs.make_builtin("dip"),
                              radii=[3.0, 4.5, 6.0], nodes_per_unit=20)
    refused = near_monotone_suite(rs.make_builtin("lq"),
                                  radii=[3.0, 4.5, 6.0], nodes_per_unit=20)
    ok = (rep.passed and rep.sweep_converged and rep.sublevel_contained
          and refused.refused)
    emit(capsys, 9, ok,
         "dip suite: lambda* %.6f, converged sweep, contained sub-level "
         "set; growing-cost model refused" % rep.lambda_star)
    assert rep.passed
    assert rep.sweep_converged
    assert rep.sublevel_contained
    assert refused.refused and not refused.passed


# 10 ------------------------------------------------------------------------

def test_criterion_10_worker_count_determinism(capsys, tmp_path):
    payloads = []
    for w in ("1", "2", "8"):
        outdir = str(tmp_path / ("w" + w))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["simulate", "--builtin", "ou2",
                             "--step", "0.01", "--horizon", "2",
                             "--paths", "10000", "--seed", "77",
                             "--workers", w, "--output-dir", outdir])
        assert code == 0
        with open(outdir + "/estimate.json", "rb") as fh:
            payloads.append(fh.read())
    ok = payloads[0] == payloads[1] == payloads[2]
    emit(capsys, 10, ok,
         "estimate.json byte-identical across 1/2/8 workers "
         "(%d bytes)" % len(payloads[0]))
    assert ok
