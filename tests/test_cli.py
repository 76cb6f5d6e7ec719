"""Command line surface: exit codes, artifacts, determinism."""

import contextlib
import dataclasses
import io
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

import riskswitch
import riskswitch.cli
import riskswitch.eigen as eigen_mod
import riskswitch.simulate as simulate_mod
from riskswitch.cli import main


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def load(path):
    with open(path) as fh:
        return json.load(fh)


# ------------------------------------------------------------------- solve

def test_solve_writes_result_and_artifacts(tmp_path):
    d = str(tmp_path)
    code, _ = run(["solve", "--builtin", "lq", "--param", "q=0.1875",
                   "--controls", "1,2", "--radius", "4",
                   "--nodes-per-unit", "25", "--output-dir", d,
                   "--dump-operator", d + "/op.mtx"])
    assert code == 0
    rep = load(d + "/solve.json")
    assert set(rep) >= {"lambda", "iterations", "residual", "policy_histogram",
                        "eigenvalue_trace", "converged", "oscillated",
                        "interior_nodes", "config", "config_hash"}
    assert rep["converged"] is True
    assert rep["lambda"] == pytest.approx(0.101213, abs=1e-4)
    assert rep["bracket"]["lower"] <= rep["lambda"] <= rep["bracket"]["upper"]
    assert rep["interior_nodes"] == 199
    # overrides round-trip into the echoed config
    assert rep["config"]["model"]["params"]["q"] == 0.1875
    assert rep["config"]["model"]["params"]["controls"] == [1.0, 2.0]
    # strong pull dominates away from ties and the boundary layer
    hist = rep["policy_histogram"]
    assert hist["1"] > 5 * hist["0"]
    assert os.path.exists(d + "/psi.csv")
    assert os.path.exists(d + "/op.mtx")
    assert os.path.exists(d + "/run_meta.json")
    meta = load(d + "/run_meta.json")
    assert set(meta) >= {"version", "workers", "duration_sec", "argv",
                         "usable_cpus", "python", "numpy", "scipy", "blas_threads"}
    assert meta["usable_cpus"] >= 1
    assert set(meta["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                         "MKL_NUM_THREADS"}


def test_solve_config_hash_keyed_on_configuration(tmp_path):
    dirs = [str(tmp_path / n) for n in ("a", "b", "c")]
    for d in dirs[:2]:
        run(["solve", "--builtin", "lq", "--radius", "2",
             "--nodes-per-unit", "10", "--output-dir", d])
    run(["solve", "--builtin", "lq", "--param", "q=0.25", "--radius", "2",
         "--nodes-per-unit", "10", "--output-dir", dirs[2]])
    h = [load(d + "/solve.json")["config_hash"] for d in dirs]
    assert h[0] == h[1]
    assert h[0] != h[2]


def test_solve_unconverged_exits_1_with_artifacts(tmp_path):
    d = str(tmp_path)
    code, _ = run(["solve", "--builtin", "lq", "--radius", "4",
                   "--nodes-per-unit", "25", "--max-policy-iters", "1",
                   "--output-dir", d])
    assert code == 1
    rep = load(d + "/solve.json")
    assert rep["converged"] is False
    assert rep["iterations"] == len(rep["eigenvalue_trace"]) == 1
    assert os.path.exists(d + "/psi.csv")


def test_solve_without_policy_budget_exits_2(tmp_path):
    code, out = run(["solve", "--builtin", "lq", "--radius", "2",
                     "--nodes-per-unit", "10", "--max-policy-iters", "0",
                     "--output-dir", str(tmp_path)])
    assert code == 2
    assert "max_policy_iters" in json.loads(out)["error"]["message"]


# ------------------------------------------------------------------- sweep

def test_sweep_monotone_increasing(tmp_path):
    d = str(tmp_path)
    code, _ = run(["sweep", "--builtin", "lq", "--radii", "2,3,4",
                   "--nodes-per-unit", "10", "--output-dir", d])
    assert code == 0
    rep = load(d + "/sweep.json")
    assert rep["monotonicity_certificate"] is True
    lams = [e["lambda"] for e in rep["entries"]]
    assert lams == sorted(lams)
    assert len(lams) == 3
    assert rep["lambda_star"] >= lams[-1]
    assert len(rep["increments"]) == 2
    for e in rep["entries"]:
        assert e["bracket"]["lower"] <= e["lambda"] <= e["bracket"]["upper"]


def test_sweep_rejects_non_increasing_radii(tmp_path):
    code, out = run(["sweep", "--builtin", "lq", "--radii", "4,3",
                     "--nodes-per-unit", "10", "--output-dir", str(tmp_path)])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError"
    assert "increasing" in err["message"]


def test_sweep_unconverged_radius_exits_1(tmp_path, monkeypatch):
    solve = eigen_mod.solve_semilinear

    def unconverged_at_3(model, grid, **kw):
        sol = solve(model, grid, **kw)
        return dataclasses.replace(sol, converged=grid.radius != 3.0)

    monkeypatch.setattr(eigen_mod, "solve_semilinear", unconverged_at_3)
    d = str(tmp_path)
    code, _ = run(["sweep", "--builtin", "lq", "--radii", "2,3,4",
                   "--nodes-per-unit", "10", "--output-dir", d])
    assert code == 1
    rep = load(d + "/sweep.json")
    assert rep["monotonicity_certificate"] is True
    assert [e["converged"] for e in rep["entries"]] == [True, False, True]


# ---------------------------------------------------------------- simulate

def test_simulate_rate_functional(tmp_path):
    d = str(tmp_path)
    code, _ = run(["simulate", "--builtin", "ou2", "--functional", "rate",
                   "--step", "0.01", "--horizon", "2", "--paths", "2000",
                   "--seed", "4", "--output-dir", d])
    assert code == 0
    est = load(d + "/estimate.json")
    assert est["value"] == pytest.approx(0.0421, abs=1e-3)
    assert est["paths"] == 2000
    assert est["ess"] > 1000
    assert est["flags"] == []
    assert est["config"]["functional"] == "rate"


def test_simulate_mean_position_contracting(tmp_path):
    d = str(tmp_path)
    code, _ = run(["simulate", "--builtin", "ou2",
                   "--functional", "mean-position", "--step", "0.01",
                   "--horizon", "8", "--paths", "1500", "--seed", "4",
                   "--output-dir", d])
    assert code == 0
    rep = load(d + "/diagnostic.json")
    assert rep["passed"] is True
    assert rep["decay_exponent"] < -0.5
    assert len(rep["values"]) == 3


def test_simulate_mean_position_expanding_fails(tmp_path):
    spec = {"name": "expander", "dim": 1, "num_regimes": 1,
            "controls": [1.0], "drift": ["0.3 * x1"],
            "diffusion": [["1"]], "rates": [["0"]], "cost": "0"}
    cfg = tmp_path / "expander.json"
    cfg.write_text(json.dumps(spec))
    d = str(tmp_path)
    code, _ = run(["simulate", "--model", str(cfg),
                   "--functional", "mean-position", "--step", "0.01",
                   "--horizon", "16", "--paths", "800", "--seed", "4",
                   "--output-dir", d])
    assert code == 1
    rep = load(d + "/diagnostic.json")
    assert rep["passed"] is False


def test_simulate_paths_writes_csv(tmp_path):
    d = str(tmp_path)
    code, _ = run(["simulate", "--builtin", "ou2", "--functional", "paths",
                   "--step", "0.01", "--horizon", "1", "--paths", "20",
                   "--seed", "4", "--output-dir", d])
    assert code == 0
    rep = load(d + "/paths.json")
    assert rep["paths"] == 20
    assert rep["n_steps"] == 100
    with open(d + "/paths.csv") as fh:
        header = fh.readline().strip()
        lines = sum(1 for _ in fh)
    assert header == "path,t,x1,regime"
    assert lines == 20 * 101


def test_simulate_non_finite_rate_exits_3(tmp_path):
    # sqrt of a negative state is NaN; the estimate must not be reported
    spec = {"name": "sqrtcost", "dim": 1, "num_regimes": 1,
            "controls": [1.0], "drift": ["-x1"],
            "diffusion": [["1"]], "rates": [["0"]], "cost": "0.05 * sqrt(x1)"}
    cfg = tmp_path / "sqrtcost.json"
    cfg.write_text(json.dumps(spec))
    d = str(tmp_path)
    with pytest.warns(RuntimeWarning):
        code, out = run(["simulate", "--model", str(cfg), "--functional", "rate",
                         "--paths", "256", "--horizon", "1", "--step", "0.01",
                         "--output-dir", d])
    assert code == 3
    err = json.loads(out)
    assert err["exit_code"] == 3
    assert err["error"]["type"] == "NonFiniteEstimateError"
    assert "not finite" in err["error"]["message"]
    assert not os.path.exists(d + "/estimate.json")


def test_simulate_mean_position_non_finite_exits_3(tmp_path):
    # sqrt of a negative state is NaN and the paths carry it into |X_T|
    spec = {"name": "sqrtdrift", "dim": 1, "num_regimes": 1,
            "controls": [1.0], "drift": ["-x1 + 0.1 * sqrt(x1)"],
            "diffusion": [["1"]], "rates": [["0"]], "cost": "0.05 * x1^2"}
    cfg = tmp_path / "sqrtdrift.json"
    cfg.write_text(json.dumps(spec))
    d = str(tmp_path)
    with pytest.warns(RuntimeWarning):
        code, out = run(["simulate", "--model", str(cfg),
                         "--functional", "mean-position", "--paths", "256",
                         "--horizon", "4", "--step", "0.01", "--output-dir", d])
    assert code == 3
    err = json.loads(out)
    assert err["exit_code"] == 3
    assert err["error"]["type"] == "NonFiniteEstimateError"
    assert "mean_abs_position estimate nan is not finite" in err["error"]["message"]
    assert not os.path.exists(d + "/diagnostic.json")
    assert not os.path.exists(d + "/estimate.json")


def test_simulate_step_too_large_for_switching(tmp_path):
    code, out = run(["simulate", "--builtin", "ou2", "--step", "0.6",
                     "--horizon", "2", "--paths", "10",
                     "--output-dir", str(tmp_path)])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "StepSizeError"


def test_simulate_negative_rate_exits_2(tmp_path):
    d = str(tmp_path / "out")
    code, out = run(["simulate", "--builtin", "bounded2d", "--param", "rho=-1",
                     "--step", "0.01", "--horizon", "1", "--paths", "8",
                     "--output-dir", d])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError"
    assert err["message"] == ("rates has a negative off-diagonal entry at [0, 1] "
                              "(control 0.7 at x=[0.0, 0.0]): -1")
    assert os.listdir(d) == []


def test_simulate_leave_probability_of_the_drawn_rates_exits_3(tmp_path):
    # the diagonal says 0.1, the draw leaves at the off-diagonal rate 100
    cfg = write_spec(tmp_path, num_regimes=2, rates=[["-0.1", "100"], ["100", "-0.1"]])
    d = str(tmp_path / "out")
    code, out = run(["simulate", "--model", cfg, "--functional", "paths",
                     "--step", "0.01", "--horizon", "1", "--paths", "100",
                     "--output-dir", d])
    assert code == 3
    err = json.loads(out)["error"]
    assert err["type"] == "StepSizeError"
    assert err["message"].startswith("step 0.01 * switching rate 100 = 1 > 0.50 at state [0.] "
                                     "regime 0")
    assert os.listdir(d) == []


WORKER_ERRORS = {
    "step_size": (["--builtin", "ou2", "--step", "0.6", "--horizon", "1.2"],
                  3, "StepSizeError"),
    "nan_rate": (["--step", "0.01", "--horizon", "1"], 3, "NonFiniteCoefficientError"),
    "negative_rate": (["--builtin", "bounded2d", "--param", "rho=-1", "--step", "0.01",
                       "--horizon", "1"], 2, "ValueError"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # sqrt of a negative state
@pytest.mark.parametrize("case", sorted(WORKER_ERRORS))
def test_worker_process_errors_exit_as_at_one_worker(tmp_path, monkeypatch, capfd, case):
    # two working sets stepped in two processes: the error raised in a worker
    # prints the JSON error of the one-worker run, with no traceback
    monkeypatch.setattr(simulate_mod, "_usable_cpus", lambda: 2)
    argv, exit_code, error_type = WORKER_ERRORS[case]
    if case == "nan_rate":
        argv = argv + ["--model", write_spec(
            tmp_path, num_regimes=2,
            rates=[["-sqrt(x1)", "sqrt(x1)"], ["sqrt(x1)", "-sqrt(x1)"]])]
    outs = []
    for w in ("1", "2"):
        d = str(tmp_path / ("w" + w))
        outs.append(run(["simulate"] + argv + ["--functional", "rate", "--paths", "8192",
                                               "--workers", w, "--output-dir", d]))
        assert os.listdir(d) == []
    assert outs[0] == outs[1]
    code, out = outs[0]
    assert code == exit_code
    assert json.loads(out)["error"]["type"] == error_type
    assert "Traceback" not in capfd.readouterr().err
    assert multiprocessing.active_children() == []


def test_verify_rate_policy_error_exits_as_its_run_alone(tmp_path, monkeypatch):
    # switching rate 60 under control value 2 breaches the step bound at step
    # 0.01, rate 1 under control value 1 does not.  The solved policy uses
    # value 1 only; a random rate policy using value 2 fails verify's
    # lambda_match as that control's run alone fails, at 1 and 2 workers,
    # though it steps with the solved policy in one working set
    monkeypatch.setattr(simulate_mod, "_usable_cpus", lambda: 2)
    rate = "1 + 59 * (xi - 1)"
    spec = write_spec(tmp_path, num_regimes=2, controls=[1.0, 2.0], drift=["-xi * x1"],
                      rates=[["-(%s)" % rate, rate], [rate, "-(%s)" % rate]],
                      cost="0.05 * x1^2 + xi")
    common = ["--model", spec, "--seed", "1", "--step", "0.01", "--horizon", "1",
              "--paths", "8192"]
    alone = [run(["simulate"] + common + ["--control-index", c, "--output-dir",
                                          str(tmp_path / ("c" + c))]) for c in "01"]
    assert alone[0][0] == 0
    code, out = alone[1]
    assert code == 3
    assert json.loads(out)["error"]["type"] == "StepSizeError"
    for w in ("1", "2"):
        d = str(tmp_path / ("w" + w))
        verify = run(["verify"] + common + ["--radius", "3", "--nodes-per-unit", "10",
                                            "--rate-policies", "1", "--workers", w,
                                            "--output-dir", d])
        assert verify[0] == code
        assert json.loads(verify[1])["error"]["type"] == "StepSizeError"
        assert os.listdir(d) == []
    assert multiprocessing.active_children() == []


def test_simulate_paths_non_finite_exits_3(tmp_path):
    cfg = write_spec(tmp_path, drift=["-x1 + 0.1 * sqrt(x1)"])
    d = str(tmp_path / "out")
    with pytest.warns(RuntimeWarning):  # sqrt of a negative state
        code, out = run(["simulate", "--model", cfg, "--functional", "paths",
                         "--paths", "64", "--horizon", "1", "--step", "0.01",
                         "--output-dir", d])
    assert code == 3
    err = json.loads(out)["error"]
    assert err["type"] == "NonFiniteEstimateError"
    assert err["message"].startswith("paths estimate nan is not finite: ")
    assert os.listdir(d) == []


def test_simulate_worker_count_invisible_in_output(tmp_path):
    texts = []
    for w in ("1", "2", "8"):
        d = str(tmp_path / ("w" + w))
        code, _ = run(["simulate", "--builtin", "ou2", "--step", "0.01",
                       "--horizon", "2", "--paths", "6000", "--seed", "9",
                       "--workers", w, "--output-dir", d])
        assert code == 0
        with open(d + "/estimate.json", "rb") as fh:
            texts.append(fh.read())
    assert texts[0] == texts[1] == texts[2]


# ------------------------------------------------------------------ verify

@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("verify"))
    code, _ = run(["verify", "--builtin", "ou2", "--radius", "5",
                   "--nodes-per-unit", "80", "--seed", "3",
                   "--paths", "6000", "--step", "0.0025", "--horizon", "3",
                   "--fk-horizon", "1.0", "--alt-policies", "3",
                   "--rate-policies", "2", "--samples", "128",
                   "--workers", "4", "--output-dir", d])
    return code, load(d + "/verify.json")


def test_verify_full_pipeline_passes(verify_run):
    code, rep = verify_run
    assert code == 0
    assert rep["passed"] is True
    assert rep["failed"] == []
    assert set(rep["checks"]) == {"hypotheses", "certificate", "optimality",
                                  "lambda_match", "feynman_kac"}
    assert rep["checks"]["feynman_kac"]["max_abs_z"] < 3.0
    assert rep["checks"]["optimality"]["passed"] is True
    assert rep["checks"]["lambda_match"]["optimal_ok"] is True


def test_verify_detects_wrong_eigenvalue(verify_run, tmp_path):
    _, rep = verify_run
    wrong = rep["lambda"] + 0.05
    d = str(tmp_path)
    code, _ = run(["verify", "--builtin", "ou2", "--radius", "5",
                   "--nodes-per-unit", "80", "--seed", "3",
                   "--paths", "6000", "--step", "0.0025", "--horizon", "3",
                   "--fk-horizon", "1.0", "--alt-policies", "3",
                   "--rate-policies", "2", "--samples", "128",
                   "--workers", "4", "--lambda-ref", repr(wrong),
                   "--output-dir", d])
    assert code == 1
    rep2 = load(d + "/verify.json")
    assert rep2["failed"] == ["feynman_kac"]
    assert rep2["checks"]["feynman_kac"]["max_abs_z"] > 3.0
    # PDE-side checks are unaffected by the simulation override
    assert rep2["checks"]["optimality"]["passed"] is True


def test_verify_skip_simulation(tmp_path):
    d = str(tmp_path)
    code, _ = run(["verify", "--builtin", "ou2", "--radius", "4",
                   "--nodes-per-unit", "15", "--skip-simulation",
                   "--output-dir", d])
    assert code == 0
    rep = load(d + "/verify.json")
    assert rep["passed"] is True
    assert "lambda_match" not in rep["checks"]
    assert "feynman_kac" not in rep["checks"]
    bracket = rep["checks"]["optimality"]["bracket"]
    assert max(rep["lambda"] - bracket["lower"], bracket["upper"] - rep["lambda"]) < 1e-10


def test_verify_checks_the_certificate_on_the_commands_grid(tmp_path):
    # the certificate grid has radius min(R, 4) at the command's own
    # --nodes-per-unit, which tiles it whenever it tiles R
    d = str(tmp_path)
    code, out = run(["verify", "--builtin", "lq", "--radius", "0.7", "--nodes-per-unit", "10",
                     "--skip-simulation", "--alt-policies", "1", "--output-dir", d])
    assert code == 0, out
    cert = load(d + "/verify.json")["checks"]["certificate"]
    assert cert["status"] == "pass"
    assert set(cert) == {"status", "margin_min", "argmin_state", "argmin_regime",
                         "argmin_control", "side_condition_ok", "side_condition_detail",
                         "mode"}


@pytest.mark.parametrize("extra, message", [
    (["--paths", "1"], "the Feynman-Kac check needs at least 2 paths for a standard "
                       "error, got 1"),
    (["--paths", "64", "--inner-radius", "-1"], "inner radius must lie in (0, 3), got -1.0"),
], ids=["one path", "negative inner radius"])
def test_verify_refuses_a_feynman_kac_check_that_cannot_fail(tmp_path, capsys, extra,
                                                             message):
    # one path reads z = 0 at every start; an inner radius <= 0 puts a
    # default start at the origin, where every path counts as a box exit
    d = tmp_path / "out"
    code, out = run(["verify", "--builtin", "ou2", "--radius", "3", "--nodes-per-unit", "10",
                     "--step", "0.01", "--horizon", "1", "--output-dir", str(d)] + extra)
    assert code == 2
    assert json.loads(out) == {"error": {"type": "ValueError", "message": message},
                               "exit_code": 2}
    assert capsys.readouterr().err == ""
    assert not (d / "verify.json").exists()


def test_verify_checks_the_certificate_on_the_commands_grid(tmp_path):
    # the certificate grid has radius min(R, 4) at the command's own
    # --nodes-per-unit, which tiles it whenever it tiles R
    d = str(tmp_path)
    code, out = run(["verify", "--builtin", "lq", "--radius", "0.7", "--nodes-per-unit", "10",
                     "--skip-simulation", "--alt-policies", "1", "--output-dir", d])
    assert code == 0, out
    cert = load(d + "/verify.json")["checks"]["certificate"]
    assert cert["status"] == "pass"
    assert set(cert) == {"status", "margin_min", "argmin_state", "argmin_regime",
                         "argmin_control", "side_condition_ok", "side_condition_detail",
                         "mode"}


@pytest.mark.parametrize("extra, message", [
    (["--paths", "1"], "the Feynman-Kac check needs at least 2 paths for a standard "
                       "error, got 1"),
    (["--inner-radius", "-1"], "inner radius must lie in (0, 3), got -1.0"),
    (["--inner-radius", "3"], "inner radius must lie in (0, 3), got 3.0"),
    (["--starts=nan:0"], "start [nan] is not inside the annulus"),
    (["--starts=1:0;0.2:1"], "start [0.2] is not inside the annulus"),
    (["--starts=-3.5:1"], "start [-3.5] is not inside the annulus"),
], ids=["one path", "negative inner radius", "inner radius at the box", "nan start",
        "start in the inner ball", "start outside the box"])
def test_verify_refuses_feynman_kac_arguments_before_solving(tmp_path, monkeypatch, extra,
                                                             message):
    # the Feynman-Kac arguments are checked before the verification solve
    # and the rate check, which they do not need
    def solve(*args, **kwargs):
        raise AssertionError("the verification solve ran")

    monkeypatch.setattr(riskswitch.cli, "solve_semilinear", solve)
    d = tmp_path / "out"
    code, out = run(["verify", "--builtin", "ou2", "--radius", "3", "--nodes-per-unit", "10",
                     "--step", "0.01", "--horizon", "1", "--output-dir", str(d)] + extra)
    assert code == 2
    assert json.loads(out) == {"error": {"type": "ValueError", "message": message},
                               "exit_code": 2}
    assert not (d / "verify.json").exists()


def test_verify_bounded2d_seed_59_exits_0(tmp_path):
    code, _ = run(["verify", "--builtin", "bounded2d", "--radius", "4",
                   "--nodes-per-unit", "14", "--alt-policies", "5",
                   "--skip-simulation", "--seed", "59",
                   "--output-dir", str(tmp_path)])
    assert code == 0
    assert load(str(tmp_path / "verify.json"))["passed"] is True


def test_verify_eigensolves_only_policy_iterations(tmp_path, monkeypatch):
    # the optimality certificate needs no eigensolve, and one assembled
    # stack serves the verification tolerance and policy iteration
    import riskswitch.operator as operator_mod
    calls = {"principal_eigenpair": 0, "assemble": 0}
    solutions = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recorded(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    solve = eigen_mod.solve_semilinear
    wrappers = [(eigen_mod.principal_eigenpair, counted(
                    "principal_eigenpair", eigen_mod.principal_eigenpair)),
                (operator_mod.assemble, counted("assemble", operator_mod.assemble)),
                (solve, recorded)]
    for name, mod in list(sys.modules.items()):
        if name == "riskswitch" or name.startswith("riskswitch."):
            for key, value in list(vars(mod).items()):
                for orig, wrapper in wrappers:
                    if value is orig:
                        monkeypatch.setattr(mod, key, wrapper)
    code, _ = run(["verify", "--builtin", "bounded2d", "--radius", "4",
                   "--nodes-per-unit", "14", "--alt-policies", "5",
                   "--skip-simulation", "--output-dir", str(tmp_path)])
    assert code == 0
    assert len(solutions) == 1
    assert calls == {"principal_eigenpair": solutions[0].policy_iterations,
                     "assemble": 1}


def test_verify_lists_unconverged_policy_iteration(tmp_path):
    d = str(tmp_path)
    code, _ = run(["verify", "--builtin", "lq", "--radius", "4",
                   "--nodes-per-unit", "25", "--max-policy-iters", "1",
                   "--alt-policies", "1", "--skip-simulation",
                   "--output-dir", d])
    assert code == 1
    assert "policy_iteration" in load(d + "/verify.json")["failed"]


# ---------------------------------------------------------------- validate

def test_validate_builtin_passes(tmp_path):
    d = str(tmp_path)
    code, _ = run(["validate", "--builtin", "lq", "--output-dir", d])
    assert code == 0
    rep = load(d + "/validate.json")
    assert rep["passed"] is True
    assert set(rep["checks"]) == {"hypotheses", "certificate"}


def test_validate_certificate_grid_need_not_tile_the_box(tmp_path):
    # 0.75 * 10 cells do not tile the box: the certificate is checked on the
    # next finer odd grid, so validate exits as it does on a model without one
    d = str(tmp_path)
    code, _ = run(["validate", "--builtin", "lq", "--radius", "0.75",
                   "--nodes-per-unit", "10", "--output-dir", d])
    assert code == 0
    assert load(d + "/validate.json")["checks"]["certificate"]["status"] == "pass"


def test_validate_near_monotone_rejects_growing_cost(tmp_path):
    d = str(tmp_path)
    code, _ = run(["validate", "--builtin", "lq", "--near-monotone",
                   "--output-dir", d])
    assert code == 1
    rep = load(d + "/validate.json")
    assert rep["failed"] == ["near_monotone"]
    assert rep["checks"]["near_monotone"]["bounded_coefficients"]["passed"] is False


def test_validate_near_monotone_accepts_bounded(tmp_path):
    d = str(tmp_path)
    code, _ = run(["validate", "--builtin", "dip", "--near-monotone",
                   "--output-dir", d])
    assert code == 0
    rep = load(d + "/validate.json")
    assert rep["checks"]["near_monotone"]["bounded_coefficients"]["passed"] is True


# ------------------------------------------------------------- error paths

def test_unknown_builtin_exits_2(tmp_path):
    code, out = run(["solve", "--builtin", "nosuch", "--radius", "2",
                     "--nodes-per-unit", "10", "--output-dir", str(tmp_path)])
    assert code == 2
    assert "unknown builtin" in json.loads(out)["error"]["message"]


def test_missing_model_file_exits_2(tmp_path):
    code, out = run(["solve", "--model", str(tmp_path / "missing.json"),
                     "--radius", "2", "--nodes-per-unit", "10",
                     "--output-dir", str(tmp_path)])
    assert code == 2
    assert "not found" in json.loads(out)["error"]["message"]


def test_malformed_model_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(["solve", "--model", str(bad), "--radius", "2",
                     "--nodes-per-unit", "10", "--output-dir", str(tmp_path)])
    assert code == 2
    assert "bad model config" in json.loads(out)["error"]["message"]


def test_non_integral_grid_exits_2(tmp_path):
    code, out = run(["solve", "--builtin", "lq", "--radius", "1.05",
                     "--nodes-per-unit", "10", "--output-dir", str(tmp_path)])
    assert code == 2
    assert "integer" in json.loads(out)["error"]["message"]


def test_indefinite_diffusion_exits_3(tmp_path):
    spec = {"name": "skewed", "dim": 2, "num_regimes": 1, "controls": [1.0],
            "drift": ["-x1", "-x2"],
            "diffusion": [["1", "0"], ["1.5", "0.1"]],
            "rates": [["0"]], "cost": "x1^2 + x2^2"}
    cfg = tmp_path / "skew.json"
    cfg.write_text(json.dumps(spec))
    code, out = run(["solve", "--model", str(cfg), "--radius", "1",
                     "--nodes-per-unit", "5", "--output-dir", str(tmp_path)])
    assert code == 3
    assert json.loads(out)["error"]["type"] == "MonotonicityViolation"


def write_spec(tmp_path, **overrides):
    spec = {"name": "custom", "dim": 1, "num_regimes": 1, "controls": [1.0],
            "drift": ["-x1"], "diffusion": [["1"]], "rates": [["0"]],
            "cost": "0.05 * x1^2", **overrides}
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(spec))
    return str(cfg)


NON_FINITE_MODELS = {
    "drift": {"drift": ["-x1 + 0.1 * sqrt(x1)"]},
    "rates": {"num_regimes": 2, "rates": [["-sqrt(x1)", "sqrt(x1)"], ["1", "-1"]]},
}


@pytest.mark.parametrize("coefficient", sorted(NON_FINITE_MODELS))
@pytest.mark.parametrize("command", ["solve", "validate"])
def test_non_finite_coefficient_exits_3(tmp_path, command, coefficient):
    cfg = write_spec(tmp_path, **NON_FINITE_MODELS[coefficient])
    d = str(tmp_path / "out")
    argv = [command, "--model", cfg, "--output-dir", d]
    if command == "solve":
        argv += ["--radius", "2", "--nodes-per-unit", "5"]
    with pytest.warns(RuntimeWarning):  # sqrt of a negative state
        code, out = run(argv)
    assert code == 3
    err = json.loads(out)
    assert err["exit_code"] == 3
    assert err["error"]["type"] == "NonFiniteCoefficientError"
    message = err["error"]["message"]
    assert message.startswith("%s is not finite at x=[-" % coefficient)
    assert "(regime 0, control 1): nan" in message
    if command == "solve":
        assert message.startswith("%s is not finite at x=[-1.8] " % coefficient)
    assert not os.path.exists(d + "/%s.json" % command)


# a cost so large that s - A_ii rounds at the eigensolver's shift: SuperLU
# finds s I - A singular at 1e19, and at 1e17 the first iterate is not
# positive although its residual is below the tolerance
HUGE_COSTS = {"1e19": ("LinAlgError", "Factor is exactly singular"),
              "1e17": ("NoConvergenceError", "the iterate is not strictly positive")}


@pytest.mark.parametrize("cost", sorted(HUGE_COSTS))
@pytest.mark.parametrize("command", [["solve"], ["verify", "--skip-simulation"]])
def test_huge_cost_exits_3_with_its_cause(tmp_path, command, cost):
    cfg = write_spec(tmp_path, controls=[1, 2], drift=["-xi * x1"],
                     diffusion=[["sqrt(2)"]], cost=cost)
    d = str(tmp_path / "out")
    code, out = run(command + ["--model", cfg, "--radius", "3", "--nodes-per-unit", "12",
                               "--output-dir", d])
    assert code == 3
    err = json.loads(out)
    assert err["exit_code"] == 3
    error_type, cause = HUGE_COSTS[cost]
    assert err["error"]["type"] == error_type
    assert cause in err["error"]["message"]
    assert os.listdir(d) == []


@pytest.mark.parametrize("functional", ["rate", "mean-position", "paths"])
def test_simulate_non_finite_rates_exit_3(tmp_path, functional):
    # sqrt(x1) is NaN for x1 < 0; a NaN rate compares false in the regime
    # draw, so the step kernel must stop instead of drawing wrong regimes
    cfg = write_spec(tmp_path, num_regimes=2, controls=[1.0, 2.0],
                     rates=[["-sqrt(x1)", "sqrt(x1)"], ["sqrt(x1)", "-sqrt(x1)"]])
    d = str(tmp_path / "out")
    with pytest.warns(RuntimeWarning):
        code, out = run(["simulate", "--model", cfg, "--functional", functional,
                         "--paths", "256", "--horizon", "1", "--step", "0.01",
                         "--output-dir", d])
    assert code == 3
    err = json.loads(out)["error"]
    assert err["type"] == "NonFiniteCoefficientError"
    assert err["message"].startswith("rates is not finite at x=[-")
    assert "(regime 0, control 1): nan" in err["message"]
    assert os.listdir(d) == []


@pytest.mark.parametrize("value", ["abc", "0"])
@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_invalid_worker_count_exits_2_before_any_artifact(tmp_path, monkeypatch,
                                                            command, value):
    monkeypatch.setenv("RISKSWITCH_WORKERS", value)
    d = str(tmp_path / "out")
    argv = [command, "--builtin", "lq", "--output-dir", d]
    argv += (["--radius", "2", "--nodes-per-unit", "10"] if command == "solve" else
             ["--paths", "8", "--horizon", "1", "--step", "0.01"])
    code, out = run(argv)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError"
    assert "RISKSWITCH_WORKERS must be an integer >= 1, got '%s'" % value in err["message"]
    assert os.listdir(d) == []
    if command == "simulate":
        code, out = run(argv + ["--workers", "0"])
        assert code == 2
        assert "worker count must be an integer >= 1, got 0" in out


def test_certificate_belongs_to_the_builtin_not_the_name(tmp_path):
    # a JSON model named like a builtin gets no builtin certificate, and the
    # builtin itself keeps its own
    cfg = write_spec(tmp_path, name="lq", drift=["-2 * x1"])
    d = str(tmp_path / "custom")
    code, _ = run(["validate", "--model", cfg, "--output-dir", d])
    assert code == 0
    assert "certificate" not in load(d + "/validate.json")["checks"]
    code, _ = run(["validate", "--builtin", "lq", "--output-dir", str(tmp_path / "lq")])
    assert code == 0
    cert = load(str(tmp_path / "lq" / "validate.json"))["checks"]["certificate"]
    assert cert["status"] == "pass" and cert["mode"] == "inf_compact"


OU_CERTIFICATE = {"lyap": "exp(x1^2 / 8)", "ell": "x1^2 / 8", "beta": 0.5,
                  "compact_radius": 2.0, "mode": "inf_compact"}


def test_json_model_certificate_is_checked(tmp_path):
    cfg = write_spec(tmp_path, certificate=OU_CERTIFICATE)
    for argv in (["validate"], ["verify", "--radius", "4", "--nodes-per-unit", "10",
                                "--skip-simulation", "--alt-policies", "1"]):
        d = str(tmp_path / argv[0])
        code, out = run(argv + ["--model", cfg, "--output-dir", d])
        assert code == 0, out
        assert load("%s/%s.json" % (d, argv[0]))["checks"]["certificate"]["status"] == "pass"
    # a candidate the compiler cannot differentiate is a configuration error
    cfg = write_spec(tmp_path, certificate={**OU_CERTIFICATE, "lyap": "exp(abs(x1) / 8)"})
    d = tmp_path / "abs"
    code, out = run(["validate", "--model", cfg, "--output-dir", str(d)])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "UsageError" and "cannot differentiate abs" in err["message"]
    assert not (d / "validate.json").exists()


@pytest.mark.parametrize("argv", [["--builtin", "lq", "--param", "theta=1"],
                                  ["--builtin", "ou2", "--param", "q=0.05"]])
def test_bad_builtin_param_exits_2(tmp_path, argv):
    d = str(tmp_path / "out")
    code, out = run(["validate", "--output-dir", d] + argv)
    assert code == 2
    assert json.loads(out)["exit_code"] == 2
    assert os.listdir(d) == []


def test_validate_negative_cost_exits_2(tmp_path):
    cfg = write_spec(tmp_path, cost="0.05*x1^2 - 1")
    d = str(tmp_path / "out")
    code, out = run(["validate", "--model", cfg, "--output-dir", d])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError"
    assert "cost must be nonnegative" in err["message"]
    assert not os.path.exists(d + "/validate.json")


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--functional", "paths", "--control-index", "3",
      "--step", "0.01", "--horizon", "1", "--paths", "8"],
     "control index 3 is outside [0, 2)"),
    (["simulate", "--functional", "rate", "--k0", "3",
      "--step", "0.01", "--horizon", "1", "--paths", "8"],
     "start regime 3 is outside [0, 2)"),
    (["verify", "--radius", "2", "--nodes-per-unit", "10", "--starts", "1.0:4"],
     "start regime 4 of '1.0:4' is outside [0, 2)"),
])
def test_out_of_range_index_exits_2(tmp_path, argv, message):
    d = str(tmp_path / "out")
    code, out = run(argv + ["--builtin", "ou2", "--output-dir", d])
    assert code == 2
    assert message in json.loads(out)["error"]["message"]
    assert os.listdir(d) == []


def test_verify_assembles_once_with_simulation(tmp_path, monkeypatch):
    # one stack sets the verification tolerance and serves every solve
    assemble = eigen_mod.assemble
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return assemble(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "riskswitch" or name.startswith("riskswitch."):
            for key, value in list(vars(mod).items()):
                if value is assemble:
                    monkeypatch.setattr(mod, key, counted)
    code, _ = run(["verify", "--builtin", "ou2", "--radius", "3",
                   "--nodes-per-unit", "10", "--alt-policies", "2",
                   "--rate-policies", "1", "--paths", "256", "--step", "0.01",
                   "--horizon", "1", "--fk-horizon", "0.5",
                   "--output-dir", str(tmp_path)])
    assert code in (0, 1)
    assert "lambda_match" in load(str(tmp_path / "verify.json"))["checks"]
    assert len(calls) == 1


def test_module_entry_point(tmp_path):
    # the subprocess must import the same riskswitch as this process, which
    # may have found it through pytest's pythonpath setting only
    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(riskswitch.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "riskswitch", "solve", "--builtin", "lq",
         "--radius", "2", "--nodes-per-unit", "10",
         "--output-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert os.path.exists(str(tmp_path / "solve.json"))


def test_import_leaves_heavy_scipy_subpackages_unloaded():
    # riskswitch uses scipy.sparse, sparse.linalg and sparse.csgraph, and
    # scipy.io only to dump an operator; each of these five would add dozens
    # of modules to every CLI start
    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(riskswitch.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    code = ("import sys, riskswitch as rs, riskswitch.cli\n"
            "m = rs.make_builtin('bounded2d')\n"
            "g = rs.grid_for_resolution(m.dim, 2.0, 2)\n"
            "print(' '.join(p for p in ('scipy.interpolate', 'scipy.io',\n"
            "                           'scipy.optimize', 'scipy.spatial',\n"
            "                           'scipy.special')\n"
            "               if p in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_three_dimensional_model_exits_2(tmp_path, command):
    cfg = write_spec(tmp_path, dim=3, drift=["-x1", "-x2", "-x3"],
                     diffusion=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                     cost="0.05 * (x1^2 + x2^2 + x3^2)")
    d = str(tmp_path / "out")
    code, out = run([command, "--model", cfg, "--radius", "1", "--nodes-per-unit", "2",
                     "--output-dir", d])
    assert code == 2
    assert json.loads(out) == {"error": {"type": "NotImplementedError",
                                         "message": "assembly is implemented for dim <= 2"},
                               "exit_code": 2}
    assert os.listdir(d) == []


@pytest.mark.parametrize("argv, message", [
    (["solve", "--builtin", "lq", "--nodes-per-unit", "10"],
     "riskswitch solve: the following arguments are required: --radius"),
    (["solve", "--builtin", "lq", "--radius", "abc", "--nodes-per-unit", "10"],
     "riskswitch solve: argument --radius: invalid float value: 'abc'"),
    (["simplify"], "riskswitch: argument command: invalid choice: 'simplify'"),
])
def test_parser_errors_exit_2_as_json(tmp_path, capsys, argv, message):
    d = str(tmp_path / "out")
    code, out = run(argv + ["--output-dir", d])
    assert code == 2
    err = json.loads(out)
    assert err["exit_code"] == 2
    assert err["error"]["type"] == "UsageError"
    assert err["error"]["message"].startswith(message)
    assert capsys.readouterr().err == ""
    assert not os.path.exists(d)


OU2_SIMULATE = ["simulate", "--builtin", "ou2", "--paths", "16"]
OU2_VERIFY = ["verify", "--builtin", "ou2", "--radius", "4", "--nodes-per-unit", "10",
              "--paths", "16"]
LQ_SOLVE = ["solve", "--builtin", "lq", "--nodes-per-unit", "10"]


@pytest.mark.parametrize("argv", [
    LQ_SOLVE + ["--radius", "inf"],
    ["sweep", "--builtin", "lq", "--nodes-per-unit", "10", "--radii", "2,inf"],
    ["validate", "--builtin", "lq", "--radius", "inf"],
    ["validate", "--builtin", "lq", "--radius", "nan"],
    OU2_SIMULATE + ["--step", "0.01", "--horizon", "inf"],
    OU2_SIMULATE + ["--step", "1e-300", "--horizon", "1e300"],
    OU2_VERIFY + ["--fk-horizon", "inf"],
    OU2_SIMULATE + ["--step", "0.01", "--horizon", "1", "--lambda-ref", "nan"],
    OU2_VERIFY + ["--lambda-ref", "nan"],
    OU2_SIMULATE + ["--step", "inf", "--horizon", "1"],
    OU2_SIMULATE + ["--step", "0.01", "--horizon", "1", "--x0", "nan"],
    LQ_SOLVE + ["--radius", "2", "--param", "q=nan"],
    OU2_VERIFY + ["--alt-policies", "-1", "--skip-simulation"],
    OU2_VERIFY + ["--rate-policies", "-1"],
    ["validate", "--builtin", "lq", "--samples", "0"],
    OU2_VERIFY + ["--samples", "1", "--skip-simulation"],
], ids=lambda argv: " ".join(argv))
def test_non_finite_number_or_negative_count_exits_2(tmp_path, capsys, argv):
    d = tmp_path / "out"
    code, out = run(argv + ["--output-dir", str(d)])
    assert code == 2
    err = json.loads(out)
    assert set(err) == {"error", "exit_code"} and err["exit_code"] == 2
    assert capsys.readouterr().err == ""
    assert list(d.glob("*.json")) == []


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--nodes-per-unit" in capsys.readouterr().out
