"""Short checks of the benchmark, each workload at its reduced size.

Run from the repository root::

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.fixture(scope="module", autouse=True)
def riskswitch():
    return run.import_riskswitch()


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_emits_every_metric_and_passes(name, trace):
    seed = run.WORKLOADS[name]["default_seed"]
    result, _ = run.run_benchmark(name, seed, 0, trace, size="small")
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    for key, m in result["metrics"].items():
        assert m["unit"] == UNITS[key], key
        # tracing overhead is a difference of two noisy medians
        assert m["value"] >= 0 or key == "bench.trace_overhead_frac", key
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_splits_time_by_layer(riskswitch):
    original = riskswitch.eigen.principal_eigenpair
    result, info = run.run_benchmark("solve_2d", 0, 0, 1, size="small")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["eigen.factor_calls"] == 5  # 3 policy iterations, 1 alt, 1 re-solve
    assert m["eigen.factor_fill_nnz"] > m["operator.nnz"] / m["operator.assemble_calls"]
    assert 0 < m["eigen.factor_s"] + m["eigen.trisolve_s"] < m["eigen.eigenpair_s"]
    assert m["simulate.rate_calls"] == 0 and m["simulate.fk_s"] == 0
    # wrappers are gone after the traced iterations
    assert riskswitch.eigen.principal_eigenpair is original
    assert riskswitch.verify.principal_eigenpair is original
    spans = info["tracer"].spans
    assert all(s.end >= s.start for s in spans)
    assert all(s.parent < i for i, s in enumerate(spans))


def test_self_time_subtracts_direct_children():
    import tracing
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
        with tracer.span("inner"):
            pass
    outer, inner, leaf, inner2 = tracer.spans
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    selfs = tracer.self_times()
    assert selfs[0] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start) - (inner2.end - inner2.start))
    assert selfs[1] == pytest.approx((inner.end - inner.start) - (leaf.end - leaf.start))
    assert selfs[2] == leaf.end - leaf.start


def test_wrong_lambda_reference_fails_the_check(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS["solve_2d"], "lambda_ref", 0.045)
    it = run.run_once("solve_2d", "small", 0)
    assert it.checks == {"exit_code": True, "exact_passed": True,
                         "mc_within_z_max": True, "lambda_ref": False}


def test_exception_fails_every_check(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS["fk_tail"], "small", {"paths": 0})
    it = run.run_once("fk_tail", "small", 0)
    assert it.wall is None
    assert it.checks == {"fk_within_z_max": False, "lambda_ref": False}


def _verify_report(opt_z, rand_z, fk_z, failed=()):
    lam = 0.025
    rate = {"value": lam + 1e-3 * opt_z, "std_error": 1e-3, "unreliable": False}
    return {"lambda": lam, "failed": list(failed), "checks": {
        "lambda_match": {"lambda_star": lam, "optimal_rate": rate,
                         "random_policies": [{"rate": lam + 1e-3 * rand_z,
                                              "std_error": 1e-3, "eig_ok": True,
                                              "unreliable": False}]},
        "feynman_kac": {"starts": [{"z_score": fk_z}]}}}


@pytest.mark.parametrize("opt_z, rand_z, fk_z, ok", [
    (3.5, 0.0, -3.5, True),   # fails the program's 3-sigma test only
    (0.0, 40.0, 0.0, True),   # random policies may lie far above lambda*
    (5.5, 0.0, 0.0, False),
    (0.0, -5.5, 0.0, False),
    (0.0, 0.0, -5.5, False),
])
def test_monte_carlo_checks_use_z_max(opt_z, rand_z, fk_z, ok):
    spec = {"lambda_ref": 0.025}
    failed = ["lambda_match", "feynman_kac"] if abs(opt_z) > 3 else []
    checks = run.verify_checks(1 if failed else 0,
                               _verify_report(opt_z, rand_z, fk_z, failed), spec)
    assert checks["mc_within_z_max"] is ok
    assert checks["exit_code"] and checks["exact_passed"] and checks["lambda_ref"]


def test_deterministic_verify_failure_fails_the_check():
    report = _verify_report(0.0, 0.0, 0.0, failed=["optimality"])
    checks = run.verify_checks(1, report, {"lambda_ref": 0.025})
    assert not checks["exact_passed"]
    assert not run.verify_checks(0, report, {"lambda_ref": 0.025})["exit_code"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve_2d", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
