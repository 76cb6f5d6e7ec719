"""riskswitch benchmark: three workloads, end-to-end metrics, traced layer split.

Run from the root of a source checkout::

    python3 bench/run.py --workload verify_ou2 --seed 0 --seconds 25 --trace 0

The package is imported from ``src/`` of that checkout; without it the
script exits with code 2 before printing a result.

Workloads (sizes in WORKLOADS below; BENCHMARK.json says why each was chosen):

* ``verify_ou2``  -- ``riskswitch verify`` on ou2 with Monte Carlo, in
  process, 2 worker threads: rate estimation and the Feynman-Kac (FK)
  hitting check, i.e. the ``simulate`` step kernel and the thread pool.
* ``fk_tail``     -- library ``solve_semilinear`` on ou2 at 2000 nodes per
  unit plus ``feynman_kac_annulus`` at acceptance criterion 05's five
  starts, serially: the shrinking alive set and per-step overhead.
* ``solve_2d``    -- ``riskswitch verify --skip-simulation`` on bounded2d:
  SuperLU factorizations and triangular solves inside policy iteration,
  with no Monte Carlo.

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s``
(median over the timed iterations), ``setup_s`` (median over fresh
interpreters that import riskswitch and build the model and grid),
``peak_rss_mb`` (peak resident set of this process).  ``failed_frac`` is the
result's ``failed / attempted`` and is printed with the others.  With
``--trace 1`` untraced and traced iterations alternate; the traced ones
record spans (see tracing.py) and give the per-layer metrics, and the ratio
of the two medians gives ``bench.trace_overhead_frac``.  The spans are
written to ``.bench_out/`` at the end.

Warm-up policy: before timing, one iteration runs at the workload's reduced
size (same grid, fewer paths or policies) and is not timed.  A process's
first solve pays lazy imports and first-touch allocation (about 1.0 s
against 0.25 s warm for the fk_tail solve), which every timed iteration
would otherwise not see alike.  ``setup_s`` is where the cold cost shows;
its interpreters start after this process has imported riskswitch, so
bytecode caches exist.  Each timed iteration draws new inputs from the seed
(see iteration_seed).

Every iteration, the warm-up included, runs the workload's correctness
checks; the last line of stdout is one JSON object, and the exit code is 1
when any check failed.

The Monte Carlo checks are re-read from the reports at Z_MAX standard
errors.  The program passes a Monte Carlo check at three standard errors, a
test that a correct program fails on about one seed in a hundred: in a scan
of seeds 0-39 at fk_tail's two sizes the 400 FK z-scores had mean -0.10 and
standard deviation 1.01, and seeds 18 (warm-up size, z = -3.20) and 22 (full
size, z = -3.04) failed it.  A benchmark that runs dozens of seeds per
comparison would then refuse correct code; at five standard errors a
correct program fails about once in a million checks, while a kernel
defect that biases an estimate still fails it.  Everything deterministic
(lambda, optimality, hypotheses, certificate, the eigenvalues of the
random policies) must pass exactly.
"""

import argparse
import gc
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# One BLAS thread: the workloads' BLAS calls are small vector products, and
# idle BLAS threads spinning on a 2-CPU machine compete with the Monte Carlo
# worker threads.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

LAMBDA_TOL = 1e-10
Z_MAX = 5.0
# verify.json sections whose failure a Monte Carlo z-score decides
MC_CHECKS = {"lambda_match", "feynman_kac"}
MIN_ITERATIONS = 3
DRAWS_PER_SEED = 1000
SETUP_REPEATS = 6


# Each workload runs at a "full" size for timing and a "small" one (same
# grid, fewer paths or policies) for the warm-up and the tests.  The lambda
# references were computed at commit 79f7299 on these grids; they do not
# depend on the seed or on the Monte Carlo sizes.
WORKLOADS = {
    "verify_ou2": {
        "kind": "cli", "model": "ou2", "radius": 5, "npu": 80, "workers": 2,
        "default_seed": 0, "lambda_ref": 0.025453825544741043,
        # two full Monte Carlo blocks of 4096 paths, one per worker thread;
        # the middle two of the five default FK starts
        "full": ["--alt-policies", "5", "--rate-policies", "2",
                 "--paths", "8192", "--step", "0.0025", "--horizon", "1",
                 "--starts=-2.075:1;2.525:0", "--workers", "2"],
        "small": ["--alt-policies", "1", "--rate-policies", "1",
                  "--paths", "512", "--step", "0.0025", "--horizon", "1",
                  "--starts=-2.075:1;2.525:0", "--workers", "2"],
    },
    "fk_tail": {
        "kind": "fk", "model": "ou2", "radius": 4.0, "npu": 2000, "workers": 1,
        "default_seed": 11, "lambda_ref": 0.02523776294759708,
        "starts": [(1.0, 0), (-1.0, 1), (1.5, 0), (-1.5, 1), (2.0, 0)],
        "r_inner": 0.5, "step": 5e-4, "horizon": 2.0,
        "full": {"paths": 1024}, "small": {"paths": 128},
    },
    "solve_2d": {
        "kind": "cli", "model": "bounded2d", "radius": 4, "npu": 14, "workers": 1,
        "default_seed": 0, "lambda_ref": 0.044580358766807056,
        "full": ["--alt-policies", "5", "--skip-simulation"],
        "small": ["--alt-policies", "1", "--skip-simulation"],
    },
}


def import_riskswitch():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "riskswitch" / "__init__.py").is_file():
        raise FileNotFoundError("no riskswitch sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import riskswitch
    if pathlib.Path(riskswitch.__file__).resolve().parent != SRC / "riskswitch":
        raise ImportError("riskswitch was imported from %s, not %s"
                          % (riskswitch.__file__, SRC))
    return riskswitch


# -------------------------------------------------------------- workloads

class Iteration:
    """One workload call: its wall time and the outcome of each check."""

    def __init__(self):
        self.wall = None
        self.checks = {}

    @property
    def failed(self):
        return sum(not ok for ok in self.checks.values())


def _lambda_ok(lam, spec):
    return abs(lam - spec["lambda_ref"]) <= LAMBDA_TOL


def mc_z_scores(checks):
    """Standard scores of the Monte Carlo checks in verify.json's ``checks``.

    Random policies' rates may lie any distance above lambda* (the weighted
    rate is a submartingale), so only a shortfall counts for them.  Rates
    the program flags unreliable are reported, not tested, as it does.
    """
    zs = []
    match = checks.get("lambda_match")
    if match is not None:
        lam = match["lambda_star"]
        opt = match["optimal_rate"]
        if not opt["unreliable"]:
            zs.append((opt["value"] - lam) / opt["std_error"])
        zs += [min(0.0, (e["rate"] - lam) / e["std_error"])
               for e in match["random_policies"] if not e["unreliable"]]
    fk = checks.get("feynman_kac")
    if fk is not None:
        zs += [s["z_score"] for s in fk["starts"]]
    return zs


def verify_checks(code, report, spec):
    """Outcome of each benchmark check on one ``riskswitch verify`` run."""
    checks = report["checks"]
    exact_failed = set(report["failed"]) - MC_CHECKS
    random_eigs_ok = all(e["eig_ok"] for e in
                         checks.get("lambda_match", {}).get("random_policies", []))
    return {
        "exit_code": code == (1 if report["failed"] else 0),
        "exact_passed": not exact_failed and random_eigs_ok,
        "mc_within_z_max": all(abs(z) <= Z_MAX for z in mc_z_scores(checks)),
        "lambda_ref": _lambda_ok(report["lambda"], spec),
    }


def _run_cli(spec, size, seed, it):
    from riskswitch import cli
    OUT.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="cli-", dir=OUT)
    try:
        argv = (["verify", "--builtin", spec["model"], "--radius", str(spec["radius"]),
                 "--nodes-per-unit", str(spec["npu"]), "--seed", str(seed),
                 "--output-dir", outdir] + spec[size])
        t0 = time.perf_counter()
        code = cli.main(argv)
        it.wall = time.perf_counter() - t0
        with open(os.path.join(outdir, "verify.json")) as fh:
            report = json.load(fh)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    it.checks.update(verify_checks(code, report, spec))


def _run_fk(spec, size, seed, it):
    import numpy as np
    import riskswitch as rs
    model = rs.make_builtin(spec["model"])
    grid = rs.grid_for_resolution(model.dim, spec["radius"], spec["npu"])
    starts = [(np.array([x]), k) for x, k in spec["starts"]]
    config = rs.PathConfig(step=spec["step"], horizon=spec["horizon"],
                           seed=seed, paths=spec[size]["paths"])
    t0 = time.perf_counter()
    sol = rs.solve_semilinear(model, grid)
    report = rs.feynman_kac_annulus(model, sol.policy, sol.eigenpair, grid,
                                    spec["r_inner"], starts, config,
                                    workers=spec["workers"])
    it.wall = time.perf_counter() - t0
    it.checks.update(fk_within_z_max=report.max_abs_z <= Z_MAX,
                     lambda_ref=_lambda_ok(sol.eigenpair.eigenvalue, spec))


RUNNERS = {"cli": (_run_cli, ("exit_code", "exact_passed", "mc_within_z_max",
                            "lambda_ref")),
           "fk": (_run_fk, ("fk_within_z_max", "lambda_ref"))}


def run_once(name, size, seed):
    """Run one iteration of a workload; exceptions fail all its checks."""
    spec = WORKLOADS[name]
    runner, checks = RUNNERS[spec["kind"]]
    it = Iteration()
    gc.collect()
    try:
        runner(spec, size, seed, it)
    except (Exception, SystemExit):  # argparse exits on a usage error
        print("error in %s:\n%s" % (name, traceback.format_exc()), file=sys.stderr)
        it.wall = None
        it.checks = dict.fromkeys(checks, False)
    return it


# ------------------------------------------------------------------ setup

_SETUP_CODE = """\
import riskswitch as rs
model = rs.make_builtin(%r)
grid = rs.grid_for_resolution(model.dim, %r, %r)
"""


def measure_setup(name, repeats=SETUP_REPEATS):
    """Wall seconds of fresh interpreters importing riskswitch and building
    the workload's model and grid.  Run after this process has imported
    riskswitch, so bytecode caches exist and none of the samples compiles."""
    spec = WORKLOADS[name]
    code = _SETUP_CODE % (spec["model"], spec["radius"], spec["npu"])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                       check=True)
        samples.append(time.perf_counter() - t0)
    return samples


# -------------------------------------------------------------- the trace

def layer_metrics(tracer, run, wall):
    """Per-layer numbers of one traced iteration (run id ``run``) whose
    workload call took ``wall`` seconds."""
    spans = tracer.spans
    selfs = tracer.self_times()
    mine = [i for i, s in enumerate(spans) if s.run == run]

    def pick(name):
        return [i for i in mine if spans[i].name == name]

    def dur(name):
        return sum(spans[i].end - spans[i].start for i in pick(name))

    def self_of(name):
        return sum(selfs[i] for i in pick(name))

    def attr_sum(name, key):
        return sum(spans[i].attrs[key] for i in pick(name))

    rate = pick("simulate.estimate_risk_sensitive_rate")
    fk = pick("simulate.feynman_kac_annulus")
    rate_s = dur("simulate.estimate_risk_sensitive_rate")
    path_steps = attr_sum("simulate.estimate_risk_sensitive_rate", "path_steps")
    fk_s = dur("simulate.feynman_kac_annulus")
    fk_starts = attr_sum("simulate.feynman_kac_annulus", "starts")
    factor_s = dur("superlu.splu")
    trisolve_s = dur("superlu.solve")
    return {
        "simulate.rate_s": (rate_s, "s"),
        "simulate.rate_calls": (len(rate), "count"),
        "simulate.rate_path_steps": (path_steps, "count"),
        "simulate.rate_path_steps_per_s": (path_steps / rate_s if rate_s else 0.0, "1/s"),
        # lambda_equals_optimal_value estimates the solved policy first
        "simulate.rate_ess_frac": (spans[rate[0]].attrs["ess_frac"] if rate else 0.0, "1"),
        "simulate.fk_s": (fk_s, "s"),
        "simulate.fk_s_per_start": (fk_s / fk_starts if fk_starts else 0.0, "s"),
        "simulate.fk_capped_frac": (
            sum(spans[i].attrs["capped_frac"] * spans[i].attrs["starts"] for i in fk)
            / fk_starts if fk_starts else 0.0, "1"),
        "simulate.wall_frac": ((rate_s + fk_s) / wall, "1"),
        "eigen.solve_s": (dur("eigen.solve_semilinear"), "s"),
        "eigen.policy_iterations": (attr_sum("eigen.solve_semilinear", "policy_iterations"), "count"),
        "eigen.eigenpair_s": (dur("eigen.principal_eigenpair"), "s"),
        "eigen.eigenpair_calls": (len(pick("eigen.principal_eigenpair")), "count"),
        "eigen.factor_s": (factor_s, "s"),
        "eigen.factor_calls": (len(pick("superlu.splu")), "count"),
        "eigen.factor_fill_nnz": (attr_sum("superlu.splu", "nnz"), "count"),
        "eigen.trisolve_s": (trisolve_s, "s"),
        "eigen.trisolve_calls": (len(pick("superlu.solve")), "count"),
        "eigen.eigenpair_self_s": (self_of("eigen.principal_eigenpair"), "s"),
        "eigen.selector_s": (dur("eigen.minimizing_selector"), "s"),
        "eigen.lu_wall_frac": ((factor_s + trisolve_s) / wall, "1"),
        "operator.assemble_s": (dur("operator.assemble"), "s"),
        "operator.assemble_calls": (len(pick("operator.assemble")), "count"),
        "operator.nnz": (attr_sum("operator.assemble", "nnz"), "count"),
        "verify.optimality_s": (dur("verify.verify_optimality"), "s"),
        "verify.lambda_match_s": (dur("verify.lambda_equals_optimal_value"), "s"),
        "model.checks_s": (dur("model.validate_model") + dur("model.check_lyapunov"), "s"),
        "cli.self_s": (self_of("cli.main"), "s"),
        "bench.traced_wall_s": (wall, "s"),
    }


# ------------------------------------------------------------ environment

def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "riskswitch").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(name):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "workers": WORKLOADS[name]["workers"],
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# ------------------------------------------------------------------- main

def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def iteration_seed(seed, draw):
    """Input seed of draw ``draw`` of a run with seed ``seed`` (draw 0 is
    the warm-up).

    Each timed iteration draws new inputs, so that a run's median covers
    several draws, not one: an FK start runs until its last path has hit
    the inner ball or left the box, and that step count varies with the
    draw (fk_tail, seeds 1-20: 15,449 to 19,613 steps over the five starts,
    interquartile range 10% of the median).
    """
    return seed * DRAWS_PER_SEED + draw


def run_benchmark(name, seed, seconds, trace, size="full"):
    """Warm up, time iterations for ``seconds`` and return the result dict."""
    its = [run_once(name, "small", iteration_seed(seed, 0))]
    walls, per_run = [], []
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    timed = 0
    draw = 0
    while timed < MIN_ITERATIONS or time.perf_counter() < deadline:
        timed += 1 if tracer is None else 2
        draw += 1
        it = run_once(name, size, iteration_seed(seed, draw))
        its.append(it)
        if it.wall is not None:
            walls.append(it.wall)
        if tracer is not None:
            # the traced iteration repeats the untraced one's inputs
            tracer.run += 1
            with tracer.patched():
                it = run_once(name, size, iteration_seed(seed, draw))
            its.append(it)
            if it.wall is not None:
                per_run.append(layer_metrics(tracer, tracer.run, it.wall))
    attempted = sum(len(i.checks) for i in its)
    failed = sum(i.failed for i in its)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    info = {"walls": walls, "tracer": tracer}
    if not walls or (tracer is not None and not per_run):
        metrics = {}
    elif tracer is None:
        setup = measure_setup(name)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        metrics = {key: (statistics.median(m[key][0] for m in per_run), unit)
                   for key, (_, unit) in per_run[0].items()}
        traced = statistics.median(m["bench.traced_wall_s"][0] for m in per_run)
        metrics["bench.trace_overhead_frac"] = (traced / statistics.median(walls) - 1.0, "1")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result, info


def _write_spans(name, seed, env, tracer):
    OUT.mkdir(exist_ok=True)
    path = OUT / ("spans-%s-seed%d.json" % (name, seed))
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "env": env,
                   "spans": tracer.as_records()}, fh)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = WORKLOADS[args.workload]["default_seed"] if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be >= 0")
    try:
        import_riskswitch()
    except (ImportError, FileNotFoundError) as exc:
        print("cannot run the benchmark: %s" % exc, file=sys.stderr)
        return 2

    env = environment(args.workload)
    print("env %s" % json.dumps(env, sort_keys=True))
    result, info = run_benchmark(args.workload, seed, args.seconds, args.trace)
    walls = info["walls"]
    if walls:
        q1, q3 = _quartiles(walls)
        print("%s seed=%d: %d timed iterations (+1 warm-up at reduced size), "
              "wall_s median %.4f, quartiles %.4f %.4f"
              % (args.workload, seed, len(walls), statistics.median(walls), q1, q3))
    if args.trace:
        path = _write_spans(args.workload, seed, env, info["tracer"])
        print("spans written to %s" % path.relative_to(ROOT))
    for key, m in result["metrics"].items():
        print("%-34s %16.6g %s" % (key, m["value"], m["unit"]))
    print("%-34s %16.6g %s" % ("failed_frac", result["failed"] / result["attempted"], "1"))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
