"""Command line front end.

Commands: solve, sweep, simulate, verify, validate.  Exit codes: 0 all
requested checks pass, 1 a check failed, 2 usage or configuration error,
3 numeric failure (non-finite model coefficient, irreducibility, eigensolver
convergence, stencil positivity, step size, non-finite Monte Carlo
estimate).  An unconverged policy iteration writes its artifacts with
``"converged": false`` and exits 1 (in verify, as the failed check
``policy_iteration``).

Every machine output embeds the resolved configuration and a sha256 hash of
it, and is written deterministically (sorted keys, fixed float formatting
via repr).  Wall-clock metadata, the worker count and the environment (usable
CPUs, library versions, BLAS thread settings, which can move the last bits of
sparse solves) live in a run_meta.json side file so that reruns of the same
configuration are byte-identical regardless of parallelism.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import sys
import time

import numpy as np
import scipy

from . import __version__
from .eigen import (MAX_POLICY_ITERS, NoConvergenceError, NotIrreducibleError,
                    domain_sweep, solve_semilinear)
from .expressions import ExpressionError, load_model
from .grid import GridSpec, grid_for_resolution
from .model import (NonFiniteCoefficientError, check_lyapunov, make_builtin,
                    validate_model)
from .operator import MonotonicityViolation
from .simulate import (BLOCK, SET_ROWS, NonFiniteEstimateError,
                       PathConfig, StepSizeError, _usable_cpus, check_annulus_arguments,
                       estimate_risk_sensitive_rate, feynman_kac_annulus,
                       mean_position_diagnostic, resolve_workers, simulate_paths)
from .verify import (_verification_solve, lambda_equals_optimal_value,
                     random_policies, validate_near_monotone, verify_optimality)

NUMERIC_ERRORS = (NonFiniteCoefficientError, MonotonicityViolation,
                  NotIrreducibleError, NoConvergenceError,
                  NonFiniteEstimateError, StepSizeError, np.linalg.LinAlgError)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Parse errors are usage errors (subparsers share the class)."""

    def error(self, message):
        raise UsageError("%s: %s" % (self.prog, message))


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _sanitize(dataclasses.asdict(obj))
    return obj


def _canonical_json(payload):
    return json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n"


def _config_hash(config):
    return hashlib.sha256(
        json.dumps(_sanitize(config), sort_keys=True).encode()
    ).hexdigest()


def _write_json(path, payload):
    with open(path, "w", newline="\n") as fh:
        fh.write(_canonical_json(payload))


def _emit(outdir, name, config, body):
    os.makedirs(outdir, exist_ok=True)
    payload = dict(body)
    payload["config"] = config
    payload["config_hash"] = _config_hash(config)
    path = "%s/%s" % (outdir, name)
    _write_json(path, payload)
    return path


def _write_meta(outdir, started, t0, args):
    meta = {
        "started_at": started,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "duration_sec": time.time() - t0,
        "workers": args.workers,
        "version": __version__,
        "argv": sys.argv[1:],
        "usable_cpus": _usable_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    _write_json("%s/run_meta.json" % outdir, meta)


def _checked(convert, nonnegative=False):
    """argparse type: ``convert(text)``, finite and, if ``nonnegative``, >= 0.
    Named after ``convert``, so bad text still reads "invalid float value"."""
    def parse(text):
        value = convert(text)
        if not -math.inf < value < math.inf or nonnegative and value < 0:
            raise argparse.ArgumentTypeError("expected a finite number%s, got %r"
                                             % (" >= 0" if nonnegative else "", text))
        return value
    parse.__name__ = convert.__name__
    return parse


_FINITE, _COUNT = _checked(float), _checked(int, True)


def _parse_floats(text):
    try:
        return [_FINITE(v) for v in text.split(",") if v.strip() != ""]
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError("expected comma-separated finite numbers, got %r" % text)


def _parse_param(text):
    if "=" not in text:
        raise UsageError("--param expects key=value, got %r" % text)
    key, raw = text.split("=", 1)
    vals = _parse_floats(raw)
    return key.strip(), (vals[0] if len(vals) == 1 else tuple(vals))


def _model_from_args(args):
    if args.model:
        try:
            return load_model(args.model)
        except FileNotFoundError:
            raise UsageError("model config file not found: %s" % args.model)
        except (json.JSONDecodeError, ExpressionError, KeyError, TypeError) as exc:
            raise UsageError("bad model config: %s" % exc)
    if not args.builtin:
        raise UsageError("provide --builtin NAME or --model FILE")
    params = {}
    for kv in args.param or ():
        key, val = _parse_param(kv)
        params[key] = val
    if getattr(args, "controls", None):
        params["controls"] = tuple(_parse_floats(args.controls))
    try:
        return make_builtin(args.builtin, **params)
    except (KeyError, TypeError) as exc:
        raise UsageError(str(exc))


def _model_config(args, model):
    cfg = {"builtin": args.builtin, "file": args.model,
           "params": {k: _sanitize(v) for k, v in model.params.items()},
           "name": model.name}
    return cfg


def _grid_for(args, model):
    return grid_for_resolution(model.dim, args.radius, args.nodes_per_unit)


def _policy_histogram(policy, n_controls):
    counts = np.bincount(np.asarray(policy).reshape(-1), minlength=n_controls)
    return {str(i): int(c) for i, c in enumerate(counts)}


def _write_psi_csv(path, grid, eigenpair):
    X = grid.interior_points()
    with open(path, "w", newline="\n") as fh:
        cols = ["x%d" % (i + 1) for i in range(grid.dim)]
        fh.write(",".join(cols + ["regime", "value"]) + "\n")
        psi = eigenpair.eigenfunction
        for k in range(psi.shape[0]):
            for j in range(grid.num_interior):
                coords = ",".join("%r" % float(v) for v in X[j])
                fh.write("%s,%d,%r\n" % (coords, k, float(psi[k, j])))


def _add_model_flags(p):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--builtin", help="built-in model name (lq, ou2, bounded2d, dip)")
    group.add_argument("--model", help="path to a JSON model config")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="builtin parameter override, repeatable")
    p.add_argument("--controls", help="comma-separated control set, e.g. 1,2")


def _add_common(p):
    p.add_argument("--output-dir", default=".")


def _add_workers(p):
    p.add_argument("--workers", type=int, default=None,
                   help="most worker processes (default: RISKSWITCH_WORKERS or "
                        "1); blocks of %d paths fix the random streams and "
                        "working sets of up to %d rows the scheduling; forked "
                        "processes, at most one per usable CPU, take whole sets "
                        "only when there is more than one; without the fork "
                        "start method the run is serial" % (BLOCK, SET_ROWS))


def cmd_solve(args):
    model = _model_from_args(args)
    grid = _grid_for(args, model)
    sol = solve_semilinear(model, grid, max_policy_iters=args.max_policy_iters)
    if args.dump_operator:
        sol.operator.write_matrix_market(args.dump_operator)
    config = {"command": "solve", "model": _model_config(args, model),
              "radius": args.radius, "nodes_per_unit": args.nodes_per_unit,
              "max_policy_iters": args.max_policy_iters}
    body = {
        "lambda": sol.eigenpair.eigenvalue,
        "bracket": sol.bracket,
        "radius": args.radius,
        "iterations": sol.policy_iterations,
        "residual": sol.eigenpair.residual,
        "policy_histogram": _policy_histogram(sol.policy, model.num_controls),
        "eigenvalue_trace": sol.eigenvalue_trace,
        "converged": sol.converged,
        "oscillated": sol.oscillated,
        "interior_nodes": grid.num_interior,
    }
    _emit(args.output_dir, "solve.json", config, body)
    _write_psi_csv("%s/psi.csv" % args.output_dir, grid, sol.eigenpair)
    return 0 if sol.converged else 1


def cmd_sweep(args):
    model = _model_from_args(args)
    radii = _parse_floats(args.radii)
    if any(b <= a for a, b in zip(radii, radii[1:])) or not radii:
        raise UsageError("--radii must be strictly increasing")
    sweep = domain_sweep(model, radii, args.nodes_per_unit)
    config = {"command": "sweep", "model": _model_config(args, model),
              "radii": radii, "nodes_per_unit": args.nodes_per_unit}
    body = {
        "entries": [
            {"radius": e.radius, "lambda": e.eigenvalue, "bracket": e.bracket,
             "iterations": e.iterations, "converged": e.converged,
             "policy_histogram": _policy_histogram(e.policy, model.num_controls),
             "residual": e.eigenpair.residual}
            for e in sweep.entries
        ],
        "monotonicity_certificate": sweep.monotone,
        "extrapolated": sweep.extrapolated,
        "lambda_star": sweep.lambda_star,
        "increments": sweep.increments,
    }
    _emit(args.output_dir, "sweep.json", config, body)
    converged = all(e.converged for e in sweep.entries)
    return 0 if sweep.monotone and converged else 1


def cmd_simulate(args):
    model = _model_from_args(args)
    config_sim = PathConfig(step=args.step, horizon=args.horizon,
                            seed=args.seed, paths=args.paths)
    x0 = _parse_floats(args.x0) if args.x0 else None
    config = {"command": "simulate", "model": _model_config(args, model),
              "functional": args.functional, "step": args.step,
              "horizon": args.horizon, "paths": args.paths,
              "control_index": args.control_index, "x0": x0, "k0": args.k0,
              "lambda_ref": args.lambda_ref, "seed": args.seed}
    if args.functional == "rate":
        est = estimate_risk_sensitive_rate(
            model, args.control_index, config_sim, lambda_ref=args.lambda_ref,
            x0=x0, k0=args.k0, workers=args.workers)
        _emit(args.output_dir, "estimate.json", config, est.as_dict())
        return 0
    if args.functional == "mean-position":
        report = mean_position_diagnostic(
            model, args.control_index, config_sim, x0=x0, k0=args.k0, workers=args.workers)
        _emit(args.output_dir, "diagnostic.json", config,
              {**report.as_dict(), "estimates": [e.as_dict() for e in report.estimates]})
        return 0 if report.passed else 1
    if args.functional == "paths":
        batch = simulate_paths(model, args.control_index, config_sim, x0=x0, k0=args.k0,
                               workers=args.workers)
        batch.write_csv("%s/paths.csv" % args.output_dir)
        _emit(args.output_dir, "paths.json", config, {
            "paths": batch.paths,
            "n_steps": config_sim.n_steps,
            "mean_final_abs": float(np.mean(np.linalg.norm(batch.positions[:, -1], axis=1))),
            "mean_integrated_cost": float(np.mean(batch.integrated_cost)),
            "switch_count_mean": float(np.mean(batch.switch_counts())),
        })
        return 0
    raise UsageError("unknown functional %r" % args.functional)


def _parse_starts(text, model):
    starts = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            coords, k = part.rsplit(":", 1)
            x, k = [float(v) for v in coords.split(",")], int(k)
            if len(x) != model.dim:
                raise ValueError
        except ValueError:
            raise UsageError(
                "bad start %r; expected x1,..,x%d:regime" % (part, model.dim))
        if not 0 <= k < model.num_regimes:
            raise UsageError("start regime %d of %r is outside [0, %d)"
                             % (k, part, model.num_regimes))
        starts.append((np.asarray(x), k))
    if not starts:
        raise UsageError("no start points parsed from %r" % text)
    return starts


def _default_starts(model, grid, r_inner, count=5):
    """Annulus start points spread over both regimes and both signs."""
    lo = r_inner + 0.25 * (grid.radius - r_inner)
    hi = r_inner + 0.65 * (grid.radius - r_inner)
    radii = np.linspace(lo, hi, count)
    starts = []
    for i, r in enumerate(radii):
        x = np.zeros(model.dim)
        x[0] = r if i % 2 == 0 else -r
        starts.append((x, i % model.num_regimes))
    return starts


def _hypothesis_checks(model, radius, samples, seed, nodes_per_unit):
    """(checks, failed) of ``validate_model`` on the box and of the model's
    certificate, if any, on the grid of radius min(radius, 4) at
    ``nodes_per_unit`` where that tiles it (it does whenever it tiles
    ``radius``), else on the next finer odd grid (spacing <= 1/nodes_per_unit)."""
    checks, failed = {}, []
    hyp = validate_model(model, box_radius=radius, samples=samples, seed=seed)
    checks["hypotheses"] = hyp.as_dict()
    if not hyp.passed:
        failed.append("hypotheses")
    if model.certificate is not None:
        r = min(radius, 4.0)
        # grid_for_resolution's grid (same 1e-9 tolerance) wherever it tiles
        cert_grid = GridSpec(model.dim, r, 2 * math.ceil(r * nodes_per_unit - 1e-9) + 1)
        report = check_lyapunov(model, model.certificate, cert_grid)
        checks["certificate"] = report.as_dict()
        if not report.passed:
            failed.append("certificate")
    return checks, failed


def cmd_verify(args):
    model = _model_from_args(args)
    grid = _grid_for(args, model)
    starts = (_parse_starts(args.starts, model) if args.starts
              else _default_starts(model, grid, args.inner_radius))
    if not args.skip_simulation:  # refused before any solve
        check_annulus_arguments(model, grid.radius, args.inner_radius, starts, args.paths)
    checks, failed = _hypothesis_checks(
        model, grid.radius, args.samples, args.seed, args.nodes_per_unit)
    flagged = []

    sol = _verification_solve(model, grid, max_policy_iters=args.max_policy_iters)
    if not sol.converged:
        failed.append("policy_iteration")
    alt = random_policies(model, grid, args.alt_policies, seed=args.seed)
    opt = verify_optimality(model, grid, alt, solution=sol)
    checks["optimality"] = opt.as_dict()
    if not opt.passed:
        failed.append("optimality")

    if not args.skip_simulation:
        sim = PathConfig(step=args.step, horizon=args.horizon, seed=args.seed,
                         paths=args.paths)
        match = lambda_equals_optimal_value(
            model, grid, args.rate_policies, sim, seed=args.seed,
            workers=args.workers, solution=sol)
        checks["lambda_match"] = match.as_dict()
        if not match.passed:
            failed.append("lambda_match")
        if match.flagged:
            flagged.append("lambda_match")

        fk_cfg = PathConfig(step=args.step, horizon=args.fk_horizon,
                            seed=args.seed, paths=args.paths)
        pair = sol.eigenpair
        if args.lambda_ref is not None:
            pair = dataclasses.replace(pair, eigenvalue=args.lambda_ref)
        fk = feynman_kac_annulus(model, sol.policy, pair, grid,
                                 args.inner_radius, starts, fk_cfg,
                                 workers=args.workers)
        checks["feynman_kac"] = fk.as_dict()
        if not fk.passed:
            failed.append("feynman_kac")

    config = {"command": "verify", "model": _model_config(args, model),
              "radius": args.radius, "nodes_per_unit": args.nodes_per_unit,
              "max_policy_iters": args.max_policy_iters, "samples": args.samples,
              "alt_policies": args.alt_policies, "rate_policies": args.rate_policies,
              "skip_simulation": args.skip_simulation, "step": args.step,
              "horizon": args.horizon, "fk_horizon": args.fk_horizon,
              "paths": args.paths, "inner_radius": args.inner_radius,
              "starts": args.starts, "lambda_ref": args.lambda_ref,
              "seed": args.seed}
    body = {"lambda": sol.eigenpair.eigenvalue, "checks": checks,
            "failed": failed, "flagged": flagged, "passed": not failed}
    _emit(args.output_dir, "verify.json", config, body)
    return 0 if not failed else 1


def cmd_validate(args):
    model = _model_from_args(args)
    checks, failed = _hypothesis_checks(
        model, args.radius, args.samples, args.seed, args.nodes_per_unit)
    if args.near_monotone:
        gate = validate_near_monotone(model, box_radius=args.radius,
                                      samples=args.samples, seed=args.seed)
        checks["near_monotone"] = gate.as_dict()
        if not gate.passed:
            failed.append("near_monotone")
    config = {"command": "validate", "model": _model_config(args, model),
              "radius": args.radius, "nodes_per_unit": args.nodes_per_unit,
              "samples": args.samples, "near_monotone": args.near_monotone,
              "seed": args.seed}
    body = {"checks": checks, "failed": failed, "flagged": [],
            "passed": not failed}
    _emit(args.output_dir, "validate.json", config, body)
    return 0 if not failed else 1


def build_parser():
    parser = _Parser(
        prog="riskswitch",
        description="Risk-sensitive control of regime-switching diffusions: "
                    "eigensolver, Monte Carlo, and verification checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="policy-iteration eigensolve on one box")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--radius", type=_FINITE, required=True)
    p.add_argument("--nodes-per-unit", type=int, required=True)
    p.add_argument("--max-policy-iters", type=int, default=MAX_POLICY_ITERS)
    p.add_argument("--dump-operator", metavar="FILE.mtx",
                   help="dump the final assembled operator in Matrix Market format")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="domain exhaustion over increasing radii")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--radii", required=True, help="comma-separated increasing radii")
    p.add_argument("--nodes-per-unit", type=int, required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo functionals under a constant control")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    _add_workers(p)
    p.add_argument("--functional", choices=["rate", "mean-position", "paths"],
                   default="rate")
    p.add_argument("--step", type=_FINITE, required=True)
    p.add_argument("--horizon", type=_FINITE, required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--control-index", type=int, default=0)
    p.add_argument("--x0", help="comma-separated start state (default origin)")
    p.add_argument("--k0", type=int, default=0)
    p.add_argument("--lambda-ref", type=_FINITE, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="full verification pipeline")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    _add_workers(p)
    p.add_argument("--radius", type=_FINITE, required=True)
    p.add_argument("--nodes-per-unit", type=int, required=True)
    p.add_argument("--max-policy-iters", type=int, default=MAX_POLICY_ITERS)
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--alt-policies", type=_COUNT, default=5,
                   help="random policies reported with their certified lower "
                        "bound; the optimality certificate covers every "
                        "table policy")
    p.add_argument("--rate-policies", type=_COUNT, default=2,
                   help="random policies for the Monte Carlo rate check")
    p.add_argument("--skip-simulation", action="store_true",
                   help="run only the PDE-side checks")
    p.add_argument("--step", type=_FINITE, default=1e-3)
    p.add_argument("--horizon", type=_FINITE, default=5.0)
    p.add_argument("--fk-horizon", type=_FINITE, default=2.0)
    p.add_argument("--paths", type=int, default=20000)
    p.add_argument("--inner-radius", type=_FINITE, default=0.5)
    p.add_argument("--starts",
                   help="semicolon-separated x1,..,xd:regime start points")
    p.add_argument("--lambda-ref", type=_FINITE, default=None,
                   help="override the eigenvalue used in the Feynman-Kac check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("validate", help="model hypothesis and certificate checks")
    _add_model_flags(p)
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=_FINITE, default=5.0)
    p.add_argument("--nodes-per-unit", type=int, default=10)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--near-monotone", action="store_true")
    p.set_defaults(func=cmd_validate)

    return parser


def _error_payload(exc, code):
    return {"error": {"type": type(exc).__name__, "message": str(exc)},
            "exit_code": code}


def main(argv=None):
    t0 = time.time()
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "output_dir", None):
            os.makedirs(args.output_dir, exist_ok=True)
        # resolved once, before any artifact is written; the commands and
        # run_meta.json read the resolved count
        args.workers = resolve_workers(getattr(args, "workers", None))
        code = args.func(args)
    except UsageError as exc:
        print(_canonical_json(_error_payload(exc, 2)), end="")
        return 2
    except NUMERIC_ERRORS as exc:
        print(_canonical_json(_error_payload(exc, 3)), end="")
        return 3
    except (ValueError, OSError, NotImplementedError) as exc:
        print(_canonical_json(_error_payload(exc, 2)), end="")
        return 2
    try:
        _write_meta(args.output_dir, started, t0, args)
    except OSError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
