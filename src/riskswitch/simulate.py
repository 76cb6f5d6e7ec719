"""Monte Carlo engine for the switching diffusion under Markov policies.

Path generation is Euler-Maruyama for the continuous component plus a
per-step categorical draw for the regime: from regime k the chain moves to
j != k with probability ``step * rates[k, j]`` and stays put otherwise, which
matches the jump mechanism to first order in the step; the diagonal of the
rate matrix is never read.  The drawn rates are checked at the states
actually visited: a NaN or infinite one, a negative one, or a leave
probability (the sum of the move probabilities) above 0.5 aborts with the
offending state.

Reproducibility contract: paths are organized into fixed blocks of 4096.
Block ``b`` draws from a Philox generator keyed by the seed with counter
``b << 128``, so every block's stream is a pure function of (seed, block
index) and never of scheduling.  Blocks fix the random streams; working sets
fix the scheduling.  Consecutive whole blocks, up to SET_ROWS rows, are
stepped as one set of rows in block order, each block drawing for its own
rows in row order; with p = min(workers, usable CPUs) a set also holds at
most a p-th of the rows, down to one block.  Forked processes (at most one
per usable CPU) take whole sets, and only when a run has more than one;
without the ``fork`` start method, or while the calling process runs other
threads, a run is stepped serially.  Results are reduced in block order, so
estimates are bitwise identical for any worker count.  Reductions over paths
use numpy's pairwise summation in path-index order.  Errors do not depend
on the worker count either: a run that fails in a pool is stepped again in
the sets of one worker, and raises that run's error.

The Feynman-Kac check adds its starts to the set, ordered by (block, start,
path).  Each start keeps its own generator for each block, keyed exactly as
above, and draws for its running rows in row order, so every start's
numbers, and its results, are those of a run of that start alone.

The rate estimator adds its policies to the set, ordered by (block, policy,
path), and the policies in a set share each block's draws: a rate path never
stops, so every policy's rows in a block would draw the same numbers from
the same stream, and the block draws them once per step for all of them.
Each policy's numbers, and its estimate, are those of its run alone.

Each step groups the rows once by (regime, control), evaluates the model per
group into whole-set coefficient arrays, and runs the Euler, barrier and
switching arithmetic once over the set.

The risk-sensitive rate estimator is max-shifted log-mean-exp with a
delta-method standard error.  The exponential functional is heavy-tailed for
costs growing near the variance threshold, so the estimate carries an
effective-sample-size readout and is flagged unreliable when the ESS
collapses (below 10, or below 2% of the path count) rather than pretending
the error bar is trustworthy.

The terminal weights and the Feynman-Kac payoffs and targets read psi off
the grid through :meth:`GridSpec.interpolate` (multilinear, 0 outside the box).
"""

import dataclasses
import enum
import math
import os

import numpy as np

from .model import NonFiniteCoefficientError, _refuse_negative_rates

BLOCK = 4096
# most rows stepped as one working set (whole blocks; a wider block is a set
# alone): fastest per worker process on ou2, no slower than larger sets on bounded2d
SET_ROWS = 4 * BLOCK
# Broadie-Glasserman-Kou continuity correction for discretely monitored
# barriers: shift each barrier by 0.5826 * sigma_normal * sqrt(step)
BGK_BETA = 0.5826
MAX_LEAVE_PROBABILITY = 0.5
ESS_FLOOR = 10.0
ESS_FRACTION_FLOOR = 0.02


class StepSizeError(RuntimeError):
    """Step times total switching rate exceeded 0.5 at a visited state."""

    def __init__(self, step, rate, state, regime):
        self.step = step
        self.rate = rate
        self.state = np.asarray(state)
        self.regime = regime
        super().__init__(
            "step %.3g * switching rate %.3g = %.3g > %.2f at state %s regime %d; "
            "reduce the step" % (step, rate, step * rate, MAX_LEAVE_PROBABILITY,
                                 np.array2string(self.state, precision=4), regime)
        )

    def __reduce__(self):  # rebuilt whole when raised in a worker process
        return type(self), (self.step, self.rate, self.state, self.regime)


class NonFiniteEstimateError(RuntimeError):
    """A Monte Carlo estimate of some functional came out NaN or infinite;
    ``path_values`` are its values per path."""

    def __init__(self, functional, value, path_values):
        self.functional = functional
        self.value = value
        self.bad_paths = int(np.count_nonzero(~np.isfinite(path_values)))
        self.paths = len(path_values)
        super().__init__(
            "%s estimate %s is not finite: %d of %d path values are not finite; "
            "check the model's coefficients at the states the paths visit"
            % (functional.value, value, self.bad_paths, self.paths)
        )


class Functional(enum.Enum):
    RISK_SENSITIVE_RATE = "risk_sensitive_rate"
    FEYNMAN_KAC_ANNULUS = "feynman_kac_annulus"
    MEAN_ABS_POSITION = "mean_abs_position"
    PATHS = "paths"


@dataclasses.dataclass(frozen=True)
class PathConfig:
    """Euler step, horizon, seed, and path count for one Monte Carlo run."""

    step: float
    horizon: float
    seed: int
    paths: int

    def __post_init__(self):
        if not 0 < self.step < math.inf:
            raise ValueError("step must be positive and finite")
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        if not self.horizon / self.step < math.inf:
            raise ValueError("horizon / step must be finite")
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise ValueError("seed must be an integer")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")

    @property
    def n_steps(self):
        n = int(round(self.horizon / self.step))
        return max(n, 1)

    @property
    def actual_horizon(self):
        return self.n_steps * self.step

    def as_dict(self):
        return {"step": self.step, "horizon": self.horizon,
                "seed": int(self.seed), "paths": self.paths}


@dataclasses.dataclass
class CostEstimate:
    value: float
    std_error: float
    paths: int
    functional: Functional
    ess: float = float("nan")
    unreliable: bool = False
    flags: tuple = ()
    details: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")

    def as_dict(self):
        out = {"value": self.value, "std_error": self.std_error,
               "paths": self.paths, "functional": self.functional.value,
               "unreliable": self.unreliable, "flags": list(self.flags),
               "details": dict(self.details)}
        if not math.isnan(self.ess):
            out["ess"] = self.ess
        return out


class ControlMap:
    """A stationary Markov policy, as data.

    ``table`` is one control index, shape (1,), used everywhere (``grid``
    None), or a (num_regimes, num_interior) table of control indices read at
    the interior node of ``grid`` nearest each state, with constant extension
    outside the box.  The Monte Carlo drivers check it against the model
    once, before the first step.
    """

    def __init__(self, table, grid=None):
        table = np.asarray(table, dtype=np.int64)  # a function raises TypeError
        if grid is None and table.shape != (1,):
            raise ValueError("a policy table needs a grid for node lookup")
        if grid is not None and (table.ndim != 2 or table.shape[1] != grid.num_interior):
            raise ValueError(
                "policy table must have shape (num_regimes, %d), got %s"
                % (grid.num_interior, table.shape))
        self.table = table
        self.grid = grid

    @property
    def description(self):
        return "constant:%d" % self.table[0] if self.grid is None else "table"

    def control_indices(self, X, K):
        """Control index of each state X (n, dim) in regime K (n,)."""
        if self.grid is None:
            return np.full(len(K), self.table[0])
        nodes = self.grid.nearest_interior_index(X)
        return self.table.reshape(-1)[self.grid.row_index(np.asarray(K), nodes)]

    @classmethod
    def constant(cls, control_index):
        return cls([int(control_index)])

    @classmethod
    def from_policy(cls, policy, grid):
        return cls(policy, grid)

    @classmethod
    def coerce(cls, policy_or_control, grid=None):
        if isinstance(policy_or_control, cls):
            return policy_or_control
        if isinstance(policy_or_control, (int, np.integer)):
            return cls.constant(policy_or_control)
        if np.ndim(policy_or_control) == 2:
            return cls.from_policy(policy_or_control, grid)
        raise TypeError("expected ControlMap, control index, or policy table")


def resolve_workers(workers=None):
    """``workers``, else RISKSWITCH_WORKERS, else 1, as an integer >= 1."""
    source = "worker count" if workers is not None else "RISKSWITCH_WORKERS"
    if workers is None:
        workers = os.environ.get("RISKSWITCH_WORKERS", "1")
    try:
        w = int(workers)
    except (TypeError, ValueError):
        w = 0
    if w < 1:
        raise ValueError("%s must be an integer >= 1, got %r" % (source, workers))
    return w


def _block_generator(seed, block_index):
    return np.random.Generator(
        np.random.Philox(key=int(seed), counter=int(block_index) << 128)
    )


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _working_sets(paths, width=1, workers=1):
    """Consecutive whole blocks, as lists of (block, size), grouped into
    working sets at ``width`` rows per path: at most SET_ROWS rows, and at
    most a p-th of the rows for p = min(workers, usable CPUs), but never less
    than one block."""
    p = min(workers, _usable_cpus())
    cap = min(SET_ROWS, max(BLOCK * width, -(-paths * width // p)))
    sets, rows = [], 0
    for b, lo in enumerate(range(0, paths, BLOCK)):
        n = min(BLOCK, paths - lo)
        if not sets or rows + n * width > cap:
            sets.append([])
            rows = 0
        sets[-1].append((b, n))
        rows += n * width
    return sets


# (fn, sets) of the running pool, set in each forked process by its initializer
_POOL_TASK = None


def _adopt_task(fn, sets):
    global _POOL_TASK
    _POOL_TASK = fn, sets


def _run_set(index):
    fn, sets = _POOL_TASK
    return fn(sets[index])


def _map_sets(fn, workers, paths, width=1):
    """``fn`` over the working sets of ``paths`` paths at ``width`` rows per
    path, results in set order.

    Forked processes take whole sets: one per set, at most one per usable CPU
    and at most ``workers``.  They inherit ``fn`` (closure, model, policy and
    psi table alike), so nothing is pickled but a set index out and its
    result back.  A run of one set starts no pool; nor does a run without
    ``fork``, or one called while other threads run, since a forked child
    would keep any lock those threads hold.  A run that fails in the pool is
    stepped again serially in the sets of one worker, so that it fails, or
    succeeds, as it does at one worker.
    """
    workers = resolve_workers(workers)
    sets = _working_sets(paths, width, workers)
    procs = min(workers, _usable_cpus(), len(sets))
    if procs > 1:
        import multiprocessing
        import threading
        if ("fork" in multiprocessing.get_all_start_methods()
                and threading.active_count() == 1):
            from concurrent.futures import ProcessPoolExecutor
            try:
                with ProcessPoolExecutor(procs, mp_context=multiprocessing.get_context("fork"),
                                         initializer=_adopt_task, initargs=(fn, sets)) as ex:
                    return list(ex.map(_run_set, range(len(sets))))
            except Exception:
                # which state an error names depends on the sets; stepping the
                # sets of one worker again raises the one-worker run's error
                sets = _working_sets(paths, width)
    return [fn(s) for s in sets]


def _draw(rngs, counts, d):
    """Normals, then uniforms, from each segment's generator for its running
    rows, concatenated in row order."""
    draws = [(rng.standard_normal((c, d)), rng.random(c))
             for rng, c in zip(rngs, counts) if c]
    return (np.concatenate([z for z, _ in draws]),
            np.concatenate([u for _, u in draws]))


def _control_map(model, policy_or_control, grid):
    """:meth:`ControlMap.coerce`, checked against ``model`` once, before any
    step: a table's rows and grid fit the model, and its indices name controls."""
    cmap = ControlMap.coerce(policy_or_control, grid=grid)
    table = cmap.table
    if cmap.grid is not None and (len(table), cmap.grid.dim) != (model.num_regimes, model.dim):
        raise ValueError("policy table has %d rows, one per regime needs %d; its grid is "
                         "%d-D, the model %d-D"
                         % (len(table), model.num_regimes, cmap.grid.dim, model.dim))
    bad = table[(table < 0) | (table >= model.num_controls)]
    if bad.size:
        raise ValueError("control index %d is outside [0, %d)" % (bad[0], model.num_controls))
    return cmap


def _coerce_start(model, x0, k0):
    """Start state (origin when None) and start regime, checked."""
    x = np.zeros(model.dim) if x0 is None else np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape != (model.dim,):
        raise ValueError("x0 must have %d coordinates" % model.dim)
    k = int(k0)
    if not 0 <= k < model.num_regimes:
        raise ValueError("start regime %d is outside [0, %d)" % (k, model.num_regimes))
    return x, k


def _row_norm(x):
    """Euclidean norm over the last axis (the arithmetic of ``np.linalg.norm``)."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _group_coefficients(model, xs, k, c):
    """Drift, diffusion, cost and rates (row k of the rate matrix, (N, rows))
    of one (regime, control) group."""
    xi = float(model.controls[c])
    g = xs.shape[0]
    b = np.asarray(model.drift(xs, k, xi), dtype=float).reshape(g, -1)
    sig = np.asarray(model.diffusion(xs, k), dtype=float)
    cost = np.asarray(model.cost(xs, k, xi), dtype=float).reshape(-1)
    m = np.asarray(model.rates(xs, xi), dtype=float)
    return b, sig, cost, m[:, k, :].T


def _refuse_rates(model, X, K, key, present, rate, here, leave, step):
    """Refuse the rates a step draws regimes from (``rate`` (N, n), row K of
    each matrix, off its diagonal): a NaN or infinite one, which compares
    false in the draw, a negative one, or a leave probability above
    MAX_LEAVE_PROBABILITY at the worst row of a (regime, control) group."""
    off = np.where(here, 0.0, rate).T  # (n, N), diagonal zeroed
    xi = model.controls[key % model.num_controls]
    bad = np.argwhere(~np.isfinite(off))
    if len(bad):
        i, j = bad[0]
        raise NonFiniteCoefficientError("rates", X[i], K[i], xi[i], off[i, j])
    _refuse_negative_rates(
        off, max(1.0, float(np.max(np.abs(off)))),
        lambda ij: "[%d, %d] (control %g at x=%s)" % (K[ij[0]], ij[1], xi[ij[0]],
                                                      X[ij[0]].tolist()))
    for kc in present:
        rows = np.flatnonzero(key == kc)
        worst = rows[np.argmax(leave[rows])]
        if leave[worst] > MAX_LEAVE_PROBABILITY + 1e-12:
            raise StepSizeError(step, float(np.sum(off[worst])), X[worst], K[worst])


def _step_once(model, cmap, X, K, S, step, sqh, Z, U, cost_shift, barrier=None):
    """One Euler + switching step over all rows of (X, K), in place.

    Rows are grouped once by (regime, control); each group's coefficients fill
    whole-set arrays, and the Euler, barrier and switching arithmetic then
    runs once over the set.  Accumulates ``step * (cost - cost_shift)`` into S
    at the pre-step state (left-endpoint rectangle rule).  When
    ``barrier = (r_inner, box_radius)`` is given, also returns
    barrier-corrected thresholds: the per-path inner hitting radius (shifted
    outward by the radial noise scale) and a flag for staying inside the
    shifted box.
    """
    n, d = X.shape
    nc = model.num_controls
    N = model.num_regimes
    key = K * nc + cmap.control_indices(X, K)
    present = np.flatnonzero(np.bincount(key)).tolist()
    if len(present) == 1:
        k, c = divmod(present[0], nc)
        b, sig, cost, rate = _group_coefficients(model, X, k, c)
    else:
        b = np.empty((n, d))
        sig = np.empty((n, d, d))
        cost = np.empty(n)
        rate = np.empty((N, n))
        for kc in present:
            rows = np.flatnonzero(key == kc)
            k, c = divmod(kc, nc)
            b[rows], sig[rows], cost[rows], rk = _group_coefficients(model, X[rows], k, c)
            rate[:, rows] = rk
    # From regime k the chain moves to j != k with probability step * rates[k, j]
    # and stays with one minus their sum; sums run column by column.  A min and
    # a max catch a rate that is not finite, negative or leaves too often.
    here = K == np.arange(N)[:, None]
    move = np.where(here, 0.0, step * rate)
    leave = move[0]
    for p in move[1:]:
        leave = leave + p
    if not (move.min() >= 0.0 and leave.max() <= MAX_LEAVE_PROBABILITY + 1e-12):
        _refuse_rates(model, X, K, key, present, rate, here, leave, step)
    S += step * (cost - cost_shift)
    xn = X + step * b + sqh * np.einsum("pij,pj->pi", sig, Z)
    inner_thr = outer_ok = None
    if barrier is not None:
        r_inner, box_radius = barrier
        rdir = X / _row_norm(X)[:, None]
        s_rad = _row_norm(np.einsum("pi,pij->pj", rdir, sig))
        inner_thr = r_inner + BGK_BETA * sqh * s_rad
        outer_ok = np.all(
            np.abs(xn) < box_radius - BGK_BETA * sqh * _row_norm(sig), axis=1
        )
    # Next regime: the number of cumulative one-step probabilities below U.
    stay = 1.0 - leave
    cum = np.where(here[0], stay, move[0])
    nk = (U > cum).astype(np.int64)
    for j in range(1, N):
        cum = cum + np.where(here[j], stay, move[j])
        nk += U > cum
    X[:] = xn
    K[:] = np.minimum(nk, N - 1)
    return inner_thr, outer_ok


class _PolicyStack:
    """The controls of several policies over rows ordered (block, policy,
    path), blocks of ``sizes`` paths: one ``control_indices`` call reads each
    row's control from its own policy's table.  Table policies share one
    grid; a constant stacked with them fills a table of its own."""

    def __init__(self, cmaps, sizes):
        grids = [c.grid for c in cmaps if c.grid is not None]
        self.grid = grids[0] if grids else None
        policy = np.concatenate([np.repeat(np.arange(len(cmaps)), n) for n in sizes])
        if self.grid is None:
            self.table = np.concatenate([c.table for c in cmaps])
            self.base = policy
            return
        shape = next(c.table.shape for c in cmaps if c.grid is not None)
        self.table = np.concatenate([np.broadcast_to(c.table, shape).reshape(-1)
                                     for c in cmaps])
        self.base = policy * (shape[0] * shape[1])

    def control_indices(self, X, K):
        if self.grid is None:
            return self.table[self.base]
        nodes = self.grid.nearest_interior_index(X)
        return self.table[self.base + self.grid.row_index(K, nodes)]


def _horizon_block(model, cmaps, config, blocks, x0, k0, keep_steps=()):
    """Integrated cost, state and regime per path of whole blocks, a list of
    (block, size), under each policy of ``cmaps``, stepped as one set of rows
    ordered (block, policy, path); plus each path's states and regimes after
    the steps in ``keep_steps`` (0 is the start).  Each block draws once per
    step for its paths, and every policy's rows in it read those numbers."""
    sizes = [n for _, n in blocks]
    rngs = [_block_generator(config.seed, b) for b, _ in blocks]
    n_policies = len(cmaps)
    controls, shared = _PolicyStack(cmaps, sizes), None
    if n_policies > 1:
        # row (block, policy, path) reads the draw of (block, path)
        shared = np.concatenate([np.tile(np.arange(lo, lo + m), n_policies)
                                 for lo, m in zip(np.cumsum([0] + sizes), sizes)])
    n = n_policies * sum(sizes)
    X = np.repeat(x0[None, :], n, axis=0)
    K = np.full(n, k0, dtype=np.int64)
    S = np.zeros(n)
    keep_at = {s: i for i, s in enumerate(keep_steps)}
    kept_X = np.empty((n, len(keep_steps), model.dim))
    kept_K = np.empty((n, len(keep_steps)), dtype=np.int64)
    sqh = math.sqrt(config.step)
    n_steps = max([config.n_steps, *keep_steps])
    for t in range(n_steps + 1):
        if t in keep_at:
            kept_X[:, keep_at[t]], kept_K[:, keep_at[t]] = X, K
        if t < n_steps:
            Z, U = _draw(rngs, sizes, model.dim)
            if shared is not None:
                Z, U = Z[shared], U[shared]
            _step_once(model, controls, X, K, S, config.step, sqh, Z, U, 0.0)
    return S, X, K, kept_X, kept_K


@dataclasses.dataclass
class TrajectoryBatch:
    times: np.ndarray
    positions: np.ndarray
    regimes: np.ndarray
    integrated_cost: np.ndarray
    config: PathConfig

    @property
    def paths(self):
        return self.positions.shape[0]

    def switch_counts(self):
        return np.sum(self.regimes[:, 1:] != self.regimes[:, :-1], axis=1)

    def occupation_fractions(self, num_regimes):
        counts = [np.sum(self.regimes == k) for k in range(num_regimes)]
        return np.array(counts, dtype=float) / self.regimes.size

    def write_csv(self, path):
        d = self.positions.shape[2]
        header = ["path", "t"] + ["x%d" % (i + 1) for i in range(d)] + ["regime"]
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for p in range(self.paths):
                for t, tt in enumerate(self.times):
                    coords = ",".join("%.17g" % v for v in self.positions[p, t])
                    fh.write("%d,%.17g,%s,%d\n" % (p, tt, coords, self.regimes[p, t]))


def simulate_paths(model, policy_or_control, config, x0=None, k0=0,
                   workers=None, grid=None):
    """Full trajectory recording; use the estimators for large path counts.
    A NaN or infinite state or cost raises :class:`NonFiniteEstimateError`."""
    cmap = _control_map(model, policy_or_control, grid)
    x0, k0 = _coerce_start(model, x0, k0)
    n_entries = config.paths * (config.n_steps + 1) * model.dim
    if n_entries > 5e7:
        raise ValueError(
            "trajectory recording would allocate %d entries; "
            "use the estimators for runs this large" % n_entries
        )
    parts = _map_sets(
        lambda blocks: _horizon_block(model, [cmap], config, blocks, x0, k0,
                                      range(config.n_steps + 1)),
        workers, config.paths,
    )
    S, pos, reg = (np.concatenate([p[i] for p in parts]) for i in (0, 3, 4))
    ends = S + pos[:, -1].sum(axis=1)  # a NaN or infinite value lasts to the end
    if not np.isfinite(ends).all():
        raise NonFiniteEstimateError(Functional.PATHS, math.nan, ends)
    times = np.arange(config.n_steps + 1) * config.step
    return TrajectoryBatch(times=times, positions=pos, regimes=reg,
                           integrated_cost=S, config=config)


def _logmeanexp(values):
    shift = float(np.max(values))
    w = np.exp(values - shift)
    mean_w = float(np.mean(w))
    return shift + math.log(mean_w), w, mean_w


def estimate_risk_sensitive_rate(model, policy, config, lambda_ref=None,
                                 x0=None, k0=0, workers=None, grid=None,
                                 terminal_pair=None):
    """Path estimate of (1/T) log E[exp(integral of the running cost)].

    Max-shifted log-mean-exp over the per-path cost integrals; the standard
    error is the delta method applied to the shifted weights.  The effective
    sample size (sum w)^2 / sum w^2 gates the unreliable flag.

    With ``terminal_pair`` (a solved eigenpair; requires ``grid``) each path
    weight carries the factor psi(X_T, K_T)/psi(x0, k0).  The weighted
    expectation equals exp(lambda T) exactly, so the estimate targets lambda
    itself instead of the finite-horizon rate and its O(1/T) transient.
    Paths ending outside the grid box get weight zero.

    Raises :class:`NonFiniteEstimateError` when the estimate is NaN or
    infinite, e.g. because the cost is NaN at a visited state.  This is
    :func:`estimate_risk_sensitive_rates` of one policy.
    """
    return estimate_risk_sensitive_rates(
        model, [policy], config, lambda_ref=lambda_ref, x0=x0, k0=k0,
        workers=workers, grid=grid, terminal_pair=terminal_pair)[0]


def estimate_risk_sensitive_rates(model, policies, config, lambda_ref=None,
                                  x0=None, k0=0, workers=None, grid=None,
                                  terminal_pair=None):
    """One :func:`estimate_risk_sensitive_rate` per policy, in order, from one
    run: every working set steps all the policies' paths, and each block's
    draws serve all of them (common random numbers).  Each estimate is
    bitwise the one its policy's run alone gives.  Table policies must share
    one grid.  A policy that fails raises an error of the type its run alone
    raises; where several fail, the run raises the first error met, stepping
    the sets in order, then the first non-finite estimate in policy order.
    """
    if config.horizon < 1.0:
        raise ValueError("rate estimation needs horizon >= 1")
    cmaps = [_control_map(model, p, grid) for p in policies]
    if not cmaps:
        raise ValueError("need at least one policy")
    if len({(g.dim, g.radius, g.nodes_per_axis)
            for g in (c.grid for c in cmaps) if g is not None}) > 1:
        raise ValueError("policies estimated together must share one grid")
    x0, k0 = _coerce_start(model, x0, k0)
    if terminal_pair is not None:
        if grid is None:
            raise ValueError("terminal weighting needs the grid psi lives on")
        if not np.all(np.abs(x0) < grid.radius):
            raise ValueError(
                "terminal weighting needs psi(x0, k0) > 0: start x0=%s, k0=%d is "
                "not inside the box of radius %g" % (x0.tolist(), k0, grid.radius))
        psi = np.asarray(terminal_pair.eigenfunction, dtype=float)
        log_psi0 = math.log(float(grid.interpolate(psi, x0[None, :], [k0])[0]))
    n_policies = len(cmaps)

    def set_sums(blocks):
        S, X, K, _, _ = _horizon_block(model, cmaps, config, blocks, x0, k0)
        if terminal_pair is not None:
            with np.errstate(divide="ignore"):
                S = S + np.log(grid.interpolate(psi, X, K)) - log_psi0
        # (block, policy, path) rows to one (policy, path) row per policy
        cuts = np.cumsum([n_policies * n for _, n in blocks])[:-1]
        return np.concatenate([s.reshape(n_policies, -1) for s in np.split(S, cuts)],
                              axis=1)

    sums = np.concatenate(_map_sets(set_sums, workers, config.paths, n_policies), axis=1)
    return [_rate_estimate(S, config, x0, k0, cmap, lambda_ref, terminal_pair)
            for S, cmap in zip(sums, cmaps)]


def _rate_estimate(S, config, x0, k0, cmap, lambda_ref, terminal_pair):
    """The :class:`CostEstimate` of one policy's per-path exponents ``S``."""
    T = config.actual_horizon
    log_mean, w, mean_w = _logmeanexp(S)
    value = log_mean / T
    if not math.isfinite(value):
        raise NonFiniteEstimateError(Functional.RISK_SENSITIVE_RATE, value, S)
    if config.paths > 1:
        se = float(np.std(w, ddof=1)) / (mean_w * math.sqrt(config.paths)) / T
    else:
        se = math.inf
    ess = float(w.sum() ** 2 / np.square(w).sum())
    flags = []
    if ess < ESS_FLOOR:
        flags.append("ess_collapse")
    if ess < ESS_FRACTION_FLOOR * config.paths:
        flags.append("heavy_tail")
    details = {"x0": x0.tolist(), "k0": k0, "n_steps": config.n_steps,
               "actual_horizon": T, "control": cmap.description,
               "log_mean_exp": log_mean,
               "terminal_weighted": terminal_pair is not None}
    if lambda_ref is not None:
        details["lambda_ref"] = float(lambda_ref)
        details["deviation"] = value - float(lambda_ref)
    return CostEstimate(value=value, std_error=se, paths=config.paths,
                        functional=Functional.RISK_SENSITIVE_RATE, ess=ess,
                        unreliable=bool(flags), flags=tuple(flags),
                        details=details)


def _fk_block(model, cmap, config, blocks, starts, lam, grid, psi,
              r_inner, cap_steps):
    """Payoff and status, each (starts, paths of the set), of whole blocks,
    a list of (block, size), of every start.

    The running rows of all (block, start) segments form one working set,
    ordered by (block, start, path), that is stepped once per step.  Each
    segment draws from its own generator keyed (seed, block), normals then
    uniforms for its running rows in row order, so every path sees the
    numbers it would see in a run of its start alone.  The set is compacted
    only on steps where a path stopped.
    """
    n_starts = len(starts)
    d = model.dim
    running = [n for _, n in blocks for _ in starts]
    edges = np.cumsum([0] + running)  # segment s holds rows edges[s]:edges[s+1]
    rngs = [_block_generator(config.seed, b) for b, _ in blocks for _ in starts]
    X = np.repeat(np.stack([x for x, _ in starts] * len(blocks)), running, axis=0)
    K = np.repeat(np.array([k for _, k in starts] * len(blocks), dtype=np.int64),
                  running)
    n = X.shape[0]
    A = np.zeros(n)
    row = np.arange(n)
    # status: 0 = running, 1 = hit inner ball, 2 = left box, 3 = capped;
    # a row keeps its state and exponent where it stopped for the payoff
    status = np.zeros(n, dtype=np.int8)
    end_X = np.zeros((n, d))
    end_K = np.zeros(n, dtype=np.int64)
    end_A = np.zeros(n)
    sqh = math.sqrt(config.step)
    for _ in range(cap_steps):
        if row.size == 0:
            break
        Z, U = _draw(rngs, running, d)
        inner_thr, outer_ok = _step_once(
            model, cmap, X, K, A, config.step, sqh, Z, U, lam,
            barrier=(r_inner, grid.radius),
        )
        hit = _row_norm(X) <= inner_thr
        stop = hit | ~outer_ok
        if not stop.any():
            continue
        done = row[stop]
        end_X[done], end_K[done], end_A[done] = X[stop], K[stop], A[stop]
        status[done] = np.where(hit[stop], 1, 2)
        keep = ~stop
        X, K, A, row = X[keep], K[keep], A[keep], row[keep]
        running = np.diff(np.searchsorted(row, edges)).tolist()
    status[row] = 3
    end_X[row], end_A[row] = X, A
    hits = np.flatnonzero(status == 1)
    payoff = np.zeros(n)
    payoff[hits] = np.exp(end_A[hits]) * np.maximum(
        grid.interpolate(psi, end_X[hits], end_K[hits]), 0.0)
    # a NaN state compares false, so it stops as a box exit: a row that stops
    # or is cut with a NaN or infinite state or exponent gets a NaN payoff
    payoff[~(np.isfinite(end_A) & np.isfinite(end_X).all(axis=1))] = np.nan
    # (block, start, path) rows to one (start, path) row per start
    cuts = edges[::n_starts][1:-1]
    return tuple(np.concatenate([v.reshape(n_starts, -1) for v in np.split(a, cuts)],
                                axis=1) for a in (payoff, status))


@dataclasses.dataclass
class AnnulusStartResult:
    start: np.ndarray
    regime: int
    estimate: CostEstimate
    target: float
    z_score: float
    hit_fraction: float
    exit_fraction: float
    capped_fraction: float


@dataclasses.dataclass
class FeynmanKacReport:
    results: list
    eigenvalue: float
    max_abs_z: float
    passed: bool
    capped_fraction: float

    def as_dict(self):
        return {
            "eigenvalue": self.eigenvalue,
            "max_abs_z": self.max_abs_z,
            "passed": self.passed,
            "capped_fraction": self.capped_fraction,
            "starts": [
                {"start": r.start.tolist(), "regime": r.regime,
                 "estimate": r.estimate.value, "std_error": r.estimate.std_error,
                 "target": r.target, "z_score": r.z_score,
                 "hit_fraction": r.hit_fraction, "exit_fraction": r.exit_fraction,
                 "capped_fraction": r.capped_fraction}
                for r in self.results
            ],
        }


def feynman_kac_annulus(model, policy, eigenpair, grid, r_inner, start_points,
                        config, workers=None):
    """Hitting-functional cross-check of a solved eigenpair.

    For each start (x, k) in the annulus between the inner ball and the box
    boundary, estimates E[exp(integral of (cost - lambda)) * psi at the inner
    hitting state; inner ball hit before box exit] and compares it to psi(x,k).
    Box exits contribute zero (the eigenfunction vanishes on the boundary).
    Barriers are shifted by the discrete-monitoring correction to cancel the
    leading sqrt(step) crossing bias.  Paths still running after 1000 nominal
    horizons are cut, counted, and reported separately.  A path that stops or
    is cut with a NaN or infinite state or exponent raises
    :class:`NonFiniteEstimateError`, as does a NaN or infinite estimate.
    """
    if not r_inner < grid.radius:
        raise ValueError("inner radius must be smaller than the box radius")
    cmap = _control_map(model, policy, grid)
    lam = float(eigenpair.eigenvalue)
    psi = np.asarray(eigenpair.eigenfunction, dtype=float)
    cap = 1000.0 * config.horizon / config.step
    if not cap < math.inf:
        raise ValueError("the Feynman-Kac step cap, 1000 * horizon / step, is not finite "
                         "at horizon %g and step %g" % (config.horizon, config.step))
    cap_steps = int(round(cap))
    starts = []
    for x, k in start_points:
        x, k = _coerce_start(model, x, k)
        r0 = float(np.linalg.norm(x))
        if not (r_inner < r0 and np.all(np.abs(x) < grid.radius)):
            raise ValueError("start %s is not inside the annulus" % x)
        starts.append((x, k))
    if not starts:
        raise ValueError("need at least one start")
    parts = _map_sets(
        lambda blocks: _fk_block(model, cmap, config, blocks, starts, lam,
                                 grid, psi, r_inner, cap_steps),
        workers, config.paths, len(starts),
    )
    payoffs = np.concatenate([p[0] for p in parts], axis=1)
    statuses = np.concatenate([p[1] for p in parts], axis=1)
    results = []
    for (x, k), payoff, status in zip(starts, payoffs, statuses):
        est = float(np.mean(payoff))
        if not math.isfinite(est):
            raise NonFiniteEstimateError(Functional.FEYNMAN_KAC_ANNULUS, est, payoff)
        se = float(np.std(payoff, ddof=1)) / math.sqrt(config.paths) \
            if config.paths > 1 else math.inf
        target = float(grid.interpolate(psi, x[None, :], [k])[0])
        z = (est - target) / se if se > 0 else math.inf * np.sign(est - target)
        estimate = CostEstimate(
            value=est, std_error=se, paths=config.paths,
            functional=Functional.FEYNMAN_KAC_ANNULUS,
            details={"start": x.tolist(), "regime": k, "target": target},
        )
        results.append(AnnulusStartResult(
            start=x, regime=k, estimate=estimate, target=target,
            z_score=float(z),
            hit_fraction=float(np.mean(status == 1)),
            exit_fraction=float(np.mean(status == 2)),
            capped_fraction=float(np.mean(status == 3)),
        ))
    max_z = max(abs(r.z_score) for r in results)
    return FeynmanKacReport(
        results=results, eigenvalue=lam, max_abs_z=float(max_z),
        passed=bool(max_z <= 3.0),
        capped_fraction=int(np.sum(statuses == 3)) / statuses.size,
    )


@dataclasses.dataclass
class MeanPositionReport:
    horizons: list
    values: list
    std_errors: list
    decay_exponent: float
    passed: bool
    estimates: list

    @property
    def final(self):
        return self.estimates[-1]

    def as_dict(self):
        return {"horizons": self.horizons, "values": self.values,
                "std_errors": self.std_errors,
                "decay_exponent": self.decay_exponent, "passed": self.passed}


def mean_position_diagnostic(model, policy, config, horizons=None, x0=None,
                             k0=0, workers=None, grid=None):
    """Sub-linear growth diagnostic: E|X_T| / T along a horizon ladder.

    Stable dynamics give a ratio decreasing toward zero (roughly T^(-1/2)
    for driftless diffusion, T^(-1) under mean reversion); expansive dynamics
    push it back up along the ladder, which fails the check.  The fitted
    log-log slope is reported as the decay exponent.

    Raises :class:`NonFiniteEstimateError` when the mean at some horizon is
    NaN or infinite.
    """
    cmap = _control_map(model, policy, grid)
    x0, k0 = _coerce_start(model, x0, k0)
    if horizons is None:
        horizons = [config.horizon / 16.0, config.horizon / 4.0, config.horizon]
    snap_steps = []
    for T in horizons:
        s = int(round(float(T) / config.step))
        if s < 1:
            raise ValueError("horizon %g is below one step" % T)
        snap_steps.append(s)
    if any(b <= a for a, b in zip(snap_steps, snap_steps[1:])):
        raise ValueError("horizons must be strictly increasing")
    parts = _map_sets(
        lambda blocks: _horizon_block(model, [cmap], config, blocks, x0, k0,
                                      snap_steps)[3],
        workers, config.paths,
    )
    snaps = np.ascontiguousarray(_row_norm(np.concatenate(parts)).T)
    times = [s * config.step for s in snap_steps]
    estimates, values, errors = [], [], []
    for i, T in enumerate(times):
        mean_abs = float(np.mean(snaps[i]))
        if not math.isfinite(mean_abs):
            raise NonFiniteEstimateError(Functional.MEAN_ABS_POSITION, mean_abs, snaps[i])
        se = float(np.std(snaps[i], ddof=1)) / math.sqrt(config.paths) \
            if config.paths > 1 else math.inf
        values.append(mean_abs / T)
        errors.append(se / T)
        estimates.append(CostEstimate(
            value=mean_abs / T, std_error=se / T, paths=config.paths,
            functional=Functional.MEAN_ABS_POSITION,
            details={"horizon": T, "mean_abs_position": mean_abs}))
    slope = float(np.polyfit(np.log(times), np.log(values), 1)[0])
    passed = all(b < a for a, b in zip(values, values[1:])) and slope < 0.0
    return MeanPositionReport(horizons=times, values=values, std_errors=errors,
                              decay_exponent=slope, passed=passed,
                              estimates=estimates)
