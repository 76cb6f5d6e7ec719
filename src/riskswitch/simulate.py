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

The rate estimator's policies and the Feynman-Kac check's starts are the
groups of a set, whose rows are ordered (block, group, path).  One rule
draws for all of them: a block's groups share its draw while all of their
rows run, and at the block's first stop each group takes its own copy of
the block's stream and draws for its running rows.  A rate path never
stops, so rate groups always share.  Either way every group's numbers, and
its results, are those of its run alone.

Each step calls every model coefficient once over the set, each row at its
own regime and control, and runs the Euler and barrier arithmetic once over
the set, summing over coordinates column by column.  The switching
arithmetic (move probabilities, leave sums, cumulative thresholds) runs once
over the rate rows: when ``rates`` returns one matrix for every row (a
broadcast view, as for every builtin), those are its N rows, one per
regime, and each row of the set gathers its regime's thresholds; otherwise
they are each row's own rate row.

The risk-sensitive rate estimator is max-shifted log-mean-exp with a
delta-method standard error.  The exponential functional is heavy-tailed for
costs growing near the variance threshold, so the estimate carries an
effective-sample-size readout and is flagged unreliable when the ESS
collapses (below 10, or below 2% of the path count) rather than pretending
the error bar is trustworthy.

The terminal weights and the Feynman-Kac payoffs and targets read psi off
the grid through :meth:`GridSpec.interpolate` (multilinear, 0 outside the box).

A policy is an integer control index, or a (num_regimes, num_interior)
integer table of them on the ``grid`` the call is given, read at the
interior node nearest each state (constant outside the box).  Each run
stacks its policies once and checks them before any step by
:func:`~riskswitch.operator.check_policy`, the rule operator assembly
applies too: a bool, a float, a wrong shape or an index that names no
control is refused.
"""

import copy
import dataclasses
import enum
import functools
import math
import os

import numpy as np

from .model import NonFiniteCoefficientError, _refuse_negative_rates
from .operator import check_policy

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
        if not isinstance(self.paths, (int, np.integer)) or isinstance(self.paths, bool):
            raise ValueError("paths must be an integer, got %r" % (self.paths,))
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


def _draw(sources, running, d):
    """Normals, then uniforms, from each source, (generator, first segment,
    segments), for its first segment's running rows, read by each of its
    segments, concatenated in row order."""
    z, u = [], []
    for rng, s, m in sources:
        if running[s]:
            z += [rng.standard_normal((running[s], d))] * m
            u += [rng.random(running[s])] * m
    return (z[0], u[0]) if len(z) == 1 else (np.concatenate(z), np.concatenate(u))


def _coerce_start(model, x0, k0):
    """Start state (origin when None) and start regime, checked."""
    x = np.zeros(model.dim) if x0 is None else np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape != (model.dim,):
        raise ValueError("x0 must have %d coordinates" % model.dim)
    if not isinstance(k0, (int, np.integer)) or isinstance(k0, bool):
        raise ValueError("start regime must be an integer, got %r" % (k0,))
    k = int(k0)
    if not 0 <= k < model.num_regimes:
        raise ValueError("start regime %d is outside [0, %d)" % (k, model.num_regimes))
    return x, k


def _column_sum(terms):
    """Left-to-right sum of ``terms``; of two, bitwise numpy's sum over an axis."""
    return functools.reduce(np.add, terms)


def _row_norm(x):
    """Euclidean norm over the last axis."""
    return np.sqrt(_column_sum(x[..., j] * x[..., j] for j in range(x.shape[-1])))


def _may_draw(move, leave):
    """Whether move probabilities ``move`` (rows, N) and their ``leave`` sums
    pass: a min and a max catch a rate that is not finite, negative or
    leaves too often (at a tiny negative rate :func:`_refuse_rates` decides)."""
    return move.min() >= 0.0 and leave.max() <= MAX_LEAVE_PROBABILITY + 1e-12


def _refuse_rates(model, controls, X, K, R, step):
    """Refuse the rates a step draws regimes from (row K of each row's matrix
    in ``R`` (n, N, N), off its diagonal): a NaN or infinite one, which
    compares false in the draw, a negative one, or a leave probability above
    MAX_LEAVE_PROBABILITY at the worst row of a (regime, control) group, the
    groups read off ``controls``."""
    rate = R[np.arange(len(K)), K]
    off = np.where(np.arange(rate.shape[1]) == K[:, None], 0.0, rate)
    C = controls.control_indices(X, K)
    xi = model.controls[C]
    bad = np.argwhere(~np.isfinite(off))
    if len(bad):
        i, j = bad[0]
        raise NonFiniteCoefficientError("rates", X[i], K[i], xi[i], off[i, j])
    _refuse_negative_rates(
        off, max(1.0, float(np.max(np.abs(off)))),
        lambda ij: "[%d, %d] (control %g at x=%s)" % (K[ij[0]], ij[1], xi[ij[0]],
                                                      X[ij[0]].tolist()))
    leave = _column_sum((step * off).T)
    key = K * model.num_controls + C
    for kc in np.unique(key):
        rows = np.flatnonzero(key == kc)
        worst = rows[np.argmax(leave[rows])]
        if leave[worst] > MAX_LEAVE_PROBABILITY + 1e-12:
            raise StepSizeError(step, float(np.sum(off[worst])), X[worst], K[worst])


def _step_once(model, controls, X, K, S, step, sqh, Z, U, cost_shift, barrier=None):
    """One Euler + switching step over all rows of (X, K), in place.

    Each coefficient is called once, every row at its own regime and
    control (``controls`` from :meth:`_PolicyStack.at_rows`), the Euler and
    barrier arithmetic runs once over the set and the switching arithmetic
    once over the rate rows.  Accumulates ``step * (cost - cost_shift)`` into S at the
    pre-step state (left-endpoint rectangle rule).  When
    ``barrier = (r_inner, box_radius)`` is given, also returns
    barrier-corrected thresholds: the per-path inner hitting radius (shifted
    outward by the radial noise scale) and a flag for staying inside the
    shifted box.
    """
    n, d = X.shape
    N = model.num_regimes
    xi = controls.control_values(X, K)
    b = np.asarray(model.drift(X, K, xi), dtype=float).reshape(n, d)
    sig = np.asarray(model.diffusion(X, K), dtype=float)
    cost = np.asarray(model.cost(X, K, xi), dtype=float).reshape(n)
    R = np.asarray(model.rates(X, xi), dtype=float)
    # From regime k the chain moves to j != k with probability step * rates[k, j]
    # and stays with one minus their sum.  This arithmetic runs once over the
    # rate rows: the N rows of the one matrix of a broadcast view (every
    # builtin), else each row's own rate row, gathered by np.take over a flat
    # axis (fancy indexing R[rows, K] copies the trailing axis row by row).
    shared = R.strides[0] == 0
    if shared:
        move, own = R[0] * step, np.arange(0, N * N, N + 1)  # own: the diagonal
    else:  # the reshape is a view when R is C-contiguous
        own = np.arange(n) * N + K
        move = np.take(R.reshape(n * N, N), own, axis=0)
        move *= step
    move.reshape(-1)[own] = 0.0
    leave = _column_sum(move.T)  # sums run column by column
    # a shared matrix is judged only at the regimes the rows are in
    if not _may_draw(move, leave) and not (shared and _may_draw(
            *(a[np.bincount(K, minlength=N) > 0] for a in (move, leave)))):
        _refuse_rates(model, controls, X, K, R, step)
    # Next regime: the number of cumulative one-step probabilities below U.
    # The sums never fall (no entry is negative, checked above), so the first
    # N - 1 of them decide: the last regime takes every U they pass, even
    # where the sum of all N rounds below U.
    move.reshape(-1)[own] = 1.0 - leave
    thr = [move[:, 0]]
    for j in range(1, N - 1):
        thr.append(thr[-1] + move[:, j])
    if shared:  # each row reads its regime's thresholds
        thr = [np.take(t, K) for t in thr]
    np.greater(U, thr[0], out=K)
    for t in thr[1:]:
        K += U > t
    S += step * (cost - cost_shift)
    # X + step * b + sqh * noise, summed in place in that order
    xn = step * b
    xn += X
    noise = _column_sum(sig[:, :, j] * Z[:, j, None] for j in range(d))
    noise *= sqh
    xn += noise
    inner_thr = outer_ok = None
    if barrier is not None:
        r_inner, box_radius = barrier
        rdir = X / _row_norm(X)[:, None]
        s_rad = _row_norm(_column_sum(rdir[:, i, None] * sig[:, i] for i in range(d)))
        inner_thr = r_inner + BGK_BETA * sqh * s_rad
        inside = np.abs(xn) < box_radius - BGK_BETA * sqh * _row_norm(sig)
        outer_ok = functools.reduce(np.logical_and, inside.T)
    X[:] = xn
    return inner_thr, outer_ok


class _PolicyStack:
    """The policies of one run, each a control index or a table of them on
    ``grid``, checked against ``model`` by :func:`check_policy` once, before
    any step.  Their tables are stacked, a constant stacked with tables
    filling a table of its own, so that one gather reads each row's control
    index, or its value among the model's controls, from its own policy's
    table; :meth:`at_rows` serves a set's rows."""

    def __init__(self, model, policies, grid):
        policies = [np.asarray(p) for p in policies]
        if not policies:
            raise ValueError("need at least one policy")
        tables = any(p.ndim for p in policies)
        if tables and grid is None:
            raise ValueError("a policy table needs a grid for node lookup")
        if tables and grid.dim != model.dim:
            raise ValueError("a policy table needs a grid of the model's dimension; its "
                             "grid is %d-D, the model %d-D" % (grid.dim, model.dim))
        shape = (model.num_regimes, grid.num_interior) if tables else ()
        self.grid = grid if tables else None
        self.table = np.concatenate([
            np.broadcast_to(check_policy(p, shape if p.ndim else (), model.num_controls),
                            shape).reshape(-1)
            for p in policies])
        self.values = model.controls[self.table]
        self.size = math.prod(shape)
        self.descriptions = ["table" if p.ndim else "constant:%d" % p for p in policies]

    def at_rows(self, policy):
        """A copy that serves a set's rows, ``policy`` the index of each
        row's policy; it carries only their offsets into ``table``."""
        rows = copy.copy(self)
        rows.base = policy * self.size
        return rows

    def compress(self, keep):
        self.base = self.base[keep]

    def _entries(self, X, K):
        if self.grid is None:
            return self.base
        rows = self.grid.row_index(K, self.grid.nearest_interior_index(X))
        rows += self.base
        return rows

    def control_indices(self, X, K):
        return self.table[self._entries(X, K)]

    def control_values(self, X, K):
        return self.values[self._entries(X, K)]


def _step_set(model, stack, groups, config, blocks, n_steps, cost_shift=0.0,
              barrier=None, keep_steps=()):
    """Paths of whole blocks, a list of (block, size), from each group of
    ``groups``, a (policy index into ``stack``, start state, start regime),
    stepped as one set of rows ordered (block, group, path) for at most
    ``n_steps``.

    Returns per row the integral of cost - ``cost_shift`` and the state and
    regime where it stopped, or after the last step; its states and regimes
    after the steps in ``keep_steps`` (0 is the start; no ``barrier`` then);
    and its status: with ``barrier`` (see :func:`_step_once`) a row stops on
    hitting the inner ball (1) or leaving the box (2), and the set is
    compacted; else it runs all the steps (3).  A block's groups share its
    draw while all of their rows run; after the step of its first stop, each
    group draws from its own copy of the block's generator for its running
    rows.
    """
    d, n_groups = model.dim, len(groups)
    full = [n for _, n in blocks for _ in groups]  # rows of each (block, group) segment
    edges = np.cumsum([0] + full)  # segment s holds rows edges[s]:edges[s+1]
    X = np.repeat(np.stack([x for _, x, _ in groups] * len(blocks)), full, axis=0)
    K = np.repeat(np.array([k for _, _, k in groups] * len(blocks), dtype=np.int64), full)
    controls = stack.at_rows(np.repeat([p for p, _, _ in groups] * len(blocks), full))
    n = len(K)
    S, row, running = np.zeros(n), np.arange(n), full
    sources = [(_block_generator(config.seed, b), i * n_groups, n_groups)
               for i, (b, _) in enumerate(blocks)]
    status = np.zeros(n, dtype=np.int8)
    end_X, end_K, end_S = np.empty((n, d)), np.empty(n, dtype=np.int64), np.empty(n)
    keep_at = {s: i for i, s in enumerate(keep_steps)}
    kept_X = np.empty((n, len(keep_steps), d))
    kept_K = np.empty((n, len(keep_steps)), dtype=np.int64)
    sqh = math.sqrt(config.step)
    for t in range(n_steps + 1):
        if t in keep_at:
            kept_X[:, keep_at[t]], kept_K[:, keep_at[t]] = X, K
        if t == n_steps or row.size == 0:
            break
        Z, U = _draw(sources, running, d)
        inner_thr, outer_ok = _step_once(model, controls, X, K, S, config.step, sqh,
                                         Z, U, cost_shift, barrier)
        if barrier is None:
            continue
        hit = _row_norm(X) <= inner_thr
        stop = hit | ~outer_ok
        if not stop.any():
            continue
        done = row[stop]
        # np.compress: a boolean index X[stop] copies the trailing axis row by row
        end_X[done] = np.compress(stop, X, axis=0)
        end_K[done], end_S[done] = K[stop], S[stop]
        status[done] = np.where(hit[stop], 1, 2)
        keep = ~stop
        X, K, S, row = np.compress(keep, X, axis=0), K[keep], S[keep], row[keep]
        controls.compress(keep)
        running = np.diff(np.searchsorted(row, edges)).tolist()
        sources = [split for rng, s, m in sources for split in (
            [(rng, s, m)] if m == 1 or running[s:s + m] == full[s:s + m]
            else [(copy.deepcopy(rng), s + i, 1) for i in range(m)])]
    status[row] = 3
    end_X[row], end_K[row], end_S[row] = X, K, S
    return end_S, end_X, end_K, kept_X, kept_K, status


def _by_group(a, blocks, n_groups):
    """Rows ordered (block, group, path) to one (group, path) row per group."""
    cuts = np.cumsum([n_groups * n for _, n in blocks])[:-1]
    return np.concatenate([v.reshape(n_groups, -1) for v in np.split(a, cuts)], axis=1)


def _horizon_block(model, stack, config, blocks, x0, k0, keep_steps=()):
    """Integrated cost, state and regime per path of whole blocks, a list of
    (block, size), under each policy of ``stack``, rows ordered (block,
    policy, path); plus each path's states and regimes after the steps in
    ``keep_steps`` (0 is the start).  No row stops, so each block draws once
    per step for all the policies."""
    groups = [(i, x0, k0) for i in range(len(stack.descriptions))]
    return _step_set(model, stack, groups, config, blocks,
                     max([config.n_steps, *keep_steps]), keep_steps=keep_steps)[:5]


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
    stack = _PolicyStack(model, [policy_or_control], grid)
    x0, k0 = _coerce_start(model, x0, k0)
    n_entries = config.paths * (config.n_steps + 1) * model.dim
    if n_entries > 5e7:
        raise ValueError(
            "trajectory recording would allocate %d entries; "
            "use the estimators for runs this large" % n_entries
        )
    parts = _map_sets(
        lambda blocks: _horizon_block(model, stack, config, blocks, x0, k0,
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
    bitwise the one its policy's run alone gives.  A policy that fails
    raises an error of the type its run alone raises; where several fail,
    the run raises the first error met, stepping the sets in order, then the
    first non-finite estimate in policy order.
    """
    if config.horizon < 1.0:
        raise ValueError("rate estimation needs horizon >= 1")
    stack = _PolicyStack(model, policies, grid)
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
    n_policies = len(stack.descriptions)

    def set_sums(blocks):
        S, X, K, _, _ = _horizon_block(model, stack, config, blocks, x0, k0)
        if terminal_pair is not None:
            with np.errstate(divide="ignore"):
                S = S + np.log(grid.interpolate(psi, X, K)) - log_psi0
        return _by_group(S, blocks, n_policies)

    sums = np.concatenate(_map_sets(set_sums, workers, config.paths, n_policies), axis=1)
    return [_rate_estimate(S, config, x0, k0, control, lambda_ref, terminal_pair)
            for S, control in zip(sums, stack.descriptions)]


def _rate_estimate(S, config, x0, k0, control, lambda_ref, terminal_pair):
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
               "actual_horizon": T, "control": control,
               "log_mean_exp": log_mean,
               "terminal_weighted": terminal_pair is not None}
    if lambda_ref is not None:
        details["lambda_ref"] = float(lambda_ref)
        details["deviation"] = value - float(lambda_ref)
    return CostEstimate(value=value, std_error=se, paths=config.paths,
                        functional=Functional.RISK_SENSITIVE_RATE, ess=ess,
                        unreliable=bool(flags), flags=tuple(flags),
                        details=details)


def _fk_block(model, stack, config, blocks, starts, lam, grid, psi,
              r_inner, cap_steps):
    """Payoff and status, each (starts, paths of the set), of whole blocks,
    a list of (block, size), of every start: one group per start, stopped at
    the annulus and cut after ``cap_steps`` steps."""
    A, X, K, _, _, status = _step_set(model, stack, [(0, x, k) for x, k in starts],
                                      config, blocks, cap_steps, lam, (r_inner, grid.radius))
    hits = np.flatnonzero(status == 1)
    payoff = np.zeros(len(A))
    payoff[hits] = np.exp(A[hits]) * np.maximum(grid.interpolate(psi, X[hits], K[hits]), 0.0)
    # a NaN state compares false, so it stops as a box exit: a row that stops
    # or is cut with a NaN or infinite state or exponent gets a NaN payoff
    payoff[~(np.isfinite(A) & np.isfinite(X).all(axis=1))] = np.nan
    return tuple(_by_group(a, blocks, len(starts)) for a in (payoff, status))


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


def check_annulus_arguments(model, box_radius, r_inner, start_points, paths):
    """The (state, regime) starts of a Feynman-Kac check, once an inner radius
    in (0, ``box_radius``), at least two paths (for a standard error) and
    every start finite and inside the annulus pass; else ``ValueError``."""
    if not 0 < r_inner < box_radius:
        raise ValueError("inner radius must lie in (0, %g), got %r" % (box_radius, r_inner))
    if paths < 2:
        raise ValueError("the Feynman-Kac check needs at least 2 paths for a standard "
                         "error, got %d" % paths)
    starts = []
    for x, k in start_points:
        x, k = _coerce_start(model, x, k)
        if not (r_inner < np.linalg.norm(x) and np.all(np.abs(x) < box_radius)):
            raise ValueError("start %s is not inside the annulus" % x)
        starts.append((x, k))
    if not starts:
        raise ValueError("need at least one start")
    return starts


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
    The arguments are checked by :func:`check_annulus_arguments` first.
    """
    starts = check_annulus_arguments(model, grid.radius, r_inner, start_points,
                                     config.paths)
    stack = _PolicyStack(model, [policy], grid)
    lam = float(eigenpair.eigenvalue)
    psi = np.asarray(eigenpair.eigenfunction, dtype=float)
    cap = 1000.0 * config.horizon / config.step
    if not cap < math.inf:
        raise ValueError("the Feynman-Kac step cap, 1000 * horizon / step, is not finite "
                         "at horizon %g and step %g" % (config.horizon, config.step))
    cap_steps = int(round(cap))
    parts = _map_sets(
        lambda blocks: _fk_block(model, stack, config, blocks, starts, lam,
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
        se = float(np.std(payoff, ddof=1)) / math.sqrt(config.paths)
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
    NaN or infinite, and ``ValueError`` for a ladder of fewer than two
    horizons, which no slope fits.
    """
    stack = _PolicyStack(model, [policy], grid)
    x0, k0 = _coerce_start(model, x0, k0)
    if horizons is None:
        horizons = [config.horizon / 16.0, config.horizon / 4.0, config.horizon]
    if len(horizons) < 2:
        raise ValueError("the decay fit needs at least two horizons, got %d" % len(horizons))
    snap_steps = []
    for T in horizons:
        s = int(round(float(T) / config.step))
        if s < 1:
            raise ValueError("horizon %g is below one step" % T)
        snap_steps.append(s)
    if any(b <= a for a, b in zip(snap_steps, snap_steps[1:])):
        raise ValueError("horizons must be strictly increasing")
    parts = _map_sets(
        lambda blocks: _horizon_block(model, stack, config, blocks, x0, k0,
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
