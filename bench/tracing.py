"""In-memory spans around the riskswitch public functions, for the traced run.

Spans are recorded from the benchmark's side of each layer boundary: a
public function is replaced, in every ``riskswitch`` module namespace that
holds it, by a wrapper that records (name, start, end, parent, run id) and a
few counters taken from its arguments or result.  The SuperLU boundary that
``riskswitch.eigen`` calls (``splu`` and the factor's ``solve``) is wrapped
the same way through the module's ``spla`` name.  Everything is restored on
exit, so untraced iterations in the same process run the original code.

The spans are kept in memory and written out when the benchmark ends.  Only
the calling thread records spans: every wrapped function is called from the
thread that runs the workload (the Monte Carlo worker threads run private
block functions, which are not wrapped).
"""

import contextlib
import dataclasses
import importlib
import sys
import time


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span in Tracer.spans, -1 for a root
    run: int
    attrs: dict


def _rate_attrs(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"path_steps": config.paths * config.n_steps,
            "ess_frac": result.ess / result.paths}


def _fk_attrs(args, kwargs, result):
    starts = args[5] if len(args) > 5 else kwargs["start_points"]
    return {"starts": len(starts), "capped_frac": result.capped_fraction}


# (module, function, span name, counters taken from (args, kwargs, result)).
# grid, expressions and estimator are on no workload's hot path and are not
# wrapped.
TRACED = [
    ("riskswitch.cli", "main", "cli.main", None),
    ("riskswitch.model", "validate_model", "model.validate_model", None),
    ("riskswitch.model", "check_lyapunov", "model.check_lyapunov", None),
    ("riskswitch.operator", "assemble", "operator.assemble",
     lambda a, k, r: {"nnz": r.matrix.nnz}),
    ("riskswitch.eigen", "solve_semilinear", "eigen.solve_semilinear",
     lambda a, k, r: {"policy_iterations": r.policy_iterations}),
    ("riskswitch.eigen", "principal_eigenpair", "eigen.principal_eigenpair", None),
    ("riskswitch.eigen", "minimizing_selector", "eigen.minimizing_selector", None),
    ("riskswitch.verify", "verify_optimality", "verify.verify_optimality", None),
    ("riskswitch.verify", "lambda_equals_optimal_value",
     "verify.lambda_equals_optimal_value", None),
    ("riskswitch.simulate", "estimate_risk_sensitive_rate",
     "simulate.estimate_risk_sensitive_rate", _rate_attrs),
    ("riskswitch.simulate", "feynman_kac_annulus",
     "simulate.feynman_kac_annulus", _fk_attrs),
]


class Tracer:
    """Collects spans; ``patched()`` installs the wrappers for one block."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = Span(name, time.perf_counter(), 0.0, parent, self.run, {})
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, counters=None):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if counters is not None:
                    rec.attrs.update(counters(args, kwargs, result))
            return result
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap every TRACED function and the SuperLU boundary, then restore."""
        saved = []
        targets = [(getattr(importlib.import_module(mod), attr), name, counters)
                   for mod, attr, name, counters in TRACED]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "riskswitch" or n.startswith("riskswitch."))]
        for orig, name, counters in targets:
            wrapper = self.wrap(orig, name, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        saved.append((mod, key, value))
                        setattr(mod, key, wrapper)
        eigen = sys.modules["riskswitch.eigen"]
        saved.append((eigen, "spla", eigen.spla))
        eigen.spla = _SplaProxy(eigen.spla, self)
        try:
            yield self
        finally:
            for mod, key, value in reversed(saved):
                setattr(mod, key, value)

    def self_times(self):
        """Each span's duration minus the time its direct children cover.

        Children of one span run one after another on one thread, so the
        part of the parent's interval they cover is the sum of their
        durations.
        """
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def as_records(self):
        return [dataclasses.asdict(s) for s in self.spans]


class _SplaProxy:
    """Stands in for ``scipy.sparse.linalg`` inside ``riskswitch.eigen``."""

    def __init__(self, spla, tracer):
        self._spla = spla
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._spla, name)

    def splu(self, *args, **kwargs):
        with self._tracer.span("superlu.splu") as rec:
            lu = self._spla.splu(*args, **kwargs)
        # entries SuperLU stores for L and U (supernodal, so a little above
        # L.nnz + U.nnz, which would cost a copy of both factors to count)
        rec.attrs["nnz"] = lu.nnz
        return _FactorProxy(lu, self._tracer)


class _FactorProxy:
    """A SuperLU factor whose ``solve`` calls are recorded as spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def solve(self, *args, **kwargs):
        with self._tracer.span("superlu.solve"):
            return self._lu.solve(*args, **kwargs)
