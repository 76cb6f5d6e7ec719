"""Controlled regime-switching diffusion models and hypothesis checks.

A model couples a controlled diffusion dX = b(X, S, xi) dt + sigma(X, S) dW on
R^dim with a continuous-time regime chain S on {0, ..., num_regimes-1} whose
jump intensities m(x, xi) may depend on the diffusion state and the control.
A nonnegative running cost c(x, k, xi) is accumulated multiplicatively through
an exponential and judged by its long-run exponential growth rate.

All coefficient callables are row-wise: they receive states ``X`` (n, dim),
regimes ``k`` (n,) and control values ``xi`` (n,), and return

* ``drift(X, k, xi)   -> (n, dim)``
* ``diffusion(X, k)   -> (n, dim, dim)``
* ``rates(X, xi)      -> (n, N, N)``   rows sum to zero, off-diagonals >= 0
* ``cost(X, k, xi)    -> (n,)``        values >= 0

with row i at state X[i], regime k[i] and control xi[i], a value out of the
finite ordered control set (the discretization of the compact control
space).  A callable may return a read-only array (the builtins' diffusion and
``rates`` are broadcast views of constant matrices), so callers copy before
they write.

The coefficient contract (finite values, generator rate matrices, a
nonnegative cost) is enforced in :func:`coefficients`, which the
discretization and every hypothesis check read; only the Monte Carlo step
kernel calls the callables itself, once per step over all its rows, and
checks the off-diagonal rates it draws regimes from, never the diagonal.

The builtin models are data: specs in the grammar of
:mod:`riskswitch.expressions` (:data:`BUILTIN_MODELS`), compiled by the same
compiler as a JSON model file, which also differentiates the candidate of a
spec's Lyapunov certificate, so :func:`check_lyapunov` needs no grid stencil.
"""

import dataclasses
import enum
import math
from typing import Callable, Optional

import numpy as np


RATE_ROW_SUM_TOL = 1e-12
ELLIPTICITY_FLOOR = 1e-10  # validate_model's nondegeneracy bound on min eig(a)


@dataclasses.dataclass(frozen=True)
class SwitchingModel:
    """Coefficient bundle for a controlled regime-switching diffusion; its
    callables are row-wise (see the module docstring)."""

    name: str
    dim: int
    num_regimes: int
    controls: np.ndarray
    drift: Callable
    diffusion: Callable
    rates: Callable
    cost: Callable
    params: dict = dataclasses.field(default_factory=dict)
    # compiled from the spec's certificate; dataclasses.replace (and with_cost) resets it
    certificate: Optional["LyapunovCertificate"] = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "controls", np.asarray(self.controls, dtype=float))
        if self.controls.ndim != 1 or self.controls.size == 0:
            raise ValueError("controls must be a non-empty 1-d array of control values")
        if self.dim < 1 or self.num_regimes < 1:
            raise ValueError("dim and num_regimes must be >= 1")

    @property
    def num_controls(self):
        return int(self.controls.size)

    def with_cost(self, cost_fn, suffix="modified"):
        """Copy of the model with a replaced cost callable."""
        return dataclasses.replace(self, cost=cost_fn, name="%s-%s" % (self.name, suffix))


class CertificateMode(enum.Enum):
    """Which drift condition a Lyapunov certificate claims."""

    INF_COMPACT = "inf_compact"   # rate function with inf-compact excess over the cost
    GEOMETRIC = "geometric"       # constant rate dominating a bounded cost


@dataclasses.dataclass(frozen=True)
class LyapunovCertificate:
    """Candidate stability certificate.

    ``lyap(X, k) -> (n,)`` is the candidate function (>= 1 everywhere),
    ``grad(X, k) -> (n, dim)`` and ``hess(X, k) -> (n, dim, dim)`` its
    gradient and Hessian, ``ell(X, k) -> (n,)`` the claimed decay-rate
    function, all row-wise in the regimes ``k`` (n,) like the model's
    coefficients (``ell`` a constant function in GEOMETRIC mode), ``beta``
    the slack allowed on the compact set {|x| <= compact_radius} (Euclidean
    ball).
    """

    lyap: Callable
    ell: Callable
    beta: float
    compact_radius: float
    mode: CertificateMode
    grad: Callable
    hess: Callable


@dataclasses.dataclass
class HypothesisResult:
    name: str
    passed: bool
    statistic: float
    witness: Optional[np.ndarray] = None
    detail: str = ""


@dataclasses.dataclass
class ValidationReport:
    model_name: str
    box_radius: float
    samples: int
    seed: int
    results: dict = dataclasses.field(default_factory=dict)

    @property
    def passed(self):
        return all(r.passed for r in self.results.values())

    def as_dict(self):
        return {
            "model": self.model_name,
            "box_radius": self.box_radius,
            "samples": self.samples,
            "seed": self.seed,
            "passed": bool(self.passed),
            "hypotheses": {
                k: {
                    "passed": bool(r.passed),
                    "statistic": float(r.statistic),
                    "witness": None if r.witness is None else np.asarray(r.witness).tolist(),
                    "detail": r.detail,
                }
                for k, r in self.results.items()
            },
        }


class NonFiniteCoefficientError(RuntimeError):
    """A model coefficient is NaN or infinite at a sampled state."""

    def __init__(self, coefficient, state, regime, control, value):
        self.coefficient = coefficient
        self.state = np.asarray(state)
        self.regime = int(regime)
        self.control = control  # None for the control-free diffusion
        self.value = float(value)
        super().__init__(
            "%s is not finite at x=%s (regime %d, control %s): %r"
            % (coefficient, np.array2string(self.state, precision=6), self.regime,
               "any" if control is None else "%g" % control, self.value)
        )

    def __reduce__(self):  # rebuilt whole when raised in a worker process
        return type(self), (self.coefficient, self.state, self.regime, self.control,
                            self.value)


@dataclasses.dataclass(frozen=True)
class Coefficients:
    """Every coefficient of a model at n states, stacked over regimes and controls.

    ``drift`` (N, C, n, dim), ``diffusion`` and ``covariance``
    a = sigma sigma^T / 2 (N, n, dim, dim), ``rates`` (C, n, N, N) and
    ``cost`` (N, C, n), for N regimes and C controls in model order.
    """

    drift: np.ndarray
    diffusion: np.ndarray
    covariance: np.ndarray
    rates: np.ndarray
    cost: np.ndarray


def coefficients(model, X):
    """Sample every coefficient of ``model`` at the states ``X`` (n, dim).

    Calls each callable once per regime and control, at every row, and
    enforces the coefficient contract, in this order: ``X`` has ``model.dim``
    columns (else ``ValueError``, naming both widths), every value is finite
    (else :class:`NonFiniteCoefficientError`, naming the coefficient, state,
    regime and control of an offending entry), every rate matrix is a
    generator and the cost is nonnegative (else ``ValueError``).
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if d != model.dim:
        raise ValueError("states of width %d do not fit model %r of dim %d"
                         % (d, model.name, model.dim))
    N, C = model.num_regimes, model.num_controls
    controls = [float(xi) for xi in model.controls]
    ks, xis = [np.full(n, k) for k in range(N)], [np.full(n, xi) for xi in controls]
    drift = np.array([[model.drift(X, k, xi) for xi in xis] for k in ks],
                     dtype=float).reshape(N, C, n, d)
    diffusion = np.array([model.diffusion(X, k) for k in ks],
                         dtype=float).reshape(N, n, d, d)
    rates = np.array([model.rates(X, xi) for xi in xis], dtype=float).reshape(C, n, N, N)
    cost = np.array([[model.cost(X, k, xi) for xi in xis] for k in ks],
                    dtype=float).reshape(N, C, n)
    # axes of (regime, control, state) in each array; a rate's regime is its row
    for name, values, axes in (("drift", drift, (0, 1, 2)),
                               ("diffusion", diffusion, (0, None, 1)),
                               ("rates", rates, (2, 0, 1)),
                               ("cost", cost, (0, 1, 2))):
        bad = ~np.isfinite(values)
        if bad.any():
            first = tuple(np.argwhere(bad)[0])
            k, c, j = (None if a is None else first[a] for a in axes)
            raise NonFiniteCoefficientError(
                name, X[j], k, None if c is None else controls[c], values[first])
    for xi, m in zip(controls, rates):
        _check_rate_matrices(m, "control %g" % xi)
    if np.any(cost < -1e-12):
        raise ValueError("cost must be nonnegative; min %g" % cost.min())
    covariance = np.stack([0.5 * np.einsum("nij,nkj->nik", sig, sig) for sig in diffusion])
    return Coefficients(drift, diffusion, covariance, rates, cost)


def _check_rate_matrices(m, where):
    """Reject malformed rate matrices (an error, never a warning)."""
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    n = m.shape[-1]
    offdiag = m.copy()
    idx = np.arange(n)
    offdiag[..., idx, idx] = 0.0
    _refuse_negative_rates(offdiag, scale, lambda bad: "%s (%s)" % (bad, where))
    rowsum = m.sum(axis=-1)
    worst = float(np.max(np.abs(rowsum)))
    if worst > RATE_ROW_SUM_TOL * scale:
        raise ValueError(
            "rates rows must sum to zero: worst |row sum| = %g at %s (tolerance %g)"
            % (worst, where, RATE_ROW_SUM_TOL * scale)
        )


def _refuse_negative_rates(offdiag, scale, where):
    """Reject an off-diagonal rate (``offdiag``: diagonal zeroed) below
    -RATE_ROW_SUM_TOL * ``scale``; ``where(index)`` names the first one."""
    bad = np.argwhere(offdiag < -RATE_ROW_SUM_TOL * scale)
    if len(bad):
        raise ValueError("rates has a negative off-diagonal entry at %s: %g"
                         % (where(bad[0].tolist()), offdiag[tuple(bad[0])]))


def _refuse_few_samples(samples):
    if samples < 2:  # the sampling checks split them in halves
        raise ValueError("samples must be >= 2, got %r" % (samples,))


def validate_model(model, box_radius, samples=256, seed=0):
    """Sample-based check of the standing hypotheses on a box.

    Checks, at ``samples`` uniform draws in [-R, R]^dim (deterministic given
    ``seed``):

    * affine growth of <b, x>^+ + ||sigma||^2 against 1 + |x|^2, with the
      fitted constant compared between an inner box and an outer shell (a
      growing ratio means the affine bound fails; boundedness cannot be
      certified from finitely many samples, so this is a documented
      growth heuristic);
    * uniform nondegeneracy of a = sigma sigma^T / 2 (minimum eigenvalue above
      ``ELLIPTICITY_FLOOR``);
    * irreducibility of the control-uniform rate floor: the directed graph
      with an edge (i, j) wherever min_xi m_ij > 0 at some sample must be
      strongly connected.

    Local Lipschitz continuity is not checked: finitely many difference
    quotients cannot tell a jump or a cusp from a steep slope.  The samples
    go through :func:`coefficients`, so a model that breaks the
    coefficient contract (a non-finite value, a malformed rate matrix, a
    negative cost) raises instead of being reported.
    """
    R = float(box_radius)
    if not 0 < R < math.inf:
        raise ValueError("box_radius must be positive and finite, got %r" % (box_radius,))
    _refuse_few_samples(samples)
    rng = np.random.default_rng(seed)
    d = model.dim
    half = samples // 2
    X_in = rng.uniform(-R / 2.0, R / 2.0, size=(half, d))
    X_out = rng.uniform(-R, R, size=(samples - half, d))
    # push the second batch into the outer shell
    norms = np.max(np.abs(X_out), axis=1, keepdims=True)
    X_out = np.where(norms < R / 2.0, X_out * (R / np.maximum(norms, 1e-12)) * 0.75, X_out)
    X = np.vstack([X_in, X_out])
    co = coefficients(model, X)

    report = ValidationReport(model.name, R, samples, seed)

    # --- affine growth ------------------------------------------------------
    s2 = np.einsum("knij,knij->kn", co.diffusion, co.diffusion)
    inner = np.maximum(np.einsum("kcnd,nd->kcn", co.drift, X), 0.0)
    ratio = (inner + s2[:, None]) / (1.0 + np.einsum("nd,nd->n", X, X))
    growth = np.maximum(ratio.max(axis=(0, 1)), 0.0)
    g_in, g_out = growth[:half], growth[half:]
    c0 = float(max(g_in.max(), g_out.max()))
    grows = g_out.max() > 1.5 * max(g_in.max(), 1e-12)
    report.results["affine_growth"] = HypothesisResult(
        "affine_growth", (not grows) and math.isfinite(c0), c0,
        X_out[int(np.argmax(g_out))] if grows else None,
        "fitted affine-growth constant; fails when the outer shell exceeds 1.5x the inner box",
    )

    # --- nondegeneracy -------------------------------------------------------
    eigs = np.linalg.eigvalsh(co.covariance)[..., 0]
    k, j = np.unravel_index(np.argmin(eigs), eigs.shape)
    min_eig = float(eigs[k, j])
    report.results["nondegeneracy"] = HypothesisResult(
        "nondegeneracy", min_eig > ELLIPTICITY_FLOOR, min_eig, X[j],
        "minimum eigenvalue of a over samples and regimes",
    )

    # --- switching irreducibility -------------------------------------------
    N = model.num_regimes
    if N == 1:
        report.results["switching_irreducible"] = HypothesisResult(
            "switching_irreducible", True, 1.0, None, "single regime is trivially irreducible"
        )
    else:
        edge = co.rates.min(axis=0).max(axis=0) > 0
        np.fill_diagonal(edge, False)
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        ncomp, _ = connected_components(
            csr_matrix(edge.astype(np.int8)), directed=True, connection="strong"
        )
        report.results["switching_irreducible"] = HypothesisResult(
            "switching_irreducible", ncomp == 1, float(ncomp), None,
            "strong connectivity of the control-uniform positive-rate graph "
            "(checked at sample points only)",
        )
    return report


# --------------------------------------------------------------------------
# Lyapunov certificate checking
# --------------------------------------------------------------------------


@dataclasses.dataclass
class CertificateReport:
    status: str                    # "pass" | "fail"
    margin_min: float
    argmin_state: Optional[np.ndarray]
    argmin_regime: int
    argmin_control: float
    side_condition_ok: bool
    side_condition_detail: str
    mode: str
    margins: np.ndarray = dataclasses.field(repr=False)

    @property
    def passed(self):
        return self.status == "pass"

    def as_dict(self):
        return {
            "status": self.status,
            "margin_min": float(self.margin_min),
            "argmin_state": None if self.argmin_state is None else np.asarray(self.argmin_state).tolist(),
            "argmin_regime": int(self.argmin_regime),
            "argmin_control": float(self.argmin_control),
            "side_condition_ok": bool(self.side_condition_ok),
            "side_condition_detail": self.side_condition_detail,
            "mode": self.mode,
        }


def check_lyapunov(model, certificate, grid):
    """Verify a Lyapunov drift inequality at the grid's interior nodes.

    At every interior node x, regime k and control value xi the checker
    evaluates, with the exact gradient and Hessian of the candidate V that
    the compiler differentiated from its expression,

        (L V)_k(x, xi) = sum_ij a_ij d_ij V_k + b . grad V_k
                         + sum_j m_kj(x, xi) V_j(x)

    and requires  (L V)_k <= beta * 1{|x| <= compact_radius} - ell_k(x) V_k(x)
    pointwise.  The status is ``fail`` when that margin (right minus left
    side) is negative somewhere or when the mode's side condition fails, and
    ``pass`` otherwise; a margin that is not finite (L V, V or ell not
    finite at a node) counts as -inf.  ``margins`` holds every margin, shape
    (regime, control, interior node).  V < 1 at a node of the full grid,
    the boundary layer included, is refused with ``ValueError``, and so is a
    grid whose dimension is not ``model.dim``, before V is evaluated.

    Side conditions: INF_COMPACT requires ell - sup_xi c to grow radially
    outward on the grid (an inf-compactness proxy); GEOMETRIC requires
    min ell > max cost on the grid.  Margins are monotone in beta by
    construction.
    """
    d, N = grid.dim, model.num_regimes
    Xint = grid.interior_points()
    co = coefficients(model, Xint)  # refuses a grid of the wrong dimension
    full = np.stack(np.meshgrid(*[grid.axis_full] * d, indexing="ij"), axis=-1).reshape(-1, d)
    V = np.array([certificate.lyap(full, np.full(len(full), k)) for k in range(N)], dtype=float)
    for k, Vk in enumerate(V):
        if np.any(Vk < 1.0 - 1e-9):
            raise ValueError("certificate function must be >= 1 everywhere (regime %d)" % k)
    V = V.reshape((N,) + grid.full_shape)[(slice(None),) + (slice(1, -1),) * d].reshape(N, -1)

    ks = [np.full(grid.num_interior, k) for k in range(N)]
    grad = np.array([certificate.grad(Xint, k) for k in ks], dtype=float)
    hess = np.array([certificate.hess(Xint, k) for k in ks], dtype=float)
    ell = np.array([certificate.ell(Xint, k) for k in ks], dtype=float)
    # (L V)_k(x, xi) and its margin, shape (regime, control, node)
    LV = (np.einsum("knij,knij->kn", co.covariance, hess)[:, None]
          + np.einsum("kcnd,knd->kcn", co.drift, grad)
          + np.einsum("cnkj,jn->kcn", co.rates, V))
    ball = (np.linalg.norm(Xint, axis=1) <= certificate.compact_radius).astype(float)
    rhs = certificate.beta * ball - ell * V
    margin = rhs[:, None] - LV
    margin[~np.isfinite(margin)] = -np.inf
    k_min, c_min, j_min = np.unravel_index(np.argmin(margin), margin.shape)
    margin_min = float(margin[k_min, c_min, j_min])

    # side conditions
    if certificate.mode is CertificateMode.GEOMETRIC:
        cmax = max(0.0, float(co.cost.max()))
        ell_min = float(ell.min())
        side_ok = ell_min > cmax
        side_detail = "min rate %.6g vs max cost %.6g on the grid" % (ell_min, cmax)
    else:
        # inf-compactness proxy: the excess ell - sup_xi c must grow along
        # radial shells of the box
        r = np.max(np.abs(Xint), axis=1)
        edges = np.quantile(r, [0.0, 0.5, 0.8, 1.0])
        excess = (ell - np.maximum(co.cost.max(axis=1), 0.0)).min(axis=0)
        shell_mins = []
        for i in range(len(edges) - 1):
            msk = (r >= edges[i]) & (r <= edges[i + 1] + 1e-12)
            shell_mins.append(float(np.min(excess[msk])) if msk.any() else -np.inf)
        side_ok = all(shell_mins[i + 1] >= shell_mins[i] for i in range(len(shell_mins) - 1)) \
            and shell_mins[-1] > shell_mins[0]
        side_detail = "shell minima of (rate - sup cost): %s" % (
            ", ".join("%.4g" % s for s in shell_mins)
        )

    return CertificateReport(
        status="pass" if margin_min >= 0.0 and side_ok else "fail",
        margin_min=margin_min,
        argmin_state=Xint[j_min].copy(),
        argmin_regime=int(k_min),
        argmin_control=float(model.controls[c_min]),
        side_condition_ok=side_ok,
        side_condition_detail=side_detail,
        mode=certificate.mode.value,
        margins=margin,
    )


# --------------------------------------------------------------------------
# Built-in models
# --------------------------------------------------------------------------

# Each builtin is a spec in the grammar of :mod:`riskswitch.expressions`; its
# ``params`` are the defaults that ``make_builtin`` and ``--param`` override,
# its ``certificate`` the shipped Lyapunov certificate: candidate ``lyap``
# (>= 1), decay rate ``ell``, slack ``beta`` on {|x| <= compact_radius}.
BUILTIN_MODELS = {
    # the growth rate under a constant control is (xi - sqrt(xi^2 - 4q)) / 2,
    # decreasing in xi; V = exp(x^2/4) exceeds the cost by x^2/16 - 1 at q = 3/16
    "lq": {
        "name": "lq", "dim": 1, "num_regimes": 1, "controls": [1.0, 2.0],
        "params": {"q": 0.1875},
        "drift": ["-xi * x1"], "diffusion": [["sqrt(2)"]], "rates": [["0"]],
        "cost": "q * x1^2",
        "certificate": {"lyap": "exp(x1^2 / 4)", "ell": "x1^2 / 4 - 1",
                        "beta": 2.0, "compact_radius": 2.0, "mode": "inf_compact"},
    },
    "ou2": {
        "name": "ou2", "dim": 1, "num_regimes": 2, "controls": [1.0, 2.0],
        "params": {"kappa": [1.0, 2.0], "q": [0.05, 0.10], "rho": 1.0},
        "drift": ["-kappa * xi * x1"], "diffusion": [["sqrt(2)"]],
        "rates": [["-rho", "rho"], ["rho", "-rho"]], "cost": "q * x1^2",
        "certificate": {"lyap": "exp(x1^2 / 8)", "ell": "x1^2 / 8",
                        "beta": 0.5, "compact_radius": 2.0, "mode": "inf_compact"},
    },
    # every coefficient globally bounded; a constant certificate rate
    # dominates the bounded cost (geometric mode)
    "bounded2d": {
        "name": "bounded2d", "dim": 2, "num_regimes": 2, "controls": [0.7, 1.0],
        "params": {"pull": 3.0, "cost_scale": 0.12, "rho": 1.0},
        "drift": ["-pull * xi * x1 / sqrt(1 + (x1^2 + x2^2))",
                  "-pull * xi * x2 / sqrt(1 + (x1^2 + x2^2))"],
        "diffusion": [["sqrt(2)", "0"], ["0", "sqrt(2)"]],
        "rates": [["-rho", "rho"], ["rho", "-rho"]],
        "cost": "cost_scale * (x1^2 + x2^2) / (1 + (x1^2 + x2^2))",
        "certificate": {"lyap": "exp(0.5 * sqrt(1 + (x1^2 + x2^2)))", "ell": "0.15",
                        "beta": 2.5, "compact_radius": 2.0, "mode": "geometric"},
    },
    # the cost rises from tail - dip[k] at the origin to the plateau ``tail``,
    # so cheap states form a compact set and the optimal rate sits below ``tail``
    "dip": {
        "name": "dip", "dim": 1, "num_regimes": 2, "controls": [1.0, 2.0],
        "params": {"pull": 2.0, "tail": 1.0, "dip": [0.95, 0.80], "width": 2.0, "rho": 0.5},
        "drift": ["-pull * tanh(xi * x1)"], "diffusion": [["sqrt(2)"]],
        "rates": [["-rho", "rho"], ["rho", "-rho"]], "cost": "tail - dip * exp(-x1^2 / width)",
    },
}


def make_builtin(name, **params):
    """Compile a builtin's spec with ``params`` overriding its named
    parameters (a number by a number, a per-regime list by a list) and its
    ``controls``; an unknown parameter name is a ``TypeError``."""
    from .expressions import compile_model  # the compiler imports this module

    try:
        spec = BUILTIN_MODELS[name]
    except KeyError:
        raise ValueError(
            "unknown builtin model %r (available: %s)" % (name, ", ".join(sorted(BUILTIN_MODELS)))
        ) from None
    defaults = {**spec["params"], "controls": spec["controls"]}
    for key, value in params.items():
        if key not in defaults:
            raise TypeError("builtin %r has no parameter %r (parameters: %s)"
                            % (name, key, ", ".join(sorted(defaults))))
        if key != "controls" and np.ndim(value) != np.ndim(defaults[key]):
            raise ValueError("parameter %s of builtin %r takes %s" % (key, name, "a list of %d "
                             "numbers, one per regime" % spec["num_regimes"]
                             if np.ndim(defaults[key]) else "a number"))
    p = {**defaults, **params}
    model = compile_model({**spec, "controls": p.pop("controls"), "params": p}, builtin=True)
    p = model.params
    if name == "lq" and p["q"] < 0:
        raise ValueError("q must be >= 0")
    if name == "ou2" and p["rho"] <= 0:
        raise ValueError("rho must be positive")
    if name == "dip" and any(d <= 0 or d > p["tail"] for d in p["dip"]):
        raise ValueError("dip depths must lie in (0, tail]")
    return model

