"""Controlled regime-switching diffusion models and hypothesis checks.

A model couples a controlled diffusion dX = b(X, S, xi) dt + sigma(X, S) dW on
R^dim with a continuous-time regime chain S on {0, ..., num_regimes-1} whose
jump intensities m(x, xi) may depend on the diffusion state and the control.
A nonnegative running cost c(x, k, xi) is accumulated multiplicatively through
an exponential and judged by its long-run exponential growth rate.

All coefficient callables are batch-first: they receive states ``X`` of shape
(n, dim) and return

* ``drift(X, k, xi)   -> (n, dim)``
* ``diffusion(X, k)   -> (n, dim, dim)``
* ``rates(X, xi)      -> (n, N, N)``   rows sum to zero, off-diagonals >= 0
* ``cost(X, k, xi)    -> (n,)``        values >= 0

with ``k`` a regime index and ``xi`` one control value out of the finite
ordered control set (the discretization of the compact control space).  A
callable may return a read-only array (the builtin ``rates`` broadcast one
constant matrix), so callers copy before they write.
"""

import dataclasses
import enum
import math
from typing import Callable, Optional

import numpy as np


RATE_ROW_SUM_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class SwitchingModel:
    """Coefficient bundle for a controlled regime-switching diffusion."""

    name: str
    dim: int
    num_regimes: int
    controls: np.ndarray
    drift: Callable
    diffusion: Callable
    rates: Callable
    cost: Callable
    params: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "controls", np.asarray(self.controls, dtype=float))
        if self.controls.ndim != 1 or self.controls.size == 0:
            raise ValueError("controls must be a non-empty 1-d array of control values")
        if self.dim < 1 or self.num_regimes < 1:
            raise ValueError("dim and num_regimes must be >= 1")

    @property
    def num_controls(self):
        return int(self.controls.size)

    def covariance(self, X, k):
        """a = (1/2) sigma sigma^T, shape (n, dim, dim)."""
        sig = self.diffusion(np.atleast_2d(X), k)
        return 0.5 * np.einsum("nij,nkj->nik", sig, sig)

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
    ``ell(X, k) -> (n,)`` the claimed decay-rate function (a constant function
    in GEOMETRIC mode), ``beta`` the slack allowed on the compact set
    {|x| <= compact_radius} (Euclidean ball).
    """

    lyap: Callable
    ell: Callable
    beta: float
    compact_radius: float
    mode: CertificateMode


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


def _check_rate_matrices(m, where):
    """Reject malformed rate matrices (an error, never a warning)."""
    m = np.asarray(m, dtype=float)
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    n = m.shape[-1]
    offdiag = m.copy()
    idx = np.arange(n)
    offdiag[..., idx, idx] = 0.0
    if np.any(offdiag < -RATE_ROW_SUM_TOL * scale):
        bad = np.argwhere(offdiag < -RATE_ROW_SUM_TOL * scale)[0]
        raise ValueError(
            "rates has a negative off-diagonal entry at %s (%s): %g"
            % (bad.tolist(), where, offdiag[tuple(bad)])
        )
    rowsum = m.sum(axis=-1)
    worst = float(np.max(np.abs(rowsum)))
    if worst > RATE_ROW_SUM_TOL * scale:
        raise ValueError(
            "rates rows must sum to zero: worst |row sum| = %g at %s (tolerance %g)"
            % (worst, where, RATE_ROW_SUM_TOL * scale)
        )
    return m


def _sample_box(rng, dim, radius, count):
    return rng.uniform(-radius, radius, size=(count, dim))


def validate_model(model, box_radius, samples=256, seed=0, ellipticity_floor=1e-10):
    """Sample-based check of the standing hypotheses on a box.

    Checks, at ``samples`` uniform draws in [-R, R]^dim (deterministic given
    ``seed``):

    * local Lipschitz continuity of b, sigma, m (finite difference quotients
      at three perturbation scales stay finite and stable);
    * affine growth of <b, x>^+ + ||sigma||^2 against 1 + |x|^2, with the
      fitted constant compared between an inner box and an outer shell (a
      growing ratio means the affine bound fails; boundedness cannot be
      certified from finitely many samples, so this is a documented
      growth heuristic);
    * uniform nondegeneracy of a = sigma sigma^T / 2 (minimum eigenvalue above
      ``ellipticity_floor``);
    * irreducibility of the control-uniform rate floor: the directed graph
      with an edge (i, j) wherever min_xi m_ij > 0 at some sample must be
      strongly connected.

    Malformed rate matrices (row sums off zero, negative off-diagonals) raise
    ``ValueError`` instead of being reported.
    """
    rng = np.random.default_rng(seed)
    R = float(box_radius)
    d = model.dim
    half = samples // 2
    X_in = _sample_box(rng, d, R / 2.0, half)
    X_out = _sample_box(rng, d, R, samples - half)
    # push the second batch into the outer shell
    norms = np.max(np.abs(X_out), axis=1, keepdims=True)
    X_out = np.where(norms < R / 2.0, X_out * (R / np.maximum(norms, 1e-12)) * 0.75, X_out)
    X = np.vstack([X_in, X_out])

    for xi in model.controls:
        _check_rate_matrices(model.rates(X, xi), "control %g" % xi)

    report = ValidationReport(model.name, R, samples, seed)

    # --- local Lipschitz quotients -----------------------------------------
    worst_q = 0.0
    witness = None
    finite = True
    for scale in (1e-3 * R, 1e-2 * R, 1e-1 * R):
        H = rng.standard_normal(X.shape)
        H /= np.linalg.norm(H, axis=1, keepdims=True)
        Y = X + scale * H
        for k in range(model.num_regimes):
            dsig = model.diffusion(X, k) - model.diffusion(Y, k)
            q = np.sqrt(np.einsum("nij,nij->n", dsig, dsig)) / scale
            for xi in model.controls:
                db = np.linalg.norm(model.drift(X, k, xi) - model.drift(Y, k, xi), axis=1)
                q = np.maximum(q, db / scale)
            if not np.all(np.isfinite(q)):
                finite = False
            j = int(np.argmax(q))
            if q[j] > worst_q:
                worst_q, witness = float(q[j]), X[j]
        for xi in model.controls:
            dm = np.max(np.abs(model.rates(X, xi) - model.rates(Y, xi)), axis=(1, 2)) / scale
            j = int(np.argmax(dm))
            if dm[j] > worst_q:
                worst_q, witness = float(dm[j]), X[j]
            if not np.all(np.isfinite(dm)):
                finite = False
    report.results["local_lipschitz"] = HypothesisResult(
        "local_lipschitz", finite and math.isfinite(worst_q), worst_q, witness,
        "max difference quotient over three perturbation scales",
    )

    # --- affine growth ------------------------------------------------------
    def growth_stat(pts):
        stat = np.zeros(pts.shape[0])
        for k in range(model.num_regimes):
            sig = model.diffusion(pts, k)
            s2 = np.einsum("nij,nij->n", sig, sig)
            for xi in model.controls:
                b = model.drift(pts, k, xi)
                inner = np.maximum(np.einsum("nd,nd->n", b, pts), 0.0)
                stat = np.maximum(stat, (inner + s2) / (1.0 + np.einsum("nd,nd->n", pts, pts)))
        return stat

    g_in = growth_stat(X_in)
    g_out = growth_stat(X_out)
    c0 = float(max(g_in.max(), g_out.max()))
    grows = g_out.max() > 1.5 * max(g_in.max(), 1e-12)
    report.results["affine_growth"] = HypothesisResult(
        "affine_growth", (not grows) and math.isfinite(c0), c0,
        X_out[int(np.argmax(g_out))] if grows else None,
        "fitted affine-growth constant; fails when the outer shell exceeds 1.5x the inner box",
    )

    # --- nondegeneracy -------------------------------------------------------
    min_eig = np.inf
    wit = None
    for k in range(model.num_regimes):
        a = model.covariance(X, k)
        eigs = np.linalg.eigvalsh(a)
        j = int(np.argmin(eigs[:, 0]))
        if eigs[j, 0] < min_eig:
            min_eig, wit = float(eigs[j, 0]), X[j]
    report.results["nondegeneracy"] = HypothesisResult(
        "nondegeneracy", min_eig > ellipticity_floor, min_eig, wit,
        "minimum eigenvalue of a over samples and regimes",
    )

    # --- switching irreducibility -------------------------------------------
    N = model.num_regimes
    if N == 1:
        report.results["switching_irreducible"] = HypothesisResult(
            "switching_irreducible", True, 1.0, None, "single regime is trivially irreducible"
        )
    else:
        floor = None
        for xi in model.controls:
            m = model.rates(X, xi)
            floor = m if floor is None else np.minimum(floor, m)
        edge = (floor.max(axis=0) > 0)
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
    status: str                    # "pass" | "fail" | "inconclusive"
    margin_min: float
    argmin_state: Optional[np.ndarray]
    argmin_regime: int
    argmin_control: float
    truncation_at_argmin: float
    side_condition_ok: bool
    side_condition_detail: str
    mode: str

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
            "truncation_at_argmin": float(self.truncation_at_argmin),
            "side_condition_ok": bool(self.side_condition_ok),
            "side_condition_detail": self.side_condition_detail,
            "mode": self.mode,
        }


def _full_grid_values(grid, fn, k):
    """fn evaluated on the full grid of a GridSpec, shape full_shape."""
    if grid.dim == 1:
        pts = grid.axis_full[:, None]
    else:
        mesh = np.meshgrid(*([grid.axis_full] * grid.dim), indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
    return np.asarray(fn(pts, k), dtype=float).reshape(grid.full_shape)


def _interior(arr, dim):
    sl = tuple([slice(1, -1)] * dim)
    return arr[sl]


def _shift(arr, axis, step):
    """Slice of the full-grid array displaced by ``step`` nodes, on the interior."""
    dim = arr.ndim
    sl = []
    for a in range(dim):
        if a == axis:
            sl.append(slice(1 + step, arr.shape[a] - 1 + step))
        else:
            sl.append(slice(1, -1))
    return arr[tuple(sl)]


def _shift2(arr, step0, step1):
    return arr[1 + step0: arr.shape[0] - 1 + step0, 1 + step1: arr.shape[1] - 1 + step1]


def check_lyapunov(model, certificate, grid):
    """Verify a Lyapunov drift inequality on the grid interior.

    At every interior node x, regime k, and control value xi the checker
    evaluates, with central second differences of the candidate V,

        (L V)_k(x, xi) = sum_ij a_ij d2_ij V_k + b . grad V_k
                         + sum_j m_kj(x, xi) V_j(x)

    and requires  (L V)_k <= beta * 1{|x| <= compact_radius} - ell_k(x) V_k(x)
    pointwise.  The verdict is

    * ``fail`` when the margin (right minus left side) is negative somewhere
      or the mode's side condition fails;
    * ``inconclusive`` when margins are nonnegative but the second-difference
      truncation estimate at the tightest node exceeds the margin there
      (the grid is too coarse to trust the sign);
    * ``pass`` otherwise.

    Side conditions: INF_COMPACT requires ell - sup_xi c to grow radially
    outward on the grid (an inf-compactness proxy); GEOMETRIC requires
    min ell > max cost on the grid.  Margins are monotone in beta by
    construction.
    """
    if grid.dim > 2:
        raise NotImplementedError("certificate checking is implemented for dim <= 2")
    h = grid.spacing
    d = grid.dim
    N = model.num_regimes

    V_full = [_full_grid_values(grid, certificate.lyap, k) for k in range(N)]
    for k, Vk in enumerate(V_full):
        if np.any(Vk < 1.0 - 1e-9):
            raise ValueError("certificate function must be >= 1 everywhere (regime %d)" % k)

    Xint = grid.interior_points()
    n_int = grid.num_interior
    ball = (np.linalg.norm(Xint, axis=1) <= certificate.compact_radius).astype(float)

    # central differences of each V_k on the interior
    grads = []     # (N, n_int, d)
    hess_diag = [] # (N, n_int, d)
    hess_off = []  # (N, n_int) for d == 2
    trunc = []     # (N, n_int) curvature-based truncation estimate
    for k in range(N):
        Vk = V_full[k]
        g = np.empty((n_int, d))
        hd = np.empty((n_int, d))
        for a in range(d):
            g[:, a] = ((_shift(Vk, a, 1) - _shift(Vk, a, -1)) / (2 * h)).reshape(-1)
            hd[:, a] = ((_shift(Vk, a, 1) - 2 * _interior(Vk, d) + _shift(Vk, a, -1)) / h**2).reshape(-1)
        grads.append(g)
        hess_diag.append(hd)
        if d == 2:
            ho = (_shift2(Vk, 1, 1) - _shift2(Vk, 1, -1) - _shift2(Vk, -1, 1) + _shift2(Vk, -1, -1)) / (4 * h**2)
            hess_off.append(ho.reshape(-1))
        # fourth/third difference magnitudes as a truncation proxy; one-ring
        # nodes fall back to the neighbor maximum
        tr = np.zeros(grid.full_shape)
        for a in range(d):
            core = [slice(2, -2) if aa == a else slice(None) for aa in range(d)]
            up2 = [slice(4, None) if aa == a else slice(None) for aa in range(d)]
            up1 = [slice(3, -1) if aa == a else slice(None) for aa in range(d)]
            mid = [slice(2, -2) if aa == a else slice(None) for aa in range(d)]
            dn1 = [slice(1, -3) if aa == a else slice(None) for aa in range(d)]
            dn2 = [slice(None, -4) if aa == a else slice(None) for aa in range(d)]
            d4 = np.abs(
                Vk[tuple(up2)] - 4 * Vk[tuple(up1)] + 6 * Vk[tuple(mid)]
                - 4 * Vk[tuple(dn1)] + Vk[tuple(dn2)]
            ) / h**4
            d3 = np.abs(
                Vk[tuple(up2)] - 2 * Vk[tuple(up1)] + 2 * Vk[tuple(dn1)] - Vk[tuple(dn2)]
            ) / (2 * h**3)
            contrib = np.zeros(grid.full_shape)
            contrib[tuple(core)] = (h**2 / 12.0) * d4 + (h**2 / 6.0) * d3
            tr = np.maximum(tr, contrib)
        # propagate the estimate one node outward so one-ring nodes get a value
        for a in range(d):
            tr = np.maximum(tr, np.roll(tr, 1, axis=a))
            tr = np.maximum(tr, np.roll(tr, -1, axis=a))
        trunc.append(_interior(tr, d).reshape(-1))

    margin_min = np.inf
    arg = (None, 0, float(model.controls[0]))
    trunc_scale = 0.0
    for k in range(N):
        Vk_int = _interior(V_full[k], d).reshape(-1)
        ell_vals = np.asarray(certificate.ell(Xint, k), dtype=float)
        a_mat = model.covariance(Xint, k)
        lap = np.einsum("nd,nd->n", a_mat[:, range(d), range(d)].reshape(n_int, d), hess_diag[k])
        if d == 2:
            lap = lap + 2.0 * a_mat[:, 0, 1] * hess_off[k]
        trunc_k = trunc[k] * (1.0 + np.max(np.abs(a_mat), axis=(1, 2)))
        for xi in model.controls:
            b = model.drift(Xint, k, xi)
            m = model.rates(Xint, xi)
            coupling = np.zeros(n_int)
            for j in range(N):
                Vj_int = _interior(V_full[j], d).reshape(-1)
                coupling += m[:, k, j] * Vj_int
            LV = lap + np.einsum("nd,nd->n", b, grads[k]) + coupling
            rhs = certificate.beta * ball - ell_vals * Vk_int
            margin = rhs - LV
            j_min = int(np.argmin(margin))
            if margin[j_min] < margin_min:
                margin_min = float(margin[j_min])
                arg = (Xint[j_min].copy(), k, float(xi))
                trunc_scale = float(trunc_k[j_min])

    # side conditions
    if certificate.mode is CertificateMode.GEOMETRIC:
        cmax = 0.0
        for k in range(N):
            for xi in model.controls:
                cmax = max(cmax, float(np.max(model.cost(Xint, k, xi))))
        ell_min = min(
            float(np.min(np.asarray(certificate.ell(Xint, k), dtype=float)))
            for k in range(N)
        )
        side_ok = ell_min > cmax
        side_detail = "min rate %.6g vs max cost %.6g on the grid" % (ell_min, cmax)
    else:
        # inf-compactness proxy: the excess ell - sup_xi c must grow along
        # radial shells of the box
        r = np.max(np.abs(Xint), axis=1)
        edges = np.quantile(r, [0.0, 0.5, 0.8, 1.0])
        excess = np.full(n_int, np.inf)
        for k in range(N):
            csup = np.zeros(n_int)
            for xi in model.controls:
                csup = np.maximum(csup, model.cost(Xint, k, xi))
            excess = np.minimum(excess, np.asarray(certificate.ell(Xint, k), dtype=float) - csup)
        shell_mins = []
        for i in range(len(edges) - 1):
            msk = (r >= edges[i]) & (r <= edges[i + 1] + 1e-12)
            shell_mins.append(float(np.min(excess[msk])) if msk.any() else -np.inf)
        side_ok = all(shell_mins[i + 1] >= shell_mins[i] for i in range(len(shell_mins) - 1)) \
            and shell_mins[-1] > shell_mins[0]
        side_detail = "shell minima of (rate - sup cost): %s" % (
            ", ".join("%.4g" % s for s in shell_mins)
        )

    if margin_min < 0.0 or not side_ok:
        status = "fail"
    elif margin_min < trunc_scale:
        status = "inconclusive"
    else:
        status = "pass"
    return CertificateReport(
        status=status,
        margin_min=margin_min,
        argmin_state=arg[0],
        argmin_regime=arg[1],
        argmin_control=arg[2],
        truncation_at_argmin=trunc_scale,
        side_condition_ok=side_ok,
        side_condition_detail=side_detail,
        mode=certificate.mode.value,
    )


# --------------------------------------------------------------------------
# Built-in models
# --------------------------------------------------------------------------


def lq_model(q=0.1875, controls=(1.0, 2.0)):
    """1D linear drift -xi*x, sigma = sqrt(2), quadratic cost q*x^2.

    Closed-form optimum over constant controls: the growth rate under control
    xi is (xi - sqrt(xi^2 - 4q)) / 2, decreasing in xi, so the strongest
    mean reversion is optimal.
    """
    q = float(q)
    if q < 0:
        raise ValueError("q must be >= 0")

    def drift(X, k, xi):
        return -xi * X

    def diffusion(X, k):
        n = X.shape[0]
        return np.full((n, 1, 1), math.sqrt(2.0))

    def rates(X, xi):
        return np.zeros((X.shape[0], 1, 1))

    def cost(X, k, xi):
        return q * X[:, 0] ** 2

    return SwitchingModel(
        name="lq", dim=1, num_regimes=1, controls=np.asarray(controls, float),
        drift=drift, diffusion=diffusion, rates=rates, cost=cost,
        params={"q": q, "controls": list(np.asarray(controls, float))},
    )


def two_regime_ou_model(kappa=(1.0, 2.0), q=(0.05, 0.10), rho=1.0,
                        controls=(1.0, 2.0)):
    """1D two-regime mean-reverting model with constant symmetric switching.

    Regime k has drift -kappa[k]*xi*x, sigma = sqrt(2), cost q[k]*x^2; the
    regimes swap at constant rate rho in both directions.
    """
    kappa = np.asarray(kappa, float)
    q = np.asarray(q, float)
    rho = float(rho)
    if kappa.size != 2 or q.size != 2:
        raise ValueError("kappa and q must each have two entries")
    if rho <= 0:
        raise ValueError("rho must be positive")
    rate_matrix = np.array([[-rho, rho], [rho, -rho]])

    def drift(X, k, xi):
        return -kappa[k] * xi * X

    def diffusion(X, k):
        return np.full((X.shape[0], 1, 1), math.sqrt(2.0))

    def rates(X, xi):
        return np.broadcast_to(rate_matrix, (X.shape[0], 2, 2))

    def cost(X, k, xi):
        return q[k] * X[:, 0] ** 2

    return SwitchingModel(
        name="ou2", dim=1, num_regimes=2, controls=np.asarray(controls, float),
        drift=drift, diffusion=diffusion, rates=rates, cost=cost,
        params={"kappa": kappa.tolist(), "q": q.tolist(), "rho": rho,
                "controls": list(np.asarray(controls, float))},
    )


def bounded_two_regime_2d_model(pull=3.0, cost_scale=0.12, rho=1.0,
                                controls=(0.7, 1.0)):
    """2D two-regime model with globally bounded coefficients.

    Drift -pull*xi*x/sqrt(1+|x|^2) saturates (inward, magnitude <= pull*xi),
    sigma = sqrt(2) I, constant symmetric switching at rate rho, bounded cost
    cost_scale*|x|^2/(1+|x|^2).  Admits the exponential certificate
    V = exp(theta*sqrt(1+|x|^2)) with a constant decay rate.
    """
    pull = float(pull)
    cost_scale = float(cost_scale)
    rho = float(rho)
    rate_matrix = np.array([[-rho, rho], [rho, -rho]])

    def drift(X, k, xi):
        r2 = np.einsum("nd,nd->n", X, X)
        return -pull * xi * X / np.sqrt(1.0 + r2)[:, None]

    def diffusion(X, k):
        n = X.shape[0]
        out = np.zeros((n, 2, 2))
        out[:, 0, 0] = math.sqrt(2.0)
        out[:, 1, 1] = math.sqrt(2.0)
        return out

    def rates(X, xi):
        return np.broadcast_to(rate_matrix, (X.shape[0], 2, 2))

    def cost(X, k, xi):
        r2 = np.einsum("nd,nd->n", X, X)
        return cost_scale * r2 / (1.0 + r2)

    return SwitchingModel(
        name="bounded2d", dim=2, num_regimes=2, controls=np.asarray(controls, float),
        drift=drift, diffusion=diffusion, rates=rates, cost=cost,
        params={"pull": pull, "cost_scale": cost_scale, "rho": rho,
                "controls": list(np.asarray(controls, float))},
    )


def dipped_cost_model(pull=2.0, tail=1.0, dip=(0.95, 0.80), width=2.0, rho=0.5,
                      controls=(1.0, 2.0)):
    """1D two-regime bounded model whose cost dips only near the origin.

    Drift -pull*tanh(xi*x) is bounded with vanishing outward component, the
    cost rises from tail-dip[k] at the origin to the plateau ``tail`` in the
    tails (so cheap states form a compact set), and regimes swap at constant
    rate rho.  Tuned so the optimal growth rate sits well below ``tail``.
    """
    pull = float(pull)
    tail = float(tail)
    dip = np.asarray(dip, float)
    width = float(width)
    rho = float(rho)
    if np.any(dip <= 0) or np.any(dip > tail):
        raise ValueError("dip depths must lie in (0, tail]")
    rate_matrix = np.array([[-rho, rho], [rho, -rho]])

    def drift(X, k, xi):
        return -pull * np.tanh(xi * X)

    def diffusion(X, k):
        return np.full((X.shape[0], 1, 1), math.sqrt(2.0))

    def rates(X, xi):
        return np.broadcast_to(rate_matrix, (X.shape[0], 2, 2))

    def cost(X, k, xi):
        return tail - dip[k] * np.exp(-X[:, 0] ** 2 / width)

    return SwitchingModel(
        name="dip", dim=1, num_regimes=2, controls=np.asarray(controls, float),
        drift=drift, diffusion=diffusion, rates=rates, cost=cost,
        params={"pull": pull, "tail": tail, "dip": dip.tolist(), "width": width,
                "rho": rho, "controls": list(np.asarray(controls, float))},
    )


BUILTIN_MODELS = {
    "lq": lq_model,
    "ou2": two_regime_ou_model,
    "bounded2d": bounded_two_regime_2d_model,
    "dip": dipped_cost_model,
}


def make_builtin(name, **params):
    """Instantiate a built-in model by name with optional parameter overrides."""
    try:
        factory = BUILTIN_MODELS[name]
    except KeyError:
        raise ValueError(
            "unknown builtin model %r (available: %s)" % (name, ", ".join(sorted(BUILTIN_MODELS)))
        ) from None
    return factory(**params)


def builtin_certificate(model):
    """Shipped Lyapunov certificate for a built-in model, or None.

    * lq:  V = exp(x^2/4), rate x^2/4 - 1, beta = 2 on {|x| <= 2}
      (inf-compact mode; the excess over the quadratic cost is x^2/16 - 1
      for the default q = 3/16).
    * ou2: V = exp(x^2/8), rate x^2/8, beta = 0.5 on {|x| <= 2}.
    * bounded2d: V = exp(theta*sqrt(1+|x|^2)) with theta = 1/2, constant rate
      0.15 dominating the bounded cost, beta = 2.5 on {|x| <= 2}
      (geometric mode).
    """
    name = model.name.split("-")[0]
    if name == "lq":
        def lyap(X, k):
            return np.exp(X[:, 0] ** 2 / 4.0)

        def ell(X, k):
            return X[:, 0] ** 2 / 4.0 - 1.0

        return LyapunovCertificate(lyap, ell, beta=2.0, compact_radius=2.0,
                                   mode=CertificateMode.INF_COMPACT)
    if name == "ou2":
        def lyap(X, k):
            return np.exp(X[:, 0] ** 2 / 8.0)

        def ell(X, k):
            return X[:, 0] ** 2 / 8.0

        return LyapunovCertificate(lyap, ell, beta=0.5, compact_radius=2.0,
                                   mode=CertificateMode.INF_COMPACT)
    if name == "bounded2d":
        theta = 0.5

        def lyap(X, k):
            return np.exp(theta * np.sqrt(1.0 + np.einsum("nd,nd->n", X, X)))

        def ell(X, k):
            return np.full(X.shape[0], 0.15)

        return LyapunovCertificate(lyap, ell, beta=2.5, compact_radius=2.0,
                                   mode=CertificateMode.GEOMETRIC)
    return None
