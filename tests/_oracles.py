"""Independent reference computations for the test suite.

Everything here goes through a different route than the package: dense LAPACK
spectra instead of sparse inverse iteration, closed forms instead of grids,
scalar ODEs instead of sampled paths, direct recursions instead of the vector
simulator, a per-group Euler step instead of the fused step kernel, one
block of paths at a time instead of working sets, a drift/cost/switching
bracket evaluated from the model instead of rows of the assembled operator,
scipy's RegularGridInterpolator instead of the grid's multilinear lookup,
hand-written numpy closures instead of the builtin specs' generated code.
Tests compare package output against these, never against the package
itself.  The exception is the structural checks at the end, which re-run the
package's eigensolver from random starts and on perturbed costs and compare
the runs with each other.
"""

import dataclasses
import math

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp
from scipy.interpolate import RegularGridInterpolator

import riskswitch as rs
import riskswitch.simulate as simulate
from riskswitch.eigen import LAMBDA_TOL, verification_tol
from riskswitch.simulate import (BGK_BETA, MAX_LEAVE_PROBABILITY,
                                 StepSizeError)


# ---------------------------------------------------------------------------
# dense spectra

def rightmost_dense(A):
    """Rightmost eigenpair of a dense matrix via the full LAPACK spectrum.

    Returns (eigenvalue, eigenvector) with the eigenvector scaled to a
    positive max entry.  Raises if the rightmost eigenvalue is not real
    (it must be, for an irreducible Metzler matrix).
    """
    A = np.asarray(A, dtype=float)
    vals, vecs = scipy.linalg.eig(A)
    i = int(np.argmax(vals.real))
    lam = vals[i]
    if abs(lam.imag) > 1e-9 * max(1.0, abs(lam.real)):
        raise AssertionError("rightmost eigenvalue has imaginary part %g" % lam.imag)
    v = vecs[:, i].real
    v = v / v[np.argmax(np.abs(v))]
    return float(lam.real), v


def verification_eig_tol(op):
    """The residual tolerance of a verification solve on ``op``'s grid:
    :func:`verification_tol` of the constant lowest-index policy's operator,
    gathered from the stack of ``op``, an operator of any policy."""
    return verification_tol(op.with_policy(np.zeros_like(op.policy)))


# ---------------------------------------------------------------------------
# scalar mean-reverting closed forms
#
# For dX = -xi X dt + sqrt(2) dW with running cost q x^2 (4q < xi^2), the
# whole-line growth rate is gamma = (xi - sqrt(xi^2 - 4q)) / 2 and the
# positive profile is exp(gamma x^2 / 2): plugging psi = e^{g x^2/2} into
# psi'' - xi x psi' + q x^2 psi = lam psi forces g^2 - xi g + q = 0 and
# lam = g, where the root with 2g < xi keeps exp-moments finite.

def quadratic_cost_rate(xi, q):
    disc = xi * xi - 4.0 * q
    if disc <= 0:
        raise ValueError("need xi^2 > 4q for a finite rate")
    return (xi - np.sqrt(disc)) / 2.0


def quadratic_cost_profile(x, xi, q):
    g = quadratic_cost_rate(xi, q)
    return np.exp(0.5 * g * np.asarray(x) ** 2)


def finite_horizon_rate_ode(xi, q, horizon, x0=0.0):
    """(1/T) log E[exp(q int_0^T X^2)] for the scalar model, via the Riccati ODE.

    With u(t,x) = exp(a(t) + b(t) x^2) solving u_t = u_xx - xi x u_x + q x^2 u,
    matching powers of x gives b' = 4b^2 - 2 xi b + q and a' = 2b from
    (a,b)(0) = 0.  Integrated with a stiff-safe tolerance; independent of the
    path simulator.
    """
    def rhs(t, y):
        a, b = y
        return [2.0 * b, 4.0 * b * b - 2.0 * xi * b + q]

    sol = solve_ivp(rhs, (0.0, horizon), [0.0, 0.0], rtol=1e-11, atol=1e-13,
                    dense_output=False, method="RK45")
    if not sol.success:
        raise RuntimeError(sol.message)
    a, b = sol.y[0, -1], sol.y[1, -1]
    return (a + b * x0 * x0) / horizon


# ---------------------------------------------------------------------------
# two-state chain recursions (exact for the per-step categorical switcher)

def switch_count_moments(step, n_steps, rate):
    """Mean/std of the switch count for symmetric two-state rates of size `rate`.

    Each step switches independently with probability p = step * rate, so the
    count is Binomial(n_steps, p).
    """
    p = step * rate
    mean = n_steps * p
    return mean, np.sqrt(n_steps * p * (1.0 - p))


def occupation_average(step, n_steps, r01, r10, start=0):
    """Time-average probability of sitting in state 0, start-state transient included.

    Iterates the exact one-step update p <- p (1 - step r01) + (1 - p) step r10
    and averages over the n_steps + 1 recorded snapshots, mirroring how the
    trajectory recorder counts regimes.
    """
    p = 1.0 if start == 0 else 0.0
    acc = p
    for _ in range(n_steps):
        p = p * (1.0 - step * r01) + (1.0 - p) * step * r10
        acc += p
    return acc / (n_steps + 1)


def bm_hit_probability(x, r_inner, r_outer):
    """P(driftless scalar diffusion from x hits r_inner before r_outer)."""
    return (r_outer - x) / (r_outer - r_inner)


# ---------------------------------------------------------------------------
# row-wise coefficient arguments

def at_rows(X, *values):
    """Each of ``values`` (a regime index or a control value) repeated at
    every row of X: one (regime, control) in the row-wise coefficient
    contract."""
    return [np.full(len(X), v) for v in values]


# ---------------------------------------------------------------------------
# per-group Euler + switching step (reference for the fused step kernel)

def step_once_per_group(model, controls, X, K, S, step, sqh, Z, U, cost_shift,
                        barrier=None, cache=None):
    """One Euler + switching step, in place, one (regime, control) group at a time.

    Same contract as ``riskswitch.simulate._step_once``: gathers each group's
    rows, evaluates the model there, steps them and scatters the results back.
    Accumulates ``step * (cost - cost_shift)`` into S at the pre-step state;
    with ``barrier = (r_inner, box_radius, norm)`` also returns the per-path
    barrier-corrected inner radius and the stay-inside-the-box flag.  It
    works every coefficient out afresh at every step: the carried ``norm`` is
    not read (|X| is taken again here) and ``cache`` is not used.
    """
    n = X.shape[0]
    ci = controls.control_indices(X, K)
    new_X = np.empty_like(X)
    new_K = np.empty_like(K)
    inner_thr = outer_ok = None
    if barrier is not None:
        r_inner, box_radius, _ = barrier
        inner_thr = np.empty(n)
        outer_ok = np.empty(n, dtype=bool)
    for k in np.unique(K):
        in_regime = K == k
        for c in np.unique(ci[in_regime]):
            g = np.nonzero(in_regime & (ci == c))[0]
            xs = X[g]
            ks, xi = at_rows(xs, int(k), float(model.controls[c]))
            b = np.asarray(model.drift(xs, ks, xi), dtype=float).reshape(g.size, -1)
            sig = np.asarray(model.diffusion(xs, ks), dtype=float)
            cost = np.asarray(model.cost(xs, ks, xi), dtype=float).reshape(-1)
            m = np.asarray(model.rates(xs, xi), dtype=float)
            leave = -m[:, k, k]
            worst = int(np.argmax(leave))
            if step * leave[worst] > MAX_LEAVE_PROBABILITY + 1e-12:
                raise StepSizeError(step, float(leave[worst]), xs[worst], int(k))
            S[g] += step * (cost - cost_shift)
            xn = xs + step * b + sqh * np.einsum("pij,pj->pi", sig, Z[g])
            new_X[g] = xn
            if barrier is not None:
                rad = np.linalg.norm(xs, axis=1, keepdims=True)
                rdir = xs / rad
                s_rad = np.linalg.norm(np.einsum("pi,pij->pj", rdir, sig), axis=1)
                inner_thr[g] = r_inner + BGK_BETA * sqh * s_rad
                s_row = np.linalg.norm(sig, axis=2)
                outer_ok[g] = np.all(
                    np.abs(xn) < box_radius - BGK_BETA * sqh * s_row, axis=1
                )
            prob = step * m[:, k, :]
            prob[:, k] = 0.0
            prob[:, k] = 1.0 - prob.sum(axis=1)
            cum = np.cumsum(prob, axis=1)
            nk = (U[g, None] > cum).sum(axis=1)
            new_K[g] = np.minimum(nk, model.num_regimes - 1)
    X[:] = new_X
    K[:] = new_K
    return inner_thr, outer_ok


# ---------------------------------------------------------------------------
# one-block Monte Carlo steppers (reference for the working-set steppers)
#
# Each steps one block of paths on the block's own generator, under one
# policy of ``stack``, a ``simulate._PolicyStack``.  The ``*_per_block``
# wrappers take a working set, a list of (block, size), run its blocks one at
# a time and lay the results out as the package's set steppers do, so a test
# can put them in their place.

def horizon_block(model, stack, config, block, n_paths, x0, k0, keep_steps, policy):
    """Integrated cost, state and regime per path, plus the states and
    regimes after the steps in ``keep_steps``, of one block of paths under
    policy ``policy`` of ``stack``."""
    rng = simulate._block_generator(config.seed, block)
    d = model.dim
    X = np.repeat(x0[None, :], n_paths, axis=0)
    K = np.full(n_paths, k0, dtype=np.int64)
    S = np.zeros(n_paths)
    controls = stack.at_rows(np.full(n_paths, policy))
    sqh = math.sqrt(config.step)
    history = [(X.copy(), K.copy())]
    for _ in range(max([config.n_steps, *keep_steps])):
        Z = rng.standard_normal((n_paths, d))
        U = rng.random(n_paths)
        simulate._step_once(model, controls, X, K, S, config.step, sqh, Z, U, 0.0)
        history.append((X.copy(), K.copy()))
    keep = list(keep_steps)
    return (S, X, K, np.stack([x for x, _ in history], axis=1)[:, keep],
            np.stack([k for _, k in history], axis=1)[:, keep])


def fk_block(model, stack, config, block, n_paths, starts, lam, grid, psi,
             r_inner, cap_steps):
    """Payoff and status, each (starts, paths), of one block of every start,
    stepping each start's running paths on its own."""
    d = model.dim
    payoff = np.zeros((len(starts), n_paths))
    status = np.zeros((len(starts), n_paths), dtype=np.int8)
    sqh = math.sqrt(config.step)
    for i, (x, k) in enumerate(starts):
        rng = simulate._block_generator(config.seed, block)
        X = np.repeat(x[None, :], n_paths, axis=0)
        K = np.full(n_paths, k, dtype=np.int64)
        A = np.zeros(n_paths)
        row = np.arange(n_paths)
        controls = stack.at_rows(np.zeros(n_paths, dtype=np.int64))
        for _ in range(cap_steps):
            if row.size == 0:
                break
            Z = rng.standard_normal((row.size, d))
            U = rng.random(row.size)
            inner_thr, outer_ok = simulate._step_once(
                model, controls, X, K, A, config.step, sqh, Z, U, lam,
                barrier=(r_inner, grid.radius, np.linalg.norm(X, axis=1)))
            hit = np.linalg.norm(X, axis=1) <= inner_thr
            stop = hit | ~outer_ok
            payoff[i, row[hit]] = np.exp(A[hit]) * np.maximum(
                rgi_interpolate(grid, psi, X[hit], K[hit]), 0.0)
            status[i, row[stop]] = np.where(hit[stop], 1, 2)
            X, K, A, row = X[~stop], K[~stop], A[~stop], row[~stop]
            controls.compress(~stop)
        status[i, row] = 3
    return payoff, status


def horizon_per_block(model, stack, config, blocks, x0, k0, keep_steps=()):
    """Each block of each policy stepped alone, in (block, policy, path) order."""
    parts = [horizon_block(model, stack, config, b, n, x0, k0, keep_steps, i)
             for b, n in blocks for i in range(len(stack.descriptions))]
    return tuple(np.concatenate(p) for p in zip(*parts))


def fk_per_block(model, stack, config, blocks, *args):
    parts = [fk_block(model, stack, config, b, n, *args) for b, n in blocks]
    return tuple(np.concatenate(p, axis=1) for p in zip(*parts))


# ---------------------------------------------------------------------------
# node-table lookup

def rgi_interpolate(grid, table, X, K):
    """Multilinear table values at (X_i, K_i): one scipy
    RegularGridInterpolator per regime over the zero-padded node table,
    filling 0 outside the box."""
    vals = np.zeros(X.shape[0])
    for k in range(len(table)):
        full = np.zeros(grid.full_shape)
        full[(slice(1, -1),) * grid.dim] = table[k].reshape(grid.interior_shape)
        interp = RegularGridInterpolator([grid.axis_full] * grid.dim, full,
                                         bounds_error=False, fill_value=0.0)
        sel = K == k
        if sel.any():
            vals[sel] = interp(X[sel])
    return vals


# ---------------------------------------------------------------------------
# minimizing-selector bracket straight from the model

def _upwind_gradient_terms(psi_k, grid, b):
    """Upwinded b . grad(psi_k) with zero extension past the boundary."""
    shape = grid.interior_shape
    h = grid.spacing
    P = psi_k.reshape(shape)
    out = np.zeros(grid.num_interior)
    for a in range(grid.dim):
        fwd = np.zeros(shape)
        bwd = np.zeros(shape)
        src_hi = [slice(1, None) if aa == a else slice(None) for aa in range(grid.dim)]
        dst_hi = [slice(None, -1) if aa == a else slice(None) for aa in range(grid.dim)]
        fwd[tuple(dst_hi)] = P[tuple(src_hi)]
        bwd[tuple(src_hi)] = P[tuple(dst_hi)]
        dplus = (fwd - P).reshape(-1) / h
        dminus = (P - bwd).reshape(-1) / h
        bp = np.maximum(b[:, a], 0.0)
        bm = np.maximum(-b[:, a], 0.0)
        out += bp * dplus - bm * dminus
    return out


def bracket_scores(model, grid, psi):
    """Control-dependent part of (A_c psi) per control, node and regime.

    For each control c, regime k and node the score is

        b . grad(psi_k)  (upwinded by the sign of control c's drift)
        + cost * psi_k + sum_j rates_kj * psi_j

    evaluated from the model's coefficients.  The diffusion part does not
    depend on the control and is left out.  Shape (num_controls,
    num_regimes, num_interior).
    """
    psi = np.asarray(psi, dtype=float)
    N = model.num_regimes
    X = grid.interior_points()
    scores = np.empty((model.num_controls, N, grid.num_interior))
    for ci in range(model.num_controls):
        (xi,) = at_rows(X, float(model.controls[ci]))
        m = np.asarray(model.rates(X, xi), dtype=float)
        for k in range(N):
            (ks,) = at_rows(X, k)
            b = np.atleast_2d(model.drift(X, ks, xi))
            c = np.asarray(model.cost(X, ks, xi), dtype=float)
            val = _upwind_gradient_terms(psi[k], grid, b) + c * psi[k]
            for j in range(N):
                val += m[:, k, j] * psi[j]
            scores[ci, k] = val
    return scores


# ---------------------------------------------------------------------------
# randomized small instances for dense-oracle comparisons

def random_instance(rng, dim=None, num_regimes=None, num_controls=None,
                    nodes_per_axis=None):
    """Random small well-posed model plus a grid with <= 200 unknowns.

    Affine-in-x drifts, constant diagonal diffusions, constant irreducible
    rate matrices, quadratic-plus-constant costs.  Coefficients are kept in
    ranges where step-size and ellipticity hypotheses hold on the sampled
    boxes.  A given control count (1 or 2) or node count replaces the drawn
    one; the generator is drawn from the same way.  Returns (model, grid).
    """
    if dim is None:
        dim = int(rng.integers(1, 3))
    if num_regimes is None:
        num_regimes = int(rng.integers(1, 4))
    N = num_regimes

    pull = rng.uniform(0.4, 1.6, size=(N, dim))
    push = rng.uniform(-0.3, 0.3, size=(N, dim))
    sig = rng.uniform(0.8, 1.6, size=(N, dim))
    qq = rng.uniform(0.02, 0.2, size=N)
    base = rng.uniform(0.0, 0.5, size=N)

    M = np.zeros((N, N))
    if N > 1:
        M = rng.uniform(0.1, 0.6, size=(N, N))
        np.fill_diagonal(M, 0.0)
        np.fill_diagonal(M, -M.sum(axis=1))

    two = rng.random() >= 0.5
    two = two if num_controls is None else num_controls == 2
    controls = np.array([0.75, 1.5]) if two else np.array([1.0])

    def drift(X, k, xi):
        return -xi[:, None] * pull[k] * X + push[k]

    def diffusion(X, k):
        out = np.zeros((X.shape[0], dim, dim))
        out[:, range(dim), range(dim)] = sig[k]
        return out

    def rates(X, xi):
        n = X.shape[0]
        return np.broadcast_to(M, (n, N, N)).copy()

    def cost(X, k, xi):
        return qq[k] * np.sum(X * X, axis=1) + base[k]

    model = rs.SwitchingModel(
        name="rand", dim=dim, num_regimes=N, controls=controls,
        drift=drift, diffusion=diffusion, rates=rates, cost=cost,
    )
    if dim == 1:
        npa = int(rng.choice([9, 15, 21]))
    else:
        npa = int(rng.choice([7, 9]))
    npa = npa if nodes_per_axis is None else nodes_per_axis
    radius = float(rng.choice([1.0, 1.5, 2.0]))
    grid = rs.GridSpec(dim, radius, npa)
    assert N * grid.num_interior <= 200
    return model, grid


# ---------------------------------------------------------------------------
# the builtin models and certificates as hand-written closures (the factories
# the specs in riskswitch.model.BUILTIN_MODELS replaced)

def lq_model(q=0.1875, controls=(1.0, 2.0)):
    q = float(q)

    def drift(X, k, xi):
        return -xi[:, None] * X

    def diffusion(X, k):
        return np.full((X.shape[0], 1, 1), math.sqrt(2.0))

    def rates(X, xi):
        return np.zeros((X.shape[0], 1, 1))

    def cost(X, k, xi):
        return q * X[:, 0] ** 2

    return rs.SwitchingModel(
        name="lq", dim=1, num_regimes=1, controls=np.asarray(controls, float),
        drift=drift, diffusion=diffusion, rates=rates, cost=cost,
        params={"q": q, "controls": list(np.asarray(controls, float))})


def two_regime_ou_model(kappa=(1.0, 2.0), q=(0.05, 0.10), rho=1.0, controls=(1.0, 2.0)):
    kappa = np.asarray(kappa, float)
    q = np.asarray(q, float)
    rho = float(rho)
    rate_matrix = np.array([[-rho, rho], [rho, -rho]])

    def drift(X, k, xi):
        return (-kappa[k] * xi)[:, None] * X

    def diffusion(X, k):
        return np.full((X.shape[0], 1, 1), math.sqrt(2.0))

    def rates(X, xi):
        return np.broadcast_to(rate_matrix, (X.shape[0], 2, 2))

    def cost(X, k, xi):
        return q[k] * X[:, 0] ** 2

    return rs.SwitchingModel(
        name="ou2", dim=1, num_regimes=2, controls=np.asarray(controls, float),
        drift=drift, diffusion=diffusion, rates=rates, cost=cost,
        params={"kappa": kappa.tolist(), "q": q.tolist(), "rho": rho,
                "controls": list(np.asarray(controls, float))})


def bounded_two_regime_2d_model(pull=3.0, cost_scale=0.12, rho=1.0, controls=(0.7, 1.0)):
    pull = float(pull)
    cost_scale = float(cost_scale)
    rho = float(rho)
    rate_matrix = np.array([[-rho, rho], [rho, -rho]])

    def drift(X, k, xi):
        r2 = np.einsum("nd,nd->n", X, X)
        return (-pull * xi)[:, None] * X / np.sqrt(1.0 + r2)[:, None]

    def diffusion(X, k):
        out = np.zeros((X.shape[0], 2, 2))
        out[:, 0, 0] = math.sqrt(2.0)
        out[:, 1, 1] = math.sqrt(2.0)
        return out

    def rates(X, xi):
        return np.broadcast_to(rate_matrix, (X.shape[0], 2, 2))

    def cost(X, k, xi):
        r2 = np.einsum("nd,nd->n", X, X)
        return cost_scale * r2 / (1.0 + r2)

    return rs.SwitchingModel(
        name="bounded2d", dim=2, num_regimes=2, controls=np.asarray(controls, float),
        drift=drift, diffusion=diffusion, rates=rates, cost=cost,
        params={"pull": pull, "cost_scale": cost_scale, "rho": rho,
                "controls": list(np.asarray(controls, float))})


def dipped_cost_model(pull=2.0, tail=1.0, dip=(0.95, 0.80), width=2.0, rho=0.5,
                      controls=(1.0, 2.0)):
    pull = float(pull)
    tail = float(tail)
    dip = np.asarray(dip, float)
    width = float(width)
    rho = float(rho)
    rate_matrix = np.array([[-rho, rho], [rho, -rho]])

    def drift(X, k, xi):
        return -pull * np.tanh(xi[:, None] * X)

    def diffusion(X, k):
        return np.full((X.shape[0], 1, 1), math.sqrt(2.0))

    def rates(X, xi):
        return np.broadcast_to(rate_matrix, (X.shape[0], 2, 2))

    def cost(X, k, xi):
        return tail - dip[k] * np.exp(-X[:, 0] ** 2 / width)

    return rs.SwitchingModel(
        name="dip", dim=1, num_regimes=2, controls=np.asarray(controls, float),
        drift=drift, diffusion=diffusion, rates=rates, cost=cost,
        params={"pull": pull, "tail": tail, "dip": dip.tolist(), "width": width,
                "rho": rho, "controls": list(np.asarray(controls, float))})


BUILTIN_CLOSURES = {"lq": lq_model, "ou2": two_regime_ou_model,
                    "bounded2d": bounded_two_regime_2d_model, "dip": dipped_cost_model}


def builtin_certificate(name):
    """(lyap, ell, beta, compact_radius, mode) of a builtin's certificate, or None."""
    if name == "lq":
        return (lambda X, k: np.exp(X[:, 0] ** 2 / 4.0),
                lambda X, k: X[:, 0] ** 2 / 4.0 - 1.0, 2.0, 2.0, "inf_compact")
    if name == "ou2":
        return (lambda X, k: np.exp(X[:, 0] ** 2 / 8.0),
                lambda X, k: X[:, 0] ** 2 / 8.0, 0.5, 2.0, "inf_compact")
    if name == "bounded2d":
        return (lambda X, k: np.exp(0.5 * np.sqrt(1.0 + np.einsum("nd,nd->n", X, X))),
                lambda X, k: np.full(X.shape[0], 0.15), 2.5, 2.0, "geometric")
    return None


# ---------------------------------------------------------------------------
# structural checks of the eigensolver: re-solves from random starts and
# under cost perturbations, compared with each other

PSI_TOL = 1e-8  # eigenfunctions that should agree, in relative sup norm


@dataclasses.dataclass
class UniquenessReport:
    passed: bool
    eigenvalue_spread: float
    eigenfunction_spread: float
    trials: int
    error: str = ""


def uniqueness_check(model, grid, trials=3, seed=0, policy=None):
    """Re-run the eigensolver from random positive starts and compare.

    The normalized eigenpair must agree across trials (eigenvalue within
    ``LAMBDA_TOL``, eigenfunction within ``PSI_TOL`` relative sup norm).
    Irreducibility failures are surfaced in the report instead of raised.
    """
    if trials < 2:
        raise ValueError("need at least two trials")
    if policy is None:
        policy = rs.solve_semilinear(model, grid).policy
    op = rs.assemble(model, grid, policy)
    rng = np.random.default_rng(seed)
    pairs = []
    try:
        for _ in range(trials):
            x0 = rng.random(op.shape[0]) + 0.1
            pairs.append(rs.principal_eigenpair(op, x0=x0))
    except rs.NotIrreducibleError as exc:
        return UniquenessReport(False, np.inf, np.inf, trials, error=str(exc))
    lams = np.array([p.eigenvalue for p in pairs])
    lam_spread = float(lams.max() - lams.min())
    base = pairs[0].eigenfunction
    scale = float(np.max(np.abs(base)))
    psi_spread = max(
        float(np.max(np.abs(p.eigenfunction - base))) / scale for p in pairs[1:]
    )
    return UniquenessReport(
        passed=(lam_spread <= LAMBDA_TOL and psi_spread <= PSI_TOL),
        eigenvalue_spread=lam_spread, eigenfunction_spread=psi_spread, trials=trials,
    )


@dataclasses.dataclass
class PotentialMonotonicityReport:
    passed: bool
    eigenvalue_base: float
    eigenvalue_bumped: float
    margin: float
    constant_shift_error: float


def potential_monotonicity_check(model, grid, bump_center, bump_height,
                                 bump_radius=1.0):
    """Strict growth of the eigenvalue under a localized cost increase.

    Solves the control problem with the original cost, with the cost plus
    ``bump_height`` on the ball around ``bump_center``, and with the cost plus
    the same constant everywhere.  The local bump must raise the eigenvalue by
    a strictly positive margin (and by at most the bump height); the global
    constant must shift it by exactly that constant (within ``LAMBDA_TOL``).
    """
    if bump_height <= 0:
        raise ValueError("bump_height must be positive")
    center = np.broadcast_to(np.asarray(bump_center, dtype=float), (model.dim,))
    base_cost = model.cost

    def bumped(X, k, xi, _c=base_cost):
        X = np.atleast_2d(X)
        inside = np.linalg.norm(X - center[None, :], axis=1) <= bump_radius
        return _c(X, k, xi) + bump_height * inside

    def shifted(X, k, xi, _c=base_cost):
        return _c(np.atleast_2d(X), k, xi) + bump_height

    lam0 = rs.solve_semilinear(model, grid).eigenpair.eigenvalue
    lam1 = rs.solve_semilinear(model.with_cost(bumped, "bumped"), grid).eigenpair.eigenvalue
    lam2 = rs.solve_semilinear(model.with_cost(shifted, "shifted"), grid).eigenpair.eigenvalue
    margin = lam1 - lam0
    shift_err = abs(lam2 - lam0 - bump_height)
    return PotentialMonotonicityReport(
        passed=(margin > 0 and margin <= bump_height + LAMBDA_TOL
                and shift_err <= LAMBDA_TOL),
        eigenvalue_base=lam0, eigenvalue_bumped=lam1, margin=margin,
        constant_shift_error=shift_err,
    )
