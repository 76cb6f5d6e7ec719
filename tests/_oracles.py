"""Independent reference computations for the test suite.

Everything here goes through a different route than the package: dense LAPACK
spectra instead of sparse inverse iteration, closed forms instead of grids,
scalar ODEs instead of sampled paths, direct recursions instead of the vector
simulator, a per-group Euler step instead of the fused step kernel.  Tests compare package output against these, never against the
package itself.
"""

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

import riskswitch as rs
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
# per-group Euler + switching step (reference for the fused step kernel)

def step_once_per_group(model, cmap, X, K, S, step, sqh, Z, U, cost_shift,
                        barrier=None):
    """One Euler + switching step, in place, one (regime, control) group at a time.

    Same contract as ``riskswitch.simulate._step_once``: gathers each group's
    rows, evaluates the model there, steps them and scatters the results back.
    Accumulates ``step * (cost - cost_shift)`` into S at the pre-step state;
    with ``barrier = (r_inner, box_radius)`` also returns the per-path
    barrier-corrected inner radius and the stay-inside-the-box flag.
    """
    n = X.shape[0]
    ci = cmap.control_indices(X, K)
    new_X = np.empty_like(X)
    new_K = np.empty_like(K)
    inner_thr = outer_ok = None
    if barrier is not None:
        r_inner, box_radius = barrier
        inner_thr = np.empty(n)
        outer_ok = np.empty(n, dtype=bool)
    for k in np.unique(K):
        in_regime = K == k
        for c in np.unique(ci[in_regime]):
            g = np.nonzero(in_regime & (ci == c))[0]
            xi = float(model.controls[c])
            xs = X[g]
            b = np.asarray(model.drift(xs, int(k), xi), dtype=float).reshape(g.size, -1)
            sig = np.asarray(model.diffusion(xs, int(k)), dtype=float)
            cost = np.asarray(model.cost(xs, int(k), xi), dtype=float).reshape(-1)
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
# randomized small instances for dense-oracle comparisons

def random_instance(rng, dim=None, num_regimes=None):
    """Random small well-posed model plus a grid with <= 200 unknowns.

    Affine-in-x drifts, constant diagonal diffusions, constant irreducible
    rate matrices, quadratic-plus-constant costs.  Coefficients are kept in
    ranges where step-size and ellipticity hypotheses hold on the sampled
    boxes.  Returns (model, grid).
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

    controls = np.array([1.0]) if rng.random() < 0.5 else np.array([0.75, 1.5])

    def drift(X, k, xi):
        return -xi * pull[k] * X + push[k]

    def diffusion(X, k):
        n = X.shape[0]
        return np.broadcast_to(np.diag(sig[k]), (n, dim, dim)).copy()

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
    radius = float(rng.choice([1.0, 1.5, 2.0]))
    grid = rs.build_grid(dim, radius, npa)
    assert N * grid.num_interior <= 200
    return model, grid
