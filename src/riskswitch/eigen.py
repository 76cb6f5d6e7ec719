"""Principal eigenpairs, Bellman policy iteration, and domain sweeps.

On a fixed box the discrete operator is an irreducible Metzler matrix, so its
rightmost eigenvalue is real and simple with a strictly positive eigenvector
(the discrete counterpart of a positive principal eigenfunction on the box;
the inf-over-supersolutions value equals the Perron value by Collatz-
Wielandt).  It is computed by inverse power iteration on the M-matrix
``s I - A`` with the fixed shift ``s = 1 + max_i (A_ii + sum_{j != i} A_ij)``,
which keeps every iterate strictly positive; the LU factorization is reused
across iterations and the eigenvalue is read off as a Rayleigh quotient.
The sparsity pattern is structurally symmetric (diffusion fills both axis
neighbours, the switching blocks couple node to node), so the LU uses a
minimum-degree ordering on A + A^T, which about halves SuperLU's fill on 2D
grids against its default COLAMD column ordering.

The control problem is solved by Howard policy iteration over table policies:
evaluate the current policy's eigenpair, re-decide every (node, regime)
control to the one whose operator row, applied to the current eigenfunction,
is smallest, and repeat; the rows scored are the rows evaluated next.  The
same product gives each iterate's Collatz-Wielandt bracket
(:func:`collatz_wielandt_bounds`), which bounds every table policy's
eigenvalue from below; iteration stops when the policy repeats or the
bracket certifies the current eigenvalue optimal to ``LAMBDA_TOL``.  The
eigenvalue trace is non-increasing; on a policy cycle or an exhausted budget
the evaluated policy with the smallest eigenvalue is returned.

Domains are nested boxes: a domain sweep over strictly increasing radii at a
fixed node density yields strictly increasing eigenvalues (a proper principal
submatrix has a strictly smaller Perron value), and the sweep extrapolates
geometrically decaying increments to estimate the whole-space limit.
"""

import dataclasses

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .grid import GridSpec, grid_for_resolution
from .operator import DiscreteOperator, assemble, constant_policy

DEFAULT_RESIDUAL_TOL = 1e-10
LAMBDA_TOL = 1e-10  # eigenvalues that should agree; the certified optimality gap
MAX_POLICY_ITERS = 60  # policy iteration stops after this many evaluated policies
# Inverse iteration has stalled when its residual has not improved on the
# best one for this many iterations, the best being at roundoff level.
STALL_ITERATIONS = 20
# Roundoff level of the residual, in eps * ||A||_inf: the default tolerance
# (above the 1e-10 floor), and the level up to which a stalled iteration is
# accepted.  Measured stalls sit at 1.8-2.8 eps * ||A||_inf on a 2D grid;
# 1D operators reach eps * ||A||_inf without stalling.
ROUNDOFF_RESIDUAL = 32.0


class NotIrreducibleError(RuntimeError):
    """The operator's directed graph is not strongly connected."""


class NoConvergenceError(RuntimeError):
    """Inverse power iteration returned no Perron pair; ``cause`` says why:
    ``"budget"`` (the residual stayed above the tolerance), ``"non-finite"``
    (the operator or a residual is not finite) or ``"non-positive"`` (the
    last iterate has an entry <= 0, whatever its residual)."""

    REASONS = {
        "budget": "residual %.3e > tol %.3e",
        "non-finite": "non-finite operator or residual (residual %.3e, tol %.3e)",
        "non-positive": "the iterate is not strictly positive (residual %.3e, tol %.3e)",
    }

    def __init__(self, iterations, residual, tol, cause="budget"):
        self.iterations = iterations
        self.residual = residual
        self.tol = tol
        self.cause = cause
        super().__init__("no convergence after %d iterations: %s"
                         % (iterations, self.REASONS[cause] % (residual, tol)))


@dataclasses.dataclass
class EigenPair:
    """Rightmost eigenvalue with its positive eigenfunction table.

    ``eigenfunction`` has shape (num_regimes, num_interior) and is normalized
    so that the minimum over regimes of its origin-node value equals one.
    """

    eigenvalue: float
    eigenfunction: np.ndarray
    residual: float
    iterations: int
    shift: float

    def flat(self):
        return self.eigenfunction.reshape(-1)


def principal_eigenpair(op, tol=None, max_iter=5000, x0=None):
    """Rightmost eigenpair of an assembled operator.

    Runs shifted inverse power iteration until the relative residual
    ``||A psi - lambda psi||_inf / ||psi||_inf`` drops below ``tol``.  The
    residual of even an exact eigenpair sits at roundoff level
    eps * ||A||_inf, which grows like 1/h^2 on fine grids, so the default
    tolerance is ``max(1e-10, 32 * eps * ||A||_inf)``.

    A tighter ``tol`` may lie below the level where the iteration stalls.
    When the residual has not improved for ``STALL_ITERATIONS`` iterations
    and the best one is within ``ROUNDOFF_RESIDUAL * eps * ||A||_inf``, the
    iteration has stalled at roundoff and the best iterate is returned.  A
    plateau above that level is not a stall: from a warm start the residual
    can rise and stay up for dozens of iterations before it falls.  Raises
    :class:`NotIrreducibleError` for reducible operators,
    :class:`NoConvergenceError` for a non-finite operator or residual (at
    once), an exhausted budget or an iterate that is not strictly positive,
    and ``numpy.linalg.LinAlgError`` when SuperLU finds ``s I - A`` singular
    (entries so large that ``s - A_ii`` rounds away the shift's margin).
    """
    A = op.matrix
    n = A.shape[0]
    ncomp, _ = csgraph.connected_components(A, directed=True, connection="strong")
    if ncomp != 1:
        raise NotIrreducibleError(
            "operator graph splits into %d strongly connected components; "
            "the principal eigenvector is not unique/positive" % ncomp
        )

    norm_inf = float(np.abs(A).sum(axis=1).max())
    roundoff = ROUNDOFF_RESIDUAL * np.finfo(float).eps * norm_inf
    if tol is None:
        tol = max(DEFAULT_RESIDUAL_TOL, roundoff)
    if not np.isfinite(roundoff):
        raise NoConvergenceError(0, float("nan"), tol, "non-finite")

    row_sums = np.asarray(A.sum(axis=1)).reshape(-1)
    shift = 1.0 + float(row_sums.max())
    try:
        lu = spla.splu(sp.csc_matrix(shift * sp.identity(n, format="csc") - A),
                       permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
        raise np.linalg.LinAlgError(
            "LU factorization of s I - A failed at shift s = %.6g, ||A||_inf = %.6g "
            "(s - A_ii rounds at this scale): %s" % (shift, norm_inf, exc)) from None

    x = np.full(n, 1.0 / n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (n,):
        raise ValueError("x0 must have shape (%d,)" % n)
    if np.any(x <= 0):
        raise ValueError("x0 must be strictly positive")

    lam = 0.0
    res = best = np.inf
    since_best = 0
    for it in range(1, max_iter + 1):
        y = lu.solve(x)
        x = y / np.abs(y).sum()
        Ax = A @ x
        lam = float(np.dot(x, Ax) / np.dot(x, x))
        res = float(np.max(np.abs(Ax - lam * x)) / np.max(np.abs(x)))
        if res <= tol:
            break
        if not np.isfinite(res):
            raise NoConvergenceError(it, res, tol, "non-finite")
        if res < best:
            best, best_x, best_lam, since_best = res, x, lam, 0
            continue
        since_best += 1
        if since_best >= STALL_ITERATIONS and best <= roundoff:
            x, lam, res = best_x, best_lam, best
            break
    else:
        raise NoConvergenceError(max_iter, res, tol)

    if np.any(x <= 0):
        raise NoConvergenceError(it, res, tol, "non-positive")

    M = op.grid.num_interior
    psi = x.reshape(op.num_regimes, M)
    anchor = psi[:, op.grid.origin_index].min()
    psi = psi / anchor
    return EigenPair(eigenvalue=lam, eigenfunction=psi, residual=res,
                     iterations=it, shift=shift)


def verification_tol(op):
    """Near-roundoff residual target for verification-grade solves.

    Four times eps * ||A||_inf keeps eigenvalue comparison noise well below
    the default tolerance.  The measured operators reach it, but the
    iteration cannot go much lower: run against a tighter tolerance, its
    best residual stalls at 1.8 to 2.8 eps * ||A||_inf for 150 random
    policies on bounded2d at radius 4 and 14 nodes per unit, while 130 on
    ou2 (80 and 2000 nodes per unit) reach eps * ||A||_inf.  Should an
    operator stall above this tolerance, :func:`principal_eigenpair` accepts
    the roundoff stall.
    """
    norm_inf = float(np.abs(op.matrix).sum(axis=1).max())
    return max(1e-12, 4.0 * np.finfo(float).eps * norm_inf)


def minimizing_selector(op, psi):
    """Pointwise minimizing control table against a positive function table.

    For each row r of the assembled operator ``op`` (node and regime) the
    selector picks the control c minimizing (A_c psi)_r, the row of the
    constant-policy operator A_c applied to ``psi``, with ties broken toward
    the lowest control index.  The diffusion part of a row does not depend
    on the control, so this minimizes the upwinded drift, cost and switching
    bracket.
    """
    return np.argmin(_control_scores(op, psi), axis=0).reshape(op.num_regimes, -1)


def _control_scores(op, psi):
    """``op.stacked @ psi`` with one row per control: (A_c psi)_r at [c, r]."""
    psi = np.asarray(psi, dtype=float).reshape(-1)
    return (op.stacked @ psi).reshape(-1, op.shape[0])


@dataclasses.dataclass(frozen=True)
class Bracket:
    """``lower <= lambda_pi`` for every table policy pi, and ``upper`` bounds
    the eigenvalue of the policy the bracket was taken at from above."""

    lower: float
    upper: float

    def gap(self, eigenvalue):
        """How far the bracket reaches from ``eigenvalue`` on either side."""
        return max(eigenvalue - self.lower, self.upper - eigenvalue)


@dataclasses.dataclass
class RatioBounds:
    """Enclosures ``lo <= (stacked @ psi)_s / psi_r <= hi`` of each stacked row.

    Stacked row ``s = c * n + r`` is row r of A_c, so a table policy's rows
    are gathered by ``operator.stacked_rows``.  ``scores`` is the product
    ``stacked @ psi`` the ratios are taken from, one row per control.
    """

    operator: DiscreteOperator
    scores: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def selector(self):
        """:func:`minimizing_selector` of ``operator`` against the same psi."""
        return np.argmin(self.scores, axis=0).reshape(self.operator.num_regimes, -1)

    def lower(self, policy=None):
        """Lower bound on lambda_policy, or on every table policy's eigenvalue."""
        lo = self.lo if policy is None else self.lo[self.operator.stacked_rows(policy)]
        return float(lo.min())

    def upper(self, policy):
        """Upper bound on lambda_policy."""
        return float(self.hi[self.operator.stacked_rows(policy)].max())

    def bracket(self, policy):
        return Bracket(lower=self.lower(), upper=self.upper(policy))


def collatz_wielandt_bounds(op, psi):
    """Certified Collatz-Wielandt bounds from one positive function table.

    For psi > 0 and any table policy pi, the Metzler matrix A_pi has
    min_r (A_pi psi)_r / psi_r <= lambda_pi <= max_r (A_pi psi)_r / psi_r.
    Every row of A_pi is a row of some A_c, so the minimum over all stacked
    rows bounds every one of the C^(N*M) table policies from below at once,
    and a policy's rows, gathered, bound its own eigenvalue from above.  The
    product is the selector's ``op.stacked @ psi``, kept, so
    :meth:`RatioBounds.selector` needs no second one.  The computed ratio of
    stacked row s is widened by ``(nnz_s + 2) * eps * (|stacked| psi)_s /
    psi_r``, which exceeds the rounding error of a sum of nnz_s products and
    one division, so the bounds hold for the stored matrix, not only up to
    rounding.
    """
    n = op.shape[0]
    scores = _control_scores(op, psi)
    psi = np.asarray(psi, dtype=float).reshape(-1)
    ratio = scores / psi
    magnitude = (abs(op.stacked) @ psi).reshape(-1, n) / psi
    nnz = np.diff(op.stacked.indptr).reshape(-1, n)
    slack = (nnz + 2) * np.finfo(float).eps * magnitude
    return RatioBounds(operator=op, scores=scores, lo=(ratio - slack).reshape(-1),
                       hi=(ratio + slack).reshape(-1))


@dataclasses.dataclass
class SemilinearSolution:
    """Policy iteration's result; ``operator`` is the operator of ``policy``.

    ``bracket`` is the Collatz-Wielandt bracket of the returned pair: no
    table policy has an eigenvalue below ``bracket.lower``, and ``policy``'s
    is at most ``bracket.upper``.
    """

    eigenpair: EigenPair
    policy: np.ndarray
    operator: DiscreteOperator
    eigenvalue_trace: list
    policy_iterations: int
    converged: bool
    oscillated: bool
    bracket: Bracket


def _improve(op, psi):
    """The next policy against ``psi`` and the bracket of ``op``'s policy,
    from one product; the bounds' arrays go with the call."""
    bounds = collatz_wielandt_bounds(op, psi)
    return bounds.selector(), bounds.bracket(op.policy)


def solve_semilinear(model, grid, max_policy_iters=MAX_POLICY_ITERS, eig_tol=None,
                     operator=None):
    """Howard policy iteration for the minimal principal eigenvalue.

    Starts from the constant lowest-index policy; alternates policy evaluation
    (principal eigenpair of the frozen-policy operator) with the minimizing
    selector, gathering each policy's rows from one assembled stack:
    ``operator``, an operator of ``assemble(model, grid, ...)`` for any
    policy, or a fresh assembly when it is None.  One product gives each
    iterate's next policy and :func:`collatz_wielandt_bounds` bracket.  It
    converges when the policy repeats or the bracket certifies the eigenvalue
    optimal, ``bracket.gap(lambda) <= LAMBDA_TOL``, the rule
    :func:`~riskswitch.verify.verify_optimality` passes on.  On a cycle
    (``oscillated=True``, counted as converged) or an exhausted budget
    (``converged=False``) the evaluated policy with the smallest eigenvalue
    is returned with its eigenpair, operator and bracket.
    """
    if max_policy_iters < 1:
        raise ValueError("max_policy_iters must be >= 1")
    start = constant_policy(grid, model.num_regimes, 0)
    op = assemble(model, grid, start) if operator is None else operator.with_policy(start)
    seen = set()
    trace = []
    warm = None
    best = None
    converged = oscillated = False
    for it in range(1, max_policy_iters + 1):
        pair = principal_eigenpair(op, tol=eig_tol, x0=warm)
        warm = pair.flat()
        trace.append(pair.eigenvalue)
        nxt, bracket = _improve(op, pair.eigenfunction)
        if best is None or pair.eigenvalue < best[1].eigenvalue:
            best = (op, pair, bracket)
        if np.array_equal(nxt, op.policy) or bracket.gap(pair.eigenvalue) <= LAMBDA_TOL:
            converged = True
            break
        seen.add(op.policy.tobytes())
        if nxt.tobytes() in seen:
            oscillated = True
            break
        op = op.with_policy(nxt)
    if not converged:
        op, pair, bracket = best
    return SemilinearSolution(
        eigenpair=pair, policy=np.asarray(op.policy), operator=op, eigenvalue_trace=trace,
        policy_iterations=it, converged=converged or oscillated, oscillated=oscillated,
        bracket=bracket,
    )


@dataclasses.dataclass
class SweepEntry:
    radius: float
    eigenvalue: float
    policy: np.ndarray
    iterations: int
    converged: bool
    eigenpair: EigenPair
    grid: GridSpec
    bracket: Bracket


@dataclasses.dataclass
class SweepResult:
    entries: list
    monotone: bool
    extrapolated: float
    lambda_star: float
    increments: list

    @property
    def eigenvalues(self):
        return [e.eigenvalue for e in self.entries]


def domain_sweep(model, radii, nodes_per_unit):
    """Solve on a strictly increasing ladder of box radii at fixed node density.

    Returns per-radius eigenvalues/policies, a strict-monotonicity certificate,
    and a geometric extrapolation of the eigenvalue limit: when the last two
    increments decay with ratio r in (0, 1), the tail sum d * r / (1 - r) is
    added to the final eigenvalue.  ``lambda_star`` is never below the
    largest-radius eigenvalue.
    """
    radii = [float(r) for r in radii]
    if len(radii) == 0:
        raise ValueError("radii must be non-empty")
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing, got %s" % (radii,))
    entries = []
    for r in radii:
        grid = grid_for_resolution(model.dim, r, nodes_per_unit)
        sol = solve_semilinear(model, grid)
        entries.append(SweepEntry(
            radius=r, eigenvalue=sol.eigenpair.eigenvalue, policy=sol.policy,
            iterations=sol.policy_iterations, converged=sol.converged,
            eigenpair=sol.eigenpair, grid=grid, bracket=sol.bracket,
        ))
    lams = [e.eigenvalue for e in entries]
    increments = [b - a for a, b in zip(lams, lams[1:])]
    monotone = all(d > 0 for d in increments)
    extrapolated = lams[-1]
    if len(increments) >= 2 and increments[-1] > 0 and increments[-2] > 0:
        ratio = increments[-1] / increments[-2]
        if 0.0 < ratio < 0.95:
            extrapolated = lams[-1] + increments[-1] * ratio / (1.0 - ratio)
    lambda_star = max(lams[-1], extrapolated)
    return SweepResult(entries=entries, monotone=monotone, extrapolated=extrapolated,
                       lambda_star=lambda_star, increments=increments)
