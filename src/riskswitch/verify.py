"""End-to-end checks tying the eigensolver and the simulator together.

Three families: optimality of the extracted policy (one Collatz-Wielandt
bracket on the solved eigenfunction bounds every table policy's principal
eigenvalue from below and the solved policy's from above, with no
eigensolve), agreement of the solved eigenvalue with Monte Carlo risk-
sensitive rates (the random policies' eigenvalues bounded by the same
bracket), and the near-monotone mode (bounded coefficients, uniform
switching floor, vanishing radial drift) where no Lyapunov certificate is
needed and the cost's sub-level set at the computed value must stay inside
a strict sub-box.
"""

import dataclasses

import numpy as np

from .eigen import (LAMBDA_TOL, MAX_POLICY_ITERS, Bracket, collatz_wielandt_bounds,
                    domain_sweep, solve_semilinear, verification_tol)
from .model import _refuse_few_samples, coefficients
from .operator import assemble, constant_policy
from .simulate import estimate_risk_sensitive_rates


@dataclasses.dataclass
class GrowthBound:
    """Exponential envelope of the eigenfunction plus a Lyapunov exponent.

    kappa_hat is the smallest slope with log psi_k(x) <= log psi_k(0) +
    kappa_hat * |x| at every grid node (max-ratio estimator, so violations
    can only come from floating-point noise).  theta is the fitted exponent
    in psi <= V^theta when a Lyapunov function is supplied.
    """

    kappa_hat: float
    theta: float
    fit_residual: float
    violations: int

    def __post_init__(self):
        if self.kappa_hat < 0:
            raise ValueError("kappa_hat must be >= 0")


def fit_growth_bound(grid, eigenpair, lyap=None):
    psi = np.asarray(eigenpair.eigenfunction, dtype=float)
    X = grid.interior_points()
    r = np.linalg.norm(X, axis=1)
    log_psi = np.log(psi)
    log0 = log_psi[:, grid.origin_index]
    away = r > 0
    ratios = (log_psi[:, away] - log0[:, None]) / r[away][None, :]
    kappa = max(float(ratios.max()), 0.0)
    bound = log0[:, None] + kappa * r[None, :]
    violations = int(np.sum(log_psi > bound + 1e-9))
    residual = float(np.sqrt(np.mean((bound[:, away] - log_psi[:, away]) ** 2)))
    theta = float("nan")
    if lyap is not None:
        log_v = np.stack([
            np.log(np.asarray(lyap(X, k), dtype=float)) for k in range(psi.shape[0])
        ])
        informative = log_v > 0.1
        if informative.any():
            theta = float(np.max(log_psi[informative] / log_v[informative]))
    return GrowthBound(kappa_hat=kappa, theta=theta, fit_residual=residual,
                       violations=violations)


@dataclasses.dataclass
class PolicyExcess:
    lower_bound: float
    excess_lower_bound: float
    ok: bool


@dataclasses.dataclass
class OptimalityReport:
    """``min_excess`` is the smallest certified lower bound on lambda_pi -
    lambda_star over the supplied policies (inf when none is supplied)."""

    lambda_star: float
    excesses: list
    min_excess: float
    bracket: Bracket
    fixed_point_ok: bool
    passed: bool

    def as_dict(self):
        return {
            "lambda_star": self.lambda_star,
            "min_excess": self.min_excess,
            "alt_policies": [dataclasses.asdict(e) for e in self.excesses],
            "bracket": dataclasses.asdict(self.bracket),
            "fixed_point_ok": self.fixed_point_ok,
            "passed": self.passed,
        }


def verification_eig_tol(op):
    """:func:`verification_tol` of the constant lowest-index policy's operator,
    gathered from the stack of ``op``, an operator of any policy.

    The solver's default tolerance leaves ~1e-10 of noise in lambda, which
    would swamp comparisons against ``LAMBDA_TOL``.
    """
    return verification_tol(op.with_policy(np.zeros_like(op.policy)))


def _verification_solve(model, grid, max_policy_iters=MAX_POLICY_ITERS):
    """Policy iteration at :func:`verification_eig_tol`, from one assembly."""
    op = assemble(model, grid, constant_policy(grid, model.num_regimes))
    return solve_semilinear(model, grid, max_policy_iters=max_policy_iters,
                            eig_tol=verification_eig_tol(op), operator=op)


def verify_optimality(model, grid, alt_policies=(), solution=None):
    """The solved policy is optimal over every table policy, by one product.

    The solved eigenfunction's :func:`collatz_wielandt_bounds` bracket [L, U]
    passes when max(lambda* - L, U - lambda*) <= ``LAMBDA_TOL``, which proves
    |lambda* - min_pi lambda_pi| <= ``LAMBDA_TOL`` over all table policies.
    Each supplied policy gets its certified lower bound, the minimum of the
    same ratios over its rows, which must not fall below lambda* -
    ``LAMBDA_TOL``.  The minimizing selector applied to the solved
    eigenfunction must map back to the solved policy, or (ties can flip
    nodes) to one whose bracket passes too.  No eigensolve runs unless
    ``solution`` is None; then the problem is solved at
    :func:`verification_eig_tol`.
    """
    sol = solution if solution is not None else _verification_solve(model, grid)
    lam_star = sol.eigenpair.eigenvalue
    psi = sol.eigenpair.eigenfunction
    bounds = collatz_wielandt_bounds(sol.operator, psi)
    bracket = bounds.bracket(sol.policy)
    excesses = []
    for p in alt_policies:
        lower = bounds.lower(p)
        excesses.append(PolicyExcess(lower_bound=lower, excess_lower_bound=lower - lam_star,
                                     ok=bool(lower >= lam_star - LAMBDA_TOL)))
    reselected = bounds.selector()
    fixed_point_ok = bool(np.array_equal(reselected, sol.policy)
                          or bounds.bracket(reselected).gap(lam_star) <= LAMBDA_TOL)
    passed = bool(bracket.gap(lam_star) <= LAMBDA_TOL and fixed_point_ok
                  and all(e.ok for e in excesses))
    return OptimalityReport(
        lambda_star=lam_star, excesses=excesses,
        min_excess=min((e.excess_lower_bound for e in excesses), default=float("inf")),
        bracket=bracket, fixed_point_ok=fixed_point_ok, passed=passed,
    )


def random_policies(model, grid, count, seed=0):
    if count < 0:
        raise ValueError("count must be >= 0, got %r" % (count,))
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, model.num_controls, size=(model.num_regimes, grid.num_interior))
        for _ in range(count)
    ]


@dataclasses.dataclass
class HypothesisCheck:
    name: str
    passed: bool
    detail: dict


@dataclasses.dataclass
class NearMonotoneGate:
    checks: list

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {c.name: {"passed": c.passed, **c.detail} for c in self.checks}


def validate_near_monotone(model, box_radius, samples=512, seed=0):
    """Sampling checks of the bounded-coefficient mode preconditions.

    Boundedness is tested by comparing coefficient magnitudes on an inner box
    against expanding outer shells (growth ratio beyond 1.5 fails); the
    switching floor is the minimum off-diagonal rate over all samples and
    controls; the radial drift ratio max <b(x), x>+ / |x| must decay along a
    radius ladder.
    """
    _refuse_few_samples(samples)
    rng = np.random.default_rng(seed)
    d = model.dim
    inner = rng.uniform(-box_radius, box_radius, size=(samples, d))

    def shell(radius, n):
        pts = rng.normal(size=(n, d))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        return pts * radius * rng.uniform(0.9, 1.0, size=(n, 1))

    def magnitudes(X):
        co = coefficients(model, X)
        return max(float(np.max(np.linalg.norm(co.diffusion, axis=(2, 3)))),
                   float(np.max(np.linalg.norm(co.drift, axis=-1))),
                   float(np.max(np.abs(co.cost))))

    inner_mag = magnitudes(inner)
    outer_mag = max(magnitudes(shell(2.0 * box_radius, samples // 2)),
                    magnitudes(shell(4.0 * box_radius, samples // 2)))
    ratio = outer_mag / max(inner_mag, 1e-300)
    b1 = HypothesisCheck(
        name="bounded_coefficients", passed=bool(ratio <= 1.5),
        detail={"inner_max": inner_mag, "outer_max": outer_mag,
                "growth_ratio": ratio, "fitted_bound": max(inner_mag, outer_mag)},
    )

    if model.num_regimes == 1:
        b2 = HypothesisCheck(name="rate_floor", passed=True,
                             detail={"floor": None, "note": "single regime"})
    else:
        off = np.where(np.eye(model.num_regimes, dtype=bool), np.inf,
                       coefficients(model, inner).rates)
        floor = float(off.min())
        # the first sample of the first control reaching the floor
        witness = inner[np.unravel_index(np.argmin(off), off.shape)[1]].tolist()
        b2 = HypothesisCheck(
            name="rate_floor", passed=bool(floor > 0),
            detail={"floor": floor, "witness": witness},
        )

    ladder = [box_radius * (2.0 ** j) for j in range(4)]
    ratios = []
    for radius in ladder:
        pts = shell(radius, samples)
        inward = np.einsum("kcnd,nd->kcn", coefficients(model, pts).drift, pts)
        ratios.append(max(0.0, float(np.max(
            np.maximum(inward, 0.0) / np.linalg.norm(pts, axis=1)))))
    decayed = ratios[-1] <= max(0.25 * ratios[0], 1e-10)
    b3 = HypothesisCheck(
        name="radial_drift_decay", passed=bool(decayed),
        detail={"radii": ladder, "ratios": ratios},
    )
    return NearMonotoneGate(checks=[b1, b2, b3])


@dataclasses.dataclass
class NearMonotoneReport:
    refused: bool
    gate: NearMonotoneGate
    lambda_star: float
    sweep_monotone: bool
    sweep_converged: bool
    sweep_eigenvalues: list
    sublevel_contained: bool
    escaping_nodes: list
    sublevel_radius: float
    growth: GrowthBound
    passed: bool

    def as_dict(self):
        return {
            "refused": self.refused,
            "gate": self.gate.as_dict(),
            "lambda_star": self.lambda_star,
            "sweep_monotone": self.sweep_monotone,
            "sweep_converged": self.sweep_converged,
            "sweep_eigenvalues": self.sweep_eigenvalues,
            "sublevel_contained": self.sublevel_contained,
            "escaping_nodes": self.escaping_nodes,
            "sublevel_radius": self.sublevel_radius,
            "kappa_hat": self.growth.kappa_hat if self.growth else None,
            "growth_violations": self.growth.violations if self.growth else None,
            "passed": self.passed,
        }


def near_monotone_suite(model, radii, nodes_per_unit=20, epsilon=0.01, samples=512,
                        seed=0):
    """Certificate-free pipeline for bounded-coefficient models.

    Gates on validate_near_monotone (models with growing coefficients are
    refused), sweeps the domains, then checks a posteriori that the cost's
    sub-level set at lambda_star + epsilon stays inside 0.8 times the largest
    box, and fits the exponential growth envelope of the eigenfunction.
    """
    gate = validate_near_monotone(model, box_radius=max(radii), samples=samples,
                                  seed=seed)
    if not gate.passed:
        return NearMonotoneReport(
            refused=True, gate=gate, lambda_star=float("nan"),
            sweep_monotone=False, sweep_converged=False, sweep_eigenvalues=[],
            sublevel_contained=False, escaping_nodes=[],
            sublevel_radius=float("nan"),
            growth=None, passed=False,
        )
    sweep = domain_sweep(model, radii, nodes_per_unit)
    lam_star = sweep.lambda_star
    final = sweep.entries[-1]
    grid = final.grid
    X = grid.interior_points()
    min_cost = coefficients(model, X).cost.min(axis=(0, 1))
    sub_level = min_cost <= lam_star + epsilon
    inf_norm = np.max(np.abs(X), axis=1)
    threshold = 0.8 * grid.radius
    escaping = sub_level & (inf_norm > threshold)
    contained = not bool(escaping.any())
    escapees = X[escaping][:10].tolist()
    sub_radius = float(np.max(inf_norm[sub_level])) if sub_level.any() else 0.0
    growth = fit_growth_bound(grid, final.eigenpair)
    converged = sweep.monotone and (
        len(sweep.increments) < 2
        or sweep.increments[-1] <= 0.9 * sweep.increments[-2] + 1e-12
    )
    passed = bool(sweep.monotone and converged and contained
                  and growth.violations == 0)
    return NearMonotoneReport(
        refused=False, gate=gate, lambda_star=lam_star,
        sweep_monotone=sweep.monotone, sweep_converged=converged,
        sweep_eigenvalues=sweep.eigenvalues,
        sublevel_contained=contained, escaping_nodes=escapees,
        sublevel_radius=sub_radius, growth=growth, passed=passed,
    )


@dataclasses.dataclass
class RatePolicyEntry:
    rate: float
    std_error: float
    unreliable: bool
    eig_ok: bool
    rate_ok: bool


@dataclasses.dataclass
class LambdaMatchReport:
    lambda_star: float
    optimal_rate: object
    optimal_ok: bool
    optimal_flagged: bool
    random_entries: list
    passed: bool
    flagged: bool

    def as_dict(self):
        return {
            "lambda_star": self.lambda_star,
            "optimal_rate": self.optimal_rate.as_dict(),
            "optimal_ok": self.optimal_ok,
            "optimal_flagged": self.optimal_flagged,
            "random_policies": [dataclasses.asdict(e) for e in self.random_entries],
            "passed": self.passed,
            "flagged": self.flagged,
        }


def lambda_equals_optimal_value(model, grid, policy_sample_count, config,
                                seed=0, workers=None, solution=None):
    """Monte Carlo rates agree with the solved eigenvalue.

    Estimates carry the terminal psi weighting, which makes the weighted
    expectation exp(lambda T) exactly and removes the O(1/T) horizon
    transient that would otherwise swamp the standard error.  Under the
    extracted policy the estimate must bracket lambda_star within three
    standard errors (unless flagged unreliable, in which case the comparison
    is reported but does not fail).  For any frozen policy the eigen-weighted
    expectation is a submartingale, so random-policy estimates must never
    fall more than three standard errors below lambda_star.  That their
    frozen-policy eigenvalues stay above lambda_star (within ``LAMBDA_TOL``)
    is read from the solved eigenfunction's :func:`collatz_wielandt_bounds`:
    ``eig_ok`` holds when the policy's certified lower bound does, so a
    supplied ``solution`` must be solved as tightly as
    :func:`verify_optimality` needs.  No eigensolve runs unless ``solution``
    is None; then the problem is solved at :func:`verification_eig_tol`.

    The solved policy and the random ones are estimated in one run of
    :func:`estimate_risk_sensitive_rates`, sharing each block's draws, and
    each estimate is the one its policy's run alone gives.

    The comparison target is the grid eigenvalue, so the grid must resolve
    lambda to within the Monte Carlo standard error; the discretization
    error scales like the squared spacing.
    """
    sol = solution if solution is not None else _verification_solve(model, grid)
    lam_star = sol.eigenpair.eigenvalue
    bounds = collatz_wielandt_bounds(sol.operator, sol.eigenpair.eigenfunction)
    policies = random_policies(model, grid, policy_sample_count, seed=seed)
    opt_est, *estimates = estimate_risk_sensitive_rates(
        model, [sol.policy, *policies], config, lambda_ref=lam_star, workers=workers,
        grid=grid, terminal_pair=sol.eigenpair)
    opt_dev = abs(opt_est.value - lam_star)
    opt_ok = bool(opt_est.unreliable or opt_dev <= 3.0 * opt_est.std_error)
    entries = []
    for p, est in zip(policies, estimates):
        eig_ok = bool(bounds.lower(p) >= lam_star - LAMBDA_TOL)
        rate_ok = bool(est.unreliable
                       or est.value >= lam_star - 3.0 * est.std_error)
        entries.append(RatePolicyEntry(
            rate=est.value, std_error=est.std_error, unreliable=est.unreliable,
            eig_ok=eig_ok, rate_ok=rate_ok,
        ))
    passed = bool(opt_ok and all(e.eig_ok and e.rate_ok for e in entries))
    flagged = bool(opt_est.unreliable or any(e.unreliable for e in entries))
    return LambdaMatchReport(
        lambda_star=lam_star, optimal_rate=opt_est, optimal_ok=opt_ok,
        optimal_flagged=opt_est.unreliable, random_entries=entries,
        passed=passed, flagged=flagged,
    )
