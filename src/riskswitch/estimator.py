"""Estimator-style facade over the solver pipeline.

RiskSensitiveController bundles model + grid parameters, fit() runs the
policy-iteration eigensolve, and predict() evaluates the fitted policy at
arbitrary states.  The get_params/set_params surface follows the common
estimator convention so the object drops into grid-search-style tooling,
without depending on any such library.
"""

import numpy as np

from .eigen import MAX_POLICY_ITERS, PI_TOL, solve_semilinear
from .grid import build_grid
from .simulate import ControlMap


class NotFittedError(RuntimeError):
    """predict() or a fitted attribute was used before fit()."""


class RiskSensitiveController:
    """Solve-once controller: fit on a box, then look up controls by state.

    Parameters
    ----------
    model : SwitchingModel
    radius : half-width of the computational box
    nodes_per_axis : odd node count per axis
    tol : eigenvalue stabilization tolerance for policy iteration
    max_policy_iters : Howard iteration budget

    Attributes (after fit)
    ----------------------
    lambda_ : principal eigenvalue (long-run risk-sensitive growth rate)
    psi_ : eigenfunction table, shape (num_regimes, num_interior)
    policy_ : control-index table, shape (num_regimes, num_interior)
    grid_ : the GridSpec used
    trace_ : per-iteration eigenvalue trace
    """

    def __init__(self, model, radius=5.0, nodes_per_axis=201, tol=PI_TOL,
                 max_policy_iters=MAX_POLICY_ITERS):
        self.model = model
        self.radius = radius
        self.nodes_per_axis = nodes_per_axis
        self.tol = tol
        self.max_policy_iters = max_policy_iters

    _param_names = ("model", "radius", "nodes_per_axis", "tol", "max_policy_iters")

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **params):
        for name, value in params.items():
            if name not in self._param_names:
                raise ValueError("unknown parameter %r" % name)
            setattr(self, name, value)
        return self

    def fit(self):
        self.grid_ = build_grid(self.model.dim, self.radius, self.nodes_per_axis)
        sol = solve_semilinear(self.model, self.grid_, tol=self.tol,
                               max_policy_iters=self.max_policy_iters)
        self.solution_ = sol
        self.lambda_ = sol.eigenpair.eigenvalue
        self.psi_ = sol.eigenpair.eigenfunction
        self.policy_ = sol.policy
        self.trace_ = list(sol.eigenvalue_trace)
        return self

    def _check_fitted(self):
        if not hasattr(self, "policy_"):
            raise NotFittedError("call fit() before using the fitted attributes")

    def predict(self, X, regimes=0):
        """Control values at states ``X`` (n, dim) for the given regime(s)."""
        return np.asarray(self.model.controls)[self.predict_index(X, regimes)]

    def predict_index(self, X, regimes=0):
        """Control indices rather than control values, read through the
        policy's :class:`ControlMap` as the Monte Carlo drivers read it."""
        self._check_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=float))
        K = np.broadcast_to(np.asarray(regimes, dtype=np.int64), (X.shape[0],))
        return ControlMap(self.policy_, self.grid_).control_indices(X, K)

    def score(self):
        """Negative eigenvalue: larger is better (lower certified growth rate)."""
        self._check_fitted()
        return -self.lambda_
