"""Monotone finite-difference assembly of the coupled generator-plus-cost matrix.

For a fixed table policy the semigroup generator plus multiplicative cost is
discretized on the interior of the grid box into a sparse (N*M) x (N*M) matrix
with regime-major rows (row = regime * M + node):

* second-order terms use central differences; in 2D the mixed derivative uses
  the sign-adapted seven-point corner stencil, which is monotone exactly when
  |a12| <= min(a11, a22) at the node — otherwise assembly *refuses* with
  :class:`MonotonicityViolation` (no silent clamping);
* first-order terms are upwinded to first order: the forward difference is
  used where the drift component is >= 0, the backward difference otherwise,
  so every off-diagonal coefficient stays nonnegative (Metzler structure);
* the cost enters the diagonal additively (as the last contribution, so a
  constant cost shift moves the diagonal and nothing else);
* regime coupling puts the rate row of the node's own control into the
  off-diagonal regime blocks (same node, other regime);
* Dirichlet data on the boundary layer is eliminated: couplings that would
  leave the interior are dropped and their mass is recorded per row in
  ``boundary_outflow`` (so A @ 1 + boundary_outflow recovers the cost row sum).

A row depends only on its (node, regime) pair and its control, so assembly
builds A_c, the operator of the constant policy c, for every control and
stacks them control-major.  Any policy's operator is a row gather from that
stack: a policy change costs no model call.
"""

import dataclasses

import numpy as np
import scipy.sparse as sp

from .grid import GridSpec
from .model import coefficients


class MonotonicityViolation(RuntimeError):
    """Cross-diffusion too strong for a positive stencil at some node."""

    def __init__(self, node, regime, state, a_matrix):
        self.node = int(node)
        self.regime = int(regime)
        self.state = np.asarray(state)
        self.a_matrix = np.asarray(a_matrix)
        super().__init__(
            "cannot build a monotone stencil at node %d (regime %d, x=%s): "
            "|a12|=%g exceeds min(a11, a22)=%g"
            % (node, regime, np.array2string(self.state, precision=4),
               abs(self.a_matrix[0, 1]), min(self.a_matrix[0, 0], self.a_matrix[1, 1]))
        )


def constant_policy(grid, num_regimes, control_index=0):
    """Policy table assigning one control index everywhere."""
    return np.full((num_regimes, grid.num_interior), control_index, dtype=np.int64)


def check_policy(policy, shape, num_controls):
    """``policy`` as int64, once it passes the one rule for policies: an
    integer dtype (not bool), the given ``shape`` (() for one control index,
    (num_regimes, num_interior) for a table) and every index in [0,
    ``num_controls``).  Raises ``ValueError`` otherwise."""
    policy = np.asarray(policy)
    if policy.dtype.kind not in "iu":
        raise ValueError("a policy holds integer control indices, got dtype %s" % policy.dtype)
    if policy.shape != shape:
        raise ValueError("policy table must have shape (num_regimes, num_interior) = %s, "
                         "got %s" % (shape, policy.shape))
    bad = policy[(policy < 0) | (policy >= num_controls)]
    if bad.size:
        raise ValueError("control index %d is outside [0, %d)" % (bad[0], num_controls))
    return policy.astype(np.int64, copy=False)


@dataclasses.dataclass
class DiscreteOperator:
    """Assembled sparse operator of one policy, with every control's rows.

    ``matrix`` acts on vectors stacked regime-major: entry ``k * M + i`` is
    the value at interior node ``i`` (row-major node order) in regime ``k``.
    Row ``c * n + r`` of ``stacked`` (``n = N * M``), ``stacked_cost`` and
    ``stacked_outflow`` is row ``r`` of A_c, the constant policy c's operator.
    """

    matrix: sp.csr_matrix
    grid: GridSpec
    num_regimes: int
    policy: np.ndarray
    cost_vector: np.ndarray
    boundary_outflow: np.ndarray
    stacked: sp.csr_matrix
    stacked_cost: np.ndarray
    stacked_outflow: np.ndarray

    @property
    def shape(self):
        return self.matrix.shape

    def stacked_rows(self, policy):
        """Rows of ``stacked`` that make up a table policy's operator.

        Row ``r`` of A_policy is row ``policy[r] * n + r`` of ``stacked``.
        Raises ``ValueError`` for a table :func:`check_policy` refuses.
        """
        n = self.stacked.shape[1]
        policy = check_policy(policy, (self.num_regimes, self.grid.num_interior),
                              self.stacked.shape[0] // n)
        return policy.reshape(-1) * n + np.arange(n)

    def with_policy(self, policy):
        """Operator of another table policy, gathered from ``stacked``.

        Row ``r`` is row ``r`` of A_{policy[r]}; no model call is made.
        Raises ``ValueError`` as :meth:`stacked_rows` does.
        """
        rows = self.stacked_rows(policy)
        policy = np.asarray(policy).astype(np.int64)
        return dataclasses.replace(
            self, matrix=self.stacked[rows], policy=policy,
            cost_vector=self.stacked_cost[rows],
            boundary_outflow=self.stacked_outflow[rows],
        )

    def write_matrix_market(self, path):
        """Dump the sparse matrix in Matrix Market coordinate format."""
        import scipy.io  # only here: it would add dozens of modules to every start
        scipy.io.mmwrite(str(path), self.matrix)


def _axis_neighbors(grid):
    """Per-axis neighbor availability and flat offsets on the interior lattice."""
    m = grid.interior_per_axis
    multi = np.unravel_index(np.arange(grid.num_interior), grid.interior_shape)
    return [{"plus_ok": pos < m - 1, "minus_ok": pos > 0, "offset": int(stride)}
            for pos, stride in zip(multi, grid.strides)]


def assemble(model, grid, policy):
    """Assemble the discrete operator for a table policy.

    Every row uses the control assigned to its own (node, regime) pair in the
    drift, the cost, and the whole rate row.  The coefficients are sampled
    once (:func:`~riskswitch.model.coefficients`, which enforces the
    coefficient contract and raises its errors), the operators A_c of all
    constant policies are built from them, and the policy's rows are
    gathered from those.  Returns a :class:`DiscreteOperator`; raises
    :class:`MonotonicityViolation` when the 2D cross term cannot be given a
    positive stencil, and ``ValueError`` for a malformed policy table.
    """
    if grid.dim > 2:
        raise NotImplementedError("assembly is implemented for dim <= 2")
    X = grid.interior_points()
    co = coefficients(model, X)
    if grid.dim == 2:
        a = co.covariance
        lim = np.minimum(a[..., 0, 0], a[..., 1, 1])
        bad = np.abs(a[..., 0, 1]) > lim + 1e-15 * np.maximum(1.0, lim)
        if bad.any():
            k, j = np.argwhere(bad)[0]
            raise MonotonicityViolation(j, k, X[j], a[k, j])
    neigh = _axis_neighbors(grid)
    # one control at a time, so only one control's triplets are alive at once
    mats, costs, outflows = zip(*(
        _constant_policy_operator(grid, co, neigh, ci)
        for ci in range(model.num_controls)))
    stack = DiscreteOperator(
        matrix=None, grid=grid, num_regimes=model.num_regimes, policy=None,
        cost_vector=None, boundary_outflow=None,
        stacked=sp.vstack(mats, format="csr"),
        stacked_cost=np.concatenate(costs), stacked_outflow=np.concatenate(outflows),
    )
    return stack.with_policy(policy)


def _constant_policy_operator(grid, co, neigh, ci):
    """CSR matrix, cost and boundary outflow rows of A_c for control ``ci``."""
    h = grid.spacing
    M = grid.num_interior
    N = co.cost.shape[0]
    nodes = np.arange(M)
    entries = []  # (rows, cols, values) of the off-diagonal couplings
    diag = np.zeros(N * M)
    cost_vec = np.zeros(N * M)
    outflow = np.zeros(N * M)
    m = co.rates[ci]
    for k in range(N):
        row0 = grid.row_index(k, nodes)
        a_mat = co.covariance[k]
        b = co.drift[k, ci]
        c = co.cost[k, ci]
        q = np.abs(a_mat[:, 0, 1]) if grid.dim == 2 else np.zeros(M)

        # axis terms: diffusion (less the cross correction) plus upwinded drift
        for a in range(grid.dim):
            ad = a_mat[:, a, a] - q
            bp = np.maximum(b[:, a], 0.0)
            bm = np.maximum(-b[:, a], 0.0)
            up = ad / h**2 + bp / h
            dn = ad / h**2 + bm / h
            diag[row0] += -2.0 * ad / h**2 - (bp + bm) / h
            off = neigh[a]["offset"]
            for ok, step, w in ((neigh[a]["plus_ok"], off, up),
                                (neigh[a]["minus_ok"], -off, dn)):
                entries.append((row0[ok], row0[ok] + step, w[ok]))
                outflow[row0[~ok]] += w[~ok]

        if grid.dim == 2:
            # corner stencil along the diagonal matching the sign of a12
            diag[row0] += -2.0 * q / h**2
            s_pos = a_mat[:, 0, 1] >= 0
            o0, o1 = neigh[0]["offset"], neigh[1]["offset"]
            p0, m0 = neigh[0]["plus_ok"], neigh[0]["minus_ok"]
            p1, m1 = neigh[1]["plus_ok"], neigh[1]["minus_ok"]
            corners = [
                (s_pos & p0 & p1, o0 + o1),
                (s_pos & m0 & m1, -o0 - o1),
                (~s_pos & p0 & m1, o0 - o1),
                (~s_pos & m0 & p1, -o0 + o1),
            ]
            val = q / h**2
            for sel, off in corners:
                entries.append((row0[sel], row0[sel] + off, val[sel]))
            # dropped corners leak to the boundary
            for sign_sel, pair in ((s_pos, (p0 & p1, m0 & m1)),
                                   (~s_pos, (p0 & m1, m0 & p1))):
                for okc in pair:
                    lost = sign_sel & ~okc
                    outflow[row0[lost]] += val[lost]

        # regime coupling: the whole rate row of this control
        diag[row0] += m[:, k, k]
        for j in range(N):
            if j != k:
                entries.append((row0, grid.row_index(j, nodes), m[:, k, j]))
        cost_vec[row0] = c

    # cost is added to the diagonal last, as its own term; no coupling sits on
    # the diagonal, so the conversion below sums no duplicates
    every = np.arange(N * M)
    entries.append((every, every, diag + cost_vec))
    rows, cols, vals = (np.concatenate(t) for t in zip(*entries))
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(N * M, N * M)).tocsr()
    # drop stored zeros (a zero rate, say): the irreducibility check reads
    # every stored entry as an edge
    mat.eliminate_zeros()
    return mat, cost_vec, outflow
