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
"""

import dataclasses

import numpy as np
import scipy.io
import scipy.sparse as sp

from .grid import GridSpec
from .model import _check_rate_matrices


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


def validate_policy(policy, grid, model):
    policy = np.asarray(policy)
    if policy.shape != (model.num_regimes, grid.num_interior):
        raise ValueError(
            "policy table must have shape (num_regimes, num_interior) = (%d, %d), got %s"
            % (model.num_regimes, grid.num_interior, policy.shape)
        )
    if policy.min() < 0 or policy.max() >= model.num_controls:
        raise ValueError("policy table contains control indices outside [0, %d)" % model.num_controls)
    return policy.astype(np.int64)


@dataclasses.dataclass
class DiscreteOperator:
    """Assembled sparse operator with its provenance.

    ``matrix`` acts on vectors stacked regime-major: entry ``k * M + i`` is
    the value at interior node ``i`` (row-major node order) in regime ``k``.
    """

    matrix: sp.csr_matrix
    grid: GridSpec
    num_regimes: int
    policy: np.ndarray
    cost_vector: np.ndarray
    boundary_outflow: np.ndarray

    @property
    def shape(self):
        return self.matrix.shape

    def write_matrix_market(self, path):
        """Dump the sparse matrix in Matrix Market coordinate format."""
        scipy.io.mmwrite(str(path), self.matrix)


def _axis_neighbors(grid):
    """Per-axis neighbor availability and flat offsets on the interior lattice."""
    m = grid.interior_per_axis
    M = grid.num_interior
    multi = np.unravel_index(np.arange(M), grid.interior_shape)
    info = []
    for a in range(grid.dim):
        pos = multi[a]
        info.append({
            "plus_ok": pos < m - 1,
            "minus_ok": pos > 0,
            "offset": int(grid.strides[a]),
        })
    return info


def assemble(model, grid, policy):
    """Assemble the discrete operator for a table policy.

    Every row uses the control assigned to its own (node, regime) pair in the
    drift, the cost, and the whole rate row.  Returns a
    :class:`DiscreteOperator`; raises :class:`MonotonicityViolation` when the
    2D cross term cannot be given a positive stencil, and ``ValueError`` for
    malformed rate matrices.
    """
    if grid.dim > 2:
        raise NotImplementedError("assembly is implemented for dim <= 2")
    policy = validate_policy(policy, grid, model)
    h = grid.spacing
    M = grid.num_interior
    N = model.num_regimes
    X = grid.interior_points()
    neigh = _axis_neighbors(grid)

    rows, cols, vals = [], [], []
    diag = np.zeros(N * M)
    cost_vec = np.zeros(N * M)
    outflow = np.zeros(N * M)

    def put(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    for k in range(N):
        for ci in range(model.num_controls):
            mask = policy[k] == ci
            if not mask.any():
                continue
            nodes = np.nonzero(mask)[0]
            pts = X[nodes]
            xi = float(model.controls[ci])
            row0 = k * M + nodes

            a_mat = model.covariance(pts, k)
            b = np.atleast_2d(model.drift(pts, k, xi))
            c = np.asarray(model.cost(pts, k, xi), dtype=float)
            if np.any(c < -1e-12):
                raise ValueError("cost must be nonnegative; min %g" % c.min())
            m = _check_rate_matrices(model.rates(pts, xi), "control %g" % xi)

            if grid.dim == 2:
                a12 = a_mat[:, 0, 1]
                q = np.abs(a12)
                lim = np.minimum(a_mat[:, 0, 0], a_mat[:, 1, 1])
                bad = q > lim + 1e-15 * np.maximum(1.0, lim)
                if bad.any():
                    j = int(np.argmax(bad))
                    raise MonotonicityViolation(nodes[j], k, pts[j], a_mat[j])
            else:
                q = np.zeros(len(nodes))

            # axis terms: diffusion (less the cross correction) plus upwinded drift
            for a in range(grid.dim):
                ad = a_mat[:, a, a] - q
                bp = np.maximum(b[:, a], 0.0)
                bm = np.maximum(-b[:, a], 0.0)
                up = ad / h**2 + bp / h
                dn = ad / h**2 + bm / h
                diag[row0] += -2.0 * ad / h**2 - (bp + bm) / h
                ok = neigh[a]["plus_ok"][nodes]
                off = neigh[a]["offset"]
                put(row0[ok], row0[ok] + off, up[ok])
                outflow[row0[~ok]] += up[~ok]
                ok = neigh[a]["minus_ok"][nodes]
                put(row0[ok], row0[ok] - off, dn[ok])
                outflow[row0[~ok]] += dn[~ok]

            if grid.dim == 2:
                # corner stencil along the diagonal matching the sign of a12
                diag[row0] += -2.0 * q / h**2
                s_pos = a12 >= 0
                o0, o1 = neigh[0]["offset"], neigh[1]["offset"]
                p0, m0 = neigh[0]["plus_ok"][nodes], neigh[0]["minus_ok"][nodes]
                p1, m1 = neigh[1]["plus_ok"][nodes], neigh[1]["minus_ok"][nodes]
                corners = [
                    (s_pos & p0 & p1, o0 + o1, s_pos),
                    (s_pos & m0 & m1, -o0 - o1, s_pos),
                    (~s_pos & p0 & m1, o0 - o1, ~s_pos),
                    (~s_pos & m0 & p1, -o0 + o1, ~s_pos),
                ]
                val = q / h**2
                for sel, off, sign_sel in corners:
                    put(row0[sel], row0[sel] + off, val[sel])
                # dropped corners leak to the boundary
                for sign_sel, pair in ((s_pos, (p0 & p1, m0 & m1)),
                                       (~s_pos, (p0 & m1, m0 & p1))):
                    for okc in pair:
                        lost = sign_sel & ~okc
                        outflow[row0[lost]] += val[lost]

            # regime coupling: the whole rate row of this node's control
            for j in range(N):
                if j == k:
                    diag[row0] += m[:, k, k]
                else:
                    put(row0, j * M + nodes, m[:, k, j])
            cost_vec[row0] = c

    if rows:
        rows = np.concatenate([np.atleast_1d(r) for r in rows])
        cols = np.concatenate([np.atleast_1d(c) for c in cols])
        vals = np.concatenate([np.atleast_1d(v) for v in vals])
        mat = sp.coo_matrix((vals, (rows, cols)), shape=(N * M, N * M)).tocsr()
    else:
        mat = sp.csr_matrix((N * M, N * M))
    # cost is added to the diagonal last, as its own term
    mat = (mat + sp.diags(diag) + sp.diags(cost_vec)).tocsr()
    mat.sum_duplicates()
    return DiscreteOperator(
        matrix=mat, grid=grid, num_regimes=N, policy=policy.copy(),
        cost_vector=cost_vec, boundary_outflow=outflow,
    )

