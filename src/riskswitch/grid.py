"""Uniform box grids for the Dirichlet eigenvalue problems.

The computational domain is the axis-aligned box [-radius, radius]^dim with a
uniform spacing along every axis.  Interior nodes (the unknowns) exclude the
outermost layer, on which the Dirichlet condition eliminates the value.

Enumeration convention (documented once, relied on everywhere):

* full axis: ``nodes_per_axis`` equally spaced points including both endpoints,
  ``spacing = 2 * radius / (nodes_per_axis - 1)``;
* interior nodes are enumerated row-major (C order) over the tensor product of
  the interior axis points, i.e. the *last* coordinate varies fastest;
* coupled systems over ``N`` regimes use regime-major rows:
  ``row = regime * num_interior + node``.

``nodes_per_axis`` must be odd so that the origin is a grid node (the
eigenfunction normalization is anchored there).
"""

import numpy as np


class GridSpec:
    """Uniform grid on [-radius, radius]^dim.

    Parameters
    ----------
    dim : int
        Spatial dimension (>= 1).
    radius : float
        Half-width of the box, > 0.
    nodes_per_axis : int
        Number of nodes per axis including boundary nodes; odd, >= 3.
    """

    def __init__(self, dim, radius, nodes_per_axis):
        if dim < 1:
            raise ValueError("dim must be >= 1, got %r" % (dim,))
        if not radius > 0:
            raise ValueError("radius must be positive, got %r" % (radius,))
        n = int(nodes_per_axis)
        if n != nodes_per_axis:
            raise ValueError("nodes_per_axis must be an integer, got %r" % (nodes_per_axis,))
        if n < 3:
            raise ValueError("nodes_per_axis must be >= 3, got %d" % n)
        if n % 2 == 0:
            raise ValueError(
                "nodes_per_axis must be odd so the origin is a grid node, got %d" % n
            )
        self.dim = int(dim)
        self.radius = float(radius)
        self.nodes_per_axis = n
        self.spacing = 2.0 * self.radius / (n - 1)
        self.axis_full = np.linspace(-self.radius, self.radius, n)
        # force an exact 0.0 at the center; linspace can leave ~1e-17 residue
        self.axis_full[(n - 1) // 2] = 0.0
        self.axis_interior = self.axis_full[1:-1]
        self.interior_per_axis = n - 2
        self.interior_shape = (self.interior_per_axis,) * self.dim
        self.num_interior = self.interior_per_axis ** self.dim
        self.full_shape = (n,) * self.dim
        # row-major flat strides over the interior lattice
        self.strides = np.array(
            [self.interior_per_axis ** (self.dim - 1 - a) for a in range(self.dim)],
            dtype=np.int64,
        )
        self._points = None

    def interior_points(self):
        """All interior node coordinates, shape (num_interior, dim), row-major."""
        if self._points is None:
            if self.dim == 1:
                self._points = self.axis_interior[:, None].copy()
            else:
                mesh = np.meshgrid(*([self.axis_interior] * self.dim), indexing="ij")
                self._points = np.stack([m.reshape(-1) for m in mesh], axis=1)
        return self._points

    @property
    def origin_index(self):
        """Flat interior index of the origin node."""
        c = (self.interior_per_axis - 1) // 2
        return int(np.dot(np.full(self.dim, c, dtype=np.int64), self.strides))

    def row_index(self, regime, node):
        """Row of the coupled system for (regime, interior node)."""
        return regime * self.num_interior + node

    def nearest_interior_index(self, X):
        """Flat interior indices of the nodes nearest to the states ``X``.

        States outside the box clamp to the nearest interior node (constant
        extension of node-indexed tables).  X has shape (n, dim).
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        lo = self.axis_interior[0]
        idx = np.rint((X - lo) / self.spacing).astype(np.int64)
        np.maximum(idx, 0, out=idx)
        np.minimum(idx, self.interior_per_axis - 1, out=idx)
        flat = idx[:, 0] * self.strides[0]
        for a in range(1, self.dim):
            flat += idx[:, a] * self.strides[a]
        return flat

    def interpolate(self, table, X, K):
        """Multilinear values at states X (n, dim) in regimes K of a node table
        (num_regimes, num_interior) extended by zero on the boundary layer; 0
        outside the box, NaN on rows holding a NaN.  Cells come from
        ``searchsorted`` on ``axis_full`` and the corner terms v * w0 * w1 ...
        are summed from 0.0 in lexicographic corner order: the arithmetic of
        scipy's RegularGridInterpolator, bit for bit."""
        X = np.asarray(X, dtype=float)
        n, d, ax = self.nodes_per_axis, self.dim, self.axis_full
        flat = np.pad(np.reshape(table, (-1,) + self.interior_shape),
                      [(0, 0)] + [(1, 1)] * d).reshape(-1)
        strides = n ** np.arange(d - 1, -1, -1)
        i = np.clip(np.searchsorted(ax, X, side="right") - 1, 0, n - 2)
        t = (X - ax[i]) / (ax[i + 1] - ax[i])
        w = (1.0 - t, t)
        base = np.asarray(K, dtype=np.int64) * n ** d + i @ strides
        out = np.zeros(len(X))
        with np.errstate(invalid="ignore"):  # inf * 0 outside the box
            for c in np.ndindex((2,) * d):
                term = flat[base + np.dot(c, strides)]
                for a in range(d):
                    term = term * w[c[a]][:, a]
                out = out + term
        out[np.any((X < ax[0]) | (X > ax[-1]), axis=1)] = 0.0
        out[np.isnan(X).any(axis=1)] = np.nan
        return out

    def __repr__(self):
        return "GridSpec(dim=%d, radius=%g, nodes_per_axis=%d)" % (
            self.dim,
            self.radius,
            self.nodes_per_axis,
        )


def build_grid(dim, radius, nodes_per_axis):
    """Construct a :class:`GridSpec`; rejects even node counts and bad sizes."""
    return GridSpec(dim, radius, nodes_per_axis)


def grid_for_resolution(dim, radius, nodes_per_unit):
    """Grid with ``nodes_per_unit`` intervals per unit length (origin-aligned).

    ``radius * nodes_per_unit`` must be integral so the box is tiled exactly;
    the resulting axis has ``2 * radius * nodes_per_unit + 1`` nodes (odd).
    """
    cells = radius * nodes_per_unit
    if abs(cells - round(cells)) > 1e-9:
        raise ValueError(
            "radius * nodes_per_unit must be an integer (got radius=%g, nodes_per_unit=%g)"
            % (radius, nodes_per_unit)
        )
    return GridSpec(dim, radius, 2 * int(round(cells)) + 1)
