"""Dense column-selection linear algebra: incremental QR of a growing column subset."""

import math

import numpy as np

__all__ = [
    "DegenerateColumnError",
    "IncrementalFactorization",
    "as_matrix",
    "as_vector",
    "factor_init",
]

# Orthogonalized columns shorter than this fraction of their original norm
# carry no usable new direction.
DEGENERATE_RTOL = 1e-12


class DegenerateColumnError(ValueError):
    """Appending this column would add a numerically degenerate direction."""


def as_matrix(a):
    """Validate and return a as a finite float64 matrix in column-major layout."""
    m = np.asfortranarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix, got shape {np.shape(a)}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m

def as_vector(y):
    v = np.ascontiguousarray(y, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ValueError(f"expected a 1-d vector, got shape {np.shape(y)}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


class IncrementalFactorization:
    """QR factorization of a growing column selection.

    Tracks the selected column indices, an orthonormal basis q of their span,
    the triangular factor r, the projections qty = q.T @ y, and the residual
    of y against the span. One append costs O(rows * size) instead of a dense
    re-solve. Instances are single-owner and mutable: branch a search path by
    calling copy() first.
    """

    __slots__ = ("rows", "capacity", "k", "indices", "index_set", "q", "r",
                 "qty", "residual", "residual_norm", "y_norm")

    def __init__(self, rows, capacity, y):
        self.rows = rows
        self.capacity = capacity
        self.k = 0
        self.indices = []
        self.index_set = set()
        self.q = np.empty((rows, capacity), dtype=np.float64, order="F")
        self.r = np.zeros((capacity, capacity), dtype=np.float64)
        self.qty = np.zeros(capacity, dtype=np.float64)
        self.residual = y.copy()
        self.y_norm = math.sqrt(float(y @ y))
        self.residual_norm = self.y_norm

    def copy(self):
        new = IncrementalFactorization.__new__(IncrementalFactorization)
        new.rows = self.rows
        new.capacity = self.capacity
        new.k = self.k
        new.indices = list(self.indices)
        new.index_set = set(self.index_set)
        new.q = self.q.copy(order="F")
        new.r = self.r.copy()
        new.qty = self.qty.copy()
        new.residual = self.residual.copy()
        new.residual_norm = self.residual_norm
        new.y_norm = self.y_norm
        return new

    def append(self, a, j):
        """Append column j of a; raises DegenerateColumnError before any state changes."""
        if a.shape[0] != self.rows:
            raise ValueError(f"row mismatch: matrix has {a.shape[0]} rows, factorization has {self.rows}")
        if not 0 <= j < a.shape[1]:
            raise ValueError(f"column index {j} out of range for {a.shape[1]} columns")
        if j in self.index_set:
            raise ValueError(f"column index {j} already selected")
        if self.k >= self.capacity:
            raise ValueError(f"factorization capacity {self.capacity} exhausted")

        k = self.k
        v = a[:, j]
        vnorm2 = float(v @ v)
        if vnorm2 == 0.0:
            raise DegenerateColumnError(f"column {j} is zero")
        qk = self.q[:, :k]
        w = qk.T @ v
        u = v - qk @ w
        unorm2 = float(u @ u)
        if unorm2 < 0.5 * vnorm2:
            # One reorthogonalization pass keeps q orthonormal to working precision.
            w2 = qk.T @ u
            u -= qk @ w2
            w += w2
            unorm2 = float(u @ u)
        if unorm2 <= (DEGENERATE_RTOL * DEGENERATE_RTOL) * vnorm2:
            raise DegenerateColumnError(f"column {j} lies in the selected span")

        unorm = math.sqrt(unorm2)
        u /= unorm
        c = float(u @ self.residual)
        self.q[:, k] = u
        self.r[:k, k] = w
        self.r[k, k] = unorm
        self.qty[k] = c
        self.residual -= c * u
        # A projection cannot lengthen the residual; clamp away rounding noise.
        self.residual_norm = min(self.residual_norm,
                                 math.sqrt(float(self.residual @ self.residual)))
        self.indices.append(j)
        self.index_set.add(j)
        self.k = k + 1
        return self

    def coefficients(self):
        """Solve for the least-squares coefficients of the selected columns."""
        k = self.k
        x = self.qty[:k].copy()
        for i in range(k - 1, -1, -1):
            if self.r[i, i] == 0.0:
                raise ValueError("singular triangular factor")
            x[i] -= self.r[i, i + 1:k] @ x[i + 1:k]
            x[i] /= self.r[i, i]
        return x


def factor_init(a, y, capacity=None):
    """Start an empty factorization of columns of a against target y.

    Parameters
    ----------
    a : (rows, cols) array
    y : (rows,) array
    capacity : int, optional
        Maximum number of columns that will be appended; defaults to
        min(rows, cols).
    """
    a = as_matrix(a)
    y = as_vector(y)
    if a.shape[0] != y.shape[0]:
        raise ValueError(f"row mismatch: matrix has {a.shape[0]} rows, vector has {y.shape[0]}")
    if capacity is None:
        capacity = min(a.shape)
    if capacity < 1:
        raise ValueError("capacity must be at least 1")
    return IncrementalFactorization(a.shape[0], capacity, y)

