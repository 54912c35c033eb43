"""Dense column-selection linear algebra: incremental QR of a growing column subset."""

import math
from bisect import bisect_left

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


class _Columns:
    """Capacity-width q/qty storage, plus one R record per column, shared by
    factorizations with a common prefix.

    Column k's record is (w, unorm): w holds the new column's coordinates on
    q[:, :k], R's entries above the diagonal, and unorm the diagonal entry.
    Columns [0, fill) and their records are written once and never change
    afterwards, so every factorization whose first columns are these can
    read them in place; a private copy of the prefix copies q and qty and
    shares the records.
    """

    __slots__ = ("q", "qty", "records")

    def __init__(self, rows, capacity):
        self.q = np.empty((rows, capacity), dtype=np.float64, order="F")
        self.qty = np.zeros(capacity, dtype=np.float64)
        self.records = []

    @property
    def fill(self):
        return len(self.records)

    def claim(self, k, u, w, unorm, c):
        """Write column k, the first free slot."""
        self.q[:, k] = u
        self.qty[k] = c
        self.records.append((w, unorm))

    def r(self, k):
        """The dense upper-triangular k x k factor of the first k columns."""
        r = np.zeros((k, k), dtype=np.float64)
        records = self.records
        for j in range(k):
            w, unorm = records[j]
            r[:j, j] = w
            r[j, j] = unorm
        return r


class IncrementalFactorization:
    """QR factorization of a growing column selection.

    Tracks the selected column indices in append order (the column order of
    q), their support key (the same indices as a sorted tuple), an
    orthonormal basis q of their span, the triangular factor r, the
    projections qty = q.T @ y, and the residual of y against the span. One
    append costs O(rows * size) instead of a dense re-solve. r is kept as
    one record per column and built as a dense k x k array only when read
    and when solving, so a buffer holds no capacity x capacity array.

    Instances are mutable; branch a search path by calling copy() first.
    A copy shares its source's q/qty buffer, R records, immutable key and
    residual, and owns only its index list, so it costs O(size). append
    never writes a residual in place: it binds a new array, so a shared
    residual never changes under another factorization. An append builds
    the child key with one sorted insertion. The first factorization to
    append to a shared buffer at slot k claims that slot and writes there;
    written slots never change. A later append at a claimed slot keeps its
    column pending beside the buffer, and the factorization copies q and
    qty into a private buffer, sharing the records of its prefix, only
    when it is copied, appended to or solved. Until then column k-1 of q,
    r and qty belongs to whichever factorization claimed it.
    """

    __slots__ = ("k", "indices", "key", "cols", "pending", "residual",
                 "residual_norm")

    def __init__(self, rows, capacity, y):
        self.k = 0
        self.indices = []
        self.key = ()
        self.cols = _Columns(rows, capacity)
        self.pending = None     # (u, w, unorm, c) of column k-1 when unslotted
        self.residual = y.copy()
        self.residual_norm = math.sqrt(float(y @ y))

    @property
    def q(self):
        return self.cols.q

    @property
    def r(self):
        return self.cols.r(self.k)

    @property
    def qty(self):
        return self.cols.qty

    def _own(self):
        # Move the shared prefix and the pending column into a private buffer.
        k = self.k - 1
        old = self.cols
        cols = _Columns(*old.q.shape)
        cols.q[:, :k] = old.q[:, :k]
        cols.qty[:k] = old.qty[:k]
        cols.records = old.records[:k]
        cols.claim(k, *self.pending)
        self.cols = cols
        self.pending = None

    def copy(self):
        if self.pending is not None:
            self._own()
        new = IncrementalFactorization.__new__(IncrementalFactorization)
        new.k = self.k
        new.indices = list(self.indices)
        new.key = self.key
        new.cols = self.cols
        new.pending = None
        new.residual = self.residual
        new.residual_norm = self.residual_norm
        return new

    def append(self, a, j):
        """Append column j of a; raises DegenerateColumnError before any state changes."""
        rows, capacity = self.cols.q.shape
        if a.shape[0] != rows:
            raise ValueError(f"row mismatch: matrix has {a.shape[0]} rows, factorization has {rows}")
        if not 0 <= j < a.shape[1]:
            raise ValueError(f"column index {j} out of range for {a.shape[1]} columns")
        pos = bisect_left(self.key, j)
        if pos < len(self.key) and self.key[pos] == j:
            raise ValueError(f"column index {j} already selected")
        if self.k >= capacity:
            raise ValueError(f"factorization capacity {capacity} exhausted")
        if self.pending is not None:
            self._own()

        k = self.k
        cols = self.cols
        v = a[:, j]
        vnorm2 = float(v.dot(v))
        if vnorm2 == 0.0:
            raise DegenerateColumnError(f"column {j} is zero")
        qk = cols.q[:, :k]
        w = qk.T.dot(v)
        u = v - qk.dot(w)
        unorm2 = float(u.dot(u))
        if unorm2 < 0.5 * vnorm2:
            # One reorthogonalization pass keeps q orthonormal to working precision.
            w2 = qk.T.dot(u)
            u -= qk.dot(w2)
            w += w2
            unorm2 = float(u.dot(u))
        if unorm2 <= (DEGENERATE_RTOL * DEGENERATE_RTOL) * vnorm2:
            raise DegenerateColumnError(f"column {j} lies in the selected span")

        unorm = math.sqrt(unorm2)
        u /= unorm
        c = float(u.dot(self.residual))
        if cols.fill == k:
            cols.claim(k, u, w, unorm, c)
        else:
            self.pending = (u, w, unorm, c)
        # A new array, never an in-place update: copies share the residual.
        self.residual = residual = self.residual - c * u
        # A projection cannot lengthen the residual; clamp away rounding noise.
        self.residual_norm = min(self.residual_norm,
                                 math.sqrt(float(residual.dot(residual))))
        self.indices.append(j)
        self.key = self.key[:pos] + (j,) + self.key[pos:]
        self.k = k + 1
        return self

    def coefficients(self):
        """Solve for the least-squares coefficients of the selected columns."""
        if self.pending is not None:
            self._own()
        k = self.k
        r = self.cols.r(k)
        x = self.cols.qty[:k].copy()
        for i in range(k - 1, -1, -1):
            if r[i, i] == 0.0:
                raise ValueError("singular triangular factor")
            x[i] -= r[i, i + 1:k].dot(x[i + 1:k])
            x[i] /= r[i, i]
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

