"""Dense column-selection linear algebra: incremental QR of a growing column subset."""

import math
import operator
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


class IncrementalFactorization:
    """QR factorization of a growing column selection.

    Each appended column is one immutable record (j, w, unorm, c): its
    dictionary column j, its coordinates w on the earlier basis columns (the
    entries of r above the diagonal), the diagonal entry unorm and the
    projection c = q[:, k].T @ y. Besides the records in append order, a
    factorization tracks their support twice: as the key, the same columns
    as a sorted tuple, by which searches order tied paths and log supports,
    and as the mask, an int whose bit j is set iff column j is selected, by
    which they look supports up. It also tracks an orthonormal basis q of
    their span and the residual of y against the span. One append costs
    O(rows * size) instead of a dense re-solve. indices, r and qty are built
    from the records when read, so q is the only buffer and reading a
    factorization never writes to it.

    Instances are mutable; branch a search path by calling copy() first.
    A copy shares q, the record list, the immutable key and mask and the
    residual, and copies nothing. Factorizations with a common prefix share one q
    buffer and one record list, of which the first k columns and records are
    theirs; written columns and records never change. An append at slot k
    claims it, writing q[:, k] and appending its record, iff the shared list
    holds exactly k records. Otherwise its column stays pending beside the
    shared state, and the factorization moves its prefix into a private q
    and record list only when it is copied or appended to; until then
    q[:, k-1] belongs to whichever factorization claimed that slot. append
    never writes a residual in place: it binds a new array, so a shared
    residual never changes under another factorization.
    """

    __slots__ = ("k", "key", "mask", "q", "records", "pending", "residual",
                 "residual_norm")

    def __init__(self, rows, capacity, y):
        self.k = 0
        self.key = ()
        self.mask = 0
        self.q = np.empty((rows, capacity), dtype=np.float64, order="F")
        self.records = []
        self.pending = None     # (u, record) of column k-1 when unslotted
        self.residual = y.copy()
        self.residual_norm = math.sqrt(float(y @ y))

    def _columns(self):
        # The records of this factorization's k columns, in append order.
        if self.pending is None:
            return self.records[:self.k]
        return self.records[:self.k - 1] + [self.pending[1]]

    @property
    def indices(self):
        return [rec[0] for rec in self._columns()]

    @property
    def r(self):
        """The dense upper-triangular k x k factor."""
        r = np.zeros((self.k, self.k), dtype=np.float64)
        for i, (_j, w, unorm, _c) in enumerate(self._columns()):
            r[:i, i] = w
            r[i, i] = unorm
        return r

    @property
    def qty(self):
        return np.array([rec[3] for rec in self._columns()], dtype=np.float64)

    def _own(self):
        # Move the shared prefix and the pending column into a private q and record list.
        k = self.k - 1
        u, record = self.pending
        q = np.empty(self.q.shape, dtype=np.float64, order="F")
        q[:, :k] = self.q[:, :k]
        q[:, k] = u
        self.q = q
        self.records = self.records[:k] + [record]
        self.pending = None

    def copy(self):
        if self.pending is not None:
            self._own()
        new = IncrementalFactorization.__new__(IncrementalFactorization)
        new.k = self.k
        new.key = self.key
        new.mask = self.mask
        new.q = self.q
        new.records = self.records
        new.pending = None
        new.residual = self.residual
        new.residual_norm = self.residual_norm
        return new

    def append(self, a, j):
        """Append column j of a; raises DegenerateColumnError before any state changes."""
        # A numpy integer would shift out of range: 1 << np.int64(70) == 0.
        j = operator.index(j)
        rows, capacity = self.q.shape
        if a.shape[0] != rows:
            raise ValueError(f"row mismatch: matrix has {a.shape[0]} rows, factorization has {rows}")
        if not 0 <= j < a.shape[1]:
            raise ValueError(f"column index {j} out of range for {a.shape[1]} columns")
        bit = 1 << j
        if self.mask & bit:
            raise ValueError(f"column index {j} already selected")
        if self.k >= capacity:
            raise ValueError(f"factorization capacity {capacity} exhausted")
        if self.pending is not None:
            self._own()

        k = self.k
        v = a[:, j]
        vnorm2 = float(v.dot(v))
        if vnorm2 == 0.0:
            raise DegenerateColumnError(f"column {j} is zero")
        qk = self.q[:, :k]
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
        record = (j, w, unorm, c)
        if len(self.records) == k:
            self.q[:, k] = u
            self.records.append(record)
        else:
            self.pending = (u, record)
        # A new array, never an in-place update: copies share the residual.
        self.residual = residual = self.residual - c * u
        # A projection cannot lengthen the residual; clamp away rounding noise.
        self.residual_norm = min(self.residual_norm,
                                 math.sqrt(float(residual.dot(residual))))
        pos = bisect_left(self.key, j)
        self.key = self.key[:pos] + (j,) + self.key[pos:]
        self.mask |= bit
        self.k = k + 1
        return self

    def coefficients(self):
        """Solve for the least-squares coefficients of the selected columns."""
        k = self.k
        r = self.r
        x = self.qty
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

