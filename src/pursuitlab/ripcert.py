"""Brute-force restricted isometry certification on desk-scale matrices.

The restricted isometry constant delta_S of a dictionary is the smallest
delta satisfying (1 - delta)||v||^2 <= ||A_T v||^2 <= (1 + delta)||v||^2
over every column subset T of size S. Exact computation must visit all
binomial(N, S) subsets, so compute_ric refuses anything past a hard subset
cap instead of silently falling back to sampling. It certifies every subset
exactly in bounded chunks and reports the first extremal subset in
combinations order. A cheap upper bound on each subset's deviation comes
first, and the batched eigensolve runs only on the subsets whose bound
could still beat the running best; a skipped subset provably cannot win,
so the certificate is the one a full enumeration gives. The lemma1_bounds
pair gives the two sufficient recovery thresholds for branch-L tree search
of a K-sparse signal; the looser one strictly dominates the tighter one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb, sqrt

import numpy as np

from .linalg import as_matrix

__all__ = [
    "DEFAULT_SUBSET_CAP",
    "EnumerationCapError",
    "RicCertificate",
    "BoundPair",
    "matrix_digest",
    "compute_ric",
    "lemma1_bounds",
    "check_recovery_condition",
]

DEFAULT_SUBSET_CAP = 2_000_000

# Gram entries stacked per eigensolve (64 KiB of float64; 227 subsets at
# s=6). Subsets per chunk shrink as s grows, so memory stays flat for any
# subset count. Four times the budget ran no faster and held more memory.
_CHUNK_ENTRIES = 8_192

# Relative margin under the running best below which a subset's bound skips
# its eigensolve: skip iff bound < best - _SKIP_MARGIN * (1 + |best|). Every
# subset that could be skipped has ||G_T|| <= 1 + best, so eigvalsh's error
# and the bound's own rounding (the product, the sum of squares, the roots)
# stay within a few hundred eps * (1 + |best|), about 1e-13 relative; the
# margin is four orders above that, so no subset whose computed deviation
# could reach best is ever skipped.
_SKIP_MARGIN = 1e-9


class EnumerationCapError(ValueError):
    """Exact RIC enumeration would exceed the configured subset cap."""


def matrix_digest(a):
    """Content hash of a matrix: shape header plus row-major float64 bytes."""
    m = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    h = hashlib.sha256()
    h.update(f"{'x'.join(str(d) for d in m.shape)}:".encode())
    h.update(m.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class RicCertificate:
    """Exact restricted isometry constant for one subset size.

    extremal_subset is a column index set attaining delta; matrix_digest
    ties the certificate to the matrix contents it was computed from.
    """

    subset_size: int
    delta: float
    extremal_subset: tuple
    matrix_digest: str

    def __post_init__(self):
        if self.subset_size < 1:
            raise ValueError("subset_size must be >= 1")
        if self.delta < 0.0:
            raise ValueError("delta must be nonnegative")
        if len(self.extremal_subset) != self.subset_size:
            raise ValueError("extremal_subset size must equal subset_size")


@dataclass(frozen=True)
class BoundPair:
    """The two recovery thresholds for branch width l and sparsity k.

    bound_loose = sqrt(l)/(sqrt(k) + sqrt(l)) always exceeds
    bound_tight = sqrt(l)/(sqrt(k) + 2 sqrt(l)); a certified delta below
    either threshold suffices for exact tree-search recovery under the
    no-pruning assumption, and the loose one admits strictly more matrices.
    """

    k: int
    l: int
    bound_loose: float
    bound_tight: float


def compute_ric(a, s, subset_cap=DEFAULT_SUBSET_CAP):
    """Exact delta_s of a dictionary by exhaustive subset enumeration.

    Walks every size-s column subset, takes the extremal eigenvalues of the
    subset Gram matrix, and returns the worst deviation from isometry along
    with a subset attaining it. Subsets are taken in combinations order in
    bounded chunks. With E = G_T - I, each subset's deviation is
    ||E||_2 <= ||E^2||_F^(1/2), the Schatten-4 norm of E; one stacked
    eigvalsh call per chunk certifies exactly the subsets whose bound is not
    below the running best minus a rounding margin, and the rest, which
    cannot win, skip it. On a tie the first subset in combinations order
    wins, as in a full enumeration. Raises EnumerationCapError
    when the subset count exceeds subset_cap, before any work; there is no
    sampling fallback here.
    """
    a = as_matrix(a)
    n = a.shape[1]
    if not 1 <= s <= n:
        raise ValueError(f"subset size {s} must lie in 1..{n}")
    total = comb(n, s)
    if total > subset_cap:
        raise EnumerationCapError(
            f"C({n},{s}) = {total} subsets exceeds the cap of {subset_cap}; "
            "refusing inexact certification")

    with np.errstate(over="ignore"):
        gram = a.T @ a
    if not np.isfinite(gram).all():
        raise ValueError("Gram matrix overflows float64; rescale the dictionary")
    chunk = max(1, _CHUNK_ENTRIES // (s * s))
    combos = combinations(range(n), s)
    best = -np.inf
    best_subset = None
    for start in range(0, total, chunk):
        rows = min(chunk, total - start)
        idx = np.fromiter(chain.from_iterable(islice(combos, rows)),
                          dtype=np.intp, count=rows * s).reshape(rows, s)
        sub = gram[idx[:, :, None], idx[:, None, :]]
        # Skip only a bound provably below the threshold, so an inf or NaN
        # bound, and every subset while best is -inf, is solved.
        threshold = best - _SKIP_MARGIN * (1.0 + abs(best))
        keep = np.flatnonzero(~(_deviation_bound(sub) < threshold))
        if keep.size == 0:
            continue
        eigs = np.linalg.eigvalsh(sub[keep])
        dev = np.maximum(eigs[:, -1] - 1.0, 1.0 - eigs[:, 0])
        j = int(np.argmax(dev))  # first maximum: earliest subset wins ties
        if dev[j] > best:
            best = dev[j]
            best_subset = tuple(idx[keep[j]].tolist())
    return RicCertificate(subset_size=s, delta=max(float(best), 0.0),
                          extremal_subset=best_subset,
                          matrix_digest=matrix_digest(a))


def _deviation_bound(sub):
    """Upper bound on each stacked Gram's deviation from isometry.

    With E = G_T - I, delta_T = max|eig(E)| <= (sum eig(E)^4)^(1/4), which
    is ||E^2||_F^(1/2). An entry of E^2 that overflows makes the bound inf.
    """
    e = sub - np.eye(sub.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        e2 = e @ e
        return np.sqrt(np.sqrt(np.einsum("kij,kij->k", e2, e2)))


def lemma1_bounds(k, l):
    """Both sufficient-recovery thresholds for sparsity k and branch width l."""
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    rk, rl = sqrt(k), sqrt(l)
    return BoundPair(k=k, l=l,
                     bound_loose=rl / (rk + rl),
                     bound_tight=rl / (rk + 2.0 * rl))


def check_recovery_condition(a, k, l, which="loose"):
    """Certify delta_{k+l} against one of the recovery thresholds.

    Returns (ok, certificate) where ok is True iff the exact delta_{k+l} of
    the dictionary falls below the selected threshold ("loose" or "tight").
    """
    if which not in ("loose", "tight"):
        raise ValueError(f"which must be 'loose' or 'tight', got {which!r}")
    bounds = lemma1_bounds(k, l)
    cert = compute_ric(a, k + l)
    bound = bounds.bound_loose if which == "loose" else bounds.bound_tight
    return cert.delta < bound, cert
