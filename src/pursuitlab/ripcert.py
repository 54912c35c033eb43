"""Brute-force restricted isometry certification on desk-scale matrices.

The restricted isometry constant delta_S of a dictionary is the smallest
delta satisfying (1 - delta)||v||^2 <= ||A_T v||^2 <= (1 + delta)||v||^2
over every column subset T of size S. Exact computation must visit all
binomial(N, S) subsets, so compute_ric refuses anything past a hard subset
cap instead of silently falling back to sampling. It certifies every subset
exactly in bounded chunks and reports the first extremal subset in
combinations order. Each subset is enumerated as a head, its first s // 2
columns, plus a tail, from two precomputed tables. Two upper bounds on its
deviation come first: a block bound built from per-head and per-tail
bounds and the head-tail cross term, read from one row of head sums per
head, then, for the subsets that pass, a bound on the whole subset Gram
matrix. The batched eigensolve runs only on the subsets whose bounds
could still beat the running best; until something is certified, a chunk
too large for one eigensolve batch solves its best-bounded subset first
to set that best. A skipped subset provably cannot win, so the
certificate is the one a full enumeration gives. The
lemma1_bounds pair gives the two sufficient recovery thresholds for
branch-L tree search of a K-sparse signal; the looser one strictly
dominates the tighter one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb, sqrt

import numpy as np

from .linalg import as_count, as_matrix

__all__ = [
    "DEFAULT_SUBSET_CAP",
    "EnumerationCapError",
    "RicCertificate",
    "BoundPair",
    "matrix_digest",
    "compute_ric",
    "lemma1_bounds",
]

DEFAULT_SUBSET_CAP = 2_000_000

# Gram entries each stage gathers at a time (64 KiB of float64): the block
# bound gathers s - s // 2 cross entries per subset (2,730 subsets per chunk
# at s=6) from the chunk's head sums, one row of n per head the chunk
# spans (at most the chunk's subsets, about 200 heads at 24 columns,
# s=20), and the whole-subset bound and the eigensolve gather s * s (227),
# so their memory stays flat for any subset count. Four times the budget
# ran no faster and held more memory. The half tables are the exception:
# they hold C(n - ceil(s/2), floor(s/2)) heads of floor(s/2) columns and
# C(n - floor(s/2), ceil(s/2)) tails of ceil(s/2) columns, each with one
# bound. Under the default cap that is at most 80,730 rows per table for
# n <= 64 (n=49, s=44: 28 MB of indices for both), but it grows with n at
# s close to n, up to 500,500 rows of 999 columns per table (4 GB) at
# n=2000, s=1998.
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
    bounded chunks, each split into a head (its first s // 2 columns) and a
    tail. With E = G_T - I, each subset is screened twice before its
    eigensolve. The block bound combines the heads' and tails' Schatten-4
    bounds, computed once per head and per tail, with the squared Frobenius
    norm of the head-tail block of E. That norm comes from the chunk's head
    sums, the rows of E∘E summed over each head's columns, so it gathers
    s - s // 2 entries per subset. The survivors are gathered whole and
    bounded by the Schatten-4 norm ||E^2||_F^(1/2). Stacked eigvalsh calls
    certify exactly the subsets whose bounds are not below the running best
    minus a rounding margin; the rest cannot win. While nothing is
    certified, a chunk too large for one call first certifies its
    best-bounded subset alone, so its other subsets are screened against
    that deviation. On a tie the first subset in combinations order wins,
    as in a full enumeration. Raises EnumerationCapError when the subset
    count exceeds subset_cap, before any work; there is no sampling
    fallback here.
    """
    a = as_matrix(a)
    n = a.shape[1]
    s, subset_cap = as_count(s, "s"), as_count(subset_cap, "subset_cap")
    if s > n:
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
    e = gram - np.eye(n)
    with np.errstate(over="ignore"):
        e_sq = e * e
    halves = _Halves(n, s)
    head_bound = _table_bound(e, halves.heads)
    tail_bound = _table_bound(e, halves.tails)
    step = max(1, _CHUNK_ENTRIES // halves.tails.shape[1])
    batch = max(1, _CHUNK_ENTRIES // (s * s))
    best = -np.inf
    best_rank = total
    best_subset = None
    for start in range(0, total, step):
        head, tail = halves.rows(start, min(start + step, total))
        tails = halves.tails.take(tail, axis=0)
        bound = _block_bound(head_bound[head], tail_bound[tail],
                             _cross(e_sq, halves.heads, head, tails))
        keep = np.flatnonzero(_may_win(bound, best))
        groups = []
        if best == -np.inf and keep.size > batch:
            # Nothing to beat yet, so keep is the whole chunk: certify its
            # best-bounded subset alone and screen the rest against it.
            first = int(np.argmax(bound))
            groups.append(keep[first:first + 1])
            keep = np.delete(keep, first)
        groups += [keep[lo:lo + batch] for lo in range(0, keep.size, batch)]
        for rows in groups:
            rows = rows[_may_win(bound[rows], best)]  # best may have risen
            idx = np.concatenate((halves.heads[head[rows]], tails[rows]),
                                 axis=1)
            win = _may_win(_deviation_bound(_gather(e, idx, idx)), best)
            rows, idx = rows[win], idx[win]
            if not len(idx):
                continue
            eigs = np.linalg.eigvalsh(_gather(gram, idx, idx))
            dev = np.maximum(eigs[:, -1] - 1.0, 1.0 - eigs[:, 0])
            j = int(np.argmax(dev))  # first maximum: the lowest rank in rows
            rank = start + int(rows[j])
            # The first solve may come out of order, so keep the lowest rank
            # among equal deviations explicitly.
            if dev[j] > best or (dev[j] == best and rank < best_rank):
                best, best_rank = dev[j], rank
                best_subset = tuple(idx[j].tolist())
    return RicCertificate(subset_size=s, delta=max(float(best), 0.0),
                          extremal_subset=best_subset,
                          matrix_digest=matrix_digest(a))


def _may_win(bound, best):
    """Subsets whose bound is not provably below best, by _SKIP_MARGIN.

    An inf or NaN bound, and every bound while best is -inf, may win.
    """
    return ~(bound < best - _SKIP_MARGIN * (1.0 + abs(best)))


def _combinations(m, k):
    """Every k-subset of range(m) as a row of an intp array, in combinations order."""
    rows = comb(m, k)
    flat = np.fromiter(chain.from_iterable(combinations(range(m), k)), np.intp, rows * k)
    return flat.reshape(rows, k)


class _Halves:
    """The size-s column subsets of range(n) as (head, tail) row pairs.

    A subset's head is its first s // 2 columns and its tail is the rest.
    heads lists, in combinations order, the heads that have a tail, and
    tails the tails that follow some head. The tails of a head are a suffix
    of tails, so cumulative tail counts per head map consecutive ranks in
    combinations order to their rows with one searchsorted.
    """

    def __init__(self, n, s):
        s1 = s // 2
        s2 = s - s1
        self.heads = _combinations(n - s2, s1)
        self.tails = s1 + _combinations(n - s1, s2)
        last = self.heads[:, -1] if s1 else np.full(1, -1, dtype=np.intp)
        # A head ending at column m has comb(n - 1 - m, s2) tails.
        per_last = np.array([comb(n - 1 - m, s2) for m in range(s1 - 1, n - s2)],
                            dtype=np.int64)
        self._ends = np.cumsum(per_last[last - (s1 - 1)])
        self._shift = len(self.tails) - self._ends

    def rows(self, lo, hi):
        """Head and tail rows of the subsets ranked lo..hi-1."""
        rank = np.arange(lo, hi)
        head = np.searchsorted(self._ends, rank, side="right")
        return head, rank + self._shift[head]


def _gather(m, rows, cols):
    """The stack m[rows[k, i], cols[k, j]] of a square m, through its flat view."""
    return m.ravel()[(rows * len(m))[:, :, None] + cols[:, None, :]]


def _cross(e_sq, heads, head, tails):
    """||E_HL||_F^2 of each subset from one row of head sums per head spanned.

    head is a nondecreasing run of rows of heads and tails holds each
    subset's tail columns. The sum of E∘E over a head's columns is built
    one head column at a time, so the sums hold (heads spanned) x n entries,
    and each subset gathers only its s - s // 2 tail entries of its head's
    row.
    """
    first = head[0]
    spanned = heads[first:head[-1] + 1]
    n = len(e_sq)
    sums = np.zeros((len(spanned), n))
    with np.errstate(over="ignore"):
        for col in spanned.T:
            sums += e_sq.take(col, axis=0)
    # The product with ones sums faster than .sum does.
    return (sums.ravel()[((head - first) * n)[:, None] + tails]
            @ np.ones(tails.shape[1]))


def _table_bound(e, table):
    """_deviation_bound of E on each row's columns, in chunks of _CHUNK_ENTRIES."""
    w = table.shape[1]
    step = max(1, _CHUNK_ENTRIES // max(1, w * w))
    return np.concatenate([
        _deviation_bound(_gather(e, t, t))
        for t in (table[i:i + step] for i in range(0, len(table), step))])


def _block_bound(h, t, cross):
    """Upper bound on ||E||_2 for E = [[E_HH, E_HL], [E_LH, E_LL]].

    ||E||_2 is at most the norm of the 2x2 matrix of block norms, which
    grows with each of them; h and t bound ||E_HH|| and ||E_LL||, and
    cross = ||E_HL||_F^2 bounds ||E_HL||^2. An inf bound on both diagonal
    blocks makes the result NaN, which never skips.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * (h + t) + np.sqrt((0.5 * (h - t)) ** 2 + cross)


def _deviation_bound(e):
    """Upper bound on the spectral norm of each matrix in a stack of E = G_T - I.

    delta_T = max|eig(E)| <= (sum eig(E)^4)^(1/4), which is ||E^2||_F^(1/2).
    An entry of E^2 that overflows makes the bound inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e2 = e @ e
        return np.sqrt(np.sqrt(np.einsum("kij,kij->k", e2, e2)))


def lemma1_bounds(k, l):
    """Both sufficient-recovery thresholds for sparsity k and branch width l.

    Raises ValueError when k or l is not an integer of at least 1, when
    either does not fit in a float64, or when the two thresholds are not
    strictly ordered in float64.
    """
    k, l = as_count(k, "k"), as_count(l, "l")
    try:
        rk, rl = sqrt(k), sqrt(l)
    except OverflowError as err:
        raise ValueError("k and l must fit in a float64") from err
    loose, tight = rl / (rk + rl), rl / (rk + 2.0 * rl)
    if not loose > tight:
        # Past k/l of about 1e32 both thresholds round to the same float64.
        raise ValueError(f"k/l = {k / l:.3g} is too large: both thresholds "
                         f"round to {loose:.12g} in float64")
    return BoundPair(k=k, l=l, bound_loose=loose, bound_tight=tight)

