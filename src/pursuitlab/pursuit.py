"""Tree-search matching pursuits: greedy, breadth-first, depth-first, best-first.

All four searches grow candidate supports column by column over a shared
incremental QR core. One driver, _search, runs every search: it sets up
the child step, takes the zero-signal exit, refuses a dictionary whose
every column is degenerate, names the termination reason and builds the
result. What differs is the frontier it is given, the function that
schedules partial paths over the child step _Expansion: _beam (breadth
first; OMP is the beam with one branch and one surviving path),
_depth_first and _best_first. In that step, _Expansion.child is the only
projection of a new support, _Expansion.ranked the one generator that
turns a ranking into children, and _Expansion.complete the one log of
finished paths. Only the depth-first walk comes back to a node, so only it
keeps a node's resolved ranks across calls. run() maps a config to its
search. Every search reports the same counters:

- iterations: rounds in which the search ranked a path's candidate columns
  and grew from them. run_omp and run_mmp_bf count levels that made at
  least one child, run_mmp_df tree nodes whose children it ranked, and
  run_aomp open paths it popped and expanded.
- explored_nodes: one per projection of a support not seen before.
- paths_opened: paths charged against the max_paths budget.
"""

import math
import operator
from bisect import insort
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .linalg import (
    DegenerateColumnError,
    as_matrix,
    as_vector,
    factor_init,
)

__all__ = [
    "SPARSITY", "RESIDUAL", "MULTIPLICATIVE", "ADAPTIVE_MULTIPLICATIVE", "ADAPTIVE_ALPHA",
    "RESIDUAL_MET", "SPARSITY_MET", "PATH_BUDGET_EXHAUSTED", "ALGORITHMS",
    "DegenerateDictionaryError", "TerminationRule", "CostModel",
    "PursuitConfig", "PursuitResult", "SupportTrie", "path_cost",
    "run_omp", "run_mmp_bf", "run_mmp_df", "run_aomp", "run",
]

SPARSITY = "sparsity"
RESIDUAL = "residual"

MULTIPLICATIVE = "multiplicative"
ADAPTIVE_MULTIPLICATIVE = "adaptive-multiplicative"
# The adaptive-multiplicative decay of the reference protocol; the plain
# multiplicative one is CostModel's default alpha.
ADAPTIVE_ALPHA = 0.97

RESIDUAL_MET = "residual_met"
SPARSITY_MET = "sparsity_met"
PATH_BUDGET_EXHAUSTED = "path_budget_exhausted"

ALGORITHMS = ("omp", "mmp-bf", "mmp-df", "aomp")

_TINY = np.finfo(np.float64).tiny


class DegenerateDictionaryError(ValueError):
    """No usable column at the first level: every candidate is degenerate."""


@dataclass(frozen=True)
class TerminationRule:
    """When a single path stops growing and when it counts as a solution.

    kind="sparsity": grow to exactly k columns; epsilon_rel is the relative
    residual level below which a path already counts as a found solution.
    kind="residual": grow until residual_norm < epsilon_rel * ||y||, with a
    hard support-size cap of k_max columns.
    """

    kind: str
    k: int | None = None
    epsilon_rel: float = 1e-6
    k_max: int = 55

    def __post_init__(self):
        if self.kind not in (SPARSITY, RESIDUAL):
            raise ValueError(f"unknown termination kind {self.kind!r}")
        if self.kind == SPARSITY and self.k is not None and self.k < 1:
            raise ValueError("sparsity target k must be >= 1")
        if not 0.0 < self.epsilon_rel < 1.0:
            raise ValueError("epsilon_rel must lie in (0, 1)")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")

    @classmethod
    def sparsity(cls, k):
        return cls(kind=SPARSITY, k=k)

    @classmethod
    def residual(cls, epsilon_rel=epsilon_rel, k_max=k_max):  # the field defaults
        return cls(kind=RESIDUAL, epsilon_rel=epsilon_rel, k_max=k_max)

    def max_len(self):
        if self.kind == SPARSITY:
            if self.k is None:
                raise ValueError("sparsity rule has no k; resolve it against a problem first")
            return self.k
        return self.k_max


@dataclass(frozen=True)
class CostModel:
    """Path selection cost; lower cost is expanded first.

    The multiplicative flavor discounts the residual toward the target
    length at a fixed rate: residual_norm * alpha ** (target_length -
    path_len). The adaptive-multiplicative flavor rescales the decay each
    step by that step's own progress, base = min(1, alpha * r_new / r_prev):
    a step that cuts the residual sharply earns a deep discount over the
    remaining horizon and keeps its lineage in front, while a stalled step
    falls back to the plain alpha discount and lets the rest of the open
    set compete. The search supplies the horizon, its path length cap.
    """

    kind: str = MULTIPLICATIVE
    alpha: float = 0.8

    def __post_init__(self):
        if self.kind not in (MULTIPLICATIVE, ADAPTIVE_MULTIPLICATIVE):
            raise ValueError(f"unknown cost model kind {self.kind!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")


def path_cost(residual_norm, path_len, target_length, model, prev_residual_norm=None):
    """Cost under model of a partial path toward target_length; lower is expanded first.

    The adaptive-multiplicative kind needs prev_residual_norm, the parent
    path's residual norm before the latest column was appended.
    """
    if path_len > target_length:
        raise ValueError(f"path length {path_len} exceeds target {target_length}")
    base = model.alpha
    if model.kind == ADAPTIVE_MULTIPLICATIVE:
        if prev_residual_norm is None:
            raise ValueError("adaptive-multiplicative cost needs prev_residual_norm")
        if prev_residual_norm > 0.0:
            base = min(1.0, model.alpha * residual_norm / prev_residual_norm)
    return residual_norm * base ** (target_length - path_len)


class SupportTrie:
    """Order-insensitive registry of visited support sets.

    A set is named by its bitmask, an int whose bit j is set iff column j is
    in the set, or by its columns in any order, and is stored once as the
    mask in a hash set. The searches pass a factor's mask, so membership
    costs one lookup, sorts nothing and never touches the factorizations:
    duplicates are detected before any projection is spent on them.

    Size: a mask over n dictionary columns takes 24 + 4 * ceil(n / 30) bytes
    (60 at n = 256) whatever the set's size k, and the sorted tuple it
    replaces 40 + 8k. The mask is the larger only when k < ceil(n / 30) / 2
    - 2: at n <= 300 only for k <= 2, and in general only for dictionaries
    wider than about 60 columns per support column.
    """

    __slots__ = ("_seen",)

    def __init__(self):
        self._seen = set()

    def __contains__(self, support):
        return _mask(support) in self._seen

    def check_insert(self, support):
        """Insert a support set; True if it was new, False if already present."""
        mask = _mask(support)
        if mask in self._seen:
            return False
        self._seen.add(mask)
        return True


def _mask(support):
    # The bitmask of a support given as its mask or as its columns.
    if isinstance(support, int):
        return support
    mask = 0
    for j in support:
        mask |= 1 << operator.index(j)
    return mask


@dataclass(frozen=True)
class PursuitConfig:
    """Knobs for one search run; fields irrelevant to an algorithm are ignored."""

    algorithm: str
    termination: TerminationRule
    branch_factor: int = 6      # children ranked per expanded path (mmp)
    beam_width: int = 4         # surviving paths per level (mmp-bf)
    init_paths: int = 3         # initial single-column paths (aomp)
    expand_branches: int = 2    # children per expansion (aomp)
    max_paths: int = 200        # path budget / open-set cap
    cost_model: CostModel = CostModel()
    label: str | None = None    # report tag; defaults to the algorithm name

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for name in ("branch_factor", "beam_width", "init_paths",
                     "expand_branches", "max_paths"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def tag(self):
        return self.label if self.label is not None else self.algorithm


@dataclass
class PursuitResult:
    estimate: np.ndarray
    support: tuple
    residual_norm: float
    iterations: int
    explored_nodes: int
    paths_opened: int
    terminated_by: str
    trace: dict | None = field(default=None, repr=False)


def _setup(a, y, rule, trace):
    """The expansion kernel, the empty root path, the length cap, the residual
    target and the binary exponents by which _search scales back the
    estimate and the residual norm."""
    a = as_matrix(a)
    y = as_vector(y)
    if a.shape[0] != y.shape[0]:
        raise ValueError(f"row mismatch: matrix has {a.shape[0]} rows, signal has {y.shape[0]}")
    # Finite squared norms keep every correlation finite, so the ranking's
    # argmax order is the stable descending order.
    with np.errstate(over="ignore"):
        yy = float(y @ y)
        aa = float(np.einsum("ij,ij->j", a, a).max())
    if not (math.isfinite(yy) and math.isfinite(aa)):
        raise ValueError("dictionary or signal overflows float64; rescale the inputs")
    # Subnormal squared norms keep few digits, so a tiny dictionary or signal
    # is scaled by an exact power of two, 2**p or 2**q, which _search undoes.
    p, q = _lift(aa), _lift(yy)
    if p or q:
        a, y = np.ldexp(a, p), np.ldexp(y, q)
        yy = float(y @ y)
    # Paths can never usefully outgrow the rank bound min(rows, cols).
    max_len = min(rule.max_len(), a.shape[0], a.shape[1])
    eps = rule.epsilon_rel * math.sqrt(yy)
    return _Expansion(a, trace), factor_init(a, y, capacity=max_len), max_len, eps, p - q, q


def _lift(sq):
    # The exponent e that brings a squared norm in (0, tiny) to about 1 when
    # its vector is scaled by 2**e; 0 for any other squared norm.
    return -(math.frexp(sq)[1] // 2) if 0.0 < sq < _TINY else 0


def _ranked(a, fact):
    """Unselected columns by descending |correlation|, ties to the lowest index.

    Lazy and exact: the correlations are computed once, and each column
    pulled from the returned iterator costs one argmax, plus one for each
    selected column that argmax reaches first. argmax returns the first
    maximum, so every prefix equals that of a full stable sort.
    """
    corr = a.T.dot(fact.residual)
    np.abs(corr, out=corr)
    return _by_rank(corr, fact.mask, a.shape[1] - fact.k)


def _by_rank(corr, mask, left):
    # Selected columns, the set bits of mask, stay in corr and are skipped
    # when argmax reaches them.
    while left:
        j = int(corr.argmax())
        corr[j] = -1.0
        if mask >> j & 1:
            continue
        left -= 1
        yield j


# Child-step outcome for a support already in the registry.
_DUP = object()


class _Ranks:
    """A node's branch ranks: the columns resolved so far and the candidates taken.

    cols[c] is the column at branch rank c, or None for a duplicate. pulled
    counts the candidates of the node's ranking taken so far, degenerate
    ones included. A _Ranks holds no ranking and no factor: a factor rebuilt
    along the same path is bit-identical, so its ranking is the same, and a
    new rank is resolved from a fresh ranking that skips pulled candidates.
    """

    __slots__ = ("cols", "pulled")

    def __init__(self):
        self.cols = []
        self.pulled = 0


class _Expansion:
    """The child step shared by every search.

    Holds the search's support registry, its explored-node count and, when
    tracing, the logs of projected and of completed supports. child() is the
    only projection of a new support, and ranked() the only way a search
    turns branch ranks into children, through children() or rank(); the
    searches differ only in which ranks they ask for and how they schedule
    the children.
    """

    __slots__ = ("a", "trie", "explored", "projected", "completed")

    def __init__(self, a, trace):
        self.a = a
        self.trie = SupportTrie()
        self.explored = 0
        self.projected = [] if trace else None
        self.completed = [] if trace else None

    def complete(self, fact):
        """Log fact's support as a finished path; a no-op when not tracing."""
        if self.completed is not None:
            self.completed.append(tuple(sorted(fact.indices)))

    def child(self, fact, col):
        """Child of fact by column col; _DUP for a seen support, None for a degenerate col.

        A registered support was projected before, so col is independent of
        the span and holds a branch rank; a degenerate column holds none.
        """
        mask = fact.mask | 1 << col
        if mask in self.trie:
            return _DUP
        try:
            child = fact.copy().append(self.a, col)
        except DegenerateColumnError:
            return None
        self.trie.check_insert(mask)
        self.explored += 1
        if self.projected is not None:
            self.projected.append(tuple(sorted(child.indices)))
        return child

    def ranked(self, ranks, fact):
        """Children of fact at its unresolved branch ranks, in rank order.

        Ranks fact once and skips the ranks.pulled candidates taken before.
        Each new rank appends its column to ranks.cols, None for a
        duplicate, and yields the child: a factor, or _DUP for a support
        already registered. A degenerate column holds no rank and later
        ranks shift past it.
        """
        if ranks.pulled == self.a.shape[1] - fact.k:  # every candidate taken
            return
        for col in islice(_ranked(self.a, fact), ranks.pulled, None):
            ranks.pulled += 1
            child = self.child(fact, col)
            if child is not None:
                ranks.cols.append(None if child is _DUP else col)
                yield child

    def rank(self, ranks, fact, c):
        """Child of fact at branch rank c: a factor, _DUP, or None past the last rank.

        ranks is fact's _Ranks, which the depth-first walk keeps per node;
        since a _Ranks holds no factor its tree keeps no factor buffer
        alive. A rank resolved earlier is rebuilt by an uncounted append,
        which reproduces the first child bit for bit. Otherwise fact is
        re-ranked, and resolving rank c projects every unresolved rank
        below it too; a duplicate holds a rank without a projection.
        """
        cols = ranks.cols
        if c < len(cols):
            col = cols[c]
            return _DUP if col is None else fact.copy().append(self.a, col)
        return next(islice(self.ranked(ranks, fact), c - len(cols), None), None)

    def children(self, fact, width):
        """New children of fact at branch ranks 0..width-1; duplicates are left out."""
        return [child for child in islice(self.ranked(_Ranks(), fact), width)
                if child is not _DUP]


def _search(a, y, rule, trace, frontier, *args):
    """Run one search: frontier schedules the paths below the root.

    frontier(expand, root, max_len, eps, *args) grows paths through expand
    and returns (best, iterations, opened, reason), where reason says why it
    stopped if best misses the residual target. Everything else is shared:
    the setup, the zero-signal exit, the refusal of a dictionary whose
    every column is degenerate, the termination reason and the result.
    """
    expand, root, max_len, eps, est_exp, res_exp = _setup(a, y, rule, trace)
    if root.residual.any():
        best, iterations, opened, reason = frontier(expand, root, max_len, eps, *args)
        if not expand.explored:
            raise DegenerateDictionaryError("every dictionary column is degenerate")
    else:
        expand.complete(root)
        best, iterations, opened, reason = root, 0, 1, RESIDUAL_MET
    terminated = RESIDUAL_MET if best.residual_norm < eps else reason
    est = np.zeros(expand.a.shape[1])
    est[best.indices] = np.ldexp(best.coefficients(), est_exp)
    tr = (None if expand.projected is None
          else {"projected": expand.projected, "completed": expand.completed})
    return PursuitResult(est, tuple(best.indices), math.ldexp(best.residual_norm, -res_exp),
                         iterations, expand.explored, opened, terminated, tr)


def _residual_order(fact):
    return fact.residual_norm, fact.mask


def _beam(expand, root, max_len, eps, branch, beam_cap):
    """The level-synchronous beam behind run_mmp_bf and run_omp.

    Each level keeps its beam_cap children of least residual norm. Exact
    ties go to the smaller support mask: of the columns in one support but
    not the other, the highest decides, and the support without it wins.
    """
    beam = [root]
    iterations = 0
    opened = 1
    children = []

    for _level in range(max_len):
        children = [child for path in beam
                    for child in expand.children(path, branch)]
        if not children:
            break
        iterations += 1
        met = [f for f in children if f.residual_norm < eps]
        if met:
            for f in met:
                expand.complete(f)
            return min(met, key=_residual_order), iterations, opened, RESIDUAL_MET
        children.sort(key=_residual_order)
        beam = children[:beam_cap]
        opened = max(opened, len(beam))

    # Either the final level completed (children hold full-length paths) or
    # the search got stuck early and the surviving beam is all there is;
    # both are sorted, best first.
    done = children or beam
    for f in done:
        expand.complete(f)
    return done[0], iterations, opened, SPARSITY_MET if children else PATH_BUDGET_EXHAUSTED


def run_omp(a, y, termination, trace=False):
    """Greedy pursuit: repeatedly append the best-correlated usable column.

    Parameters
    ----------
    a : (rows, cols) array
        Dictionary whose columns are the candidate atoms.
    y : (rows,) array
        Observed signal.
    termination : TerminationRule
    trace : bool
        Attach projected/completed support logs to the result.
    """
    return _search(a, y, termination, trace, _beam, 1, 1)


def run_mmp_bf(a, y, config, trace=False):
    """Breadth-first multipath pursuit: level-synchronous beam over the tree.

    Every surviving path spawns its branch_factor best children per level;
    duplicate supports are merged via the trie and the beam_width best
    children by residual norm survive to the next level.
    """
    if config.algorithm != "mmp-bf":
        raise ValueError(f"config.algorithm is {config.algorithm!r}, expected 'mmp-bf'")
    return _search(a, y, config.termination, trace, _beam, config.branch_factor,
                   min(config.beam_width, config.max_paths))


def _paths(expand, tree, root, total, branch, max_len, eps):
    """Last factor of each realized path below root whose branch ranks sum to total.

    Lazy, in walk order: a caller that stops pulling stops projecting. The
    walk keeps its own stack, one record per level: [fact, its _Ranks (kept
    in tree across totals), branch sum left, next rank, last rank]. The
    tree holds resolved columns, not n correlations per node: a ranking
    lives for one call of the child step, and a later total that needs a
    new rank re-ranks the rebuilt factor.
    """
    stack = []
    fact, remaining = root, total
    while fact is not None:
        if fact.residual_norm < eps or fact.k == max_len:
            if remaining == 0:
                yield fact
        else:
            ranks = tree.get(fact.mask)
            if ranks is None:
                ranks = tree[fact.mask] = _Ranks()
            # Ranks below remaining - headroom leave more branch sum than the
            # levels below this one can spend.
            headroom = (branch - 1) * (max_len - fact.k - 1)
            stack.append([fact, ranks, remaining,
                          max(0, remaining - headroom), min(branch - 1, remaining)])
        fact = None
        while fact is None and stack:  # the next child, from the deepest level
            level = stack[-1]
            parent, ranks, left, c, last = level
            level[3] = c + 1
            child = expand.rank(ranks, parent, c) if c <= last else None
            if child is None:
                stack.pop()
                if c == 0 and left == 0:  # no candidate at all: stuck, and complete
                    yield parent
            elif child is not _DUP:
                fact, remaining = child, left - c


def _depth_first(expand, root, max_len, eps, branch, max_paths):
    """The walk behind run_mmp_df: completed paths by nondecreasing branch-rank sum."""
    tree = {}        # support mask -> _Ranks of that node
    best = None
    paths = 0
    # Total 0 walks the greedy path, which completes (the registry then holds
    # only its shorter prefixes; a root without children completes itself),
    # so best is set from the first total on.
    for total in range((branch - 1) * max_len + 1):
        for fact in _paths(expand, tree, root, total, branch, max_len, eps):
            paths += 1
            expand.complete(fact)
            if best is None or fact.residual_norm < best.residual_norm:
                best = fact
            if best.residual_norm < eps or paths == max_paths:
                return best, len(tree), paths, PATH_BUDGET_EXHAUSTED
    return best, len(tree), paths, PATH_BUDGET_EXHAUSTED


def run_mmp_df(a, y, config, trace=False):
    """Depth-first multipath pursuit over branch-choice vectors.

    Candidate paths are branch-choice vectors (c_1, ..., c_d), c_i in
    [0, branch_factor), enumerated by nondecreasing sum with lexicographic
    ties, the all-zero (pure greedy) path first. Each path is grown to
    termination; supports already seen in the trie are skipped without
    consuming the max_paths budget, and the smallest-residual completed
    path wins unless one meets the residual criterion outright. The
    registry gives every walked node its own support, so the tree is keyed
    by support mask rather than by choice vector. The walk keeps its own stack,
    so a path can be max_len deep, and frees its state on return.
    """
    if config.algorithm != "mmp-df":
        raise ValueError(f"config.algorithm is {config.algorithm!r}, expected 'mmp-df'")
    return _search(a, y, config.termination, trace, _depth_first,
                   config.branch_factor, config.max_paths)


def _best_first(expand, root, max_len, eps, config):
    """The open-set search behind run_aomp.

    The open set is ordered by cost, and exact cost ties go to the smaller
    support mask as in _beam. Masks never tie: the registry lets each
    support in once.
    """
    model = config.cost_model
    cap = config.max_paths
    sparsity = config.termination.kind == SPARSITY
    open_list = []   # (cost, support mask, factorization), ascending
    best_any = root
    iterations = 0
    opened = 0

    def push(parent, width):
        # Open the new children of parent, pruning the open set to the cap.
        # best_any tracks the best support seen anywhere, even if it is later
        # pruned. Ties go to the longer path so that collapsing the search to
        # a single lineage returns the full greedy support; a child's
        # residual is never above its parent's, so the first child beats
        # the root.
        nonlocal best_any, opened
        for child in expand.children(parent, width):
            if (child.residual_norm < best_any.residual_norm
                    or (child.residual_norm == best_any.residual_norm
                        and child.k > best_any.k)):
                best_any = child
            if child.residual_norm < eps or child.k == max_len:
                expand.complete(child)
            cost = path_cost(child.residual_norm, child.k, max_len, model,
                             parent.residual_norm)
            insort(open_list, (cost, child.mask, child))
            if len(open_list) > cap:
                open_list.pop()
        opened = max(opened, len(open_list))

    push(root, config.init_paths)
    while open_list:
        _cost, _mask, fact = open_list.pop(0)
        if fact.residual_norm < eps or (sparsity and fact.k == max_len):
            if best_any.residual_norm < fact.residual_norm:
                fact = best_any
            return fact, iterations, opened, SPARSITY_MET
        if fact.k == max_len:
            continue  # residual rule: capped path that missed, a dead end
        iterations += 1
        push(fact, config.expand_branches)

    # Open set exhausted: every live path ended at the cap, a duplicate, or
    # a degenerate column. Fall back to the best support seen anywhere.
    return best_any, iterations, opened, PATH_BUDGET_EXHAUSTED


def run_aomp(a, y, config, trace=False):
    """Best-first pursuit: expand the cheapest open path under the cost model.

    Opens init_paths single-column paths from the strongest correlations,
    then repeatedly pops the minimum-cost open path; a popped path that
    satisfies the termination rule ends the search. Under the residual rule
    a path at the k_max cap that misses the threshold is a dead end: it is
    set aside and the search moves on. Expansions insert up to
    expand_branches children (duplicates merged via the trie), and the open
    set is pruned to max_paths by discarding the worst-cost paths.
    """
    if config.algorithm != "aomp":
        raise ValueError(f"config.algorithm is {config.algorithm!r}, expected 'aomp'")
    return _search(a, y, config.termination, trace, _best_first, config)


def run(a, y, config, trace=False):
    """Run the search that config.algorithm names; OMP reads only the rule."""
    # The searches are looked up in this module's globals at call time, so
    # a wrapper installed on pursuit.run_* sees every dispatched call.
    if config.algorithm == "omp":
        return run_omp(a, y, config.termination, trace=trace)
    if config.algorithm == "mmp-bf":
        return run_mmp_bf(a, y, config, trace=trace)
    if config.algorithm == "mmp-df":
        return run_mmp_df(a, y, config, trace=trace)
    return run_aomp(a, y, config, trace=trace)
