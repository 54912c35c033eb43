"""Tree-search matching pursuits: greedy, breadth-first, depth-first, best-first.

All four searches grow candidate supports column by column over a shared
incremental QR core. The three tree searches share one child-expansion
step and differ only in how they schedule partial paths. Every search
reports the same counters:

- iterations: rounds in which the search ranked a path's candidate columns
  and grew from them. run_omp counts columns appended, run_mmp_bf levels
  that made at least one child, run_mmp_df tree nodes whose children it
  ranked, and run_aomp open paths it popped and expanded.
- explored_nodes: one per projection of a support not seen before.
- paths_opened: paths charged against the max_paths budget.
"""

import math
from bisect import insort
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import (
    DegenerateColumnError,
    as_matrix,
    as_vector,
    factor_init,
)

__all__ = [
    "SPARSITY", "RESIDUAL", "MULTIPLICATIVE", "ADAPTIVE_MULTIPLICATIVE",
    "RESIDUAL_MET", "SPARSITY_MET", "PATH_BUDGET_EXHAUSTED", "ALGORITHMS",
    "DegenerateDictionaryError", "TerminationRule", "CostModel",
    "PursuitConfig", "PursuitResult", "SupportTrie", "path_cost",
    "scatter_estimate", "run_omp", "run_mmp_bf", "run_mmp_df", "run_aomp",
]

SPARSITY = "sparsity"
RESIDUAL = "residual"

MULTIPLICATIVE = "multiplicative"
ADAPTIVE_MULTIPLICATIVE = "adaptive-multiplicative"

RESIDUAL_MET = "residual_met"
SPARSITY_MET = "sparsity_met"
PATH_BUDGET_EXHAUSTED = "path_budget_exhausted"

ALGORITHMS = ("omp", "mmp-bf", "mmp-df", "aomp")


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
    def sparsity(cls, k, solution_eps=1e-6):
        return cls(kind=SPARSITY, k=k, epsilon_rel=solution_eps)

    @classmethod
    def residual(cls, epsilon_rel=1e-6, k_max=55):
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
    set compete. target_length=None defers the horizon to the termination
    rule at run time.
    """

    kind: str = MULTIPLICATIVE
    alpha: float = 0.8
    target_length: int | None = None

    def __post_init__(self):
        if self.kind not in (MULTIPLICATIVE, ADAPTIVE_MULTIPLICATIVE):
            raise ValueError(f"unknown cost model kind {self.kind!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if self.target_length is not None and self.target_length < 1:
            raise ValueError("target_length must be >= 1")


def path_cost(residual_norm, path_len, model, prev_residual_norm=None):
    """Cost of a partial path under model; lower is expanded first.

    The adaptive-multiplicative kind needs prev_residual_norm, the parent
    path's residual norm before the latest column was appended.
    """
    if model.target_length is None:
        raise ValueError("cost model target_length is unresolved")
    if path_len > model.target_length:
        raise ValueError(f"path length {path_len} exceeds target {model.target_length}")
    base = model.alpha
    if model.kind == ADAPTIVE_MULTIPLICATIVE:
        if prev_residual_norm is None:
            raise ValueError("adaptive-multiplicative cost needs prev_residual_norm")
        if prev_residual_norm > 0.0:
            base = min(1.0, model.alpha * residual_norm / prev_residual_norm)
    return residual_norm * base ** (model.target_length - path_len)


class SupportTrie:
    """Order-insensitive registry of visited support sets.

    Each set is stored once as a sorted tuple in a hash set, so membership
    costs one sort and one lookup and never touches the factorizations:
    duplicates are detected before any projection is spent on them.
    """

    __slots__ = ("_seen",)

    def __init__(self):
        self._seen = set()

    def __contains__(self, support):
        return tuple(sorted(support)) in self._seen

    def check_insert(self, support):
        """Insert a support set; True if it was new, False if already present."""
        key = tuple(sorted(support))
        if key in self._seen:
            return False
        self._seen.add(key)
        return True


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


def scatter_estimate(support, coefficients, n):
    """Place coefficients at support positions in a length-n zero vector."""
    support = [int(j) for j in support]
    coefficients = np.asarray(coefficients, dtype=np.float64)
    if coefficients.ndim != 1 or len(support) != coefficients.shape[0]:
        raise ValueError("support and coefficients must have equal length")
    if len(set(support)) != len(support):
        raise ValueError("support indices must be distinct")
    out = np.zeros(n, dtype=np.float64)
    for j, c in zip(support, coefficients):
        if not 0 <= j < n:
            raise ValueError(f"support index {j} out of range for length {n}")
        out[j] = c
    return out


def _setup(a, y, rule):
    a = as_matrix(a)
    y = as_vector(y)
    if a.shape[0] != y.shape[0]:
        raise ValueError(f"row mismatch: matrix has {a.shape[0]} rows, signal has {y.shape[0]}")
    # Paths can never usefully outgrow the rank bound min(rows, cols).
    max_len = min(rule.max_len(), a.shape[0], a.shape[1])
    eps = rule.epsilon_rel * math.sqrt(float(y @ y))
    return a, y, max_len, eps


def _zero_result(n, trace):
    tr = {"projected": [], "completed": [()]} if trace else None
    return PursuitResult(np.zeros(n), (), 0.0, 0, 0, 1, RESIDUAL_MET, tr)


def _finish(n, fact, iterations, explored, opened, terminated_by, tr):
    est = scatter_estimate(fact.indices, fact.coefficients(), n)
    return PursuitResult(est, tuple(fact.indices), fact.residual_norm,
                         iterations, explored, opened, terminated_by, tr)


def _ranked(a, fact):
    """Unselected columns by descending |correlation|, ties to the lowest index."""
    corr = np.abs(a.T @ fact.residual)
    if fact.indices:
        corr[fact.indices] = -1.0
    order = np.argsort(-corr, kind="stable")
    return order[: a.shape[1] - fact.k]


def _support_key(fact):
    return tuple(sorted(fact.index_set))


# Child-step outcome for a support already in the registry.
_DUP = object()


class _Expansion:
    """The child step shared by the three tree searches.

    Holds the search's support registry, its explored-node count and, when
    tracing, the log of projected supports. Every projection of a new
    support goes through child(); the searches differ only in which
    candidates they ask for and how they schedule the children.
    """

    __slots__ = ("a", "trie", "explored", "projected")

    def __init__(self, a, trace):
        self.a = a
        self.trie = SupportTrie()
        self.explored = 0
        self.projected = [] if trace else None

    def child(self, fact, col):
        """Child of fact by column col; _DUP for a seen support, None for a degenerate col.

        A registered support was projected before, so col is independent of
        the span and holds a branch rank; a degenerate column holds none.
        """
        key = tuple(sorted(fact.index_set | {col}))
        if key in self.trie:
            return _DUP
        try:
            child = fact.copy().append(self.a, col)
        except DegenerateColumnError:
            return None
        self.trie.check_insert(key)
        self.explored += 1
        if self.projected is not None:
            self.projected.append(key)
        return child

    def children(self, fact, width):
        """New children among the width best-ranked usable columns of fact.

        A duplicate takes one of the width slots without a projection.
        """
        out = []
        slots = 0
        for j in _ranked(self.a, fact):
            if slots == width:
                break
            child = self.child(fact, int(j))
            if child is None:
                continue
            slots += 1
            if child is not _DUP:
                out.append(child)
        return out


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
    a, y, max_len, eps = _setup(a, y, termination)
    n = a.shape[1]
    if not np.any(y):
        return _zero_result(n, trace)
    fact = factor_init(a, y, capacity=max_len)
    projected = []
    iterations = 0
    while True:
        if fact.residual_norm < eps:
            terminated = RESIDUAL_MET
            break
        if fact.k == max_len:
            terminated = SPARSITY_MET
            break
        appended = False
        for j in _ranked(a, fact):
            try:
                fact.append(a, int(j))
                appended = True
                break
            except DegenerateColumnError:
                continue
        if not appended:
            if fact.k == 0:
                raise DegenerateDictionaryError("every dictionary column is degenerate")
            terminated = PATH_BUDGET_EXHAUSTED
            break
        iterations += 1
        if trace:
            projected.append(_support_key(fact))
    tr = {"projected": projected, "completed": [_support_key(fact)]} if trace else None
    return _finish(n, fact, iterations, iterations, 1, terminated, tr)


def run_mmp_bf(a, y, config, trace=False):
    """Breadth-first multipath pursuit: level-synchronous beam over the tree.

    Every surviving path spawns its branch_factor best children per level;
    duplicate supports are merged via the trie and the beam_width best
    children by residual norm survive to the next level.
    """
    if config.algorithm != "mmp-bf":
        raise ValueError(f"config.algorithm is {config.algorithm!r}, expected 'mmp-bf'")
    a, y, max_len, eps = _setup(a, y, config.termination)
    n = a.shape[1]
    if not np.any(y):
        return _zero_result(n, trace)

    beam_cap = min(config.beam_width, config.max_paths)
    expand = _Expansion(a, trace)
    beam = [factor_init(a, y, capacity=max_len)]
    iterations = 0
    opened = 1
    children = []

    for _level in range(max_len):
        children = [child for path in beam
                    for child in expand.children(path, config.branch_factor)]
        if not children:
            break
        iterations += 1
        met = [f for f in children if f.residual_norm < eps]
        if met:
            best = min(met, key=lambda f: (f.residual_norm, _support_key(f)))
            tr = {"projected": expand.projected,
                  "completed": [_support_key(f) for f in met]} if trace else None
            return _finish(n, best, iterations, expand.explored, opened, RESIDUAL_MET, tr)
        children.sort(key=lambda f: (f.residual_norm, _support_key(f)))
        beam = children[:beam_cap]
        opened = max(opened, len(beam))

    if expand.explored == 0:
        raise DegenerateDictionaryError("every dictionary column is degenerate")
    # Either the final level completed (children hold full-length paths) or
    # the search got stuck early and the surviving beam is all there is.
    completed = children if children else beam
    terminated = SPARSITY_MET if children else PATH_BUDGET_EXHAUSTED
    best = min(completed, key=lambda f: (f.residual_norm, _support_key(f)))
    tr = {"projected": expand.projected,
          "completed": [_support_key(f) for f in completed]} if trace else None
    return _finish(n, best, iterations, expand.explored, opened, terminated, tr)


# Outcome of _descend when the branch rank does not exist.
_INVALID = object()


class _DfNode:
    """Cached per-node state for the depth-first tree walk."""

    __slots__ = ("ranked", "valid", "next", "skip")

    def __init__(self, ranked):
        self.ranked = ranked   # unselected columns by correlation rank
        self.valid = []        # validated non-degenerate candidates, rank order
        self.next = 0          # next ranked entry to validate
        self.skip = set()      # branch ranks whose subtree is a duplicate


def run_mmp_df(a, y, config, trace=False):
    """Depth-first multipath pursuit over branch-choice vectors.

    Candidate paths are branch-choice vectors (c_1, ..., c_d), c_i in
    [0, branch_factor), enumerated by nondecreasing sum with lexicographic
    ties, the all-zero (pure greedy) path first. Each path is grown to
    termination; supports already seen in the trie are skipped without
    consuming the max_paths budget, and the smallest-residual completed
    path wins unless one meets the residual criterion outright.
    """
    if config.algorithm != "mmp-df":
        raise ValueError(f"config.algorithm is {config.algorithm!r}, expected 'mmp-df'")
    a, y, max_len, eps = _setup(a, y, config.termination)
    n = a.shape[1]
    if not np.any(y):
        return _zero_result(n, trace)

    branch = config.branch_factor
    budget = config.max_paths
    expand = _Expansion(a, trace)
    tree = {}
    root = factor_init(a, y, capacity=max_len)
    state = {"paths": 0, "best": None, "found": False, "completed": []}

    def descend(node, c, fact):
        # Resolve branch rank c at this node; returns the child factorization,
        # _DUP for a dead duplicate subtree, or _INVALID if no such candidate.
        while len(node.valid) <= c:
            if node.next >= len(node.ranked):
                return _INVALID
            col = int(node.ranked[node.next])
            node.next += 1
            child = expand.child(fact, col)
            if child is None:
                continue  # not a candidate at all; ranks shift past it
            node.valid.append(col)
            if child is _DUP:
                node.skip.add(len(node.valid) - 1)
            elif len(node.valid) - 1 == c:
                return child
        if c in node.skip:
            return _DUP
        # Rank already validated earlier: re-walk by re-appending.
        return fact.copy().append(a, node.valid[c])

    def realize(fact):
        # A path completed at this node with its branch budget exactly spent.
        state["paths"] += 1
        if trace:
            state["completed"].append(_support_key(fact))
        best = state["best"]
        if best is None or fact.residual_norm < best.residual_norm:
            state["best"] = fact
        if fact.residual_norm < eps:
            state["found"] = True
            return True
        return state["paths"] >= budget

    def walk(key, fact, remaining):
        # Visit every realized path below this node whose remaining branch
        # sum is exactly `remaining`; True aborts the whole search.
        depth = len(key)
        if fact.residual_norm < eps or depth == max_len:
            if remaining == 0:
                return realize(fact)
            return False
        node = tree.get(key)
        if node is None:
            node = tree[key] = _DfNode(_ranked(a, fact))
        headroom = (branch - 1) * (max_len - depth - 1)
        for c in range(min(branch - 1, remaining) + 1):
            if remaining - c > headroom:
                continue
            st = descend(node, c, fact)
            if st is _INVALID:
                if c == 0:
                    # No candidate at all: the path is stuck here.
                    if depth == 0:
                        raise DegenerateDictionaryError(
                            "every dictionary column is degenerate")
                    if remaining == 0:
                        return realize(fact)
                break
            if st is _DUP:
                continue
            if walk(key + (c,), st, remaining - c):
                return True
        return False

    for total in range((branch - 1) * max_len + 1):
        if walk((), root, total):
            break

    best = state["best"]
    if best is None:
        # Only reachable if the all-zero path could not spend any budget,
        # which the stuck/degenerate handling above already covers.
        raise DegenerateDictionaryError("no candidate path could be completed")
    terminated = RESIDUAL_MET if state["found"] else PATH_BUDGET_EXHAUSTED
    tr = ({"projected": expand.projected, "completed": state["completed"]}
          if trace else None)
    return _finish(n, best, len(tree), expand.explored, state["paths"], terminated, tr)


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
    rule = config.termination
    a, y, max_len, eps = _setup(a, y, rule)
    n = a.shape[1]
    if not np.any(y):
        return _zero_result(n, trace)

    model = config.cost_model
    if model.target_length is None:
        model = replace(model, target_length=max_len)
    cap = config.max_paths

    expand = _Expansion(a, trace)
    open_list = []   # (cost, support key, factorization), ascending
    completed_keys = []
    best_any = None
    iterations = 0
    opened = 0

    def push(parent, width):
        # Open the new children of parent, pruning the open set to the cap.
        # best_any tracks the best support seen anywhere, even if it is later
        # pruned. Ties go to the longer path so that collapsing the search to
        # a single lineage returns the full greedy support.
        nonlocal best_any, opened
        for child in expand.children(parent, width):
            if (best_any is None
                    or child.residual_norm < best_any.residual_norm
                    or (child.residual_norm == best_any.residual_norm
                        and child.k > best_any.k)):
                best_any = child
            if trace and (child.residual_norm < eps or child.k == max_len):
                completed_keys.append(_support_key(child))
            cost = path_cost(child.residual_norm, child.k, model, parent.residual_norm)
            insort(open_list, (cost, _support_key(child), child))
            if len(open_list) > cap:
                open_list.pop()
        opened = max(opened, len(open_list))

    push(factor_init(a, y, capacity=max_len), config.init_paths)
    if not open_list:
        raise DegenerateDictionaryError("every dictionary column is degenerate")

    while open_list:
        _cost, _key, fact = open_list.pop(0)
        if fact.residual_norm < eps or (rule.kind == SPARSITY and fact.k == max_len):
            trigger = RESIDUAL_MET if fact.residual_norm < eps else SPARSITY_MET
            if best_any.residual_norm < fact.residual_norm:
                fact = best_any
            terminated = RESIDUAL_MET if fact.residual_norm < eps else trigger
            tr = ({"projected": expand.projected, "completed": completed_keys}
                  if trace else None)
            return _finish(n, fact, iterations, expand.explored, opened, terminated, tr)
        if fact.k == max_len:
            continue  # residual rule: capped path that missed, a dead end
        iterations += 1
        push(fact, config.expand_branches)

    # Open set exhausted: every live path ended at the cap, a duplicate, or
    # a degenerate column. Fall back to the best support seen anywhere.
    terminated = RESIDUAL_MET if best_any.residual_norm < eps else PATH_BUDGET_EXHAUSTED
    tr = {"projected": expand.projected, "completed": completed_keys} if trace else None
    return _finish(n, best_any, iterations, expand.explored, opened, terminated, tr)
