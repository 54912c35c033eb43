"""Independent dense-algebra oracles used by the test suites.

Everything here recomputes from scratch with numpy's dense solvers and no
incremental state, so agreement with the package is a two-route check.
"""

import bisect
import itertools
import math

import numpy as np


def replay_residual(a, y, support):
    """Residual norm of the least-squares fit on an explicit support."""
    support = list(support)
    if not support:
        return float(np.linalg.norm(y))
    coef, *_ = np.linalg.lstsq(a[:, support], y, rcond=None)
    return float(np.linalg.norm(y - a[:, support] @ coef))


def projection_residual(a, y, support):
    """Residual norm of y after projecting out the span of an explicit support.

    Householder QR gives an orthonormal basis of the span, so the residual is
    accurate to rounding even for nearly parallel columns, where a least-squares
    fit loses eps * ||A_S|| * ||coef|| to cancellation in y - A_S @ coef. The
    norm is math.hypot's, which is exact to rounding at any scale, where
    sqrt(r @ r) keeps few digits once the squares are subnormal.
    """
    support = list(support)
    if not support:
        return math.hypot(*y)
    q = np.linalg.qr(a[:, support])[0]
    return math.hypot(*(y - q @ (q.T @ y)))


def dense_omp(a, y, k, eps_rel=1e-6):
    """From-scratch greedy pursuit; returns the support selection sequence."""
    support = []
    resid = y.astype(np.float64).copy()
    ynorm = np.linalg.norm(y)
    while len(support) < k and np.linalg.norm(resid) >= eps_rel * ynorm:
        corr = np.abs(a.T @ resid)
        if support:
            corr[support] = -1.0
        support.append(int(np.argmax(corr)))  # first max: lowest index wins
        coef, *_ = np.linalg.lstsq(a[:, support], y, rcond=None)
        resid = y - a[:, support] @ coef
    return support, resid


def ranked_reference(a, residual, selected):
    """Unselected columns by a full stable sort of descending |correlation|."""
    corr = np.abs(a.T @ residual)
    if selected:
        corr[list(selected)] = -1.0
    order = np.argsort(-corr, kind="stable")
    return order[: a.shape[1] - len(selected)].tolist()


def branch_vectors(branch, depth):
    """All branch-choice vectors in nondecreasing-sum order, lexicographic ties."""
    vecs = itertools.product(range(branch), repeat=depth)
    return sorted(vecs, key=lambda v: (sum(v), v))


def mmp_df_paths(a, y, branch, depth, eps_rel=1e-6):
    """Realize every branch-choice vector densely; no dedup, no budget.

    Returns a list of (vector, support, residual_norm). Vectors whose
    ranks run past the candidate list are dropped.
    """
    ynorm = np.linalg.norm(y)
    out = []
    for vec in branch_vectors(branch, depth):
        support = []
        resid = y.astype(np.float64).copy()
        ok = True
        for c in vec:
            if np.linalg.norm(resid) < eps_rel * ynorm:
                break
            order = ranked_reference(a, resid, support)
            if c >= len(order):
                ok = False
                break
            support.append(int(order[c]))
            coef, *_ = np.linalg.lstsq(a[:, support], y, rcond=None)
            resid = y - a[:, support] @ coef
        if ok:
            out.append((vec, support, float(np.linalg.norm(resid))))
    return out


def _orth(a, support, v):
    """v less its projection on the span of a's support columns, by a fresh dense QR."""
    if not support:
        return v
    q = np.linalg.qr(a[:, support])[0]
    return v - q @ (q.T @ v)


def _gap(out, u, v):
    # Lower out["margin"] to the relative gap of one comparison made.
    out["margin"] = min(out["margin"], abs(u - v) / (max(abs(u), abs(v)) or 1.0))


def _rank_gaps(out, corr, order):
    # The gaps between neighbours in a ranked prefix. An exact tie counts too:
    # two identical columns need not get identical correlations from a
    # blocked matrix-vector product, so rounding may order them.
    for i, j in zip(order, order[1:]):
        _gap(out, corr[i], corr[j])


def _is_independent(a, support, j):
    # Column j adds a direction to the span of support: the degenerate test
    # at 1e-12 of the column norm, which no margin counts.
    return np.linalg.norm(_orth(a, support, a[:, j])) > 1e-12 * np.linalg.norm(a[:, j])


def _children(a, y, support, width, seen, out):
    """The new children of a node at branch ranks 0..width-1, as (support, residual norm).

    A fresh ranking of the node's dense residual by a full stable sort, taken
    in order: a support in seen holds a rank without a projection, a
    degenerate column holds none, and any other support is projected, added
    to seen and logged. Only the candidates taken and the next one count
    toward the margin.
    """
    r = _orth(a, support, y)
    corr = np.abs(a.T @ r)
    order = ranked_reference(a, r, support)
    kids, ranks, taken = [], 0, 0
    for j in order:
        if ranks == width:
            break
        taken += 1
        child = support + [j]
        if frozenset(child) in seen:
            ranks += 1
        elif _is_independent(a, support, j):
            seen.add(frozenset(child))
            out["projected"].append(tuple(sorted(child)))
            kids.append((child, float(np.linalg.norm(_orth(a, child, y)))))
            ranks += 1
    _rank_gaps(out, corr, order[:taken + 1])
    return kids


def _mask(support):
    return sum(1 << j for j in support)


def _ordered(out, paths, decided=None):
    """(support, residual norm) pairs by norm, exact ties to the smaller mask.

    Only the order among the first decided paths (all by default) counts
    toward the margin.
    """
    paths = sorted(paths, key=lambda p: (p[1], _mask(p[0])))
    for (_s, u), (_t, v) in zip(paths, paths[1:decided]):
        _gap(out, u, v)
    return paths


def _outcome(out, best, eps, reason, seen, iterations, paths):
    support, norm = best
    _gap(out, norm, eps)
    out.update(support=tuple(support), iterations=iterations, explored=len(seen),
               paths=paths, terminated="residual_met" if norm < eps else reason)
    return out


def mmp_bf_reference(a, y, branch, beam_cap, max_len, eps_rel):
    """From-scratch breadth-first multipath pursuit with dedup.

    Each level takes the first branch ranks of every beam path in beam
    order through _children and keeps the beam_cap children of least dense
    residual norm, exact ties to the smaller support mask. A level whose
    children meet the residual target ends the search with the least of
    them; a level with no children ends it with the beam. Returns the
    outcome, the traced logs and the margin (see mmp_df_reference).
    """
    max_len = min(max_len, *a.shape)
    eps = eps_rel * np.linalg.norm(y)
    seen = set()
    out = {"projected": [], "completed": [], "margin": math.inf}
    beam, kids = [([], float(np.linalg.norm(y)))], []
    iterations, opened = 0, 1
    for _level in range(max_len):
        kids = [kid for support, _n in beam
                for kid in _children(a, y, support, branch, seen, out)]
        if not kids:
            break
        iterations += 1
        for _s, norm in kids:
            _gap(out, norm, eps)
        met = [kid for kid in kids if kid[1] < eps]
        if met:
            out["completed"] += [tuple(sorted(s)) for s, _n in met]
            return _outcome(out, _ordered(out, met, 2)[0], eps, "residual_met", seen,
                            iterations, opened)
        kids = _ordered(out, kids)
        beam = kids[:beam_cap]
        opened = max(opened, len(beam))
    done = kids or beam
    out["completed"] += [tuple(sorted(s)) for s, _n in done]
    return _outcome(out, done[0], eps, "sparsity_met" if kids else "path_budget_exhausted",
                    seen, iterations, opened)


def aomp_reference(a, y, init_paths, expand_branches, cap, alpha, adaptive, sparsity,
                   max_len, eps_rel):
    """From-scratch best-first pursuit with dedup and a capped open set.

    The open set is a list kept sorted by bisect on (cost, support mask),
    cut to cap entries after each insertion. A child's cost is its dense
    residual norm times base ** (max_len - its length), base alpha, or under
    the adaptive model min(1, alpha * norm / parent norm). The best support
    seen anywhere is kept, exact ties to the longer path, and returned when
    it beats the popped path that ends the search or when the open set runs
    dry. Returns the outcome, the traced logs and the margin (see
    mmp_df_reference).
    """
    max_len = min(max_len, *a.shape)
    eps = eps_rel * np.linalg.norm(y)
    seen = set()
    out = {"projected": [], "completed": [], "margin": math.inf}
    open_set = []    # (cost, mask, support, norm), ascending
    best = ([], float(np.linalg.norm(y)))
    iterations = opened = 0

    def push(parent, parent_norm, width):
        nonlocal best, opened
        for child, norm in _children(a, y, parent, width, seen, out):
            _gap(out, norm, best[1])
            if norm < best[1] or (norm == best[1] and len(child) > len(best[0])):
                best = (child, norm)
            _gap(out, norm, eps)
            if norm < eps or len(child) == max_len:
                out["completed"].append(tuple(sorted(child)))
            base = alpha
            if adaptive and parent_norm > 0.0:
                base = min(1.0, alpha * norm / parent_norm)
            entry = (norm * base ** (max_len - len(child)), _mask(child), child, norm)
            i = bisect.bisect_left(open_set, entry)
            for other in open_set[max(0, i - 1):i + 1]:
                _gap(out, entry[0], other[0])
            open_set.insert(i, entry)
            del open_set[cap:]
        opened = max(opened, len(open_set))

    push([], best[1], init_paths)
    while open_set:
        _cost, _m, support, norm = open_set.pop(0)
        if norm < eps or (sparsity and len(support) == max_len):
            if best[0] != support:
                _gap(out, best[1], norm)
            if best[1] < norm:
                support, norm = best
            return _outcome(out, (support, norm), eps, "sparsity_met", seen,
                            iterations, opened)
        if len(support) == max_len:
            continue
        iterations += 1
        push(support, norm, expand_branches)
    return _outcome(out, best, eps, "path_budget_exhausted", seen, iterations, opened)


def mmp_df_reference(a, y, branch, max_len, eps_rel, max_paths):
    """From-scratch depth-first multipath pursuit with dedup and a path budget.

    Dense QR residuals, full stable sorts and a set of visited supports; each
    node keeps its sorted order, how many candidates it took and the columns
    it resolved (None for a duplicate), and each total recurses afresh. A
    rank is resolved when first asked for: the next candidates are taken in
    order, a seen support holds a rank without a projection and a
    degenerate column holds none. Completed paths are those at the length
    cap or the residual target, or stuck with no candidate, whose ranks sum
    to the total; ranks that leave more sum than the levels below can spend
    are not tried. Returns the outcome and margin, the least relative gap
    of any comparison it made (neighbours in the ranked prefix each node
    took, plus the next candidate; residual against target; residual
    against the best), below which rounding may decide; the
    degenerate-column test, at 1e-12 of the column norm, is not counted.
    """
    max_len = min(max_len, *a.shape)
    eps = eps_rel * np.linalg.norm(y)
    seen, nodes = set(), {}
    out = {"projected": [], "completed": [], "margin": math.inf}

    def rank(support, node, c):  # the column at rank c, None for a duplicate, -1 past the last
        while len(node["cols"]) <= c:
            if node["taken"] == len(node["order"]):
                return -1
            j = node["order"][node["taken"]]
            node["taken"] += 1
            if frozenset(support + [j]) in seen:
                node["cols"].append(None)
            elif _is_independent(a, support, j):
                seen.add(frozenset(support + [j]))
                out["projected"].append(tuple(sorted(support + [j])))
                node["cols"].append(j)
        return node["cols"][c]

    def visit(support, left):
        r = _orth(a, support, y)
        norm = np.linalg.norm(r)
        _gap(out, norm, eps)
        if norm < eps or len(support) == max_len:
            if left == 0:
                yield support, norm
            return
        key = frozenset(support)
        if key not in nodes:
            nodes[key] = {"order": ranked_reference(a, r, support), "corr": np.abs(a.T @ r),
                          "taken": 0, "cols": []}
        headroom = (branch - 1) * (max_len - len(support) - 1)
        for c in range(max(0, left - headroom), min(branch - 1, left) + 1):
            col = rank(support, nodes[key], c)
            if col == -1:
                if c == 0 and left == 0:
                    yield support, norm
                return
            if col is not None:
                yield from visit(support + [col], left - c)

    def by_total():
        for total in range((branch - 1) * max_len + 1):
            yield from visit([], total)

    best, paths = None, 0
    for support, norm in by_total():
        paths += 1
        out["completed"].append(tuple(sorted(support)))
        if best is not None:
            _gap(out, norm, best[1])
        if best is None or norm < best[1]:
            best = (support, norm)
        if best[1] < eps or paths == max_paths:
            break
    for node in nodes.values():
        _rank_gaps(out, node["corr"], node["order"][:node["taken"] + 1])
    out.update(support=tuple(best[0]), iterations=len(nodes), explored=len(seen),
               paths=paths, met=bool(best[1] < eps))
    return out


def random_orthonormal(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def charpoly_eigenvalues(sym):
    """Eigenvalues of a small symmetric matrix without an eigensolver.

    Builds the characteristic polynomial by the trace recursion
    c_k = -trace(sym @ M_{k-1}) / k, M_k = sym @ M_{k-1} + c_k I, then
    takes its roots. Numerically crude but entirely independent of
    np.linalg.eigvalsh, which is the point.
    """
    d = sym.shape[0]
    coeffs = np.zeros(d + 1)
    coeffs[0] = 1.0
    mk = np.eye(d)
    for k in range(1, d + 1):
        mk = sym @ mk
        coeffs[k] = -np.trace(mk) / k
        mk = mk + coeffs[k] * np.eye(d)
    return np.sort(np.real(np.roots(coeffs)))


def ric_bruteforce(a, s):
    """Exact restricted isometry constant via the characteristic polynomial."""
    n = a.shape[1]
    gram = a.T @ a
    best = -np.inf
    for subset in itertools.combinations(range(n), s):
        idx = list(subset)
        eigs = charpoly_eigenvalues(gram[np.ix_(idx, idx)])
        best = max(best, eigs[-1] - 1.0, 1.0 - eigs[0])
    return max(best, 0.0)


def ric_reference(a, s):
    """Exact delta_s by one eigvalsh call per subset, in combinations order.

    Returns (delta, subset) with the first subset attaining the maximum
    deviation, the tie rule the chunked compute_ric must reproduce.
    """
    gram = a.T @ a
    best = -np.inf
    best_subset = None
    for subset in itertools.combinations(range(a.shape[1]), s):
        idx = list(subset)
        eigs = np.linalg.eigvalsh(gram[np.ix_(idx, idx)])
        dev = max(eigs[-1] - 1.0, 1.0 - eigs[0])
        if dev > best:
            best = dev
            best_subset = subset
    return max(float(best), 0.0), best_subset


def sparse_instance(rng, n, m, k, scale=1.0):
    """Gaussian dictionary and an exactly k-sparse signal; returns (a, x, y)."""
    a = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n))
    support = rng.choice(n, size=k, replace=False)
    x = np.zeros(n)
    x[support] = scale * rng.standard_normal(k)
    return a, x, a @ x
