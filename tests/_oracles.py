"""Independent dense-algebra oracles used by the test suites.

Everything here recomputes from scratch with numpy's dense solvers and no
incremental state, so agreement with the package is a two-route check.
"""

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
    of any comparison it made (ranking neighbours, residual against target,
    residual against the best), below which rounding may decide; the
    degenerate-column test, at 1e-12 of the column norm, is not counted.
    """
    max_len = min(max_len, *a.shape)
    eps = eps_rel * np.linalg.norm(y)
    seen, nodes = set(), {}
    out = {"projected": [], "completed": [], "margin": math.inf}

    def orth(support, v):  # v less its projection on the span of support
        if not support:
            return v
        q = np.linalg.qr(a[:, support])[0]
        return v - q @ (q.T @ v)

    def gap(u, v):
        out["margin"] = min(out["margin"], abs(u - v) / (max(abs(u), abs(v)) or 1.0))

    def rank(support, node, c):  # the column at rank c, None for a duplicate, -1 past the last
        while len(node["cols"]) <= c:
            if node["taken"] == len(node["order"]):
                return -1
            j = node["order"][node["taken"]]
            node["taken"] += 1
            if frozenset(support + [j]) in seen:
                node["cols"].append(None)
            elif np.linalg.norm(orth(support, a[:, j])) > 1e-12 * np.linalg.norm(a[:, j]):
                seen.add(frozenset(support + [j]))
                out["projected"].append(tuple(sorted(support + [j])))
                node["cols"].append(j)
        return node["cols"][c]

    def visit(support, left):
        r = orth(support, y)
        norm = np.linalg.norm(r)
        gap(norm, eps)
        if norm < eps or len(support) == max_len:
            if left == 0:
                yield support, norm
            return
        key = frozenset(support)
        if key not in nodes:
            order = ranked_reference(a, r, support)
            corr = np.abs(a.T @ r)[order]
            for u, v in zip(corr, corr[1:]):
                gap(u, v)
            nodes[key] = {"order": order, "taken": 0, "cols": []}
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
            gap(norm, best[1])
        if best is None or norm < best[1]:
            best = (support, norm)
        if best[1] < eps or paths == max_paths:
            break
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
