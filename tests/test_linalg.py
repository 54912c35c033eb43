import tracemalloc

import numpy as np
import pytest

from pursuitlab.linalg import DegenerateColumnError, as_vector, factor_init
from pursuitlab.pursuit import _by_rank, _ranked

from _oracles import ranked_reference


def correlate_oracle(a, r):
    # Independent double loop, no matmul.
    m, n = a.shape
    out = np.zeros(n)
    for j in range(n):
        s = 0.0
        for i in range(m):
            s += a[i, j] * r[i]
        out[j] = abs(s)
    return out


def dense_ls_oracle(a, y, sel):
    # Re-solve the subproblem from scratch via the normal equations.
    sub = a[:, list(sel)]
    coef = np.linalg.solve(sub.T @ sub, sub.T @ y)
    resid = y - sub @ coef
    return coef, resid


def random_instance(rng, rows, cols):
    a = rng.standard_normal((rows, cols))
    y = rng.standard_normal(rows)
    return a, y


# Column correlations are computed where the searches rank candidates.

def test_correlate_identity_example():
    a = np.eye(3)
    r = np.array([3.0, -4.0, 0.0])
    f = factor_init(a, r)
    assert list(_ranked(a, f)) == [1, 0, 2]
    f.append(a, 1)
    assert list(_ranked(a, f)) == [0, 2]


def test_correlate_matches_double_loop_oracle():
    rng = np.random.default_rng(101)
    for _ in range(25):
        a, y = random_instance(rng, int(rng.integers(2, 12)), int(rng.integers(2, 20)))
        a = np.asfortranarray(a)
        order = list(_ranked(a, factor_init(a, y)))
        assert sorted(order) == list(range(a.shape[1]))
        # Oracle correlations along the ranking never increase.
        corr = correlate_oracle(a, y)[order]
        assert np.all(np.diff(corr) <= 1e-12)


def _ranking_cases():
    rng = np.random.default_rng(17)
    eye = np.eye(8)
    yield "orthonormal ties", eye, np.ones(8), []
    yield "signed orthonormal ties", eye[:, ::-1] * np.repeat([1.0, -1.0], 4), np.ones(8), [3]
    dup = rng.standard_normal((10, 16))
    dup[:, [5, 9]] = dup[:, [2, 2]]
    dup[:, 12] = -dup[:, 2]
    yield "duplicated columns", dup, rng.standard_normal(10), []
    yield "duplicated columns, one selected", dup, rng.standard_normal(10), [9, 0]
    gauss = rng.standard_normal((12, 30))
    yield "selected columns", gauss, rng.standard_normal(12), [4, 17, 29, 0]
    zero = rng.standard_normal((6, 9))
    zero[:, [0, 4]] = 0.0
    yield "zero columns", zero, rng.standard_normal(6), [2]
    low = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 14))
    yield "rank-deficient, span exhausted", low, rng.standard_normal(20), [1, 6, 8]
    # A selected column ties its unselected duplicates from a lower index.
    yield "duplicated columns, lowest selected", dup, rng.standard_normal(10), [2, 7]
    yield "zero columns, several selected", zero, rng.standard_normal(6), [3, 8, 5]
    near = rng.standard_normal((15, 24))
    near[:, 12:] = near[:, :12] + 1e-9 * rng.standard_normal((15, 12))
    yield "near-parallel columns", near, rng.standard_normal(15), []
    yield "near-parallel columns, selected", near, rng.standard_normal(15), [0, 13, 5]


def test_ranking_equals_full_stable_sort():
    # The lazy ranking is exact to the last column, ties to the lowest index.
    for name, a, y, selected in _ranking_cases():
        a = np.asfortranarray(a)
        f = factor_init(a, y)
        for j in selected:
            f.append(a, j)
        got = list(_ranked(a, f))
        assert got == ranked_reference(a, f.residual, f.indices), name
        assert len(got) == a.shape[1] - len(selected), name


def _mask_first(corr, selected):
    # The selected columns masked out before a full stable sort; the
    # identity dictionary correlates to corr exactly.
    return ranked_reference(np.eye(corr.size), corr, selected)


@pytest.mark.parametrize("corr, selected", [
    ([0.5, 0.9, 0.2, 0.7], (1,)),                  # a selected column holds the max
    ([0.9, 0.4, 0.9, 0.9, 0.1], (0,)),             # ties it from a lower index
    ([0.3, 0.8, 0.8, 0.3, 0.8, 0.0], (1, 3)),      # ties at two levels
    ([0.0, 0.0, 0.0, 0.0], (0, 2)),                # all tied at zero
    ([0.6, 0.6, 0.6], (0, 1, 2)),                  # nothing left to rank
    ([0.2, 0.5, 0.5, 0.5, 0.9], (2, 4)),           # selected between tied columns
])
def test_rank_skips_selected_columns_like_a_mask(corr, selected):
    corr = np.array(corr)
    want = _mask_first(corr, selected)
    got = list(_by_rank(corr.copy(), selected, corr.size - len(selected)))
    assert got == want
    # Every prefix is exact too: a lazy reader stops early.
    for n in range(len(want)):
        ranking = _by_rank(corr.copy(), selected, corr.size - len(selected))
        assert [next(ranking) for _ in range(n)] == want[:n]


def test_rank_skips_selected_columns_on_random_ties():
    # Correlations drawn from a few values, so that selected and unselected
    # columns tie in every order.
    rng = np.random.default_rng(41)
    for _ in range(300):
        n = int(rng.integers(1, 16))
        corr = rng.integers(0, 4, n) / 4.0
        selected = tuple(sorted(rng.choice(n, int(rng.integers(0, n + 1)), replace=False).tolist()))
        got = list(_by_rank(corr.copy(), selected, n - len(selected)))
        assert got == _mask_first(corr, selected), (corr, selected)


def test_ranking_does_not_keep_its_factor_alive():
    rng = np.random.default_rng(23)
    a = np.asfortranarray(rng.standard_normal((400, 240)))
    tracemalloc.start()
    try:
        f = factor_init(a, rng.standard_normal(400))
        f.append(a, 3)
        expected = ranked_reference(a, f.residual, f.indices)
        ranking = _ranked(a, f)
        first = next(ranking)
        buffer = f.q.nbytes + f.r.nbytes
        live = tracemalloc.get_traced_memory()[0]
        del f
        freed = live - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed >= buffer, (freed, buffer)
    assert [first, *ranking] == expected


def test_append_reads_numpy_column_indices_as_ints():
    # 1 << np.int64(70) wraps to 0, so a numpy index would set no mask bit.
    rng = np.random.default_rng(3)
    a = np.asfortranarray(rng.standard_normal((6, 80)))
    f = factor_init(a, rng.standard_normal(6))
    for j in (np.int64(70), np.int32(2), np.uint8(64)):
        f.append(a, j)
    assert f.key == (2, 64, 70) and all(type(j) is int for j in f.key)
    assert f.mask == (1 << 2) | (1 << 64) | (1 << 70)
    assert f.copy().mask == f.mask
    with pytest.raises(ValueError, match="already selected"):
        f.append(a, np.int64(64))
    with pytest.raises(TypeError):
        f.append(a, 2.0)


def test_factor_init_is_empty():
    a = np.eye(4)
    y = np.array([1.0, 2.0, 0.0, -1.0])
    f = factor_init(a, y)
    assert f.indices == []
    assert f.k == 0 and f.key == () and f.mask == 0
    np.testing.assert_array_equal(f.residual, y)
    assert f.residual_norm == pytest.approx(np.linalg.norm(y))


def test_factor_append_identity_example():
    a = np.eye(3)
    y = np.array([2.0, 5.0, 0.0])
    f = factor_init(a, y)
    f.append(a, 1)
    assert f.indices == [1]
    np.testing.assert_allclose(f.residual, [2.0, 0.0, 0.0], atol=1e-15)
    assert f.residual_norm == pytest.approx(2.0)
    np.testing.assert_allclose(f.coefficients(), [5.0], atol=1e-15)


def test_factor_append_rejects_duplicate_and_bad_index():
    a = np.asfortranarray(np.random.default_rng(3).standard_normal((5, 7)))
    y = np.arange(5.0)
    f = factor_init(a, y)
    f.append(a, 2)
    with pytest.raises(ValueError):
        f.append(a, 2)
    with pytest.raises(ValueError):
        f.append(a, 7)
    with pytest.raises(ValueError):
        f.append(a, -1)
    with pytest.raises(ValueError):
        f.append(a[:4], 3)  # row mismatch


def test_degenerate_column_raises_and_leaves_state_intact():
    # Two copies of e1: the second append adds no new direction.
    a = np.asfortranarray(np.array([[1.0, 1.0], [0.0, 0.0]]))
    y = np.array([1.0, 1.0])
    f = factor_init(a, y)
    f.append(a, 0)
    before = (list(f.indices), f.residual_norm, f.residual.copy())
    with pytest.raises(DegenerateColumnError):
        f.append(a, 1)
    assert f.indices == before[0]
    assert f.residual_norm == before[1]
    np.testing.assert_array_equal(f.residual, before[2])


def test_zero_column_is_degenerate():
    a = np.asfortranarray(np.array([[0.0, 1.0], [0.0, 1.0]]))
    f = factor_init(a, np.ones(2))
    with pytest.raises(DegenerateColumnError):
        f.append(a, 0)


def test_capacity_exhaustion():
    a = np.asfortranarray(np.eye(3))
    f = factor_init(a, np.ones(3), capacity=1)
    f.append(a, 0)
    with pytest.raises(ValueError):
        f.append(a, 1)


def test_oracle_equivalence_200_instances():
    # Spec-scale sweep: rows <= 12, cols <= 24, support <= 6, 1e-8 relative.
    rng = np.random.default_rng(7)
    for _ in range(200):
        rows = int(rng.integers(3, 13))
        cols = int(rng.integers(4, 25))
        a, y = random_instance(rng, rows, cols)
        a = np.asfortranarray(a)
        size = int(rng.integers(1, min(6, rows, cols) + 1))
        sel = rng.choice(cols, size=size, replace=False).tolist()

        f = factor_init(a, y)
        for j in sel:
            f.append(a, j)
        coef = f.coefficients()
        oracle_coef, oracle_resid = dense_ls_oracle(a, y, sel)

        scale = max(1.0, float(np.max(np.abs(oracle_coef))))
        np.testing.assert_allclose(coef, oracle_coef, rtol=0, atol=1e-8 * scale)
        np.testing.assert_allclose(f.residual, oracle_resid, rtol=0,
                                   atol=1e-8 * max(1.0, np.linalg.norm(y)))
        assert f.residual_norm == pytest.approx(np.linalg.norm(oracle_resid), abs=1e-8)


def test_residual_norms_monotone_and_orthogonal():
    rng = np.random.default_rng(11)
    for _ in range(50):
        rows = int(rng.integers(4, 13))
        cols = int(rng.integers(6, 20))
        a, y = random_instance(rng, rows, cols)
        a = np.asfortranarray(a)
        ynorm = np.linalg.norm(y)
        f = factor_init(a, y)
        size = int(rng.integers(2, min(6, rows) + 1))
        norms = [f.residual_norm]
        for j in rng.choice(cols, size=size, replace=False):
            f.append(a, int(j))
            norms.append(f.residual_norm)
        # Non-increasing residual norms.
        assert all(b <= a_ for a_, b in zip(norms, norms[1:]))
        # Basis orthonormality and residual orthogonal to the selected span.
        q = f.q[:, :f.k]
        gram = q.T @ q
        assert np.max(np.abs(gram - np.eye(f.k))) <= 1e-10
        assert np.max(np.abs(q.T @ f.residual)) <= 1e-10 * max(1.0, ynorm)
        assert np.max(np.abs(a[:, f.indices].T @ f.residual)) <= 1e-10 * max(1.0, ynorm)


def test_permutation_consistency():
    rng = np.random.default_rng(23)
    for _ in range(30):
        rows, cols = 10, 16
        a, y = random_instance(rng, rows, cols)
        a = np.asfortranarray(a)
        sel = rng.choice(cols, size=5, replace=False).tolist()

        f1 = factor_init(a, y)
        for j in sel:
            f1.append(a, j)
        perm = list(sel)
        rng.shuffle(perm)
        f2 = factor_init(a, y)
        for j in perm:
            f2.append(a, j)

        assert abs(f1.residual_norm - f2.residual_norm) <= 1e-10
        # Coefficients agree once keyed by column index.
        c1 = dict(zip(f1.indices, f1.coefficients()))
        c2 = dict(zip(f2.indices, f2.coefficients()))
        for j in sel:
            assert c1[j] == pytest.approx(c2[j], abs=1e-8)


def test_full_rank_square_append_all():
    rng = np.random.default_rng(31)
    a = np.asfortranarray(rng.standard_normal((6, 6)) + 6 * np.eye(6))
    y = rng.standard_normal(6)
    f = factor_init(a, y)
    for j in range(6):
        f.append(a, j)
    assert f.residual_norm <= 1e-10
    np.testing.assert_allclose(a @ f.coefficients(), y, atol=1e-9)


def test_copy_is_independent():
    a = np.asfortranarray(np.random.default_rng(5).standard_normal((8, 10)))
    y = np.random.default_rng(6).standard_normal(8)
    f = factor_init(a, y)
    f.append(a, 3)
    g = f.copy()
    g.append(a, 5)
    assert f.indices == [3] and g.indices == [3, 5]
    assert g.residual_norm <= f.residual_norm


def test_copy_shares_the_residual_and_allocates_less_than_one():
    rows = 400
    rng = np.random.default_rng(12)
    a = np.asfortranarray(rng.standard_normal((rows, 160)))
    f = factor_init(a, rng.standard_normal(rows))
    for j in range(5):
        f.append(a, j)
    g = f.copy()
    assert g.residual is f.residual
    residual = f.residual.copy()
    g.append(a, 7)
    # The child bound a new residual; its source's is untouched.
    assert g.residual is not f.residual
    np.testing.assert_array_equal(f.residual, residual)

    def copy_bytes(f):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            f.copy()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    shallow = copy_bytes(f)
    for j in range(10, 155):
        f.append(a, j)
    assert f.k == 150 and f.pending is None
    # A copy is one object that shares everything else: its size does not
    # grow with the number of columns.
    deep = copy_bytes(f)
    assert deep == shallow < 128, (deep, shallow)


def test_solve_rejects_singular_factor():
    a = np.asfortranarray(np.eye(2))
    f = factor_init(a, np.ones(2))
    f.append(a, 0)
    # r is built from the per-column records, so zero the stored diagonal.
    j, w, _unorm, c = f.records[0]
    f.records[0] = (j, w, 0.0, c)
    assert f.r[0, 0] == 0.0
    with pytest.raises(ValueError):
        f.coefficients()


def test_init_validates_inputs():
    with pytest.raises(ValueError):
        factor_init(np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError):
        factor_init(np.array([[np.inf, 1.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(ValueError):
        factor_init(np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        factor_init(np.ones((2, 2)), np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match=r"expected a 1-d vector, got shape \(2, 2\)"):
        as_vector(np.ones((2, 2)))
    with pytest.raises(ValueError, match="capacity must be at least 1"):
        factor_init(np.ones((2, 2)), np.ones(2), capacity=0)


def replay(a, y, indices, capacity):
    f = factor_init(a, y, capacity=capacity)
    for j in indices:
        f.append(a, j)
    return f


def own_columns(f):
    # q, r and qty of f's k columns, read without settling a pending column:
    # r and qty are built on read from f's own records, a pending one too.
    k = f.k
    q = f.q[:, :k].copy()
    if f.pending is not None:
        u, _record = f.pending
        q[:, k - 1] = u
    return q, f.r, f.qty


def assert_matches_replay(f, a, y, capacity):
    want = replay(a, y, f.indices, capacity)
    k = f.k
    q, r, qty = own_columns(f)
    assert r.shape == want.r.shape == (k, k)
    np.testing.assert_array_equal(q, want.q[:, :k])
    np.testing.assert_array_equal(r, want.r)
    np.testing.assert_array_equal(qty, want.qty)
    np.testing.assert_array_equal(f.residual, want.residual)
    assert f.residual_norm == want.residual_norm
    assert f.key == tuple(sorted(f.indices))
    assert f.mask == sum(1 << j for j in f.indices)


def test_shared_buffer_interleavings_match_fresh_replay():
    # Copies share their source's buffer and residual; the first append at
    # a slot claims it, later ones stay pending until the factor is copied
    # or appended to, and a solve only reads. Every live factor must stay
    # bit-identical to a fresh replay.
    rng = np.random.default_rng(2024)
    seen = dict.fromkeys(("claim", "pending", "pending_copied", "parent_after_claim",
                          "degenerate_free_slot", "solve_pending", "shared_residual"), 0)
    for _ in range(20):
        rows, capacity = 7, 6
        a = rng.standard_normal((rows, 10))
        a[:, 1] = a[:, 0]                # duplicate column
        a[:, 2] = 0.0                    # zero column
        a[:, 3] = a[:, 4] - 2.0 * a[:, 5]  # in span{4, 5}
        a = np.asfortranarray(a)
        y = rng.standard_normal(rows)
        live = [factor_init(a, y, capacity=capacity)]
        for _step in range(40):
            op = rng.random()
            f = live[int(rng.integers(len(live)))]
            # Ops on a factor whose residual another live factor holds too.
            seen["shared_residual"] += any(g is not f and g.residual is f.residual
                                           for g in live)
            if op < 0.35:
                seen["pending_copied"] += f.pending is not None
                live.append(f.copy())
            elif op < 0.8:
                free = [j for j in range(a.shape[1]) if j not in f.key]
                if f.k == capacity or not free:
                    continue
                j = int(rng.choice(free))
                q, records, pending, k, key = f.q, f.records, f.pending, f.k, f.key
                fill = len(records)
                residual = f.residual.copy()
                if pending is None and fill > k:
                    seen["parent_after_claim"] += 1
                try:
                    f.append(a, j)
                except DegenerateColumnError:
                    assert f.k == k and f.key == key and j not in f.key
                    np.testing.assert_array_equal(f.residual, residual)
                    # No pending column left behind, and no slot claimed.
                    assert f.pending is None
                    if pending is None:
                        assert f.q is q and f.records is records and len(records) == fill
                        seen["degenerate_free_slot"] += fill == k
                    continue
                if f.pending is None:
                    seen["claim"] += 1
                else:
                    seen["pending"] += 1
            elif op < 0.9:
                seen["solve_pending"] += f.pending is not None
                q, records, pending, fill = f.q, f.records, f.pending, len(f.records)
                want = replay(a, y, f.indices, capacity)
                np.testing.assert_array_equal(f.coefficients(), want.coefficients())
                # A solve reads the records and writes nothing.
                assert f.q is q and f.records is records and f.pending is pending
                assert len(records) == fill
            elif len(live) > 1:
                live.remove(f)
            for g in live:
                assert_matches_replay(g, a, y, capacity)
        for g in live:
            want = replay(a, y, g.indices, capacity)
            np.testing.assert_array_equal(g.coefficients(), want.coefficients())
            assert_matches_replay(g, a, y, capacity)
    assert all(n > 0 for n in seen.values()), seen


def test_copy_shares_the_buffer_and_children_claim_in_order():
    rng = np.random.default_rng(9)
    a = np.asfortranarray(rng.standard_normal((6, 8)))
    y = rng.standard_normal(6)
    parent = factor_init(a, y)
    parent.append(a, 0)
    first = parent.copy().append(a, 1)
    second = parent.copy().append(a, 2)
    # The first child wrote its column into the shared buffer; the second
    # child holds its column pending and copies nothing.
    for child in (first, second):
        assert child.q is parent.q and child.records is parent.records
    assert first.pending is None and second.pending is not None
    grandchild = second.copy().append(a, 3)
    # Expanding the pending child moved it to a private buffer first.
    assert second.q is not parent.q and second.records is not parent.records
    assert second.pending is None
    assert grandchild.q is second.q and grandchild.records is second.records
    assert grandchild.pending is None
    # The private buffer copied q but shares the prefix's record.
    assert second.records[0] is parent.records[0]
    for f in (parent, first, second, grandchild):
        assert_matches_replay(f, a, y, 6)


def test_private_buffer_allocates_no_capacity_squared_array():
    # Moving a pending child into its own buffer copies q; its prefix is
    # shared records, so nothing of size capacity**2 beyond q.
    rows = capacity = 150
    rng = np.random.default_rng(31)
    a = np.asfortranarray(rng.standard_normal((rows, 200)))
    parent = factor_init(a, rng.standard_normal(rows), capacity=capacity)
    for j in range(99):
        parent.append(a, j)
    parent.copy().append(a, 99)
    child = parent.copy().append(a, 100)
    assert child.k == 100 and child.pending is not None
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        copied = child.copy()
        allocated = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert child.pending is None
    assert copied.q is child.q and copied.records is child.records
    assert allocated <= 8 * rows * capacity + 8192, allocated
