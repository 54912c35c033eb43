import pathlib
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

from pursuitlab import ripcert
from pursuitlab.pursuit import PursuitConfig, TerminationRule, run_mmp_df
from pursuitlab.ripcert import (
    BoundPair,
    EnumerationCapError,
    compute_ric,
    lemma1_bounds,
    matrix_digest,
)

from _oracles import random_orthonormal, ric_bruteforce, ric_reference


# --- compute_ric ---------------------------------------------------------------

def test_ric_orthonormal_is_isometry():
    rng = np.random.default_rng(5)
    a = random_orthonormal(rng, 9)
    for s in (1, 2, 4, 9):
        cert = compute_ric(a, s)
        assert cert.delta == pytest.approx(0.0, abs=1e-12)
        assert cert.subset_size == s


def test_ric_duplicated_column():
    # Gram of [e1, e1] is all-ones: spectrum {0, 2}, so delta hits exactly 1.
    a = np.zeros((4, 2))
    a[0, 0] = a[0, 1] = 1.0
    cert = compute_ric(a, 2)
    assert cert.delta == pytest.approx(1.0, abs=1e-14)
    assert cert.extremal_subset == (0, 1)


def test_ric_matches_charpoly_oracle():
    for seed in (11, 12, 13, 14):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 1.0 / np.sqrt(8), size=(8, 12))
        cert = compute_ric(a, 3)
        assert cert.delta == pytest.approx(ric_bruteforce(a, 3), abs=1e-9)


def test_ric_extremal_subset_attains_delta():
    rng = np.random.default_rng(17)
    a = rng.normal(0.0, 1.0 / np.sqrt(7), size=(7, 11))
    cert = compute_ric(a, 3)
    idx = list(cert.extremal_subset)
    assert len(idx) == 3 and len(set(idx)) == 3
    assert all(0 <= j < 11 for j in idx)
    eigs = np.linalg.eigvalsh(a[:, idx].T @ a[:, idx])
    assert max(eigs[-1] - 1.0, 1.0 - eigs[0]) == pytest.approx(cert.delta,
                                                               abs=1e-12)


def test_ric_monotone_in_subset_size():
    rng = np.random.default_rng(19)
    for _ in range(8):
        a = rng.normal(0.0, 1.0 / np.sqrt(6), size=(6, 9))
        deltas = [compute_ric(a, s).delta for s in (1, 2, 3, 4)]
        for lo, hi in zip(deltas, deltas[1:]):
            assert lo <= hi + 1e-12


def test_ric_scale_law_on_isometry():
    # Scaling an isometry by c moves both extreme eigenvalues to c^2.
    rng = np.random.default_rng(23)
    a = random_orthonormal(rng, 8)
    for c in (0.9, 1.1):
        cert = compute_ric(c * a, 3)
        assert cert.delta == pytest.approx(abs(c * c - 1.0), abs=1e-12)


def _chunk_rows(s):
    # Subsets per screening chunk: each gathers its s - s // 2 cross terms.
    return max(1, ripcert._CHUNK_ENTRIES // (s - s // 2))


def test_ric_chunks_match_per_subset_reference():
    rng = np.random.default_rng(41)
    gauss = rng.normal(0.0, 1.0 / 8.0, size=(64, 18))
    small = rng.normal(0.0, 1.0 / np.sqrt(10), size=(10, 7))
    # Six copies of one orthonormal column: every 5-subset drawn from its
    # seven copies has Gram all-ones and deviation 4 up to rounding.
    q = random_orthonormal(rng, 20)
    dup = np.hstack([q[:, :12], np.repeat(q[:, [3]], 6, axis=1)])
    cases = [(gauss, 6), (small, 1), (small, 7), (dup, 5)]

    total = comb(18, 6)
    assert total > _chunk_rows(6) and total % _chunk_rows(6) != 0
    copies = {3, *range(12, 18)}
    tied = [i for i, t in enumerate(combinations(range(18), 5))
            if copies.issuperset(t)]
    assert len({i // _chunk_rows(5) for i in tied}) > 1

    for a, s in cases:
        delta, subset = ric_reference(a, s)
        cert = compute_ric(a, s)
        assert cert.delta == delta
        assert cert.extremal_subset == subset
        assert all(type(j) is int for j in cert.extremal_subset)


def _skip_cases():
    # Every case but s=1 and s=n spans several chunks, so later chunks are
    # filtered against a running best.
    rng = np.random.default_rng(47)
    gauss = rng.normal(0.0, 1.0 / np.sqrt(12), size=(12, 16))
    signs = np.where(rng.random(16) < 0.5, -1.0, 1.0)
    q = random_orthonormal(rng, 16)
    return {
        # Every delta is rounding noise, so only the margin keeps the ties.
        "orthonormal": (random_orthonormal(rng, 30)[:, :14], 5),
        # E = 0.49 * ones: rank one, the bound equals delta, all subsets tie.
        "rank-one": (np.vstack([np.eye(12), 0.7 * np.ones((1, 12))]), 5),
        "scaled-up": (1e3 * gauss, 4),
        "scaled-down": (1e-3 * gauss, 4),
        # Gram entries near 1e161: every entry of E^2, so every bound, is inf.
        "overflow": (1e80 * signs * gauss, 4),
        "s=1": (gauss, 1),
        "s=n": (gauss, 16),
        "duplicated": (np.hstack([q[:, :12], q[:, [2, 2, 5]]]), 4),
    }


@pytest.mark.parametrize("name", list(_skip_cases()))
def test_ric_skip_keeps_the_certificate_exact(name):
    a, s = _skip_cases()[name]
    delta, subset = ric_reference(a, s)
    cert = compute_ric(a, s)
    assert cert.delta == delta
    assert cert.extremal_subset == subset


def _count_eigensolves(monkeypatch):
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(m):
        solved.append(len(m))
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return solved


def test_ric_skip_solves_every_subset_whose_bound_overflows(monkeypatch):
    a, s = _skip_cases()["overflow"]
    solved = _count_eigensolves(monkeypatch)
    compute_ric(a, s)
    assert sum(solved) == comb(a.shape[1], s)


def test_ric_skip_solves_every_subset_whose_bound_is_nan(monkeypatch):
    # A NaN bound proves nothing, so it must never skip an eigensolve.
    a, s = _skip_cases()["scaled-up"]
    delta, subset = ric_reference(a, s)
    monkeypatch.setattr(ripcert, "_deviation_bound",
                        lambda sub: np.full(len(sub), np.nan))
    solved = _count_eigensolves(monkeypatch)
    cert = compute_ric(a, s)
    assert sum(solved) == comb(a.shape[1], s)
    assert (cert.delta, cert.extremal_subset) == (delta, subset)


def test_ric_skip_skips_most_eigensolves(monkeypatch):
    # The Gaussian case of test_ric_chunks_match_per_subset_reference.
    a = np.random.default_rng(41).normal(0.0, 1.0 / 8.0, size=(64, 18))
    delta, subset = ric_reference(a, 6)
    solved = _count_eigensolves(monkeypatch)
    cert = compute_ric(a, 6)
    assert (cert.delta, cert.extremal_subset) == (delta, subset)
    assert solved[0] == 1  # the first chunk's best-bounded subset, alone
    assert sum(solved) < 0.005 * comb(18, 6)


def test_ric_first_solve_out_of_order_keeps_the_lowest_rank(monkeypatch):
    # Orthogonal columns with squared norms d; columns 14 and 15 duplicate
    # 5 and 6. Column 0 lies farthest from isometry, so every 4-subset that
    # holds it has deviation G[0, 0] - 1 (its Gram is block diagonal with
    # G[0, 0] alone) and they all tie. A subset that also splits a pair
    # of copies across its halves has a larger block bound through the
    # pair's cross term, so the first solve is such a subset, ranked after
    # (0, 1, 2, 3).
    d = np.array([3.0, 1.1, 0.9, 1.2, 0.8, 0.81, 0.64, 1.05, 0.95, 1.15,
                  0.85, 1.3, 0.7, 1.0])
    a = np.diag(np.sqrt(d))
    a = np.hstack([a, a[:, [5, 6]]])
    delta, subset = ric_reference(a, 4)
    assert subset == (0, 1, 2, 3)
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def recording(m):
        solved.append(m.copy())
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    cert = compute_ric(a, 4)
    assert (cert.delta, cert.extremal_subset) == (delta, subset)
    # The first solve is one subset that ties (0, 1, 2, 3) but is not it.
    gram = a.T @ a
    assert len(solved[0]) == 1
    first = solved[0][0]
    assert first[0, 0] == gram[0, 0]
    assert not np.array_equal(first, gram[:4, :4])
    eigs = eigvalsh(first)
    assert max(eigs[-1] - 1.0, 1.0 - eigs[0]) == delta


def test_ric_screens_most_subsets_before_gathering_them(monkeypatch):
    # The case of test_ric_skip_skips_most_eigensolves: the block bound
    # rejects most subsets, so few rows, half-table rows included, reach
    # the Schatten-4 bound.
    a = np.random.default_rng(41).normal(0.0, 1.0 / 8.0, size=(64, 18))
    rows = []
    bound = ripcert._deviation_bound

    def counting(e):
        rows.append(len(e))
        return bound(e)

    monkeypatch.setattr(ripcert, "_deviation_bound", counting)
    assert compute_ric(a, 6).extremal_subset == ric_reference(a, 6)[1]
    assert sum(rows) < comb(18, 6) / 4


@pytest.mark.parametrize("cols,s", [(24, 5), (28, 6), (20, 10), (24, 20)])
def test_ric_memory_is_bounded_by_the_chunk(cols, s):
    # 42,504, 376,740, 184,756 and 10,626 subsets: the peak follows the
    # chunk, its head sums (a chunk spans up to 202 heads at 24x20) and the
    # half tables (3,003 rows each at 20x10), not the count.
    a = np.random.default_rng(43).standard_normal((64, cols))
    tracemalloc.start()
    try:
        compute_ric(a, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


@pytest.mark.parametrize("n", [1, 2, 3, 6, 9, 12])
def test_halves_enumerate_subsets_in_combinations_order(n):
    for s in sorted({1, 2, n - 1, n} & set(range(1, n + 1))):
        halves = ripcert._Halves(n, s)
        s1 = s // 2
        assert halves.heads.shape == (comb(n - (s - s1), s1), s1)
        assert halves.tails.shape == (comb(n - s1, s - s1), s - s1)
        total = comb(n, s)
        # Chunks of any length cover every rank once, in order.
        for step in (1, 4, total):
            pieces = [halves.rows(lo, min(lo + step, total))
                      for lo in range(0, total, step)]
            head = np.concatenate([h for h, _ in pieces])
            tail = np.concatenate([t for _, t in pieces])
            got = np.hstack((halves.heads[head], halves.tails[tail]))
            assert got.tolist() == [list(t) for t in combinations(range(n), s)]


def _bound_cases():
    rng = np.random.default_rng(53)
    gauss = rng.normal(0.0, 1.0 / np.sqrt(10), size=(10, 11))
    # Columns within about 0.01 radians of one common direction.
    near = rng.normal(0.0, 1.0, size=(10, 1)) + 0.01 * rng.normal(size=(10, 11))
    near /= np.linalg.norm(near, axis=0)
    q = random_orthonormal(rng, 10)
    dup = np.hstack([q[:, :8], q[:, [1, 1, 6]]])
    rank_one = np.vstack([np.eye(11), 0.7 * np.ones((1, 11))])
    return [(a, s) for a in (gauss, near, dup, rank_one) for s in (1, 2, 3, 5, 8)]


def test_block_bound_is_above_every_deviation():
    for a, s in _bound_cases():
        n = a.shape[1]
        e = a.T @ a - np.eye(n)
        halves = ripcert._Halves(n, s)
        head, tail = halves.rows(0, comb(n, s))
        heads, tails = halves.heads[head], halves.tails[tail]
        direct = (e * e)[heads[:, :, None], tails[:, None, :]].sum(axis=(1, 2))
        cross = ripcert._cross(e * e, halves.heads, head, tails)
        np.testing.assert_allclose(cross, direct, rtol=1e-13, atol=0.0)
        bound = ripcert._block_bound(ripcert._table_bound(e, halves.heads)[head],
                                     ripcert._table_bound(e, halves.tails)[tail],
                                     cross)
        idx = np.hstack((heads, tails))
        eigs = np.linalg.eigvalsh((a.T @ a)[idx[:, :, None], idx[:, None, :]])
        dev = np.maximum(eigs[:, -1] - 1.0, 1.0 - eigs[:, 0])
        # Rank one makes the bound tight, so allow rounding, which stays
        # far below the skip margin.
        assert np.all(bound >= dev - 1e-13 * (1.0 + dev))


def test_ric_cap_refusal():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((6, 12))
    with pytest.raises(EnumerationCapError):
        compute_ric(a, 3, subset_cap=219)  # C(12,3) = 220
    assert isinstance(EnumerationCapError("x"), ValueError)
    cert = compute_ric(a, 3, subset_cap=220)  # boundary is inclusive
    assert cert.subset_size == 3


def test_ric_validations():
    a = np.eye(4)
    with pytest.raises(ValueError):
        compute_ric(a, 0)
    with pytest.raises(ValueError):
        compute_ric(a, 5)
    with pytest.raises(ValueError):
        compute_ric(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1)
    with pytest.raises(ValueError, match="overflows"):
        compute_ric(np.array([[1e200, 0.0], [0.0, 1.0]]), 1)  # Gram entry inf


def test_matrix_digest_distinguishes():
    a = np.arange(12, dtype=float).reshape(3, 4)
    assert matrix_digest(a) == matrix_digest(a.copy())
    b = a.copy()
    b[1, 2] += 1e-12
    assert matrix_digest(a) != matrix_digest(b)
    assert matrix_digest(np.zeros((2, 3))) != matrix_digest(np.zeros((3, 2)))


# --- lemma1_bounds -------------------------------------------------------------

def test_bounds_equal_arguments():
    for k in (1, 2, 7, 64):
        pair = lemma1_bounds(k, k)
        assert pair.bound_loose == pytest.approx(0.5, abs=1e-15)


def test_bounds_spot_values():
    pair = lemma1_bounds(9, 4)
    assert pair.bound_loose == pytest.approx(0.4, abs=1e-15)
    assert pair.bound_tight == pytest.approx(2.0 / 7.0, abs=1e-15)
    assert pair == BoundPair(9, 4, pair.bound_loose, pair.bound_tight)


def test_bounds_ordering_on_grid():
    for k in range(1, 101):
        for l in range(1, 101):
            pair = lemma1_bounds(k, l)
            assert pair.bound_loose > pair.bound_tight


def test_bounds_monotone_on_grid():
    # Increasing the branch width raises both thresholds; increasing the
    # sparsity lowers them.
    for k in range(1, 31):
        for l in range(1, 30):
            a, b = lemma1_bounds(k, l), lemma1_bounds(k, l + 1)
            assert b.bound_loose > a.bound_loose
            assert b.bound_tight > a.bound_tight
    for l in range(1, 31):
        for k in range(1, 30):
            a, b = lemma1_bounds(k, l), lemma1_bounds(k + 1, l)
            assert b.bound_loose < a.bound_loose
            assert b.bound_tight < a.bound_tight


def test_bounds_validation():
    with pytest.raises(ValueError):
        lemma1_bounds(0, 1)
    with pytest.raises(ValueError):
        lemma1_bounds(1, 0)
    for k, l in ((10 ** 400, 1), (1, 10 ** 400)):  # roots beyond float64
        with pytest.raises(ValueError, match="float64"):
            lemma1_bounds(k, l)


def test_bounds_refuse_thresholds_float64_cannot_order():
    # Past k/l of about 1e32 both thresholds round to one float64, so the
    # strict order BoundPair documents cannot hold; refuse instead.
    for k in (10 ** 33, 10 ** 300):
        with pytest.raises(ValueError, match="round to"):
            lemma1_bounds(k, 1)
    pair = lemma1_bounds(10 ** 31, 1)
    assert pair.bound_loose > pair.bound_tight


# --- certified recovery property -------------------------------------------------

def _tiny_dictionary(rng, i):
    # Alternate two families: perturbed orthonormal bases, whose restricted
    # isometry constants spread across the certification threshold, and
    # renormalized partial-orthogonal frames, which at this scale sit above
    # it and exercise the rejection path.
    m = int(rng.integers(9, 13))
    if i % 2 == 0:
        sigma = float(rng.uniform(0.05, 0.35))
        a = random_orthonormal(rng, m)
        a = a + sigma * rng.standard_normal((m, m)) / np.sqrt(m)
    else:
        n = int(rng.integers(m + 1, 15))
        a = random_orthonormal(rng, n)[:m, :]
    return a / np.linalg.norm(a, axis=0, keepdims=True)


def test_certified_dictionaries_recover_sparse_signals(tmp_path):
    # Wherever the loose certificate holds for (K, L) = (2, 2), depth-first
    # search with branch width 2 and an ample budget must recover every
    # 2-sparse signal exactly. A failing instance is saved for inspection
    # before the test is failed.
    rng = np.random.default_rng(41)
    k, l = 2, 2
    cfg = PursuitConfig("mmp-df", TerminationRule.sparsity(k),
                        branch_factor=l, max_paths=64)
    certified = rejected = 0
    for i in range(30):
        a = _tiny_dictionary(rng, i)
        n = a.shape[1]
        cert = compute_ric(a, k + l)
        if not cert.delta < lemma1_bounds(k, l).bound_loose:
            rejected += 1
            continue
        certified += 1
        for _ in range(3):
            support = np.sort(rng.choice(n, size=k, replace=False))
            x = np.zeros(n)
            x[support] = rng.standard_normal(k) + np.sign(rng.standard_normal(k))
            res = run_mmp_df(a, a @ x, cfg)
            if sorted(res.support) != list(support):
                path = tmp_path / "ric_recovery_counterexample.npz"
                np.savez(path, a=a, x=x, support=support,
                         delta=cert.delta, k=k, l=l)
                pytest.fail(f"certified instance missed recovery; "
                            f"saved to {path}")
    assert certified >= 5  # the property must not pass vacuously
    assert rejected >= 5   # nor may the certificate gate be a rubber stamp
