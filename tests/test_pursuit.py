import gc
import hashlib
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from pursuitlab import pursuit
from pursuitlab.benchlab import derive_trial_seed, gen_problem, reference_configs
from pursuitlab.linalg import DegenerateColumnError, IncrementalFactorization, factor_init
from pursuitlab.pursuit import (
    ADAPTIVE_MULTIPLICATIVE,
    ALGORITHMS,
    MULTIPLICATIVE,
    CostModel,
    DegenerateDictionaryError,
    PursuitConfig,
    SupportTrie,
    TerminationRule,
    PATH_BUDGET_EXHAUSTED,
    RESIDUAL_MET,
    SPARSITY_MET,
    path_cost,
    run,
    run_aomp,
    run_mmp_bf,
    run_mmp_df,
    run_omp,
)
from pursuitlab.pursuit import _DUP, _Ranks, _setup

from _oracles import (
    dense_omp,
    projection_residual,
    random_orthonormal,
    replay_residual,
    sparse_instance,
)


def test_path_cost_example():
    model = CostModel(alpha=0.8)
    assert path_cost(1.0, 8, 10, model) == pytest.approx(0.64, abs=1e-15)


def test_path_cost_alpha_one_is_residual():
    model = CostModel(alpha=1.0)
    for r in (0.0, 0.5, 2.5):
        assert path_cost(r, 3, 30, model) == r


def test_path_cost_validation():
    with pytest.raises(ValueError):
        path_cost(1.0, 11, 10, CostModel(alpha=0.8))
    with pytest.raises(ValueError):
        CostModel(alpha=0.0)
    with pytest.raises(ValueError):
        CostModel(alpha=1.5)
    with pytest.raises(ValueError):
        CostModel(kind="geometric")


def test_path_cost_adaptive_progress_discount():
    # One step cut the residual in half: base = min(1, 0.97 * 0.5) = 0.485,
    # and four levels remain to the target of five.
    model = CostModel(kind=ADAPTIVE_MULTIPLICATIVE, alpha=0.97)
    got = path_cost(0.5, 1, 5, model, prev_residual_norm=1.0)
    assert got == pytest.approx(0.5 * 0.485**4, abs=1e-15)


def test_path_cost_adaptive_stall_matches_fixed():
    # A step that leaves the residual unchanged falls back to plain alpha decay.
    adaptive = CostModel(kind=ADAPTIVE_MULTIPLICATIVE, alpha=0.9)
    fixed = CostModel(kind=MULTIPLICATIVE, alpha=0.9)
    assert path_cost(0.37, 3, 8, adaptive, prev_residual_norm=0.37) \
        == path_cost(0.37, 3, 8, fixed)


def test_path_cost_adaptive_decay_clamped():
    # The per-step decay never exceeds one, so a (numerically) grown residual
    # cannot make a path look cheaper the further it sits from the target.
    model = CostModel(kind=ADAPTIVE_MULTIPLICATIVE, alpha=0.9)
    assert path_cost(1.2, 2, 10, model, prev_residual_norm=1.0) == 1.2


def test_path_cost_adaptive_needs_prev():
    model = CostModel(kind=ADAPTIVE_MULTIPLICATIVE, alpha=0.9)
    with pytest.raises(ValueError):
        path_cost(0.5, 1, 10, model)


def test_path_cost_adaptive_zero_prev():
    # No usable ratio from an exhausted parent residual: decay stays at alpha.
    model = CostModel(kind=ADAPTIVE_MULTIPLICATIVE, alpha=0.5)
    assert path_cost(0.0, 2, 4, model, prev_residual_norm=0.0) == 0.0


def test_termination_rule_validation():
    with pytest.raises(ValueError):
        TerminationRule.sparsity(0)
    with pytest.raises(ValueError):
        TerminationRule.residual(epsilon_rel=0.0)
    with pytest.raises(ValueError):
        TerminationRule.residual(epsilon_rel=1.0)
    with pytest.raises(ValueError):
        TerminationRule.residual(k_max=0)
    with pytest.raises(ValueError):
        TerminationRule(kind="entropy")
    with pytest.raises(ValueError):
        TerminationRule.sparsity(None).max_len()


def test_config_validation():
    rule = TerminationRule.sparsity(3)
    with pytest.raises(ValueError):
        PursuitConfig("gradient", rule)
    with pytest.raises(ValueError):
        PursuitConfig("aomp", rule, max_paths=0)
    with pytest.raises(ValueError):
        PursuitConfig("mmp-bf", rule, beam_width=0)
    cfg = PursuitConfig("aomp", rule, label="aomp-k")
    assert cfg.tag == "aomp-k"
    assert PursuitConfig("omp", rule).tag == "omp"


# --- SupportTrie ------------------------------------------------------------

def test_trie_order_insensitive_and_subset_distinct():
    t = SupportTrie()
    assert t.check_insert((2, 7, 1)) is True
    assert t.check_insert((7, 1, 2)) is False
    assert (1, 2, 7) in t
    assert (1, 2) not in t
    assert t.check_insert((1, 2)) is True        # subset is a distinct set
    assert t.check_insert((1, 2, 7, 9)) is True  # superset too
    assert t.check_insert(()) is True
    assert t.check_insert(()) is False


def test_trie_matches_frozenset_oracle():
    rng = np.random.default_rng(42)
    t = SupportTrie()
    seen = set()
    for _ in range(1000):
        size = int(rng.integers(1, 9))
        sup = tuple(rng.choice(64, size=size, replace=False).tolist())
        expect_new = frozenset(sup) not in seen
        seen.add(frozenset(sup))
        assert t.check_insert(sup) is expect_new
        assert (sup in t) is True


def test_trie_names_a_support_by_mask_or_columns():
    # Bit j of a mask is column j, here past one 64-bit word; numpy integer
    # columns name the same bits (1 << np.int64(70) alone would wrap to 0).
    t = SupportTrie()
    cols = (70, 3, 64, 129)
    mask = (1 << 3) | (1 << 64) | (1 << 70) | (1 << 129)
    assert t.check_insert(mask) is True
    for order in itertools.permutations(cols):
        assert order in t
        assert t.check_insert(list(order)) is False
    assert tuple(np.array(cols)) in t
    assert t.check_insert([np.int64(j) for j in cols]) is False
    assert (3, 64, 70) not in t and mask & ~(1 << 129) not in t
    assert t.check_insert((np.int64(64),)) is True
    assert 1 << 64 in t and (0,) not in t and 1 not in t
    assert t._seen == {mask, 1 << 64}


# --- OMP --------------------------------------------------------------------

def test_omp_identity_example():
    a = np.eye(3)
    y = np.array([0.0, 3.0, 0.0])
    res = run_omp(a, y, TerminationRule.sparsity(1))
    assert res.support == (1,)
    np.testing.assert_allclose(res.estimate, y, atol=1e-14)
    assert res.paths_opened == 1
    assert res.iterations == 1


def test_omp_recovers_on_orthonormal():
    rng = np.random.default_rng(9)
    from _oracles import random_orthonormal
    a = random_orthonormal(rng, 8)
    x = np.zeros(8)
    x[[1, 4, 6]] = [2.0, -1.0, 0.5]
    res = run_omp(a, a @ x, TerminationRule.sparsity(3))
    assert sorted(res.support) == [1, 4, 6]
    np.testing.assert_allclose(res.estimate, x, atol=1e-10)


def test_omp_matches_dense_oracle_support_sequence():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(8, 17))
        m = int(rng.integers(5, 11))
        k = int(rng.integers(1, 4))
        a, x, y = sparse_instance(rng, n, m, k)
        if not np.any(y):
            continue
        rules = [(TerminationRule.sparsity(k), k)] + [
            (TerminationRule.residual(1e-6, k_max=c), c) for c in (k, m, n)]
        for rule, limit in rules:
            res = run_omp(a, y, rule)
            oracle_support, oracle_resid = dense_omp(a, y, limit, eps_rel=1e-6)
            assert list(res.support) == oracle_support
            assert res.residual_norm == pytest.approx(
                np.linalg.norm(oracle_resid), abs=1e-8)


def test_omp_residual_rule_stops_early():
    rng = np.random.default_rng(33)
    a, x, y = sparse_instance(rng, 32, 16, 3)
    res = run_omp(a, y, TerminationRule.residual(1e-6, k_max=10))
    assert res.terminated_by == RESIDUAL_MET
    assert len(res.support) <= 10
    assert res.residual_norm < 1e-6 * np.linalg.norm(y)


def test_omp_kmax_cap_reports_sparsity_met():
    rng = np.random.default_rng(34)
    a = rng.standard_normal((12, 24))
    y = rng.standard_normal(12)  # not sparse: the cap will bind
    res = run_omp(a, y, TerminationRule.residual(1e-9, k_max=4))
    assert res.terminated_by == SPARSITY_MET
    assert len(res.support) == 4


def _search(algorithm, a, y, rule, trace=False):
    return run(a, y, PursuitConfig(algorithm, rule), trace=trace)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_zero_signal(algorithm):
    # The empty support already meets any residual target: no search runs.
    res = _search(algorithm, np.eye(4), np.zeros(4), TerminationRule.sparsity(2),
                  trace=True)
    assert res.terminated_by == RESIDUAL_MET
    assert res.iterations == 0
    assert res.explored_nodes == 0
    assert res.paths_opened == 1
    assert res.support == ()
    np.testing.assert_array_equal(res.estimate, np.zeros(4))
    assert res.trace["completed"] == [()]
    assert res.trace["projected"] == []


@pytest.mark.parametrize("algorithm", ["omp", "mmp-bf", "mmp-df", "aomp"])
def test_omp_degenerate_dictionary_raises(algorithm):
    a = np.zeros((3, 4))
    with pytest.raises(DegenerateDictionaryError,
                       match="every dictionary column is degenerate"):
        _search(algorithm, a, np.ones(3), TerminationRule.sparsity(1))


@pytest.mark.parametrize("algorithm", ["omp", "mmp-bf", "mmp-df", "aomp"])
def test_omp_skips_degenerate_column(algorithm):
    # Second copy of the best column must be skipped, not crash the search.
    a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    y = np.array([2.0, 1.0])
    res = _search(algorithm, a, y, TerminationRule.sparsity(2), trace=True)
    assert sorted(res.support) == [0, 2]
    if algorithm != "omp":
        assert res.explored_nodes == len(res.trace["projected"])


def _overflowing(part):
    rng = np.random.default_rng(29)
    a = rng.standard_normal((20, 40))
    y = rng.standard_normal(20)
    if part == "dictionary":
        a[:, [5, 9]] *= 1e200
    else:
        y *= 1e160
    return a, y


@pytest.mark.parametrize("part", ["dictionary", "signal"])
@pytest.mark.parametrize("algorithm", ["omp", "mmp-bf", "mmp-df", "aomp"])
def test_overflowing_inputs_are_refused(algorithm, part):
    # Squared norms past float64 would make every residual inf and the
    # correlations unorderable; the search refuses instead of answering.
    a, y = _overflowing(part)
    with pytest.raises(ValueError, match="overflows float64"):
        _search(algorithm, a, y, TerminationRule.sparsity(3))


# --- MMP breadth-first -------------------------------------------------------

def _bf_config(rule, **kw):
    return PursuitConfig("mmp-bf", rule, **kw)


def test_mmp_bf_orthonormal_terminates_level_k():
    from _oracles import random_orthonormal
    rng = np.random.default_rng(5)
    a = random_orthonormal(rng, 10)
    x = np.zeros(10)
    x[[2, 7]] = [1.0, -3.0]
    res = run_mmp_bf(a, a @ x, _bf_config(TerminationRule.sparsity(2),
                                          branch_factor=3, beam_width=4))
    assert sorted(res.support) == [2, 7]
    assert res.terminated_by == RESIDUAL_MET
    assert res.iterations <= 2


def test_mmp_bf_at_least_as_good_as_omp_over_seeds():
    # Spec-scale paired run: N=12, M=8, K=2, branch 3, beam 4, 100 seeds.
    # With beam >= first-level children the greedy lineage survives level 1,
    # so the final best can never lose to plain greedy.
    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        a, x, y = sparse_instance(rng, 12, 8, 2)
        if not np.any(y):
            continue
        rule = TerminationRule.sparsity(2)
        bf = run_mmp_bf(a, y, _bf_config(rule, branch_factor=3, beam_width=4))
        omp = run_omp(a, y, rule)
        assert bf.residual_norm <= omp.residual_norm + 1e-10
        wins += bf.residual_norm < omp.residual_norm - 1e-10
    assert wins >= 0  # strict improvements are instance-dependent


def test_mmp_bf_single_branch_is_omp():
    rng = np.random.default_rng(71)
    for seed in range(20):
        a, x, y = sparse_instance(rng, 14, 9, 3)
        if not np.any(y):
            continue
        rule = TerminationRule.sparsity(3)
        bf = run_mmp_bf(a, y, _bf_config(rule, branch_factor=1, beam_width=5))
        omp = run_omp(a, y, rule)
        assert bf.support == omp.support
        np.testing.assert_array_equal(bf.estimate, omp.estimate)


def test_mmp_bf_unit_beam_is_omp_on_orthonormal():
    from _oracles import random_orthonormal
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        a = random_orthonormal(rng, 12)
        x = np.zeros(12)
        sup = rng.choice(12, size=3, replace=False)
        x[sup] = rng.standard_normal(3)
        y = a @ x
        rule = TerminationRule.sparsity(3)
        bf = run_mmp_bf(a, y, _bf_config(rule, branch_factor=3, beam_width=1))
        omp = run_omp(a, y, rule)
        assert bf.support == omp.support


def test_mmp_bf_beam_respects_budget():
    rng = np.random.default_rng(81)
    a, x, y = sparse_instance(rng, 20, 12, 3)
    res = run_mmp_bf(a, y, _bf_config(TerminationRule.sparsity(3),
                                      branch_factor=4, beam_width=9,
                                      max_paths=5))
    assert res.paths_opened <= 5


def test_mmp_bf_no_duplicate_projections():
    rng = np.random.default_rng(91)
    a, x, y = sparse_instance(rng, 16, 10, 3)
    res = run_mmp_bf(a, y, _bf_config(TerminationRule.sparsity(3),
                                      branch_factor=4, beam_width=6),
                     trace=True)
    logged = res.trace["projected"]
    assert len(logged) == len(set(logged))


# --- MMP depth-first ----------------------------------------------------------

def _df_config(rule, **kw):
    return PursuitConfig("mmp-df", rule, **kw)


def test_mmp_df_orthonormal_first_path_wins():
    from _oracles import random_orthonormal
    rng = np.random.default_rng(15)
    a = random_orthonormal(rng, 9)
    x = np.zeros(9)
    x[[0, 4, 8]] = [1.0, 2.0, -1.0]
    res = run_mmp_df(a, a @ x, _df_config(TerminationRule.sparsity(3),
                                          branch_factor=2, max_paths=8))
    assert res.terminated_by == RESIDUAL_MET
    assert res.paths_opened == 1
    assert sorted(res.support) == [0, 4, 8]


def test_mmp_df_beats_all_enumerated_supports():
    # Dense target: no path meets the residual criterion, so the full
    # branch-vector enumeration is explored and the best must win.
    from _oracles import mmp_df_paths
    rng = np.random.default_rng(77)
    a = rng.normal(0.0, 1.0 / np.sqrt(10), size=(10, 16))
    y = rng.standard_normal(10)
    res = run_mmp_df(a, y, _df_config(TerminationRule.sparsity(3),
                                      branch_factor=2, max_paths=8))
    oracle = mmp_df_paths(a, y, branch=2, depth=3)
    assert len(oracle) == 8
    best = min(r for _, _, r in oracle)
    assert res.residual_norm <= best + 1e-10
    assert res.residual_norm == pytest.approx(best, abs=1e-8)
    assert res.terminated_by == PATH_BUDGET_EXHAUSTED
    assert res.paths_opened <= 8


def test_mmp_df_single_path_is_omp():
    rng = np.random.default_rng(19)
    for kind in ("sparsity", "residual"):
        for _ in range(15):
            a, x, y = sparse_instance(rng, 14, 9, 3)
            if not np.any(y):
                continue
            rule = (TerminationRule.sparsity(3) if kind == "sparsity"
                    else TerminationRule.residual(1e-6, k_max=5))
            df = run_mmp_df(a, y, _df_config(rule, branch_factor=4, max_paths=1))
            omp = run_omp(a, y, rule)
            assert df.support == omp.support
            np.testing.assert_array_equal(df.estimate, omp.estimate)


def test_mmp_df_budget_and_dedup():
    rng = np.random.default_rng(23)
    a = rng.normal(0.0, 1.0 / np.sqrt(10), size=(10, 16))
    y = rng.standard_normal(10)
    res = run_mmp_df(a, y, _df_config(TerminationRule.sparsity(3),
                                      branch_factor=3, max_paths=12),
                     trace=True)
    assert res.paths_opened <= 12
    logged = res.trace["projected"]
    assert len(logged) == len(set(logged))
    completed = res.trace["completed"]
    assert len(completed) == res.paths_opened
    # Returned residual equals the best replayed completed support.
    best = min(replay_residual(a, y, s) for s in completed)
    assert res.residual_norm == pytest.approx(best, abs=1e-8)


# --- A*OMP -------------------------------------------------------------------

def _aomp_config(rule, **kw):
    return PursuitConfig("aomp", rule, **kw)


def test_aomp_orthonormal_recovers():
    from _oracles import random_orthonormal
    rng = np.random.default_rng(25)
    a = random_orthonormal(rng, 10)
    x = np.zeros(10)
    x[[3, 6]] = [1.0, -2.0]
    res = run_aomp(a, a @ x, _aomp_config(TerminationRule.sparsity(2),
                                          init_paths=2, expand_branches=2,
                                          max_paths=20))
    assert sorted(res.support) == [3, 6]
    np.testing.assert_allclose(res.estimate, x, atol=1e-10)


def test_aomp_unit_parameters_is_omp():
    rng = np.random.default_rng(29)
    for kind in ("sparsity", "residual"):
        for _ in range(15):
            a, x, y = sparse_instance(rng, 14, 9, 3)
            if not np.any(y):
                continue
            rule = (TerminationRule.sparsity(3) if kind == "sparsity"
                    else TerminationRule.residual(1e-6, k_max=5))
            ao = run_aomp(a, y, _aomp_config(rule, init_paths=1,
                                             expand_branches=1, max_paths=10))
            omp = run_omp(a, y, rule)
            assert ao.support == omp.support
            np.testing.assert_array_equal(ao.estimate, omp.estimate)


def test_aomp_returned_beats_every_inserted_support():
    # Seed-fixed instances small enough that the open set never overflows:
    # the returned path must beat every support the search inserted.
    for seed in (101, 202, 303, 404):
        rng = np.random.default_rng(seed)
        a, x, y = sparse_instance(rng, 16, 10, 3)
        if not np.any(y):
            continue
        res = run_aomp(a, y, _aomp_config(
            TerminationRule.sparsity(3), init_paths=3, expand_branches=2,
            max_paths=50, cost_model=CostModel(alpha=0.8)), trace=True)
        inserted = res.trace["projected"]
        assert inserted
        best = min(replay_residual(a, y, s) for s in inserted)
        assert res.residual_norm <= best + 1e-8


def test_aomp_met_pop_yields_to_a_better_support_seen_earlier():
    # A steep adaptive discount pops a path that meets the residual target
    # while a support seen earlier has the smaller residual; the search must
    # return that one, so the result is the least residual of every
    # projected support.
    rng = np.random.default_rng(10)
    a = rng.standard_normal((5, 12))
    y = rng.standard_normal(5)
    res = run_aomp(a, y, _aomp_config(
        TerminationRule.residual(0.1, k_max=5), init_paths=3, expand_branches=2,
        cost_model=CostModel(kind=ADAPTIVE_MULTIPLICATIVE, alpha=0.3)), trace=True)
    assert res.terminated_by == RESIDUAL_MET
    assert res.residual_norm == pytest.approx(replay_residual(a, y, res.support), abs=1e-12)
    best = min(replay_residual(a, y, s) for s in res.trace["projected"])
    assert res.residual_norm <= best + 1e-12, (res.residual_norm, best)


def test_aomp_budget_respected():
    rng = np.random.default_rng(31)
    a = rng.normal(0.0, 1.0 / np.sqrt(12), size=(12, 32))
    y = rng.standard_normal(12)
    for init in (3, 9):  # 9 initial paths exceed the open-set cap
        res = run_aomp(a, y, _aomp_config(TerminationRule.sparsity(4),
                                          init_paths=init, expand_branches=3,
                                          max_paths=7))
        assert res.paths_opened <= 7


def test_aomp_no_duplicate_projections():
    rng = np.random.default_rng(37)
    a, x, y = sparse_instance(rng, 20, 12, 4)
    res = run_aomp(a, y, _aomp_config(TerminationRule.sparsity(4),
                                      max_paths=30), trace=True)
    logged = res.trace["projected"]
    assert len(logged) == len(set(logged))


def test_aomp_adaptive_orthonormal_recovers():
    from _oracles import random_orthonormal
    rng = np.random.default_rng(41)
    a = random_orthonormal(rng, 12)
    x = np.zeros(12)
    x[[1, 4, 9]] = [0.8, -1.1, 2.0]
    res = run_aomp(a, a @ x, _aomp_config(
        TerminationRule.residual(1e-9, k_max=6),
        cost_model=CostModel(kind=ADAPTIVE_MULTIPLICATIVE, alpha=0.97)))
    assert res.terminated_by == RESIDUAL_MET
    assert sorted(res.support) == [1, 4, 9]
    np.testing.assert_allclose(res.estimate, x, atol=1e-10)


def test_aomp_adaptive_single_lineage_is_omp():
    # With one initial path and one branch the cost never arbitrates between
    # paths, so the adaptive search must walk the plain greedy column order.
    rng = np.random.default_rng(43)
    for _ in range(10):
        a, x, y = sparse_instance(rng, 15, 9, 3)
        if not np.any(y):
            continue
        rule = TerminationRule.residual(1e-6, k_max=5)
        ao = run_aomp(a, y, _aomp_config(
            rule, init_paths=1, expand_branches=1, max_paths=10,
            cost_model=CostModel(kind=ADAPTIVE_MULTIPLICATIVE, alpha=0.97)))
        omp = run_omp(a, y, rule)
        assert ao.support == omp.support


def test_aomp_residual_rule_drains_capped_paths():
    # Three atoms can never explain a five-atom orthonormal signal, so every
    # lineage caps out below the threshold and the search exhausts the open
    # set. It must then return the best capped support it saw.
    a = np.eye(6)
    y = np.zeros(6)
    y[[0, 1, 2, 3, 4]] = [3.0, 2.5, 2.0, 1.5, 1.0]
    res = run_aomp(a, y, _aomp_config(
        TerminationRule.residual(1e-6, k_max=3),
        init_paths=3, expand_branches=2, max_paths=50,
        cost_model=CostModel(kind=ADAPTIVE_MULTIPLICATIVE, alpha=0.97)))
    assert res.terminated_by == PATH_BUDGET_EXHAUSTED
    assert sorted(res.support) == [0, 1, 2]
    assert res.residual_norm == pytest.approx(np.sqrt(1.5**2 + 1.0**2), abs=1e-12)


# --- cross-algorithm invariants ----------------------------------------------

def _all_results(a, y, k):
    rule_k = TerminationRule.sparsity(k)
    rule_e = TerminationRule.residual(1e-6, k_max=min(2 * k, a.shape[0]))
    out = []
    for rule in (rule_k, rule_e):
        out.append(run_omp(a, y, rule))
        out.append(run_mmp_bf(a, y, PursuitConfig("mmp-bf", rule,
                                                  branch_factor=3, beam_width=4)))
        out.append(run_mmp_df(a, y, PursuitConfig("mmp-df", rule,
                                                  branch_factor=3, max_paths=10)))
        out.append(run_aomp(a, y, PursuitConfig("aomp", rule, max_paths=20)))
    return out


def test_counter_invariants_across_algorithms():
    rng = np.random.default_rng(55)
    for _ in range(15):
        a, x, y = sparse_instance(rng, 18, 11, 3)
        if not np.any(y):
            continue
        for res in _all_results(a, y, 3):
            assert res.explored_nodes >= res.iterations >= 1
            assert res.paths_opened >= 1
            assert res.terminated_by in (RESIDUAL_MET, SPARSITY_MET,
                                         PATH_BUDGET_EXHAUSTED)
            assert len(res.support) == len(set(res.support))
            nz = np.flatnonzero(res.estimate)
            assert set(nz).issubset(set(res.support))


def test_estimate_consistent_with_replay():
    rng = np.random.default_rng(60)
    for _ in range(10):
        a, x, y = sparse_instance(rng, 16, 10, 3)
        if not np.any(y):
            continue
        for res in _all_results(a, y, 3):
            assert res.residual_norm == pytest.approx(
                replay_residual(a, y, res.support), abs=1e-8)


def test_row_mismatch_rejected():
    for algorithm in ALGORITHMS:
        with pytest.raises(ValueError, match="row mismatch: matrix has 5 rows, signal has 4"):
            run(np.ones((5, 8)), np.ones(4), PursuitConfig(algorithm, TerminationRule.sparsity(2)))


def test_algorithm_config_mismatch_rejected():
    rule = TerminationRule.sparsity(2)
    cfg = PursuitConfig("omp", rule)
    with pytest.raises(ValueError):
        run_mmp_df(np.eye(3), np.ones(3), cfg)
    with pytest.raises(ValueError):
        run_mmp_bf(np.eye(3), np.ones(3), cfg)
    with pytest.raises(ValueError):
        run_aomp(np.eye(3), np.ones(3), cfg)


# --- hostile dictionaries ----------------------------------------------------

_HOSTILE_ROWS, _HOSTILE_COLS = 12, 24


def _hostile_dictionary(name, rng):
    m, n = _HOSTILE_ROWS, _HOSTILE_COLS
    g = rng.standard_normal((m, n))
    if name == "near-parallel":  # triples of columns 1e-9 apart
        return np.repeat(rng.standard_normal((m, n // 3)), 3, axis=1) \
            + 1e-9 * rng.standard_normal((m, n))
    if name == "two-orthobases":
        return np.hstack([np.eye(m), random_orthonormal(rng, m)])
    if name == "zero-columns":
        g[:, [3, 10, 11]] = 0.0
    elif name == "duplicate-columns":
        g[:, 5] = g[:, 20] = g[:, 2]
        g[:, 17] = -2.0 * g[:, 9]
    elif name == "dependent-columns":
        g[:, 7] = g[:, 1] + 0.5 * g[:, 4]
        g[:, 15] = g[:, 7] - g[:, 12]
    elif name == "rank-3":
        g = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))
    elif name == "scale-1e-160":
        g *= 1e-160
    elif name == "five-rows":  # both rules' caps exceed the rank
        g = g[:5]
    return g


def _hostile_configs():
    # The residual rule's k_max exceeds the row count of every dictionary.
    for rule in (TerminationRule.sparsity(4),
                 TerminationRule.residual(1e-6, k_max=_HOSTILE_ROWS + 6)):
        yield PursuitConfig("omp", rule)
        yield PursuitConfig("mmp-bf", rule, branch_factor=3, beam_width=3)
        yield PursuitConfig("mmp-df", rule, branch_factor=3, max_paths=15)
        yield PursuitConfig("aomp", rule, max_paths=30)
        yield PursuitConfig("aomp", rule, max_paths=30,
                            cost_model=CostModel(ADAPTIVE_MULTIPLICATIVE, 0.97))


@pytest.mark.parametrize("name", [
    "near-parallel", "two-orthobases", "zero-columns", "duplicate-columns",
    "dependent-columns", "rank-3", "five-rows",
    # Squared norms of 1e-160 entries are subnormal; the search rescales
    # such inputs, and the norms below are taken with math.hypot.
    "scale-1e-160",
])
def test_searches_stay_honest_on_hostile_dictionaries(name):
    # Every search either refuses the input or returns a support of
    # independent columns within its cap, whose residual a dense replay
    # confirms, with a finite estimate and a residual_met it has earned.
    # Odd seeds add 2 % noise to the observation.
    returned = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = _hostile_dictionary(name, rng)
        rows, n = a.shape
        x = np.zeros(n)
        x[rng.choice(n, 3, replace=False)] = rng.standard_normal(3)
        y = a @ x
        if seed % 2:
            y = y + 0.02 * np.linalg.norm(y) / math.sqrt(rows) * rng.standard_normal(rows)
        ynorm = math.hypot(*y)
        for config in _hostile_configs():
            where = (seed, config.algorithm, config.termination.kind)
            try:
                res = run(a, y, config)
            except DegenerateDictionaryError:
                continue
            except ValueError as err:
                assert "overflows float64" in str(err), where
                continue
            returned += 1
            support = list(res.support)
            assert abs(res.residual_norm - projection_residual(a, y, support)) \
                <= 1e-8 * ynorm, where
            cols = a[:, support]
            norms = np.linalg.norm(cols, axis=0)
            assert (norms > 0).all(), where
            assert np.linalg.matrix_rank(cols / norms) == len(support), where
            assert len(support) <= min(config.termination.max_len(), rows), where
            eps = config.termination.epsilon_rel * ynorm
            assert (res.terminated_by == RESIDUAL_MET) == (res.residual_norm < eps), where
            assert np.isfinite(res.estimate).all(), where
    assert returned


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_tiny_inputs_search_as_their_power_of_two_multiples(algorithm):
    # Scaling by 2**-530 takes the squared norms below float64's normal
    # range. The search scales such inputs back up by a power of two, which
    # is exact, so it makes the decisions it makes on the original inputs
    # and reports their residual norm and estimate, scaled exactly.
    prob = gen_problem(60, 30, 6, 3)
    a, y = prob.dictionary, prob.observation
    for rule in (TerminationRule.sparsity(6), TerminationRule.residual(1e-6, k_max=12)):
        config = PursuitConfig(algorithm, rule)
        ref = run(a, y, config, trace=True)
        for ea, ey in ((-530, -530), (-530, 0), (0, -530)):
            res = run(np.ldexp(a, ea), np.ldexp(y, ey), config, trace=True)
            assert (res.support, res.iterations, res.explored_nodes, res.paths_opened,
                    res.terminated_by, res.trace) == \
                (ref.support, ref.iterations, ref.explored_nodes, ref.paths_opened,
                 ref.terminated_by, ref.trace), (ea, ey)
            assert res.residual_norm == math.ldexp(ref.residual_norm, ey), (ea, ey)
            assert np.array_equal(res.estimate, np.ldexp(ref.estimate, ey - ea)), (ea, ey)


def test_mmp_df_memory_stays_near_omp():
    # A deep noisy path: children share their parent's factor buffer, so the
    # depth-first search holds a few buffers, not one full copy per level.
    prob = gen_problem(600, 300, 37, 5)
    rng = np.random.default_rng(5)
    sigma = 0.01 * np.linalg.norm(prob.observation) / math.sqrt(300)
    y = prob.observation + rng.normal(0.0, sigma, 300)
    rule = TerminationRule.residual(1e-6, k_max=300)
    config = PursuitConfig("mmp-df", rule, branch_factor=6, max_paths=20)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    omp = peak(lambda: run_omp(prob.dictionary, y, rule))
    mmp_df = peak(lambda: run_mmp_df(prob.dictionary, y, config))
    # A factor is one q buffer plus shared per-column records, a copy copies
    # nothing, the registry holds one bitmask per support and the tree only
    # each node's resolved columns: about 3.61 MiB against OMP's 3.11 MiB, a
    # ratio of 1.16 (1.46 while every node kept its n correlations).
    assert mmp_df <= 1.2 * omp, (mmp_df, omp)


def test_largest_sweep_search_peak_memory():
    # aomp-e at K=50, seed 7, trial 1 is the pinned sweep's largest search.
    # Its registry holds one 60-byte bitmask per projected support, not a
    # sorted tuple of up to 50 columns: the tracemalloc peak reads about
    # 10.0 MiB, against 12.7 MiB with tuples.
    prob = gen_problem(256, 100, 50, derive_trial_seed(7, 50, 1))
    config = reference_configs()[1]
    assert config.tag == "aomp-e"
    tracemalloc.start()
    try:
        res = run(prob.dictionary, prob.observation, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.explored_nodes == 17271
    assert peak <= 10.5 * 2**20, peak / 2**20


def test_searches_leave_no_cyclic_garbage():
    # A search's state dies with its last reference, so a dead search never
    # waits for the cycle collector to free its tree, registry and buffers.
    prob = gen_problem(256, 100, 40, 7)
    rule = TerminationRule.residual(1e-6, k_max=55)
    gc.disable()
    try:
        gc.collect()
        for algorithm in ALGORITHMS:
            run(prob.dictionary, prob.observation, PursuitConfig(algorithm, rule))
            assert gc.collect() == 0, algorithm
    finally:
        gc.enable()


def test_mmp_df_walks_deeper_than_the_recursion_limit():
    rows = sys.getrecursionlimit() + 100
    rng = np.random.default_rng(0)
    a = rng.standard_normal((rows, rows + 50))
    y = rng.standard_normal(rows)
    config = PursuitConfig("mmp-df", TerminationRule.residual(1e-9, k_max=rows),
                           branch_factor=2, max_paths=1)
    res = run_mmp_df(a, y, config)
    assert len(res.support) == rows
    assert res.terminated_by == RESIDUAL_MET


def test_mmp_df_completes_paths_stuck_below_the_length_cap():
    # Rank 2 with a cap of 3 columns: every 2-column path spans the whole
    # column space, so it can grow no further and completes where it stands.
    a = np.array([[1.0, 0.0, 1.0, 1.0, 2.0],
                  [0.0, 1.0, 1.0, -1.0, 1.0],
                  [0.0, 0.0, 0.0, 0.0, 0.0]])
    y = np.array([3.0, 1.0, 2.0])
    config = PursuitConfig("mmp-df", TerminationRule.sparsity(3))
    res = run_mmp_df(a, y, config, trace=True)
    completed = res.trace["completed"]
    assert completed[0] == tuple(sorted(run_omp(a, y, config.termination).support))
    assert sorted(completed) == [(i, j) for i in range(5) for j in range(i + 1, 5)]
    assert res.paths_opened == 10
    assert res.residual_norm == pytest.approx(2.0)
    assert res.terminated_by == PATH_BUDGET_EXHAUSTED


# --- the expansion kernel's rank resolver -------------------------------------

def _below_dup():
    # Columns: 0 = e0, 1 = zero, 2 = a copy of column 0, 3 = e1, 4 = e2, 5 = e3.
    # The root ranks 0, 2, 3, 4, then the zero-correlation ties 1, 5. Returns
    # the path {0} with {0, 3} already registered from {3}.
    a = np.zeros((4, 6))
    a[0, 0] = a[0, 2] = a[1, 3] = a[2, 4] = a[3, 5] = 1.0
    y = np.array([3.0, 2.0, 1.0, 0.0])
    expand, root, *_ = _setup(a, y, TerminationRule.sparsity(3), trace=True)
    ranks = _Ranks()
    kids = [expand.rank(ranks, root, c) for c in range(6)]
    # The zero column holds no rank: column 5 moves up to rank 4, and there
    # is no rank 5.
    assert [f.indices for f in kids[:5]] == [[0], [2], [3], [4], [5]]
    assert kids[5] is None and ranks.cols == [0, 2, 3, 4, 5]
    assert sorted(expand.rank(_Ranks(), kids[2], 0).indices) == [0, 3]
    return a, expand, kids[0]


def test_expansion_rank_resolution():
    a, expand, f0 = _below_dup()
    explored, projected = expand.explored, list(expand.projected)
    ranks = _Ranks()
    first = [expand.rank(ranks, f0, c) for c in range(4)]
    # The duplicate holds rank 0 without a projection; the zero column and
    # the copy of column 0 hold no rank, so column 5 takes rank 2.
    assert first[0] is _DUP and first[3] is None
    assert [sorted(f.indices) for f in first[1:3]] == [[0, 4], [0, 5]]
    assert ranks.cols == [None, 4, 5]
    assert expand.explored == explored + 2
    assert expand.projected == projected + [(0, 4), (0, 5)]

    # A rank resolved earlier is rebuilt, identical and uncounted.
    seen = set(expand.trie._seen)
    again = [expand.rank(ranks, f0, c) for c in range(4)]
    assert again[0] is _DUP and again[3] is None
    for old, new in zip(first[1:3], again[1:3]):
        assert new is not old and new.mask == old.mask
        assert new.residual.tobytes() == old.residual.tobytes()
        assert new.coefficients().tobytes() == old.coefficients().tobytes()
    assert expand.explored == explored + 2 and expand.trie._seen == seen

    # children(fact, w) is rank over c < w, duplicates left out.
    for width in range(1, 5):
        a, expand, f0 = _below_dup()
        got = [f.mask for f in expand.children(f0, width)]
        assert got == [f.mask for f in first[:width] if f is not None and f is not _DUP]
        assert expand.explored == explored + min(width - 1, 2)


def _rerank_case(seed):
    # Rank 5 in 6 rows: unit vectors, a multiple of e0 and of e1, two sums
    # and two zero columns, in a seeded order. An integer signal ties
    # correlations at exact zero, so degenerate candidates rank between
    # usable ones.
    rng = np.random.default_rng(seed)
    eye = np.eye(6)
    pool = [*eye[:, :5].T, 2.0 * eye[:, 0], -eye[:, 1], np.zeros(6), np.zeros(6),
            eye[:, 0] + eye[:, 1], eye[:, 2] + eye[:, 3]]
    a = np.column_stack([pool[i] for i in rng.permutation(len(pool))])
    return a, rng.integers(0, 4, 6).astype(float)


def _outcome(res):
    return (res.support, res.iterations, res.explored_nodes, res.paths_opened,
            res.terminated_by, res.trace, res.residual_norm, res.estimate.tobytes())


def _rerank_configs():
    for rule in (TerminationRule.sparsity(5), TerminationRule.residual(1e-6, k_max=6)):
        for max_paths in (8, 60):
            yield _df_config(rule, branch_factor=6, max_paths=max_paths)


def test_mmp_df_rerank_matches_the_kept_ranking(monkeypatch):
    # A ranking lives for one call of the child step: when a later total
    # needs a new rank at a depth-first node, the walk re-ranks the rebuilt
    # factor and skips every candidate taken before, degenerate ones
    # included. It must resolve the same columns, counters and stop as a
    # walk that keeps every node's first ranking for the whole search, with
    # a branch factor above the dictionary's rank.
    ranked, rank_order = pursuit._Expansion.ranked, pursuit._ranked
    reranks = {"any": 0, "past_degenerate": 0}
    kept = {}

    def watched_ranked(self, ranks, fact):
        rerank = 0 < ranks.pulled < self.a.shape[1] - fact.k
        # pulled counts degenerate candidates too, cols does not.
        past_degenerate = rerank and ranks.pulled > len(ranks.cols)
        reranks["any"] += rerank
        for child in ranked(self, ranks, fact):
            reranks["past_degenerate"] += past_degenerate
            yield child

    def kept_ranked(a, fact):
        # Each support's full order, computed once and replayed.
        if fact.mask not in kept:
            kept[fact.mask] = list(rank_order(a, fact))
        return iter(kept[fact.mask])

    monkeypatch.setattr(pursuit._Expansion, "ranked", watched_ranked)
    for seed in (0, 2):
        a, y = _rerank_case(seed)
        assert np.linalg.matrix_rank(a) == 5
        for config in _rerank_configs():
            where = (seed, config.termination.kind, config.max_paths)
            before = reranks["any"]
            got = run_mmp_df(a, y, config, trace=True)
            walk = reranks["any"] - before
            assert walk > 0, where
            with monkeypatch.context() as m:
                m.setattr(pursuit, "_ranked", kept_ranked)
                kept.clear()
                want = run_mmp_df(a, y, config, trace=True)
            # Each of the reference's re-ranks replays a kept order.
            assert reranks["any"] - before == 2 * walk, where
            assert _outcome(got) == _outcome(want), where
    # Some re-rank resolved a new rank after degenerate candidates it skipped.
    assert reranks["past_degenerate"] > 0


def test_mmp_df_asks_each_node_for_one_new_rank_per_visit(monkeypatch):
    # A depth-first node is visited at remaining branch sums 0, 1, 2, ...,
    # so a visit asks for at most one rank past those resolved, the next
    # one, unless every candidate there is taken. A ranking kept past one
    # call of the child step would never be used again, so the walk makes
    # as many rankings as one that kept every node's ranking: the counts
    # below.
    calls = {"ranked": 0, "new": 0, "skipping": 0}
    rank_order, rank = pursuit._ranked, pursuit._Expansion.rank

    def counted_ranked(a, fact):
        calls["ranked"] += 1
        return rank_order(a, fact)

    def watched_rank(self, ranks, fact, c):
        if c >= len(ranks.cols):
            calls["new"] += 1
            calls["skipping"] += (c > len(ranks.cols)
                                  and ranks.pulled < self.a.shape[1] - fact.k)
        return rank(self, ranks, fact, c)

    monkeypatch.setattr(pursuit, "_ranked", counted_ranked)
    monkeypatch.setattr(pursuit._Expansion, "rank", watched_rank)
    for name, a, y, k in _fingerprint_cases():
        for config in _fingerprint_configs(k):
            run(a, y, config, trace=True)
    assert calls == {"ranked": 9493, "new": 1950, "skipping": 0}
    calls.update(ranked=0, new=0)
    for seed in (0, 2):
        a, y = _rerank_case(seed)
        for config in _rerank_configs():
            run_mmp_df(a, y, config, trace=True)
    assert calls == {"ranked": 2724, "new": 6767, "skipping": 0}


def test_beam_and_best_first_make_no_uncounted_appends(monkeypatch):
    # Beam and best-first take each child from children() once, so every
    # append is a counted projection or a refused degenerate column, on one
    # copy. The depth-first walk is left out: it may rebuild a child it
    # comes back to by an uncounted append.
    ops = {"copy": 0, "append": 0, "degenerate": 0}
    copy, append = IncrementalFactorization.copy, IncrementalFactorization.append

    def counted_copy(fact):
        ops["copy"] += 1
        return copy(fact)

    def counted_append(fact, a, j):
        ops["append"] += 1
        try:
            return append(fact, a, j)
        except DegenerateColumnError:
            ops["degenerate"] += 1
            raise

    monkeypatch.setattr(IncrementalFactorization, "copy", counted_copy)
    monkeypatch.setattr(IncrementalFactorization, "append", counted_append)
    degenerate = dict.fromkeys(ALGORITHMS, 0)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        # Column 4 repeats column 1 and column 7 is zero. Under the residual
        # rule a noisy signal outside the six usable columns' span takes
        # every search past them, so even the greedy path reaches both.
        a = rng.standard_normal((8, 8))
        a[:, 4] = a[:, 1]
        a[:, 7] = 0.0
        y = a[:, [1, 2, 6]] @ rng.standard_normal(3) + 0.05 * rng.standard_normal(8)
        for rule in (TerminationRule.sparsity(5), TerminationRule.residual(1e-6, k_max=8)):
            for config in (PursuitConfig("omp", rule),
                           PursuitConfig("mmp-bf", rule, branch_factor=3, beam_width=3),
                           PursuitConfig("mmp-df", rule, branch_factor=3, max_paths=15),
                           PursuitConfig("aomp", rule, max_paths=30)):
                ops.update(copy=0, append=0, degenerate=0)
                res = run(a, y, config)
                where = (seed, config.algorithm, rule.kind)
                assert ops["copy"] == ops["append"], where
                uncounted = ops["append"] - res.explored_nodes - ops["degenerate"]
                if config.algorithm != "mmp-df":
                    assert uncounted == 0, where
                degenerate[config.algorithm] += ops["degenerate"]
    assert all(degenerate.values())  # every search reached the bad columns


# --- decision fingerprint ----------------------------------------------------

def _fingerprint_cases():
    rng = np.random.default_rng(41)
    for k in range(4, 9):
        prob = gen_problem(60, 30, k, 100 + k)
        y = prob.observation
        yield f"gauss-{k}", prob.dictionary, y, k
        if k % 2 == 0:
            noise = rng.standard_normal(30) * 0.05 * np.linalg.norm(y) / math.sqrt(30)
            yield f"noisy-{k}", prob.dictionary, y + noise, k
    low_rank = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 20))
    yield "rank-3", low_rank, low_rank[:, [1, 7, 13]] @ [1.0, -2.0, 0.5], 4
    a = rng.standard_normal((12, 20))
    a[:, 4] = 0.0
    a[:, 9] = a[:, 2]
    a[:, 15] = -3.0 * a[:, 6]
    yield "zero-dup", a, a[:, [2, 6, 11]] @ [1.5, 1.0, -1.0] + 0.01 * a[:, 0], 4


def _fingerprint_configs(k):
    for rule in (TerminationRule.sparsity(k),
                 TerminationRule.residual(1e-6, k_max=2 * k)):
        yield PursuitConfig("omp", rule)
        yield PursuitConfig("mmp-bf", rule, branch_factor=3, beam_width=4)
        for branch in (1, 3, 6):
            yield PursuitConfig("mmp-df", rule, branch_factor=branch,
                                max_paths=25)
        yield PursuitConfig("aomp", rule, max_paths=40)
        yield PursuitConfig("aomp", rule, max_paths=40,
                            cost_model=CostModel(kind=ADAPTIVE_MULTIPLICATIVE,
                                                 alpha=0.97))


# SHA-256 of every search decision below. A change that means to alter a
# decision updates it and says which decisions moved and why.
DECISIONS_SHA256 = "ec3eab6f4de9f2429b18f149e37c5587ed196ec9acff4d1830c3df65895470e1"


def _decision_records():
    # Every support, counter, termination and traced support list of all
    # four searches on the fingerprint case set, one record per run.
    for name, a, y, k in _fingerprint_cases():
        for config in _fingerprint_configs(k):
            res = run(a, y, config, trace=True)
            yield (name, config.algorithm, config.branch_factor,
                   config.cost_model.kind, config.termination.kind,
                   tuple(int(j) for j in res.support), res.iterations,
                   res.explored_nodes, res.paths_opened, res.terminated_by,
                   res.trace["projected"], res.trace["completed"])


def test_search_decisions_fingerprint():
    # Pins every decision record on a small fixed case set. Float bits stay
    # out, so BLAS rounding cannot move it; a refactor that changes any
    # search decision does.
    h = hashlib.sha256()
    for record in _decision_records():
        h.update(repr(record).encode())
    assert h.hexdigest() == DECISIONS_SHA256


def _unit_hash(v):
    # A fixed value in [-1, 1) for each float64 bit pattern in v.
    h = np.atleast_1d(np.asarray(v, dtype=np.float64)).view(np.uint64) \
        * np.uint64(0x9E3779B97F4A7C15)
    h ^= h >> np.uint64(29)
    return (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -52 - 1.0


def _swap_15_to_6(record):
    # In zero-dup, column 15 is -3 times column 6: both span one line.
    def canon(support):
        return tuple(sorted(6 if j == 15 else j for j in support))
    *head, support, iterations, explored, opened, stop, projected, completed = record
    return (*head, canon(support), iterations, explored, opened, stop,
            [canon(s) for s in projected], [canon(s) for s in completed])


def test_search_decisions_keep_a_margin(monkeypatch):
    # Every correlation and every appended residual norm v becomes
    # v * (1 + s * u(v)), with u a fixed hash of v's bits, so equal values
    # stay equal and zeros stay zero. At s = 1e-9, far above the rounding a
    # change of arithmetic order brings, no decision moves, except between
    # zero-dup's columns 6 and 15, whose children project onto one span and
    # tie to rounding: there only that swap may change.
    scale = 1e-9
    base = list(_decision_records())
    by_rank, append = pursuit._by_rank, IncrementalFactorization.append

    def perturbed_by_rank(corr, mask, left):
        corr *= 1.0 + scale * _unit_hash(corr)
        return by_rank(corr, mask, left)

    def perturbed_append(fact, a, j):
        append(fact, a, j)
        v = fact.residual_norm
        fact.residual_norm = float(v * (1.0 + scale * _unit_hash(v)[0]))
        return fact

    monkeypatch.setattr(pursuit, "_by_rank", perturbed_by_rank)
    monkeypatch.setattr(IncrementalFactorization, "append", perturbed_append)
    swapped = 0
    for old, new in zip(base, _decision_records(), strict=True):
        if old[0] == "zero-dup":
            assert _swap_15_to_6(new) == _swap_15_to_6(old), old[:5]
            swapped += new != old
        else:
            assert new == old, old[:5]
    # 6 of zero-dup's 14 runs take the other column of the pair (from
    # s = 1e-15 up); the rest of the set first moves at s = 1e-4.
    assert swapped == 6


def test_exact_ties_go_to_the_smaller_mask():
    # Columns 9 and 15 copy columns 2 and 6 bit for bit, so the supports
    # {2, 6}, {2, 15}, {6, 9} and {9, 15} tie exactly. Sorted tuples would
    # put (2, 15) before (6, 9); their masks put {6, 9} first.
    rng = np.random.default_rng(30)
    a = rng.standard_normal((6, 16))
    a[:, 9] = a[:, 2]
    a[:, 15] = a[:, 6]
    y = 2.0 * a[:, 2] + 0.5 * a[:, 6] + 0.4 * rng.standard_normal(6)
    tied = [(2, 6), (6, 9), (2, 15), (9, 15)]
    assert len({factor_init(a, y).append(a, j).append(a, k).residual_norm
                for j, k in tied}) == 1
    # The beam's last level completes all its children in beam order.
    bf = run_mmp_bf(a, y, PursuitConfig("mmp-bf", TerminationRule.sparsity(2)), trace=True)
    assert [s for s in bf.trace["completed"] if s in tied] == tied
    # When {6, 9} arrives, the open set, capped at 4, holds {1, 2}, {1, 9},
    # {2, 6} and {2, 15}. The cap keeps {6, 9} over {2, 15}, so the search
    # later expands {2, 6} and then {6, 9}, by columns 5 and 4.
    config = PursuitConfig("aomp", TerminationRule.sparsity(3), init_paths=3,
                           expand_branches=3, max_paths=4, cost_model=CostModel(alpha=0.5))
    bestfirst = run_aomp(a, y, config, trace=True)
    assert bestfirst.trace["projected"][-4:] == [(2, 5, 6), (2, 4, 6), (5, 6, 9), (4, 6, 9)]
