import numpy as np
import pytest

from pursuitlab.pursuit import (
    ADAPTIVE_MULTIPLICATIVE,
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
    run_aomp,
    run_mmp_bf,
    run_mmp_df,
    run_omp,
    scatter_estimate,
)

from _oracles import dense_omp, replay_residual, sparse_instance


def test_path_cost_example():
    model = CostModel(alpha=0.8, target_length=10)
    assert path_cost(1.0, 8, model) == pytest.approx(0.64, abs=1e-15)


def test_path_cost_alpha_one_is_residual():
    model = CostModel(alpha=1.0, target_length=30)
    for r in (0.0, 0.5, 2.5):
        assert path_cost(r, 3, model) == r


def test_path_cost_validation():
    with pytest.raises(ValueError):
        path_cost(1.0, 3, CostModel(alpha=0.8))  # unresolved target
    with pytest.raises(ValueError):
        path_cost(1.0, 11, CostModel(alpha=0.8, target_length=10))
    with pytest.raises(ValueError):
        CostModel(alpha=0.0)
    with pytest.raises(ValueError):
        CostModel(alpha=1.5)
    with pytest.raises(ValueError):
        CostModel(kind="geometric")


def test_path_cost_adaptive_progress_discount():
    # One step cut the residual in half: base = min(1, 0.97 * 0.5) = 0.485,
    # and four levels remain to the target of five.
    model = CostModel(kind=ADAPTIVE_MULTIPLICATIVE, alpha=0.97, target_length=5)
    got = path_cost(0.5, 1, model, prev_residual_norm=1.0)
    assert got == pytest.approx(0.5 * 0.485**4, abs=1e-15)


def test_path_cost_adaptive_stall_matches_fixed():
    # A step that leaves the residual unchanged falls back to plain alpha decay.
    adaptive = CostModel(kind=ADAPTIVE_MULTIPLICATIVE, alpha=0.9, target_length=8)
    fixed = CostModel(kind=MULTIPLICATIVE, alpha=0.9, target_length=8)
    assert path_cost(0.37, 3, adaptive, prev_residual_norm=0.37) \
        == path_cost(0.37, 3, fixed)


def test_path_cost_adaptive_decay_clamped():
    # The per-step decay never exceeds one, so a (numerically) grown residual
    # cannot make a path look cheaper the further it sits from the target.
    model = CostModel(kind=ADAPTIVE_MULTIPLICATIVE, alpha=0.9, target_length=10)
    assert path_cost(1.2, 2, model, prev_residual_norm=1.0) == 1.2


def test_path_cost_adaptive_needs_prev():
    model = CostModel(kind=ADAPTIVE_MULTIPLICATIVE, alpha=0.9, target_length=10)
    with pytest.raises(ValueError):
        path_cost(0.5, 1, model)


def test_path_cost_adaptive_zero_prev():
    # No usable ratio from an exhausted parent residual: decay stays at alpha.
    model = CostModel(kind=ADAPTIVE_MULTIPLICATIVE, alpha=0.5, target_length=4)
    assert path_cost(0.0, 2, model, prev_residual_norm=0.0) == 0.0


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


def test_scatter_estimate():
    est = scatter_estimate((3, 0), [1.5, -2.0], 5)
    np.testing.assert_array_equal(est, [-2.0, 0.0, 0.0, 1.5, 0.0])
    with pytest.raises(ValueError):
        scatter_estimate((0, 0), [1.0, 2.0], 4)
    with pytest.raises(ValueError):
        scatter_estimate((5,), [1.0], 4)
    with pytest.raises(ValueError):
        scatter_estimate((1,), [1.0, 2.0], 4)


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


# --- OMP --------------------------------------------------------------------

def test_omp_identity_example():
    a = np.eye(3)
    y = np.array([0.0, 3.0, 0.0])
    res = run_omp(a, y, TerminationRule.sparsity(1))
    assert res.support == (1,)
    np.testing.assert_allclose(res.estimate, y, atol=1e-14)
    assert res.paths_opened == 1
    assert res.iterations == 1


def test_omp_zero_signal():
    res = run_omp(np.eye(4), np.zeros(4), TerminationRule.sparsity(2))
    assert res.terminated_by == RESIDUAL_MET
    assert res.iterations == 0
    assert res.support == ()
    np.testing.assert_array_equal(res.estimate, np.zeros(4))


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
        res = run_omp(a, y, TerminationRule.sparsity(k))
        oracle_support, oracle_resid = dense_omp(a, y, k)
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
    if algorithm == "omp":
        return run_omp(a, y, rule, trace=trace)
    run = {"mmp-bf": run_mmp_bf, "mmp-df": run_mmp_df, "aomp": run_aomp}[algorithm]
    return run(a, y, PursuitConfig(algorithm, rule), trace=trace)


@pytest.mark.parametrize("algorithm", ["omp", "mmp-bf", "mmp-df", "aomp"])
def test_omp_degenerate_dictionary_raises(algorithm):
    a = np.zeros((3, 4))
    with pytest.raises(DegenerateDictionaryError):
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


def test_mmp_df_zero_signal():
    res = run_mmp_df(np.eye(4), np.zeros(4),
                     _df_config(TerminationRule.sparsity(2)))
    assert res.terminated_by == RESIDUAL_MET
    assert res.support == ()


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


def test_aomp_zero_signal():
    res = run_aomp(np.eye(4), np.zeros(4),
                   _aomp_config(TerminationRule.sparsity(2)))
    assert res.terminated_by == RESIDUAL_MET
    assert res.iterations == 0


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


def test_algorithm_config_mismatch_rejected():
    rule = TerminationRule.sparsity(2)
    cfg = PursuitConfig("omp", rule)
    with pytest.raises(ValueError):
        run_mmp_df(np.eye(3), np.ones(3), cfg)
    with pytest.raises(ValueError):
        run_mmp_bf(np.eye(3), np.ones(3), cfg)
    with pytest.raises(ValueError):
        run_aomp(np.eye(3), np.ones(3), cfg)
