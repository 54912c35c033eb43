import numpy as np
import pytest

from perfbench.spans import SPAN_NAMES, Recorder, layer_totals, self_times
from pursuitlab import benchlab, cli, pursuit
from pursuitlab.linalg import IncrementalFactorization
from pursuitlab.pursuit import PursuitConfig, SupportTrie, TerminationRule


def test_self_times_of_nested_spans():
    # 0: [0, 10] root; 1: [1, 4] and 2: [5, 9] its children; 3: [2, 3] under 1;
    # 4: [20, 22] a second root.
    parent = np.array([-1, 0, 0, 1, -1])
    start = np.array([0.0, 1.0, 5.0, 2.0, 20.0])
    end = np.array([10.0, 4.0, 9.0, 3.0, 22.0])
    assert self_times(parent, start, end).tolist() == [3.0, 2.0, 4.0, 1.0, 2.0]


def test_self_times_sum_to_root_durations():
    rng = np.random.default_rng(3)
    # A random well-nested tree: each span splits its interval among children.
    parent, start, end = [-1], [0.0], [100.0]
    for i in range(200):
        p = int(rng.integers(0, len(parent)))
        lo, hi = start[p], end[p]
        kids = [j for j in range(len(parent)) if parent[j] == p]
        edge = max([end[j] for j in kids], default=lo)
        if hi - edge < 1e-6:
            continue
        s = edge + (hi - edge) * rng.random() * 0.5
        e = s + (hi - s) * rng.random() * 0.5
        parent.append(p)
        start.append(s)
        end.append(e)
    own = self_times(np.array(parent), np.array(start), np.array(end))
    assert (own >= -1e-12).all()
    assert own.sum() == pytest.approx(100.0)


def _originals():
    return (benchlab.run_aomp, pursuit.run_omp, pursuit.factor_init, cli.compute_ric,
            cli.main, benchlab.gen_problem, benchlab.run_sweep,
            IncrementalFactorization.__dict__["copy"],
            IncrementalFactorization.__dict__["append"],
            SupportTrie.__dict__["__contains__"], SupportTrie.__dict__["check_insert"])


def test_recorder_restores_every_entry_point():
    before = _originals()
    with Recorder(spans=True).installed():
        assert _originals() != before
    assert _originals() == before


def test_recorder_restores_after_an_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Recorder(spans=True).installed():
            raise RuntimeError("boom")
    assert _originals() == before


def test_traced_search_splits_into_layers():
    problem = benchlab.gen_problem(60, 30, 4, 11)
    rule = TerminationRule.residual(1e-6, k_max=10)
    config = PursuitConfig("mmp-df", rule, branch_factor=3, max_paths=5)
    rec = Recorder(spans=True)
    with rec.installed():
        result = pursuit.run_mmp_df(problem.dictionary, problem.observation, config)
    assert [op.label for op in rec.ops] == ["mmp-df"]
    assert rec.ops[0].result is result
    tot = layer_totals(rec)
    assert tot["pursuit.search"][0] == 1
    assert tot["linalg.append"][0] >= result.explored_nodes
    assert tot["linalg.copy"][0] == tot["linalg.append"][0]
    parts = sum(tot[n][1] for n in ("linalg.copy", "linalg.append", "linalg.factor_init",
                                    "pursuit.trie.contains", "pursuit.trie.insert"))
    assert parts + tot["pursuit.search"][2] == pytest.approx(tot["pursuit.search"][1])
    name, parent, trial, _s, _e = rec.span_arrays()
    search = SPAN_NAMES.index("pursuit.search")
    assert (parent[name != search] == np.flatnonzero(name == search)[0]).all()
    assert (trial == 0).all()


def test_untraced_recorder_keeps_no_spans():
    problem = benchlab.gen_problem(60, 30, 4, 11)
    rec = Recorder(spans=False)
    with rec.installed():
        pursuit.run_omp(problem.dictionary, problem.observation,
                        TerminationRule.sparsity(4))
    assert len(rec.ops) == 1 and len(rec.start) == 0
