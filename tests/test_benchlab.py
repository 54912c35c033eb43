import concurrent.futures
import json
import math

import numpy as np
import pytest

from pursuitlab import benchlab
from pursuitlab.benchlab import (
    CSV_HEADER,
    SparseProblem,
    SweepCell,
    SweepReport,
    TrialError,
    derive_trial_seed,
    emit_report,
    gen_problem,
    nmse_value,
    reference_configs,
    run_sweep,
    run_trial,
)
from pursuitlab.pursuit import CostModel, PursuitConfig, TerminationRule
from pursuitlab.ripcert import matrix_digest

from _oracles import random_orthonormal


# --- problem generation ----------------------------------------------------------

def test_gen_problem_deterministic():
    p1 = gen_problem(32, 16, 4, seed=907)
    p2 = gen_problem(32, 16, 4, seed=907)
    np.testing.assert_array_equal(p1.dictionary, p2.dictionary)
    np.testing.assert_array_equal(p1.signal, p2.signal)
    np.testing.assert_array_equal(p1.observation, p2.observation)
    p3 = gen_problem(32, 16, 4, seed=908)
    assert not np.array_equal(p1.dictionary, p3.dictionary)


def test_gen_problem_shape_and_support():
    p = gen_problem(24, 12, 5, seed=11)
    assert p.dictionary.shape == (12, 24)
    assert np.count_nonzero(p.signal) == 5
    assert p.sparsity == 5
    np.testing.assert_allclose(p.observation, p.dictionary @ p.signal,
                               rtol=1e-12, atol=0)


def test_gen_problem_dimension_ordering():
    with pytest.raises(ValueError):
        gen_problem(16, 16, 4, seed=1)   # n must exceed m
    with pytest.raises(ValueError):
        gen_problem(32, 8, 8, seed=1)    # m must exceed k
    with pytest.raises(ValueError):
        gen_problem(32, 8, 0, seed=1)


def test_gen_problem_statistics():
    # 1000 instances: every signal has exactly k nonzeros and the grand mean
    # of dictionary entries stays within 3 sigma of zero under the CLT.
    n, m, k, count = 32, 16, 10, 1000
    total = 0.0
    for t in range(count):
        p = gen_problem(n, m, k, seed=50_000 + t)
        assert np.count_nonzero(p.signal) == k
        total += float(p.dictionary.sum())
    entries = count * m * n
    mean = total / entries
    assert abs(mean) <= 3.0 * (1.0 / np.sqrt(m)) / np.sqrt(entries)


def test_gen_problem_flags():
    p = gen_problem(20, 10, 3, seed=77, normalize_columns=True)
    np.testing.assert_allclose(np.linalg.norm(p.dictionary, axis=0), 1.0,
                               atol=1e-12)
    q = gen_problem(20, 10, 3, seed=77, flat_amplitudes=True)
    nz = q.signal[q.signal != 0.0]
    np.testing.assert_array_equal(np.abs(nz), np.ones(3))


def test_sparse_problem_validation():
    a = np.eye(6)
    x = np.zeros(6)
    x[2] = 1.0
    p = SparseProblem(a, x, a @ x, sparsity=1, seed=0)  # square is allowed
    assert p.seed == 0
    with pytest.raises(ValueError):
        SparseProblem(a, x, a @ x, sparsity=2, seed=0)  # nonzero count lies
    with pytest.raises(ValueError):
        SparseProblem(a, x, a @ x + 0.1, sparsity=1, seed=0)  # y != a @ x
    tall = np.eye(6)[:, :4]
    for dictionary, sparsity in ((tall, 1), (a, 6), (a, 0)):
        with pytest.raises(ValueError, match="need cols >= rows > sparsity >= 1"):
            SparseProblem(dictionary, x[:dictionary.shape[1]],
                          dictionary @ x[:dictionary.shape[1]], sparsity=sparsity, seed=0)


def test_derive_trial_seed_stable():
    s = derive_trial_seed(1234, 10, 0)
    assert s == derive_trial_seed(1234, 10, 0)
    assert s != derive_trial_seed(1234, 10, 1)
    assert s != derive_trial_seed(1234, 11, 0)
    assert s != derive_trial_seed(1235, 10, 0)


# --- single trials ----------------------------------------------------------------

def test_nmse_values():
    x = np.array([0.0, 2.0, 0.0, -1.0])
    assert nmse_value(x, x) == 0.0
    assert nmse_value(x, np.zeros(4)) == 1.0
    with pytest.raises(ValueError):
        nmse_value(np.zeros(3), np.zeros(3))


def test_run_trial_orthonormal_always_exact():
    rng = np.random.default_rng(3)
    cfg = PursuitConfig("omp", TerminationRule.sparsity(None))
    for k in (1, 3, 5):
        a = random_orthonormal(rng, 12)
        x = np.zeros(12)
        x[rng.choice(12, size=k, replace=False)] = rng.standard_normal(k)
        problem = SparseProblem(a, x, a @ x, sparsity=k, seed=k)
        tr = run_trial(problem, cfg)
        assert tr.exact and tr.nmse <= 1e-20
        assert tr.algorithm == "omp"
        assert tr.iterations >= 1 and tr.wall_time_s >= 0.0


def test_run_trial_resolves_sparsity_target():
    # A sweep config leaves the sparsity target open; the trial binds it to
    # the problem's sparsity without mutating the original config.
    cfg = reference_configs()[0]
    assert cfg.termination.k is None
    problem = gen_problem(24, 12, 3, seed=5)
    tr = run_trial(problem, cfg)
    assert cfg.termination.k is None
    assert tr.k == 3


def test_run_trial_error_carries_seed(monkeypatch):
    import pursuitlab.benchlab as bl
    def boom(a, y, rule, trace=False):
        raise ValueError("synthetic failure")
    monkeypatch.setattr("pursuitlab.pursuit.run_omp", boom)
    problem = gen_problem(24, 12, 3, seed=4242)
    with pytest.raises(TrialError, match="4242"):
        bl.run_trial(problem, PursuitConfig("omp", TerminationRule.sparsity(None)))


def test_run_trial_exact_tol_validation():
    problem = gen_problem(24, 12, 3, seed=5)
    cfg = PursuitConfig("omp", TerminationRule.sparsity(None))
    for tol in (0.0, -1e-2, math.nan, math.inf):
        with pytest.raises(ValueError):
            run_trial(problem, cfg, exact_tol=tol)


# --- sweeps -----------------------------------------------------------------------

def _tiny_configs():
    return [
        PursuitConfig("omp", TerminationRule.sparsity(None), label="omp-k"),
        PursuitConfig("mmp-df", TerminationRule.sparsity(None),
                      branch_factor=2, max_paths=8, label="mmp-df-k"),
    ]


def test_sweep_singleton_mean():
    report = run_sweep(24, 12, [3], 1, [_tiny_configs()[0]], global_seed=9)
    assert len(report.cells) == 1
    cell = report.cells[0]
    assert cell.trials == 1
    problem = gen_problem(24, 12, 3, derive_trial_seed(9, 3, 0))
    tr = run_trial(problem, _tiny_configs()[0])
    assert cell.anmse == pytest.approx(tr.nmse, abs=1e-15)
    assert cell.exact_rate in (0.0, 1.0)


def test_sweep_echoes_each_config_with_its_own_knobs():
    configs = [PursuitConfig("mmp-bf", TerminationRule.sparsity(None),
                             branch_factor=3, beam_width=2, max_paths=5, label="bf"),
               _tiny_configs()[0]]
    report = run_sweep(24, 12, [2], 1, configs, global_seed=4)
    assert report.configs == (
        {"algorithm": "mmp-bf", "label": "bf",
         "termination": {"kind": "sparsity", "k": None, "solution_eps": 1e-6},
         "max_paths": 5, "branch_factor": 3, "beam_width": 2},
        {"algorithm": "omp", "label": "omp-k",
         "termination": {"kind": "sparsity", "k": None, "solution_eps": 1e-6},
         "max_paths": 200},
    )


def test_sweep_paired_problems_and_log(tmp_path):
    log = tmp_path / "trials.jsonl"
    report = run_sweep(24, 12, [2, 3], 4, _tiny_configs(), global_seed=21,
                       trial_log=str(log))
    lines = [json.loads(s) for s in log.read_text().splitlines()]
    assert len(lines) == 2 * 4 * 2  # k-values x trials x configs
    by_slot = {}
    for line in lines:
        by_slot.setdefault((line["K"], line["seed"]), []).append(line["algorithm"])
    # every slot carries one line per config: identical problems across configs
    assert all(sorted(v) == ["mmp-df-k", "omp-k"] for v in by_slot.values())
    # the logged seed regenerates the problem; digests match across the pairing
    for (k, seed), _ in by_slot.items():
        p1 = gen_problem(24, 12, k, seed)
        p2 = gen_problem(24, 12, k, seed)
        assert matrix_digest(p1.dictionary) == matrix_digest(p2.dictionary)
    # Eq-mean consistency: cell anmse equals the mean over logged nmse values
    for cell in report.cells:
        logged = [l["nmse"] for l in lines
                  if l["K"] == cell.k and l["algorithm"] == cell.algorithm]
        assert cell.anmse == pytest.approx(np.mean(logged), abs=1e-12)


def _strip_wall(report):
    return [(c.k, c.algorithm, c.trials, c.exact_rate, c.anmse,
             c.mean_iterations, c.mean_explored_nodes) for c in report.cells]


def test_sweep_deterministic_and_parallel_equivalent():
    kw = dict(n=24, m=12, k_values=[2, 3], trials_per_k=3,
              configs=_tiny_configs(), global_seed=33)
    r1 = run_sweep(**kw)
    r2 = run_sweep(**kw)
    r4 = run_sweep(**kw, jobs=2)
    assert _strip_wall(r1) == _strip_wall(r2) == _strip_wall(r4)


def test_sweep_caps_workers_at_the_core_count(monkeypatch):
    # A pool that records its worker count and maps in this process.
    workers = []

    class SerialPool:
        def __init__(self, max_workers, mp_context):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    kw = dict(n=24, m=12, k_values=[2, 3], trials_per_k=3,
              configs=_tiny_configs(), global_seed=33)
    serial = run_sweep(**kw)
    monkeypatch.setattr(benchlab.os, "cpu_count", lambda: 2)
    assert _strip_wall(run_sweep(**kw, jobs=64)) == _strip_wall(serial)
    monkeypatch.setattr(benchlab.os, "cpu_count", lambda: None)
    assert _strip_wall(run_sweep(**kw, jobs=3)) == _strip_wall(serial)
    assert workers == [2, 1]


def test_sweep_validations():
    cfgs = _tiny_configs()
    with pytest.raises(ValueError):
        run_sweep(24, 12, [], 2, cfgs, 1)
    with pytest.raises(ValueError):
        run_sweep(24, 12, [3], 2, [], 1)
    with pytest.raises(ValueError):
        run_sweep(24, 12, [12], 2, cfgs, 1)   # k == m
    with pytest.raises(ValueError):
        run_sweep(24, 12, [3], 0, cfgs, 1)
    with pytest.raises(ValueError):
        run_sweep(24, 12, [3], 2, [cfgs[0], cfgs[0]], 1)  # duplicate labels
    with pytest.raises(ValueError):
        run_sweep(24, 12, [3, 3], 2, cfgs, 1)  # repeated sparsity level
    for jobs in (0, -1):
        with pytest.raises(ValueError):
            run_sweep(24, 12, [3], 2, cfgs, 1, jobs=jobs)
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="exact_tol"):
            run_sweep(24, 12, [3], 2, cfgs, 1, exact_tol=tol)


def test_reference_configs_shape():
    cfgs = reference_configs()
    assert [c.tag for c in cfgs] == ["aomp-k", "aomp-e", "mmp-df-k", "mmp-df-e"]
    for c in cfgs:
        assert c.max_paths == 200
    aomp_e = cfgs[1]
    assert aomp_e.cost_model.kind == "adaptive-multiplicative"
    assert aomp_e.cost_model.alpha == 0.97
    assert aomp_e.termination.k_max == 55
    assert cfgs[0].cost_model.alpha == 0.8
    assert cfgs[2].branch_factor == 6


def test_reference_configs_spell_out_the_protocol():
    # Every field written out, so that a moved library default cannot
    # silently change the comparison protocol.
    def expected(eps, k_max):
        return [
            PursuitConfig(algorithm="aomp",
                          termination=TerminationRule(kind="sparsity", k=None,
                                                      epsilon_rel=1e-6, k_max=55),
                          branch_factor=6, beam_width=4, init_paths=3,
                          expand_branches=2, max_paths=200,
                          cost_model=CostModel(kind="multiplicative", alpha=0.8),
                          label="aomp-k"),
            PursuitConfig(algorithm="aomp",
                          termination=TerminationRule(kind="residual", k=None,
                                                      epsilon_rel=eps, k_max=k_max),
                          branch_factor=6, beam_width=4, init_paths=3,
                          expand_branches=2, max_paths=200,
                          cost_model=CostModel(kind="adaptive-multiplicative",
                                               alpha=0.97),
                          label="aomp-e"),
            PursuitConfig(algorithm="mmp-df",
                          termination=TerminationRule(kind="sparsity", k=None,
                                                      epsilon_rel=1e-6, k_max=55),
                          branch_factor=6, beam_width=4, init_paths=3,
                          expand_branches=2, max_paths=200,
                          cost_model=CostModel(kind="multiplicative", alpha=0.8),
                          label="mmp-df-k"),
            PursuitConfig(algorithm="mmp-df",
                          termination=TerminationRule(kind="residual", k=None,
                                                      epsilon_rel=eps, k_max=k_max),
                          branch_factor=6, beam_width=4, init_paths=3,
                          expand_branches=2, max_paths=200,
                          cost_model=CostModel(kind="multiplicative", alpha=0.8),
                          label="mmp-df-e"),
        ]

    assert reference_configs() == expected(1e-6, 55)
    assert reference_configs(1e-3, 20) == expected(1e-3, 20)


# --- report serialization ----------------------------------------------------------

def _fake_report():
    cells = (
        SweepCell(k=10, algorithm="omp-k", trials=3, exact_rate=1.0,
                  anmse=1.0 / 3.0, mean_iterations=10.0,
                  mean_explored_nodes=10.0, mean_wall_time_s=0.001234567890123),
        SweepCell(k=20, algorithm="omp-k", trials=3, exact_rate=2.0 / 3.0,
                  anmse=0.25, mean_iterations=20.0,
                  mean_explored_nodes=20.0, mean_wall_time_s=0.002),
    )
    return SweepReport(global_seed=7, n=64, m=32, k_values=(10, 20),
                       trials_per_k=3, exact_tol=1e-2,
                       configs=({"algorithm": "omp", "label": "omp-k"},),
                       cells=cells)


def test_emit_csv_header_and_rows():
    report = _fake_report()
    doc = emit_report(report, "csv")
    lines = doc.splitlines()
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == ("K,algorithm,trials,exact_rate,anmse,"
                          "mean_iterations,mean_explored_nodes,mean_wall_time_s")
    assert len(lines) == 3
    assert lines[1].startswith("10,omp-k,3,1,")
    assert "0.333333333333" in lines[1]  # 12 significant digits

    empty = SweepReport(global_seed=7, n=64, m=32, k_values=(), trials_per_k=1,
                        exact_tol=1e-2, configs=())
    assert emit_report(empty, "csv") == CSV_HEADER + "\n"


def test_emit_json_roundtrip(tmp_path):
    report = _fake_report()
    path = tmp_path / "report.json"
    doc = emit_report(report, "json", path=str(path))
    assert path.read_text() == doc
    parsed = json.loads(doc)
    assert parsed["schema_version"] == 1
    assert parsed["global_seed"] == 7
    assert parsed["config"]["n"] == 64
    assert [c["K"] for c in parsed["cells"]] == [10, 20]
    assert parsed["cells"][0]["anmse"] == float(f"{1.0 / 3.0:.12g}")
    # document-level round trip: parse and re-emit byte-identically
    assert json.dumps(parsed, indent=2) + "\n" == doc


def test_emit_format_validation(tmp_path):
    with pytest.raises(ValueError):
        emit_report(_fake_report(), "xml")
    with pytest.raises(OSError):
        emit_report(_fake_report(), "csv",
                    path=str(tmp_path / "missing" / "report.csv"))
