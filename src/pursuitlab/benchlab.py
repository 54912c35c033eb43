"""Monte-Carlo benchmark harness for the pursuit family.

Generates Gaussian sparse-recovery problems, runs paired trials (every
configuration sees the identical problem sequence), aggregates exact
recovery rates, average normalized mean-squared error, and the search
counters, and serializes reports. Per-trial seeds derive from
(global_seed, sparsity, trial index), so any subset of trials reproduces
bit-identically in any execution order or process layout; wall time is
the only nondeterministic field in a report.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .linalg import as_count
from .pursuit import (
    ADAPTIVE_ALPHA,
    ADAPTIVE_MULTIPLICATIVE,
    SPARSITY,
    CostModel,
    PursuitConfig,
    TerminationRule,
    run,
)
# Bound here only for perfbench, whose Recorder taps benchlab.run_* by name.
from .pursuit import run_aomp, run_mmp_bf, run_mmp_df, run_omp  # noqa: F401

__all__ = [
    "CSV_HEADER",
    "SCHEMA_VERSION",
    "TrialError",
    "SparseProblem",
    "TrialResult",
    "SweepCell",
    "SweepReport",
    "derive_trial_seed",
    "gen_problem",
    "nmse_value",
    "run_trial",
    "run_sweep",
    "reference_configs",
    "emit_report",
]

SCHEMA_VERSION = 1
DEFAULT_EXACT_TOL = 1e-2


class TrialError(RuntimeError):
    """A pursuit failed inside a trial; the message carries the problem seed."""


@dataclass(frozen=True)
class SparseProblem:
    """One synthetic recovery instance: observation = dictionary @ signal."""

    dictionary: np.ndarray
    signal: np.ndarray
    observation: np.ndarray
    sparsity: int
    seed: int

    def __post_init__(self):
        m, n = self.dictionary.shape
        if not n >= m > self.sparsity >= 1:
            raise ValueError(
                f"need cols >= rows > sparsity >= 1, got {n}, {m}, {self.sparsity}")
        if np.count_nonzero(self.signal) != self.sparsity:
            raise ValueError("signal nonzero count does not match sparsity")
        resid = np.linalg.norm(self.observation - self.dictionary @ self.signal)
        if resid > 1e-12 * max(np.linalg.norm(self.observation), 1.0):
            raise ValueError("observation is not the dictionary image of signal")


# The field order of TrialResult and SweepCell is the report schema: _row
# gives the trial log's lines and the CSV and JSON cells in that order.
@dataclass(frozen=True)
class TrialResult:
    seed: int
    k: int
    algorithm: str
    nmse: float
    exact: bool
    iterations: int
    explored_nodes: int
    wall_time_s: float


@dataclass(frozen=True)
class SweepCell:
    k: int
    algorithm: str
    trials: int
    exact_rate: float
    anmse: float
    mean_iterations: float
    mean_explored_nodes: float
    mean_wall_time_s: float


def _keys(record):
    """Report keys of a record or record type: its field names in order, sparsity as K."""
    return ["K" if f.name == "k" else f.name for f in fields(record)]


def _row(record):
    """A TrialResult or SweepCell as its report dict, in field order."""
    return dict(zip(_keys(record), (getattr(record, f.name) for f in fields(record))))


CSV_HEADER = ",".join(_keys(SweepCell))


@dataclass(frozen=True)
class SweepReport:
    global_seed: int
    n: int
    m: int
    k_values: tuple
    trials_per_k: int
    exact_tol: float
    configs: tuple        # config echo, one dict per configuration
    cells: tuple = field(default=())
    normalize_columns: bool = False   # the problem family, as gen_problem takes it
    flat_amplitudes: bool = False


def derive_trial_seed(global_seed, k, trial):
    """Stable 64-bit problem seed for one (sweep, sparsity, trial) slot."""
    ss = np.random.SeedSequence((global_seed, k, trial))
    return int(ss.generate_state(1, np.uint64)[0])


def gen_problem(n, m, k, seed, normalize_columns=False, flat_amplitudes=False):
    """Gaussian dictionary (entry variance 1/m) and an exactly k-sparse signal.

    The support is uniform among k-subsets, nonzero values are standard
    normal (or unit-magnitude random signs with flat_amplitudes), and the
    whole instance is a pure function of the seed.
    """
    n, m, k = as_count(n, "n"), as_count(m, "m"), as_count(k, "k")
    seed = as_count(seed, "seed", low=0)
    if not n > m > k:
        raise ValueError(f"need n > m > k >= 1, got {n}, {m}, {k}")
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, n))
    if normalize_columns:
        a = a / np.linalg.norm(a, axis=0, keepdims=True)
    support = rng.choice(n, size=k, replace=False)
    values = np.sign(rng.standard_normal(k)) if flat_amplitudes \
        else rng.standard_normal(k)
    while np.any(values == 0.0):  # keep the nonzero count exact
        values[values == 0.0] = rng.standard_normal(np.sum(values == 0.0))
    x = np.zeros(n)
    x[support] = values
    return SparseProblem(dictionary=a, signal=x, observation=a @ x,
                         sparsity=k, seed=seed)


def nmse_value(signal, estimate):
    """Squared error of the estimate relative to the signal energy."""
    energy = float(np.dot(signal, signal))
    if energy == 0.0:
        raise ValueError("signal energy is zero")
    diff = np.asarray(estimate, dtype=np.float64) - signal
    return float(np.dot(diff, diff)) / energy


def _resolved(config, problem):
    rule = config.termination
    if rule.kind == SPARSITY and rule.k is None:
        config = replace(config, termination=replace(rule, k=problem.sparsity))
    return config


def run_trial(problem, config, exact_tol=DEFAULT_EXACT_TOL):
    """One pursuit on one problem; wall time wraps the pursuit call only."""
    if not 0.0 < exact_tol < math.inf:
        raise ValueError(f"exact_tol must be positive and finite, got {exact_tol}")
    config = _resolved(config, problem)
    a, y = problem.dictionary, problem.observation
    try:
        start = time.perf_counter()
        result = run(a, y, config)
        wall = time.perf_counter() - start
    except Exception as err:
        raise TrialError(
            f"pursuit {config.tag!r} failed on problem seed {problem.seed}: "
            f"{err}") from err
    err2 = nmse_value(problem.signal, result.estimate)
    return TrialResult(seed=problem.seed, k=problem.sparsity,
                       algorithm=config.tag, nmse=err2,
                       exact=bool(np.sqrt(err2) <= exact_tol),
                       iterations=result.iterations,
                       explored_nodes=result.explored_nodes,
                       wall_time_s=wall)


def _trial_batch(n, m, global_seed, configs, exact_tol, normalize_columns,
                 flat_amplitudes, slot):
    """All configs on the problem of one (k, trial) slot; the process-pool work unit."""
    k, trial = slot
    problem = gen_problem(n, m, k, derive_trial_seed(global_seed, k, trial),
                          normalize_columns=normalize_columns,
                          flat_amplitudes=flat_amplitudes)
    return [run_trial(problem, cfg, exact_tol) for cfg in configs]


def _rule_dict(rule):
    if rule.kind == SPARSITY:
        return {"kind": rule.kind, "k": rule.k, "solution_eps": rule.epsilon_rel}
    return {"kind": rule.kind, "epsilon_rel": rule.epsilon_rel, "k_max": rule.k_max}


# The PursuitConfig knobs each search reads beyond its rule and max_paths.
_KNOBS = {"omp": (), "mmp-bf": ("branch_factor", "beam_width"),
          "mmp-df": ("branch_factor",),
          "aomp": ("init_paths", "expand_branches", "cost_model")}


def _config_dict(config):
    out = {"algorithm": config.algorithm, "label": config.tag,
           "termination": _rule_dict(config.termination),
           "max_paths": config.max_paths}
    for name in _KNOBS[config.algorithm]:
        value = getattr(config, name)
        out[name] = asdict(value) if name == "cost_model" else value
    return out


def run_sweep(n, m, k_values, trials_per_k, configs, global_seed,
              exact_tol=DEFAULT_EXACT_TOL, jobs=1, trial_log=None,
              normalize_columns=False, flat_amplitudes=False):
    """Paired Monte-Carlo sweep over sparsity levels.

    Every configuration runs on the identical problem sequence. With
    jobs > 1, (sparsity, trial) slots run in worker processes, at most one
    per CPU core; aggregation folds results in deterministic slot order
    regardless of completion order, so the report is the same for any jobs
    value except for the wall-time means. trial_log, when given, receives
    one JSON line per (trial, configuration) in that same order.
    """
    n, m = as_count(n, "n"), as_count(m, "m")
    k_values = [as_count(k, f"k_values[{i}]") for i, k in enumerate(k_values)]
    configs = list(configs)
    if not k_values:
        raise ValueError("k_values is empty")
    if not configs:
        raise ValueError("configs is empty")
    if len({cfg.tag for cfg in configs}) != len(configs):
        raise ValueError("config labels must be distinct")
    if len(set(k_values)) != len(k_values):
        raise ValueError("sparsity levels must be distinct")
    for k in k_values:
        if not n > m > k:
            raise ValueError(f"need n > m > k >= 1, got {n}, {m}, {k}")
    trials_per_k, jobs = as_count(trials_per_k, "trials_per_k"), as_count(jobs, "jobs")
    if not 0.0 < exact_tol < math.inf:
        raise ValueError(f"exact_tol must be positive and finite, got {exact_tol}")
    global_seed = as_count(global_seed, "global_seed", low=0)

    batch = functools.partial(_trial_batch, n, m, global_seed, configs, exact_tol,
                              normalize_columns, flat_amplitudes)
    slots = [(k, t) for k in k_values for t in range(trials_per_k)]
    if jobs > 1:
        # Imported here, so that importing the package (in every CLI call
        # and every spawned worker) does not load the process pool.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        ctx = multiprocessing.get_context("spawn")
        workers = min(jobs, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            batches = list(pool.map(batch, slots, chunksize=4))
    else:
        batches = [batch(slot) for slot in slots]

    if trial_log is not None:
        with open(trial_log, "w", encoding="utf-8") as fh:
            for trials in batches:
                for tr in trials:
                    fh.write(json.dumps(_row(tr)) + "\n")

    cells = []
    per_k = trials_per_k
    for ki, k in enumerate(k_values):
        rows = batches[ki * per_k:(ki + 1) * per_k]
        for ci, cfg in enumerate(configs):
            trials = [row[ci] for row in rows]
            cells.append(SweepCell(
                k=k, algorithm=cfg.tag, trials=len(trials),
                exact_rate=sum(t.exact for t in trials) / len(trials),
                anmse=float(sum(t.nmse for t in trials)) / len(trials),
                mean_iterations=float(np.mean([t.iterations for t in trials])),
                mean_explored_nodes=float(np.mean([t.explored_nodes
                                                   for t in trials])),
                mean_wall_time_s=float(np.mean([t.wall_time_s
                                                for t in trials]))))
    return SweepReport(global_seed=global_seed, n=n, m=m,
                       k_values=tuple(k_values), trials_per_k=trials_per_k,
                       exact_tol=exact_tol,
                       configs=tuple(_config_dict(c) for c in configs),
                       cells=tuple(cells), normalize_columns=bool(normalize_columns),
                       flat_amplitudes=bool(flat_amplitudes))


def reference_configs(epsilon_rel=TerminationRule.epsilon_rel,
                      k_max=TerminationRule.k_max):
    """The four benchmark configurations of the comparison experiment.

    Two best-first searches (fixed-alpha cost with the sparsity rule,
    progress-adaptive cost with the residual rule) and two depth-first
    searches under the same two rules. Every other knob is the
    PursuitConfig, TerminationRule or CostModel default, which are the
    protocol's values. Sparsity-rule targets stay unresolved here and bind
    to each problem's sparsity at trial time.
    """
    return [
        PursuitConfig("aomp", TerminationRule.sparsity(None), label="aomp-k"),
        PursuitConfig("aomp", TerminationRule.residual(epsilon_rel, k_max), label="aomp-e",
                      cost_model=CostModel(ADAPTIVE_MULTIPLICATIVE, ADAPTIVE_ALPHA)),
        PursuitConfig("mmp-df", TerminationRule.sparsity(None), label="mmp-df-k"),
        PursuitConfig("mmp-df", TerminationRule.residual(epsilon_rel, k_max), label="mmp-df-e"),
    ]


def _sig12(x):
    """A float rounded to its 12-significant-digit rendering."""
    return float(f"{float(x):.12g}")


def emit_report(report, fmt, path=None):
    """Render a sweep report as CSV or JSON; optionally write it to path.

    The results, the CSV rows and the JSON cells, are rounded to 12
    significant digits; the JSON config block records its inputs exactly.
    Either way a JSON document parses and re-serializes byte-identically.
    """
    rows = [_row(c) for c in report.cells]
    if fmt == "csv":
        doc = "".join(f"{line}\n" for line in [CSV_HEADER] + [
            ",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row.values())
            for row in rows])
    elif fmt == "json":
        doc = json.dumps({
            "schema_version": SCHEMA_VERSION,
            "global_seed": report.global_seed,
            "config": {"n": report.n, "m": report.m,
                       "k_values": list(report.k_values),
                       "trials_per_k": report.trials_per_k,
                       "exact_tol": report.exact_tol,
                       "normalize_columns": report.normalize_columns,
                       "flat_amplitudes": report.flat_amplitudes,
                       "configurations": list(report.configs)},
            "cells": [{key: _sig12(v) if isinstance(v, float) else v
                       for key, v in row.items()} for row in rows]}, indent=2) + "\n"
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc)
    return doc
