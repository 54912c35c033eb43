"""The benchmark workloads: inputs from a seed, one timed pass, output checks.

Every workload is a closed loop with one client: the next call starts when
the previous one has returned, in one process, with BLAS on one thread.
A workload object is set up once per run (setup may be repeated to time
it), then run_pass() executes the same fixed set of calls each time, so
every pass of a run must produce identical non-wall outputs. outcomes()
turns the operations a pass recorded into checked Outcome rows.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import comb
from time import perf_counter

import numpy as np

from pursuitlab import benchlab, cli, pursuit
from pursuitlab.pursuit import (
    ADAPTIVE_MULTIPLICATIVE,
    RESIDUAL_MET,
    CostModel,
    PursuitConfig,
    TerminationRule,
)
from pursuitlab.ripcert import EnumerationCapError, matrix_digest

from .stats import sig12

RESIDUAL_RTOL = 1e-8
RIC_ATOL = 1e-12


@dataclass
class Outcome:
    """One checked operation: its wall time, work, fingerprint row and failures."""

    label: str
    wall: float
    work: int                 # explored nodes (pursuit) or certified subsets (rip)
    row: tuple                # every non-wall field, for the fingerprint
    failures: list = field(default_factory=list)
    result: object = None     # the PursuitResult of a pursuit call
    nmse: float | None = None
    exact: bool | None = None


def check_recovery(a, y, setting, result):
    """Failed-check messages for one pursuit result (empty when it passes)."""
    rule = setting if isinstance(setting, TerminationRule) else setting.termination
    a = np.asarray(a, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    y_norm = float(np.linalg.norm(y))
    fails = []
    dense = float(np.linalg.norm(y - a @ result.estimate))
    if abs(result.residual_norm - dense) > RESIDUAL_RTOL * y_norm:
        fails.append(f"residual_norm {result.residual_norm!r} != dense {dense!r}")
    support = {int(j) for j in result.support}
    if not {int(j) for j in np.flatnonzero(result.estimate)} <= support:
        fails.append("estimate has nonzeros outside the support")
    max_len = min(rule.max_len(), *a.shape)
    if len(result.support) > max_len:
        fails.append(f"support of {len(result.support)} exceeds max_len {max_len}")
    if (result.terminated_by == RESIDUAL_MET
            and not result.residual_norm < rule.epsilon_rel * y_norm):
        fails.append("residual_met without residual < eps * ||y||")
    return fails


def _search_row(label, seed, result, nmse):
    return (label, seed, " ".join(str(j) for j in sorted(result.support)),
            result.iterations, result.explored_nodes, result.paths_opened,
            result.terminated_by, sig12(nmse))


class SweepPinned:
    """The paper's paired comparison sweep, at a reduced trial count per K."""

    name = "sweep-pinned"
    why = ("paired sweep N=256 M=100 K=10..50 over the four reference configs: "
           "ranking, scheduling and the support trie do most of the work")
    N, M = 256, 100
    K_VALUES = (10, 20, 30, 40, 50)
    TRIALS = 5

    def __init__(self, trials=TRIALS, k_values=K_VALUES):
        self.trials = trials
        self.k_values = k_values

    def setup(self, seed, out_dir):
        self.seed = seed
        self.configs = benchlab.reference_configs()
        self.log = out_dir / f"{self.name}-trials.jsonl"
        # Warm-up: one cheap cell, so lazy library set-up is not timed.
        benchlab.run_sweep(self.N, self.M, [self.k_values[0]], 1, self.configs,
                           seed, jobs=1)

    def run_pass(self):
        benchlab.run_sweep(self.N, self.M, self.k_values, self.trials,
                           self.configs, self.seed, jobs=1,
                           trial_log=str(self.log))

    def outcomes(self, ops):
        trials = [json.loads(line) for line in
                  self.log.read_text(encoding="utf-8").splitlines()]
        if len(trials) != len(ops):
            raise RuntimeError(f"trial log has {len(trials)} rows for {len(ops)} calls")
        for op, tr in zip(ops, trials):
            result = op.result
            fails = check_recovery(*op.args, result)
            if tr["algorithm"] != op.label:
                fails.append(f"trial log row {tr['algorithm']} for call {op.label}")
            yield Outcome(op.label, op.wall, result.explored_nodes,
                          _search_row(op.label, tr["seed"], result, tr["nmse"]),
                          fails, result, tr["nmse"], bool(tr["exact"]))


class DeepNoisy:
    """Noisy observations under the residual rule: paths grow to ~M columns."""

    name = "deep-noisy"
    why = ("noisy N=300 M=150 K=22 with k_max=M: ~145-column paths, so child "
           "copies of full factors dominate; the greedy path makes no copies")
    N, M, K = 300, 150, 22
    PROBLEMS = 9
    NOISE = 0.01   # noise std as a share of ||Ax|| / sqrt(M)

    def __init__(self, problems=PROBLEMS, n=N, m=M, k=K):
        self.problems = problems
        self.n, self.m, self.k = n, m, k

    def setup(self, seed, out_dir):
        rule = TerminationRule.residual(1e-6, k_max=self.m)
        bf = PursuitConfig("mmp-bf", rule, branch_factor=6, beam_width=4)
        df = PursuitConfig("mmp-df", rule, branch_factor=6, max_paths=200)
        aomp = PursuitConfig("aomp", rule, init_paths=3, expand_branches=2,
                             max_paths=200,
                             cost_model=CostModel(ADAPTIVE_MULTIPLICATIVE, 0.97))
        # Looked up at call time, so that installed wrappers see every call.
        self.calls = (
            lambda a, y: pursuit.run_omp(a, y, rule),
            lambda a, y: pursuit.run_mmp_bf(a, y, bf),
            lambda a, y: pursuit.run_mmp_df(a, y, df),
            lambda a, y: pursuit.run_aomp(a, y, aomp),
        )
        self.inputs = []
        for t in range(self.problems):
            prob = benchlab.gen_problem(self.n, self.m, self.k,
                                        benchlab.derive_trial_seed(seed, self.k, t))
            rng = np.random.default_rng([prob.seed, 1])
            sigma = self.NOISE * np.linalg.norm(prob.observation) / math.sqrt(self.m)
            y = prob.observation + rng.normal(0.0, sigma, self.m)
            self.inputs.append((prob, y))
        pursuit.run_omp(self.inputs[0][0].dictionary, self.inputs[0][1], rule)

    def run_pass(self):
        for prob, y in self.inputs:
            for call in self.calls:
                call(prob.dictionary, y)

    def outcomes(self, ops):
        per = len(self.calls)
        if len(ops) != per * len(self.inputs):
            raise RuntimeError(f"{len(ops)} calls recorded, expected "
                               f"{per * len(self.inputs)}")
        for i, op in enumerate(ops):
            prob, _y = self.inputs[i // per]
            result = op.result
            nmse = benchlab.nmse_value(prob.signal, result.estimate)
            yield Outcome(op.label, op.wall, result.explored_nodes,
                          _search_row(op.label, prob.seed, result, nmse),
                          check_recovery(*op.args, result), result, nmse,
                          bool(math.sqrt(nmse) <= benchlab.DEFAULT_EXACT_TOL))


class RipCap:
    """`pursuitlab rip` in-process near its subset cap, plus one refused call."""

    name = "rip-cap"
    why = ("cli rip on Gaussian 64x18 files, s=6 (18,564 subsets, cap 20,000) "
           "plus one over-cap refusal: all work in ripcert and cli, none in pursuit")
    ROWS, COLS, S, CAP = 64, 18, 6, 20_000
    MATRICES = 4

    def __init__(self, cols=COLS, s=S, cap=CAP, matrices=MATRICES):
        self.cols, self.s, self.cap, self.matrices = cols, s, cap, matrices
        if comb(cols, s) > cap or comb(cols, s + 1) <= cap:
            raise ValueError("cap must admit size s and refuse size s + 1")

    def setup(self, seed, out_dir):
        self.mats = []
        for i in range(self.matrices):
            rng = np.random.default_rng([seed, i])
            a = rng.normal(0.0, 1.0 / math.sqrt(self.ROWS), (self.ROWS, self.cols))
            path = out_dir / f"{self.name}-{i}.txt"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"{a.shape[0]} {a.shape[1]}\n")
                for row in a:
                    fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
            self.mats.append((str(path), a))
        self._rip(self.mats[0][0], 2)

    def _rip(self, path, s):
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["rip", path, "--s", str(s), "--cap", str(self.cap)])
        return code, out.getvalue(), err.getvalue(), perf_counter() - start

    def run_pass(self):
        self.calls = [self._rip(path, self.s) for path, _a in self.mats]
        self.calls.append(self._rip(self.mats[0][0], self.s + 1))

    def outcomes(self, ops):
        if len(ops) != len(self.calls):
            raise RuntimeError(f"{len(ops)} RIC calls for {len(self.calls)} rip calls")
        targets = [a for _path, a in self.mats] + [self.mats[0][1]]
        for (code, out, err, wall), op, a in zip(self.calls, ops, targets):
            if op.args[1] == self.s:
                yield self._certified(code, out, wall, op, a)
            else:
                yield self._refused(code, err, wall, op)

    def _certified(self, code, out, wall, op, a):
        cert = op.result
        if code != 0 or cert is None:
            return Outcome("rip", wall, 0, ("rip", code), [f"rip exited {code}"])
        fails = []
        lines = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        if lines.get("delta") != sig12(cert.delta):
            fails.append(f"printed delta {lines.get('delta')} != {sig12(cert.delta)}")
        subset = " ".join(str(j) for j in cert.extremal_subset)
        if lines.get("extremal_subset") != subset:
            fails.append("printed extremal subset differs from the certificate")
        sub = a[:, list(cert.extremal_subset)]
        eigs = np.linalg.eigvalsh(sub.T @ sub)
        delta = max(float(max(eigs[-1] - 1.0, 1.0 - eigs[0])), 0.0)
        if abs(delta - cert.delta) > RIC_ATOL:
            fails.append(f"subset eigenvalues give delta {delta!r}, "
                         f"certificate {cert.delta!r}")
        digest = matrix_digest(a)
        if cert.matrix_digest != digest:
            fails.append("certificate digest differs from the written matrix")
        return Outcome("rip", wall, comb(self.cols, self.s),
                       ("rip", digest, cert.subset_size, sig12(cert.delta), subset),
                       fails)

    def _refused(self, code, err, wall, op):
        fails = []
        if code != 1:
            fails.append(f"over-cap rip exited {code}, expected 1")
        if not isinstance(op.error, EnumerationCapError):
            fails.append("over-cap rip was not refused by EnumerationCapError")
        elif str(op.error) not in err:
            fails.append("over-cap rip did not print the EnumerationCapError message")
        return Outcome("refusal", wall, 0, ("refusal", code, err.strip()), fails)


WORKLOADS = {w.name: w for w in (SweepPinned, DeepNoisy, RipCap)}
