"""Operation taps and layer spans, installed around pursuitlab from outside.

A Recorder patches the public entry points of each pursuitlab module for
the duration of a `with recorder.installed():` block and restores them on
exit. It always records one operation per pursuit call and per RIC
computation (arguments, result, wall time), which is what the output checks
and the latency figures need. With spans=True it also records a span
(name, start, end, parent, trial id) at every wrapped call, kept in flat
in-memory arrays and written out by dump() when the run ends.
"""

import time
from array import array
from collections import Counter
from contextlib import contextmanager
from math import comb

import numpy as np

from pursuitlab import benchlab, cli, pursuit
from pursuitlab.linalg import DegenerateColumnError, IncrementalFactorization
from pursuitlab.pursuit import PursuitConfig, SupportTrie
from pursuitlab.ripcert import EnumerationCapError

SPAN_NAMES = (
    "cli.main",
    "benchlab.run_sweep",
    "benchlab.gen_problem",
    "pursuit.search",
    "pursuit.trie.contains",
    "pursuit.trie.insert",
    "linalg.factor_init",
    "linalg.copy",
    "linalg.append",
    "ripcert.compute_ric",
    "ripcert.refusal",
)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}
_SEARCHES = ("run_omp", "run_mmp_bf", "run_mmp_df", "run_aomp")


class Op:
    """One pursuit call or one RIC computation, as seen at the module boundary."""

    __slots__ = ("label", "args", "result", "error", "wall")

    def __init__(self, label, args):
        self.label = label
        self.args = args
        self.result = None
        self.error = None
        self.wall = 0.0


class Recorder:
    def __init__(self, spans=False):
        self.spans = spans
        self.ops = []
        self.counts = Counter()
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.start = array("d")
        self.end = array("d")
        self.trial_labels = []
        self._stack = []

    # --- span bookkeeping -------------------------------------------------

    def _open(self, nid):
        idx = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.trial.append(len(self.trial_labels) - 1)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _span(self, name, fn):
        nid = _ID[name]
        rec = self

        def wrapper(*args, **kwargs):
            idx = rec._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(idx)
        return wrapper

    def new_trial(self, label):
        """Start the spans of the next operation (pursuit call or cli call)."""
        self.trial_labels.append(label)

    # --- wrappers with side records ----------------------------------------

    def _search(self, fn, default_label):
        rec = self

        def wrapper(a, y, setting, *args, **kwargs):
            label = setting.tag if isinstance(setting, PursuitConfig) else default_label
            op = Op(label, (a, y, setting))
            rec.ops.append(op)
            if rec.spans:
                rec.new_trial(label)
                idx = rec._open(_ID["pursuit.search"])
            start = time.perf_counter()
            try:
                op.result = fn(a, y, setting, *args, **kwargs)
            except Exception as err:
                op.error = err
                raise
            finally:
                op.wall = time.perf_counter() - start
                if rec.spans:
                    rec._close(idx)
            return op.result
        return wrapper

    def _compute_ric(self, fn):
        rec = self

        def wrapper(a, s, *args, **kwargs):
            op = Op("ric", (a, s))
            rec.ops.append(op)
            idx = rec._open(_ID["ripcert.compute_ric"]) if rec.spans else -1
            start = time.perf_counter()
            try:
                op.result = fn(a, s, *args, **kwargs)
            except EnumerationCapError as err:
                op.error = err
                if idx >= 0:
                    rec.name[idx] = _ID["ripcert.refusal"]
                raise
            finally:
                op.wall = time.perf_counter() - start
                if idx >= 0:
                    rec._close(idx)
            rec.counts["ripcert.subsets"] += comb(np.shape(a)[1], s)
            return op.result
        return wrapper

    def _cli_main(self, fn):
        span = self._span("cli.main", fn)
        rec = self

        def wrapper(*args, **kwargs):
            rec.new_trial("cli")
            return span(*args, **kwargs)
        return wrapper

    def _copy(self, fn):
        span = self._span("linalg.copy", fn)
        counts = self.counts

        def wrapper(fact):
            counts["linalg.copy.bytes"] += (fact.q.nbytes + fact.r.nbytes
                                            + fact.qty.nbytes + fact.residual.nbytes)
            return span(fact)
        return wrapper

    def _append(self, fn):
        span = self._span("linalg.append", fn)
        counts = self.counts

        def wrapper(fact, a, j):
            try:
                return span(fact, a, j)
            except DegenerateColumnError:
                counts["linalg.degenerate.count"] += 1
                raise
        return wrapper

    def _contains(self, fn):
        span = self._span("pursuit.trie.contains", fn)
        counts = self.counts

        def wrapper(trie, support):
            hit = span(trie, support)
            if hit:
                counts["pursuit.trie.dup_hits"] += 1
            return hit
        return wrapper

    # --- installation --------------------------------------------------------

    def _patches(self):
        out = []
        for module in (benchlab, pursuit):
            for fname in _SEARCHES:
                label = fname[4:].replace("_", "-")
                out.append((module, fname, self._search(getattr(module, fname), label)))
        out.append((cli, "compute_ric", self._compute_ric(cli.compute_ric)))
        if self.spans:
            out += [
                (cli, "main", self._cli_main(cli.main)),
                (benchlab, "run_sweep", self._span("benchlab.run_sweep", benchlab.run_sweep)),
                (benchlab, "gen_problem", self._span("benchlab.gen_problem", benchlab.gen_problem)),
                (pursuit, "factor_init", self._span("linalg.factor_init", pursuit.factor_init)),
                (IncrementalFactorization, "copy", self._copy(IncrementalFactorization.copy)),
                (IncrementalFactorization, "append", self._append(IncrementalFactorization.append)),
                (SupportTrie, "__contains__", self._contains(SupportTrie.__contains__)),
                (SupportTrie, "check_insert", self._span("pursuit.trie.insert", SupportTrie.check_insert)),
            ]
        return out

    @contextmanager
    def installed(self):
        """Patch the entry points for the duration of the block."""
        saved = []
        try:
            for owner, attr, wrapped in self._patches():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # --- derived figures ---------------------------------------------------------

    def span_arrays(self):
        """(name, parent, trial, start, end) as numpy arrays."""
        return (np.array(self.name, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.trial, dtype=np.int32),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64))

    def dump(self, path):
        """Write every span to a compressed .npz file."""
        name, parent, trial, start, end = self.span_arrays()
        np.savez_compressed(path, names=np.array(SPAN_NAMES), name=name,
                            parent=parent, trial=trial, start=start, end=end)


def self_times(parent, start, end):
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (calls nest on one thread), so the
    covered time is the sum of the children's durations.
    """
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def layer_totals(recorder):
    """Per span name: (calls, total seconds, self seconds)."""
    name, parent, _trial, start, end = recorder.span_arrays()
    dur = end - start
    own = self_times(parent, start, end)
    out = {}
    for i, span_name in enumerate(SPAN_NAMES):
        sel = name == i
        out[span_name] = (int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum()))
    return out


def appends_by_label(recorder):
    """Number of linalg.append spans under each operation label."""
    name, _parent, trial, _start, _end = recorder.span_arrays()
    sel = (name == _ID["linalg.append"]) & (trial >= 0)
    per_trial = np.bincount(trial[sel], minlength=len(recorder.trial_labels))
    out = Counter()
    for label, n in zip(recorder.trial_labels, per_trial):
        out[label] += int(n)
    return out
