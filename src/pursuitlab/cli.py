"""Command-line front end: recovery, benchmarking, and RIP certification.

Exit codes: 0 on success, 1 on input or configuration errors (including
unknown flags and refused enumerations), 2 on numerical failures such as a
degenerate dictionary. Matrix and vector files are plain text: a first
line "rows cols", then the entries row-major, whitespace-separated.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .benchlab import DEFAULT_EXACT_TOL, _sig12, emit_report, reference_configs, run_sweep
from .pursuit import (
    ADAPTIVE_ALPHA,
    ADAPTIVE_MULTIPLICATIVE,
    ALGORITHMS,
    MULTIPLICATIVE,
    CostModel,
    DegenerateDictionaryError,
    PursuitConfig,
    TerminationRule,
    run,
)
from .ripcert import DEFAULT_SUBSET_CAP, compute_ric, lemma1_bounds

__all__ = ["main"]

DEFAULT_SEED = 1


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this front end reserves 2 for
    numerical failures and reports every input problem as exit 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_array(path):
    try:
        with open(path, encoding="utf-8") as fh:
            tokens = fh.read().split()
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err}") from err
    if len(tokens) < 2:
        raise ValueError(f"{path}: missing 'rows cols' header")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
        values = [float(t) for t in tokens[2:]]
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}: bad dimensions {rows} x {cols}")
    if len(values) != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} entries, "
                         f"got {len(values)}")
    return np.array(values, dtype=np.float64).reshape(rows, cols)


def _read_vector(path):
    arr = _read_array(path)
    if 1 not in arr.shape:
        raise ValueError(f"{path}: expected a vector, got shape {arr.shape}")
    return arr.ravel()


def _write_vector(path, vec):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{vec.shape[0]} 1\n")
        for v in vec:
            fh.write(f"{v:.17g}\n")


def _write_json(path, doc, what):
    """Write a record's field dict, its float values at 12 significant digits."""
    doc = {key: _sig12(v) if isinstance(v, float) else v for key, v in doc.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"{what} written to {path}")


def _check_writable(*paths):
    """Refuse, before any work, an output path that is empty, is a directory,
    lies in a missing one, or names the same file as another output."""
    seen = set()
    for path in paths:
        if path is None:
            continue
        if not path:
            raise ValueError("cannot write '': empty path")
        if os.path.isdir(path):
            raise ValueError(f"cannot write {path}: is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"cannot write {path}: no such directory")
        if os.path.realpath(path) in seen:
            raise ValueError(f"cannot write {path}: another output goes to the same file")
        seen.add(os.path.realpath(path))


def _parse_k_values(text):
    """Sparsity grid: a single value, a comma list, or start:step:stop."""
    try:
        values = [int(p) for p in text.replace(":", ",").split(",")]
    except ValueError:
        raise ValueError(f"bad sparsity grid {text!r}; use integers") from None
    if ":" not in text:
        return values
    if len(values) != 3 or "," in text:
        raise ValueError(f"bad sparsity range {text!r}; use start:step:stop")
    start, step, stop = values
    if step < 1 or stop < start:
        raise ValueError(f"bad sparsity range {text!r}")
    return list(range(start, stop + 1, step))


def _default_seed():
    env = os.environ.get("PURSUIT_LAB_SEED")
    try:
        return int(env) if env else DEFAULT_SEED
    except ValueError:
        raise ValueError(f"PURSUIT_LAB_SEED must be an integer, got {env!r}") from None


# --- recover ---------------------------------------------------------------------

def _termination_from(args):
    if (args.k is None) == (args.eps is None):
        raise ValueError("give exactly one of --k or --eps")
    if args.k is not None:
        return TerminationRule.sparsity(args.k)
    return TerminationRule.residual(args.eps, k_max=args.kmax)


def _cmd_recover(args):
    _check_writable(args.output)
    a = _read_array(args.matrix)
    y = _read_vector(args.signal)
    rule = _termination_from(args)
    alpha = args.alpha if args.alpha is not None else \
        (ADAPTIVE_ALPHA if args.cost == "amul" else CostModel.alpha)
    kind = ADAPTIVE_MULTIPLICATIVE if args.cost == "amul" else MULTIPLICATIVE
    config = PursuitConfig(args.alg, rule,
                           branch_factor=args.l, beam_width=args.beam,
                           init_paths=args.i, expand_branches=args.b,
                           max_paths=args.max_paths,
                           cost_model=CostModel(kind=kind, alpha=alpha))
    result = run(a, y, config)
    _write_vector(args.output, result.estimate)
    print(f"support: {' '.join(str(j) for j in sorted(result.support))}")
    print(f"residual_norm: {result.residual_norm:.12g}")
    print(f"iterations: {result.iterations}")
    print(f"explored_nodes: {result.explored_nodes}")
    print(f"terminated_by: {result.terminated_by}")
    print(f"estimate written to {args.output}")
    return 0


# --- bench -----------------------------------------------------------------------

def _cmd_bench(args):
    _check_writable(args.csv, args.json, args.trial_log)
    k_values = _parse_k_values(args.k)
    configs = reference_configs(epsilon_rel=args.eps, k_max=args.kmax)
    seed = args.seed if args.seed is not None else _default_seed()
    report = run_sweep(args.n, args.m, k_values, args.trials, configs, seed,
                       exact_tol=args.exact_tol, jobs=args.jobs,
                       trial_log=args.trial_log,
                       normalize_columns=args.normalize_columns,
                       flat_amplitudes=args.flat_amplitudes)
    emit_report(report, "csv", path=args.csv)
    emit_report(report, "json", path=args.json)
    print(f"{'K':>4} {'algorithm':>10} {'exact_rate':>11} {'anmse':>12} "
          f"{'iterations':>11} {'nodes':>10}")
    for c in report.cells:
        print(f"{c.k:>4} {c.algorithm:>10} {c.exact_rate:>11.3f} "
              f"{c.anmse:>12.5g} {c.mean_iterations:>11.1f} "
              f"{c.mean_explored_nodes:>10.1f}")
    print(f"reports written to {args.csv} and {args.json}")
    return 0


# --- rip / bounds ------------------------------------------------------------------

def _print_bound_checks(delta, pair):
    for name, bound in (("loose", pair.bound_loose), ("tight", pair.bound_tight)):
        verdict = "PASS" if delta < bound else "FAIL"
        print(f"bound_{name}: {bound:.12g} {verdict}")


def _cmd_rip(args):
    _check_writable(args.json)
    a = _read_array(args.matrix)
    k, l = args.s - args.l, args.l
    if k < 1:
        raise ValueError(f"--s {args.s} must exceed --l {l} to split into k = s - l and l")
    pair = lemma1_bounds(k, l)  # reject a bad split before the enumeration
    cert = compute_ric(a, args.s, subset_cap=args.cap)
    print(f"subset_size: {cert.subset_size}")
    print(f"delta: {cert.delta:.12g}")
    print(f"extremal_subset: {' '.join(str(j) for j in cert.extremal_subset)}")
    print(f"split: k={k} l={l}")
    _print_bound_checks(cert.delta, pair)
    if args.json:
        _write_json(args.json, asdict(cert), "certificate")
    return 0


def _cmd_bounds(args):
    _check_writable(args.json)
    pair = lemma1_bounds(args.k, args.l)
    print(f"bound_loose: {pair.bound_loose:.12g}")
    print(f"bound_tight: {pair.bound_tight:.12g}")
    # lemma1_bounds refuses a pair whose thresholds float64 cannot order.
    print("ordering (loose > tight): PASS")
    if args.json:
        _write_json(args.json, asdict(pair), "bounds")
    return 0


# --- parser ----------------------------------------------------------------------

@functools.cache
def _build_parser():
    """The argument parser, built on first use and shared by later main calls."""
    parser = _Parser(prog="pursuitlab",
                     description="Sparse recovery by tree-search matching "
                                 "pursuits, with RIP certification and a "
                                 "Monte-Carlo benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recover", help="recover a sparse signal from one "
                                         "observation")
    rec.add_argument("matrix", help="dictionary file ('rows cols' header, "
                                    "row-major entries)")
    rec.add_argument("signal", help="observation vector file")
    rec.add_argument("--alg", required=True,
                     choices=ALGORITHMS,
                     help="search algorithm")
    rec.add_argument("--k", type=int, default=None,
                     help="sparsity-rule target: stop at exactly k columns")
    rec.add_argument("--eps", type=float, default=None,
                     help="residual-rule threshold relative to the "
                          "observation norm")
    rec.add_argument("--kmax", type=int, default=TerminationRule.k_max,
                     help="support-size cap under the residual rule "
                          "(default %(default)s)")
    rec.add_argument("--l", type=int, default=PursuitConfig.branch_factor,
                     help="children ranked per expanded path, depth/breadth "
                          "search (default %(default)s)")
    rec.add_argument("--beam", type=int, default=PursuitConfig.beam_width,
                     help="surviving paths per level, breadth search "
                          "(default %(default)s)")
    rec.add_argument("--i", type=int, default=PursuitConfig.init_paths,
                     help="initial paths, best-first search (default %(default)s)")
    rec.add_argument("--b", type=int, default=PursuitConfig.expand_branches,
                     help="children per expansion, best-first search "
                          "(default %(default)s)")
    rec.add_argument("--max-paths", type=int, default=PursuitConfig.max_paths,
                     help="path budget / open-set cap (default %(default)s)")
    rec.add_argument("--cost", choices=["mul", "amul"], default="mul",
                     help="best-first cost model: fixed decay or "
                          "progress-adaptive decay (default %(default)s)")
    rec.add_argument("--alpha", type=float, default=None,
                     help="cost decay per remaining level (default "
                          f"{CostModel.alpha} for mul, {ADAPTIVE_ALPHA} for amul)")
    rec.add_argument("--output", default="estimate.txt",
                     help="estimate output file (default %(default)s)")
    rec.set_defaults(func=_cmd_recover)

    ben = sub.add_parser("bench", help="run a paired Monte-Carlo sweep of "
                                       "the four benchmark configurations")
    ben.add_argument("--n", type=int, default=256,
                     help="dictionary columns (default %(default)s)")
    ben.add_argument("--m", type=int, default=100,
                     help="dictionary rows (default %(default)s)")
    ben.add_argument("--k", default="10:5:50",
                     help="sparsity grid: one value, a comma list, or "
                          "start:step:stop (default %(default)s)")
    ben.add_argument("--trials", type=int, default=100,
                     help="trials per sparsity level (default %(default)s)")
    ben.add_argument("--seed", type=int, default=None,
                     help="global seed (default: PURSUIT_LAB_SEED or "
                          f"{DEFAULT_SEED})")
    ben.add_argument("--eps", type=float, default=TerminationRule.epsilon_rel,
                     help="residual-rule threshold for the *-e "
                          "configurations (default %(default)s)")
    ben.add_argument("--kmax", type=int, default=TerminationRule.k_max,
                     help="residual-rule support cap (default %(default)s)")
    ben.add_argument("--exact-tol", type=float, default=DEFAULT_EXACT_TOL,
                     help="relative error below which recovery counts as "
                          "exact (default %(default)s)")
    ben.add_argument("--jobs", type=int, default=1,
                     help="worker processes, at most one per CPU core; the "
                          "report is identical for any value except "
                          "wall-time means (default %(default)s)")
    ben.add_argument("--csv", default="bench.csv",
                     help="CSV report path (default %(default)s)")
    ben.add_argument("--json", default="bench.json",
                     help="JSON report path (default %(default)s)")
    ben.add_argument("--trial-log", default=None,
                     help="optional JSON-lines per-trial log path")
    ben.add_argument("--normalize-columns", action="store_true",
                     help="normalize dictionary columns to unit norm")
    ben.add_argument("--flat-amplitudes", action="store_true",
                     help="draw nonzero signal values as random signs "
                          "instead of Gaussians")
    ben.set_defaults(func=_cmd_bench)

    rip = sub.add_parser("rip", help="certify the restricted isometry "
                                     "constant of a dictionary file")
    rip.add_argument("matrix", help="dictionary file")
    rip.add_argument("--s", type=int, required=True,
                     help="subset size to certify")
    rip.add_argument("--l", type=int, default=1,
                     help="branch part of the (k, l) split; k is s minus l "
                          "(default %(default)s)")
    rip.add_argument("--cap", type=int, default=DEFAULT_SUBSET_CAP,
                     help="refuse enumerations beyond this many subsets "
                          "(default %(default)s)")
    rip.add_argument("--json", default=None,
                     help="optional certificate JSON output path")
    rip.set_defaults(func=_cmd_rip)

    bnd = sub.add_parser("bounds", help="print both sufficient-recovery "
                                        "thresholds for a (k, l) pair")
    bnd.add_argument("--k", type=int, required=True, help="sparsity")
    bnd.add_argument("--l", type=int, required=True, help="branch width")
    bnd.add_argument("--json", default=None,
                     help="optional bounds JSON output path")
    bnd.set_defaults(func=_cmd_bounds)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if err.code is not None else 0
    try:
        return args.func(args)
    except (DegenerateDictionaryError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
