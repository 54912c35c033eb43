import concurrent.futures
import hashlib
import json
import os
import re

import numpy as np
import pytest

from pursuitlab import benchlab, cli
from pursuitlab.cli import main


def _write_array(path, arr):
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{arr.shape[0]} {arr.shape[1]}\n")
        for row in arr:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def _read_vector(path):
    tokens = path.read_text().split()
    rows, cols = int(tokens[0]), int(tokens[1])
    assert cols == 1
    vals = np.array([float(t) for t in tokens[2:]])
    assert vals.shape[0] == rows
    return vals


@pytest.fixture
def identity_files(tmp_path):
    mat = tmp_path / "mat.txt"
    sig = tmp_path / "sig.txt"
    _write_array(mat, np.eye(3))
    _write_array(sig, np.array([[0.0], [3.0], [0.0]]))
    return mat, sig


# --- recover -----------------------------------------------------------------------

def test_recover_identity(identity_files, tmp_path, capsys):
    mat, sig = identity_files
    out = tmp_path / "est.txt"
    code = main(["recover", str(mat), str(sig), "--alg", "omp", "--k", "1",
                 "--output", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "support: 1" in printed
    assert "iterations: 1" in printed
    np.testing.assert_allclose(_read_vector(out), [0.0, 3.0, 0.0], atol=1e-12)


def test_recover_aomp_flags(tmp_path, capsys):
    rng = np.random.default_rng(8)
    a = rng.normal(0.0, 1.0 / np.sqrt(10), size=(10, 24))
    x = np.zeros(24)
    x[[4, 17]] = [1.5, -2.0]
    mat, sig = tmp_path / "a.txt", tmp_path / "y.txt"
    _write_array(mat, a)
    _write_array(sig, (a @ x).reshape(-1, 1))
    out = tmp_path / "est.txt"
    code = main(["recover", str(mat), str(sig), "--alg", "aomp",
                 "--i", "3", "--b", "2", "--max-paths", "200",
                 "--cost", "mul", "--alpha", "0.8", "--k", "2",
                 "--output", str(out)])
    assert code == 0
    assert "support: 4 17" in capsys.readouterr().out
    np.testing.assert_allclose(_read_vector(out), x, atol=1e-8)


def test_recover_mmp_df_residual_flags(tmp_path, capsys):
    rng = np.random.default_rng(9)
    a = rng.normal(0.0, 1.0 / np.sqrt(12), size=(12, 30))
    x = np.zeros(30)
    x[[2, 11, 23]] = [1.0, 2.0, -1.0]
    mat, sig = tmp_path / "a.txt", tmp_path / "y.txt"
    _write_array(mat, a)
    _write_array(sig, (a @ x).reshape(-1, 1))
    out = tmp_path / "est.txt"
    code = main(["recover", str(mat), str(sig), "--alg", "mmp-df",
                 "--l", "6", "--max-paths", "200", "--eps", "1e-6",
                 "--kmax", "55", "--output", str(out)])
    assert code == 0
    assert "support: 2 11 23" in capsys.readouterr().out


def test_recover_input_errors(identity_files, tmp_path, capsys):
    mat, sig = identity_files
    # unknown flag
    assert main(["recover", str(mat), str(sig), "--alg", "omp", "--k", "1",
                 "--frobnicate"]) == 1
    # missing termination rule
    assert main(["recover", str(mat), str(sig), "--alg", "omp"]) == 1
    # both rules at once
    assert main(["recover", str(mat), str(sig), "--alg", "omp", "--k", "1",
                 "--eps", "1e-6"]) == 1
    # unparseable matrix file
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1.0 2.0 3.0\n")
    assert main(["recover", str(bad), str(sig), "--alg", "omp",
                 "--k", "1"]) == 1
    # missing file
    assert main(["recover", str(tmp_path / "nope.txt"), str(sig),
                 "--alg", "omp", "--k", "1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("text, message", [
    ("3\n", "missing 'rows cols' header"),
    ("2 2\n1.0 x 3.0 4.0\n", "could not convert string to float: 'x'"),
    ("2 two\n1.0 2.0\n", "invalid literal for int()"),
    ("0 3\n", "bad dimensions 0 x 3"),
    ("2 -1\n1.0\n", "bad dimensions 2 x -1"),
], ids=["no-header", "bad-entry", "non-integer-header", "zero-rows", "negative-cols"])
def test_malformed_matrix_file_exits_one(tmp_path, capsys, text, message):
    mat = tmp_path / "bad.txt"
    mat.write_text(text)
    assert main(["rip", str(mat), "--s", "2"]) == 1
    err = capsys.readouterr().err
    assert f"{mat}: {message}" in err


def test_recover_refuses_a_matrix_signal(identity_files, tmp_path, capsys):
    mat, _sig = identity_files
    sig = tmp_path / "square.txt"
    _write_array(sig, np.ones((2, 2)))
    out = tmp_path / "est.txt"
    assert main(["recover", str(mat), str(sig), "--alg", "omp", "--k", "1",
                 "--output", str(out)]) == 1
    assert f"{sig}: expected a vector, got shape (2, 2)" in capsys.readouterr().err
    assert not out.exists()


def test_recover_degenerate_exit_code(tmp_path, capsys):
    mat, sig = tmp_path / "z.txt", tmp_path / "y.txt"
    _write_array(mat, np.zeros((3, 4)))
    _write_array(sig, np.array([[1.0], [1.0], [0.0]]))
    code = main(["recover", str(mat), str(sig), "--alg", "omp", "--k", "1"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_recover_refuses_overflowing_dictionary(tmp_path, capsys):
    rng = np.random.default_rng(29)
    a = rng.standard_normal((20, 40))
    a[:, [5, 9]] *= 1e200
    mat, sig, out = tmp_path / "a.txt", tmp_path / "y.txt", tmp_path / "x.txt"
    _write_array(mat, a)
    _write_array(sig, rng.standard_normal((20, 1)))
    code = main(["recover", str(mat), str(sig), "--alg", "omp", "--k", "3",
                 "--output", str(out)])
    assert code == 1
    assert "overflows float64" in capsys.readouterr().err
    assert not out.exists()


# --- bench -------------------------------------------------------------------------

def _bench_args(tmp_path, tag, extra):
    return (["bench", "--n", "24", "--m", "12", "--k", "2,3", "--trials", "2",
             "--csv", str(tmp_path / f"{tag}.csv"),
             "--json", str(tmp_path / f"{tag}.json")] + extra)


def _wallless(csv_text):
    return [",".join(line.split(",")[:-1]) for line in csv_text.splitlines()]


def test_bench_tiny_sweep(tmp_path, capsys):
    code = main(_bench_args(tmp_path, "a", ["--seed", "7"]))
    assert code == 0
    printed = capsys.readouterr().out
    csv_text = (tmp_path / "a.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0] == ("K,algorithm,trials,exact_rate,anmse,"
                        "mean_iterations,mean_explored_nodes,mean_wall_time_s")
    assert len(lines) == 1 + 2 * 4  # two sparsity levels, four configurations
    assert "aomp-e" in printed
    doc = json.loads((tmp_path / "a.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["global_seed"] == 7
    assert len(doc["cells"]) == 8


def test_bench_seed_determinism(tmp_path, capsys):
    assert main(_bench_args(tmp_path, "r1", ["--seed", "7"])) == 0
    assert main(_bench_args(tmp_path, "r2", ["--seed", "7"])) == 0
    assert main(_bench_args(tmp_path, "r3", ["--seed", "8"])) == 0
    capsys.readouterr()
    a = _wallless((tmp_path / "r1.csv").read_text())
    b = _wallless((tmp_path / "r2.csv").read_text())
    c = _wallless((tmp_path / "r3.csv").read_text())
    assert a == b
    assert a != c


def test_bench_jobs_equivalence(tmp_path, capsys):
    assert main(_bench_args(tmp_path, "j1", ["--seed", "5", "--jobs", "1"])) == 0
    assert main(_bench_args(tmp_path, "j2", ["--seed", "5", "--jobs", "2"])) == 0
    capsys.readouterr()
    assert _wallless((tmp_path / "j1.csv").read_text()) == \
        _wallless((tmp_path / "j2.csv").read_text())


def test_bench_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PURSUIT_LAB_SEED", "7")
    assert main(_bench_args(tmp_path, "e1", [])) == 0
    monkeypatch.delenv("PURSUIT_LAB_SEED")
    assert main(_bench_args(tmp_path, "e2", ["--seed", "7"])) == 0
    capsys.readouterr()
    assert _wallless((tmp_path / "e1.csv").read_text()) == \
        _wallless((tmp_path / "e2.csv").read_text())
    assert json.loads((tmp_path / "e1.json").read_text())["global_seed"] == 7


def test_bench_single_cell(tmp_path, capsys):
    code = main(["bench", "--n", "24", "--m", "12", "--k", "3",
                 "--trials", "1",
                 "--csv", str(tmp_path / "one.csv"),
                 "--json", str(tmp_path / "one.json")])
    assert code == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "one.json").read_text())
    assert [c["trials"] for c in doc["cells"]] == [1, 1, 1, 1]


def _logged_trials(tmp_path, tag, extra):
    log = tmp_path / f"{tag}.jsonl"
    assert main(["bench", "--n", "24", "--m", "12", "--k", "3", "--trials", "2",
                 "--seed", "7", "--csv", str(tmp_path / f"{tag}.csv"),
                 "--json", str(tmp_path / f"{tag}.json"),
                 "--trial-log", str(log)] + extra) == 0
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    return [{key: v for key, v in row.items() if key != "wall_time_s"} for row in rows]


@pytest.mark.parametrize("flag", ["normalize_columns", "flat_amplitudes"])
def test_bench_problem_flags_reach_every_trial(tmp_path, capsys, flag):
    # The one-cell-per-config sweep under the flag equals run_trial over
    # gen_problem(..., flag=True), trial by trial, and differs from the
    # default sweep.
    got = _logged_trials(tmp_path, "flag", ["--" + flag.replace("_", "-")])
    want = []
    for trial in range(2):
        problem = benchlab.gen_problem(24, 12, 3, benchlab.derive_trial_seed(7, 3, trial),
                                       **{flag: True})
        for config in benchlab.reference_configs():
            row = benchlab._row(benchlab.run_trial(problem, config))
            del row["wall_time_s"]
            want.append(row)
    assert got == want
    assert got != _logged_trials(tmp_path, "plain", [])
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["normalize_columns", "flat_amplitudes"])
def test_bench_json_header_names_the_problem_family(tmp_path, capsys, flag):
    assert main(_bench_args(tmp_path, "on", ["--seed", "7", "--" + flag.replace("_", "-")])) == 0
    assert main(_bench_args(tmp_path, "off", ["--seed", "7"])) == 0
    capsys.readouterr()
    on = json.loads((tmp_path / "on.json").read_text())["config"]
    off = json.loads((tmp_path / "off.json").read_text())["config"]
    other = ({"normalize_columns", "flat_amplitudes"} - {flag}).pop()
    assert (on[flag], on[other], off[flag], off[other]) == (True, False, False, False)
    del on[flag], off[flag]
    assert on == off
    # The CSV keeps its columns; the flag shows only in the cells.
    assert (tmp_path / "on.csv").read_text().splitlines()[0] == benchlab.CSV_HEADER


def test_bench_json_config_records_its_inputs_exactly(tmp_path, capsys):
    # The cells are rounded to 12 significant digits, the config block is
    # not: it names the tolerances the trials were run and classified with.
    tol, eps = 0.0123456789012345, 1.234567890123456e-3
    assert main(_bench_args(tmp_path, "x", ["--exact-tol", repr(tol), "--eps", repr(eps)])) == 0
    capsys.readouterr()
    config = json.loads((tmp_path / "x.json").read_text())["config"]
    assert config["exact_tol"] == tol
    assert [c["termination"]["epsilon_rel"] for c in config["configurations"]
            if c["termination"]["kind"] == "residual"] == [eps, eps]


def test_bench_invalid_config(tmp_path, capsys):
    code = main(["bench", "--n", "24", "--m", "24", "--k", "3",
                 "--trials", "1", "--csv", str(tmp_path / "x.csv"),
                 "--json", str(tmp_path / "x.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "n > m > k" in err
    code = main(["bench", "--n", "24", "--m", "12", "--k", "3",
                 "--trials", "1", "--jobs", "0", "--csv", str(tmp_path / "x.csv"),
                 "--json", str(tmp_path / "x.json")])
    assert code == 1
    assert "jobs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_bench_rejects_bad_exact_tol(tmp_path, capsys, tol):
    code = main(["bench", "--n", "24", "--m", "12", "--k", "3", "--trials", "1",
                 "--exact-tol", tol, "--csv", str(tmp_path / "x.csv"),
                 "--json", str(tmp_path / "x.json")])
    assert code == 1
    assert "exact_tol must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.json").exists()


def test_bench_bad_k_range(tmp_path, capsys):
    code = main(["bench", "--k", "10:0:50", "--trials", "1",
                 "--csv", str(tmp_path / "x.csv"),
                 "--json", str(tmp_path / "x.json")])
    assert code == 1
    capsys.readouterr()
    code = main(["bench", "--k", "10:5", "--trials", "1",
                 "--csv", str(tmp_path / "x.csv"),
                 "--json", str(tmp_path / "x.json")])
    assert code == 1
    assert "bad sparsity range '10:5'; use start:step:stop" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_bench_k_range_expands_inclusively(tmp_path, capsys):
    assert cli._parse_k_values("10:5:50") == [10, 15, 20, 25, 30, 35, 40, 45, 50]
    assert cli._parse_k_values("3:2:6") == [3, 5]
    code = main(["bench", "--n", "24", "--m", "12", "--k", "2:1:3", "--trials", "1",
                 "--csv", str(tmp_path / "r.csv"), "--json", str(tmp_path / "r.json")])
    assert code == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "r.json").read_text())
    assert [c["K"] for c in doc["cells"]] == [2] * 4 + [3] * 4


# SHA-256 of a tiny bench run's CSV, JSON report and trial log with their
# wall-time fields cut. A change that means to alter a reported number or
# the report format updates it and says what moved and why.
BENCH_REPORTS_SHA256 = "d256e309746a98f72050551377abd88488ffd9f53ce09b8c95a360630a3b2259"


def _reports_digest(tmp_path):
    h = hashlib.sha256()
    for line in (tmp_path / "fp.csv").read_text().splitlines(keepends=True):
        h.update(line.rsplit(",", 1)[0].encode())
    for line in (tmp_path / "fp.json").read_text().splitlines(keepends=True):
        if '"mean_wall_time_s"' not in line:
            h.update(line.encode())
    for line in (tmp_path / "fp.jsonl").read_text().splitlines(keepends=True):
        h.update(re.sub(r', "wall_time_s": [^}]*', "", line).encode())
    return h.hexdigest()


def test_bench_report_bytes_fingerprint(tmp_path, capsys):
    # Pins every byte of the three reports except wall times, which
    # criterion 7 and the seed tests above cannot: they compare runs of one
    # version with each other.
    code = main(["bench", "--n", "24", "--m", "12", "--k", "2:1:4", "--trials", "3",
                 "--seed", "7", "--csv", str(tmp_path / "fp.csv"),
                 "--json", str(tmp_path / "fp.json"),
                 "--trial-log", str(tmp_path / "fp.jsonl")])
    assert code == 0
    capsys.readouterr()
    assert _reports_digest(tmp_path) == BENCH_REPORTS_SHA256


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the inputs were checked")


@pytest.mark.parametrize("outputs, clash", [
    ({"--csv": "x", "--json": "x"}, "x"),
    ({"--csv": "b.csv", "--json": "b.json", "--trial-log": "b.csv"}, "b.csv"),
    ({"--csv": "r.csv", "--json": "r.json", "--trial-log": "alias"}, "alias"),
], ids=["csv-json", "log-csv", "symlink"])
def test_bench_refuses_outputs_that_share_a_file(tmp_path, capsys, monkeypatch,
                                                 outputs, clash):
    # Unchecked, the later report would silently replace the earlier one.
    monkeypatch.setattr(cli, "run_sweep", _no_work)
    os.symlink(tmp_path / "r.csv", tmp_path / "alias")
    argv = ["bench", "--n", "24", "--m", "12", "--k", "3", "--trials", "1"]
    for flag, name in outputs.items():
        argv += [flag, str(tmp_path / name)]
    assert main(argv) == 1
    assert (f"cannot write {tmp_path / clash}: another output goes to the same file"
            in capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["alias"]
    assert not (tmp_path / "alias").exists()


def test_bench_names_a_malformed_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PURSUIT_LAB_SEED", "abc")
    monkeypatch.setattr(cli, "run_sweep", _no_work)
    assert main(_bench_args(tmp_path, "env", [])) == 1
    assert "PURSUIT_LAB_SEED must be an integer, got 'abc'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_refuses_a_negative_seed_before_any_trial(tmp_path, capsys, monkeypatch,
                                                         jobs):
    # Unchecked, numpy refuses the seed only inside the first trial, which
    # under --jobs 2 runs after the worker pool has started.
    monkeypatch.setattr(benchlab, "gen_problem", _no_work)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_work)
    assert main(_bench_args(tmp_path, "neg", ["--seed", "-3", "--jobs", jobs])) == 1
    assert "global_seed must be >= 0, got -3" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("grid", ["5,x", "1:a:3", ""])
def test_bench_names_an_unreadable_sparsity_grid(tmp_path, capsys, monkeypatch, grid):
    monkeypatch.setattr(cli, "run_sweep", _no_work)
    assert main(_bench_args(tmp_path, "k", ["--k", grid])) == 1
    assert f"bad sparsity grid {grid!r}; use integers" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# --- rip / bounds --------------------------------------------------------------------

def test_rip_orthonormal(tmp_path, capsys):
    mat = tmp_path / "q.txt"
    _write_array(mat, np.eye(5))
    cert = tmp_path / "cert.json"
    code = main(["rip", str(mat), "--s", "3", "--json", str(cert)])
    assert code == 0
    out = capsys.readouterr().out
    assert "delta: 0" in out
    assert out.count("PASS") == 2
    doc = json.loads(cert.read_text())
    assert set(doc) == {"subset_size", "delta", "extremal_subset",
                        "matrix_digest"}
    assert doc["subset_size"] == 3 and doc["delta"] == 0.0


def test_rip_cap_exceeded(tmp_path, capsys):
    mat = tmp_path / "g.txt"
    _write_array(mat, np.random.default_rng(0).standard_normal((6, 12)))
    code = main(["rip", str(mat), "--s", "3", "--cap", "100"])
    assert code == 1
    assert "220" in capsys.readouterr().err  # C(12,3), the refused count


def test_rip_split_validation(tmp_path, capsys):
    # The split is k = s - l; there is no --k to contradict it.
    mat = tmp_path / "q.txt"
    _write_array(mat, np.eye(5))
    assert main(["rip", str(mat), "--s", "3", "--k", "1"]) == 1
    assert "unrecognized arguments: --k 1" in capsys.readouterr().err
    assert main(["rip", str(mat), "--s", "4", "--l", "2"]) == 0
    assert "split: k=2 l=2" in capsys.readouterr().out
    assert main(["rip", str(mat), "--s", "4"]) == 0
    assert "split: k=3 l=1" in capsys.readouterr().out


def test_rip_help_shows_the_split_flag_with_its_default(capsys):
    assert main(["rip", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--k" not in out
    assert "--l L branch part of the (k, l) split; k is s minus l (default 1)" in out


def test_rip_refuses_a_subset_size_it_cannot_split(tmp_path, capsys):
    mat = tmp_path / "q.txt"
    _write_array(mat, np.eye(5))
    assert main(["rip", str(mat), "--s", "1"]) == 1
    assert "--s 1 must exceed --l 1 to split into k = s - l and l" in capsys.readouterr().err


def test_rip_rejects_bad_split_before_enumerating(tmp_path, capsys,
                                                  monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("compute_ric ran before the split was checked")

    monkeypatch.setattr(cli, "compute_ric", no_enumeration)
    mat = tmp_path / "g.txt"
    _write_array(mat, np.random.default_rng(0).standard_normal((8, 18)))
    for l in ("0", "-1"):
        assert main(["rip", str(mat), "--s", "6", "--l", l]) == 1
        assert "k and l must be >= 1" in capsys.readouterr().err
    for s, l in (("3", "3"), ("6", "7")):
        assert main(["rip", str(mat), "--s", s, "--l", l]) == 1
        captured = capsys.readouterr()
        assert f"--s {s} must exceed --l {l}" in captured.err
        assert captured.out == ""


def test_rip_fails_both_thresholds_on_a_duplicated_column(tmp_path, capsys):
    # delta_2 = 1 on a repeated column, above both (k, l) = (1, 1) thresholds.
    mat = tmp_path / "d.txt"
    _write_array(mat, np.eye(4)[:, [0, 0, 1, 2]])
    assert main(["rip", str(mat), "--s", "2"]) == 0
    out = capsys.readouterr().out
    assert "delta: 1\n" in out and "extremal_subset: 0 1\n" in out
    assert "bound_loose: 0.5 FAIL\n" in out
    assert "bound_tight: 0.333333333333 FAIL\n" in out
    assert "PASS" not in out


@pytest.mark.parametrize("command, work, flags", [
    ("bench", "run_sweep", ("--csv", "--json", "--trial-log")),
    ("recover", "run", ("--output",)),
    ("rip", "compute_ric", ("--json",)),
    ("bounds", "lemma1_bounds", ("--json",)),
], ids=["bench", "recover", "rip", "bounds"])
def test_rejects_missing_output_dir_before_work(identity_files, tmp_path, capsys,
                                                monkeypatch, command, work, flags):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output paths were checked")

    monkeypatch.setattr(cli, work, no_work)
    mat, sig = (str(p) for p in identity_files)
    argv = {"bench": ["bench", "--k", "10", "--trials", "1"],
            "recover": ["recover", mat, sig, "--alg", "omp", "--k", "1"],
            "rip": ["rip", mat, "--s", "2"],
            "bounds": ["bounds", "--k", "3", "--l", "2"]}[command]
    missing = str(tmp_path / "missing" / "out.txt")
    for bad in (missing, str(tmp_path), ""):
        for flag in flags:
            assert main(argv + [flag, bad]) == 1
            assert f"cannot write {bad}" in capsys.readouterr().err


def test_bounds_spot_values(tmp_path, capsys):
    out_json = tmp_path / "bounds.json"
    code = main(["bounds", "--k", "9", "--l", "4", "--json", str(out_json)])
    assert code == 0
    out = capsys.readouterr().out
    assert "bound_loose: 0.4" in out
    assert "bound_tight: 0.285714285714" in out
    assert "ordering (loose > tight): PASS" in out
    doc = json.loads(out_json.read_text())
    assert doc == {"k": 9, "l": 4, "bound_loose": 0.4,
                   "bound_tight": 0.285714285714}


def test_bounds_ordering_always_pass(capsys):
    for k, l in ((1, 1), (3, 7), (50, 2), (100, 100)):
        assert main(["bounds", "--k", str(k), "--l", str(l)]) == 0
        assert "ordering (loose > tight): PASS" in capsys.readouterr().out


def test_bounds_validation(capsys):
    assert main(["bounds", "--k", "0", "--l", "1"]) == 1
    capsys.readouterr()


def test_unorderable_bounds_exit_one(tmp_path, capsys):
    # Thresholds that round to one float64 are refused, not printed as FAIL.
    mat = tmp_path / "q.txt"
    _write_array(mat, np.eye(3))
    huge = "1" + "0" * 300
    for argv in (["bounds", "--k", huge, "--l", "1"],
                 ["rip", str(mat), "--s", huge],
                 ["rip", str(mat), "--s", "1" + "0" * 299 + "1", "--l", "1"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "FAIL" not in captured.out
        assert "both thresholds round to 1e-150 in float64" in captured.err


def test_huge_integer_flags_exit_one(tmp_path, capsys):
    mat = tmp_path / "q.txt"
    _write_array(mat, np.eye(3))
    huge = "1" + "0" * 400
    for argv in (["bounds", "--k", huge, "--l", "1"],
                 ["bounds", "--k", "1", "--l", huge],
                 ["rip", str(mat), "--s", huge]):
        assert main(argv) == 1
        assert "float64" in capsys.readouterr().err


def test_successive_calls_share_no_state(tmp_path, capsys):
    # The parser is built once per process; each call still parses alone.
    mat = tmp_path / "q.txt"
    _write_array(mat, np.eye(4))
    cert = tmp_path / "cert.json"
    assert main(["rip", str(mat), "--s", "2", "--json", str(cert)]) == 0
    assert "certificate written" in capsys.readouterr().out
    cert.unlink()
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["rip", str(mat), "--s", "2"]) == 0
    assert "written" not in capsys.readouterr().out
    assert not cert.exists()
    assert cli._build_parser() is cli._build_parser()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["bench", "--help"]) == 0
    capsys.readouterr()


def test_bench_help_gives_one_way_to_set_the_trial_count(capsys):
    assert main(["bench", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--trials TRIALS trials per sparsity level (default 100)" in out
    assert "--reference-defaults" not in out


def test_unknown_subcommand(capsys):
    assert main(["explode"]) == 1
    capsys.readouterr()
