import json

import numpy as np
import pytest

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


def test_recover_degenerate_exit_code(tmp_path, capsys):
    mat, sig = tmp_path / "z.txt", tmp_path / "y.txt"
    _write_array(mat, np.zeros((3, 4)))
    _write_array(sig, np.array([[1.0], [1.0], [0.0]]))
    code = main(["recover", str(mat), str(sig), "--alg", "omp", "--k", "1"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


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


def test_bench_bad_k_range(tmp_path, capsys):
    code = main(["bench", "--k", "10:0:50", "--trials", "1",
                 "--csv", str(tmp_path / "x.csv"),
                 "--json", str(tmp_path / "x.json")])
    assert code == 1
    capsys.readouterr()


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
    mat = tmp_path / "q.txt"
    _write_array(mat, np.eye(5))
    assert main(["rip", str(mat), "--s", "3", "--k", "1"]) == 1
    assert main(["rip", str(mat), "--s", "3", "--k", "3", "--l", "2"]) == 1
    assert main(["rip", str(mat), "--s", "4", "--k", "2", "--l", "2"]) == 0
    capsys.readouterr()


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


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["bench", "--help"]) == 0
    capsys.readouterr()


def test_unknown_subcommand(capsys):
    assert main(["explode"]) == 1
    capsys.readouterr()
