from dataclasses import replace

import pytest

from perfbench.spans import Recorder
from perfbench.stats import Fingerprint
from perfbench.workloads import DeepNoisy, RipCap, SweepPinned, check_recovery
from pursuitlab import benchlab, pursuit
from pursuitlab.pursuit import TerminationRule

TINY = {
    "sweep-pinned": lambda: SweepPinned(trials=1, k_values=(5,)),
    "deep-noisy": lambda: DeepNoisy(problems=1, n=60, m=30, k=4),
    "rip-cap": lambda: RipCap(cols=8, s=3, cap=60, matrices=2),
}


def _fingerprint(make, seed, tmp_path):
    workload = make()
    workload.setup(seed, tmp_path)
    rec = Recorder()
    with rec.installed():
        workload.run_pass()
    outs = list(workload.outcomes(rec.ops))
    assert outs and not [o.failures for o in outs if o.failures]
    fp = Fingerprint()
    for out in outs:
        fp.add(*out.row)
    return fp.hexdigest()


@pytest.mark.parametrize("name", sorted(TINY))
def test_fingerprint_follows_the_seed(name, tmp_path):
    make = TINY[name]
    first = _fingerprint(make, 7, tmp_path)
    assert _fingerprint(make, 7, tmp_path) == first
    assert _fingerprint(make, 8, tmp_path) != first


def test_rip_refusal_is_checked(tmp_path):
    workload = TINY["rip-cap"]()
    workload.setup(7, tmp_path)
    rec = Recorder()
    with rec.installed():
        workload.run_pass()
    outs = list(workload.outcomes(rec.ops))
    assert [o.label for o in outs] == ["rip", "rip", "refusal"]
    assert outs[-1].row[1] == 1 and "exceeds the cap" in outs[-1].row[2]


def test_rip_cap_must_split_the_sizes():
    with pytest.raises(ValueError):
        RipCap(cols=8, s=3, cap=80)


def test_recovery_check_catches_a_wrong_residual():
    problem = benchlab.gen_problem(60, 30, 4, 5)
    rule = TerminationRule.sparsity(4)
    a, y = problem.dictionary, problem.observation
    result = pursuit.run_omp(a, y, rule)
    assert check_recovery(a, y, rule, result) == []
    bad = replace(result, residual_norm=result.residual_norm + 1e-3)
    assert check_recovery(a, y, rule, bad)
    stray = result.estimate.copy()
    stray[[j for j in range(60) if j not in result.support][0]] = 1.0
    assert check_recovery(a, y, rule, replace(result, estimate=stray))
    assert check_recovery(a, y, TerminationRule.sparsity(3), result)
