import json

import pytest

from perfbench import bench
from perfbench.stats import Fingerprint, tail_percentile, valid_metric_name


def test_tail_leaves_ten_samples_beyond():
    values = list(range(100, 0, -1))          # 1..100, unsorted
    value, pct, n = tail_percentile(values)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_of_eleven_samples_is_the_smallest():
    value, pct, n = tail_percentile([5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
    assert value == 1.0 and n == 11
    assert pct == pytest.approx(100.0 / 11)


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_needs_more_than_ten_samples(n):
    with pytest.raises(ValueError):
        tail_percentile([1.0] * n)


def test_tail_with_ties():
    value, _pct, _n = tail_percentile([1.0] * 5 + [2.0] * 20)
    assert value == 2.0


@pytest.mark.parametrize("name", ["setup_s", "linalg.copy.calls", "pursuit.mmp-df-k.appends",
                                  "9lives", "a" * 64])
def test_valid_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "-x", "a b", "a/b", "latency(ms)",
                                  "a" * 65, "délai"])
def test_invalid_metric_names(name):
    assert not valid_metric_name(name)


def test_declared_metrics_match_benchmark_json():
    doc = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert e2e == bench.END_TO_END
    assert layer == bench.PER_LAYER
    for name in [*e2e, *layer, *(w["name"] for w in doc["workloads"])]:
        assert valid_metric_name(name), name
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: cls.why for name, cls in bench.WORKLOADS.items()}


def test_fingerprint_is_order_and_boundary_sensitive():
    def digest(*rows):
        fp = Fingerprint()
        for row in rows:
            fp.add(*row)
        return fp.hexdigest()

    assert digest(("a", 1), ("b", 2)) == digest(("a", 1), ("b", 2))
    assert digest(("a", 1), ("b", 2)) != digest(("b", 2), ("a", 1))
    assert digest(("ab",), ("c",)) != digest(("a",), ("bc",))
    assert digest(("a", "b")) != digest(("ab",))
    assert digest(("a", "b")) != digest(("a",), ("b",))
