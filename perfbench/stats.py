"""Order statistics, metric names and result fingerprints."""

import hashlib
import re
import statistics

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name):
    """True if name fits the metric grammar: [A-Za-z0-9_.-]+, at most 64
    characters, starting with a letter or a digit."""
    return METRIC_NAME.fullmatch(name) is not None


def median(values):
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail_percentile(values, beyond=10):
    """The highest percentile that still has at least `beyond` samples above it.

    Returns (value, percentile, sample_count). With n sorted samples the
    value is the one at 0-based rank n - beyond - 1, so exactly `beyond`
    samples lie beyond it; its percentile is 100 * (n - beyond) / n.
    Raises ValueError when there are not more than `beyond` samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def sig12(x):
    """Render a float at 12 significant digits, as the program's reports do."""
    return f"{float(x):.12g}"


class Fingerprint:
    """SHA-256 over the non-wall fields of a workload's outputs, in order.

    Each row is a sequence of fields rendered with str(); rows and fields
    are length-prefixed, so different row sequences never hash alike by
    concatenation.
    """

    def __init__(self):
        self._h = hashlib.sha256()
        self.rows = 0

    def add(self, *fields):
        self._h.update(len(fields).to_bytes(4, "little"))
        for f in fields:
            data = str(f).encode()
            self._h.update(len(data).to_bytes(8, "little"))
            self._h.update(data)
        self.rows += 1

    def hexdigest(self):
        return self._h.hexdigest()
