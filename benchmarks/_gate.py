"""The one baseline gate shared by the timed benchmarks.

A gated benchmark asserts its median against the committed
``BENCH_baseline.json`` entry for its key, with :data:`BASELINE_FACTOR`
headroom: CI machines vary widely, the *shape* of a real regression
(a disabled instrumentation point doing work, a warm submit
recomputing cells, a compiled backend degrading to interpreter speed)
does not. Without a baseline entry the gate skips, so a new machine
can record one first.
"""

import json
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_baseline.json")

#: Headroom over the committed baseline median before the gate fires.
BASELINE_FACTOR = 25.0


def baseline_median(key):
    """The committed baseline median for ``key``, or ``None``."""
    try:
        with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
            return json.load(handle).get(key)
    except (OSError, ValueError):
        return None


def check_baseline(benchmark, key):
    """Gate ``benchmark``'s median against the baseline for ``key``
    (skips when no baseline entry exists)."""
    baseline = baseline_median(key)
    if baseline is None:
        pytest.skip("no committed baseline for %s" % key)
    median = benchmark.stats.stats.median
    assert median < baseline * BASELINE_FACTOR, (
        "%s regressed: median %.6fs vs baseline %.6fs (x%.0f allowed)"
        % (key, median, baseline, BASELINE_FACTOR)
    )
