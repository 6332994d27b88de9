"""The benchmark's own checks: one seed gives identical counts and precision,
the traced window accounts for its whole wall time, and the metric names
the runner emits are exactly the ones ``BENCHMARK.json`` declares.

Each workload runs a fixed job count (one round of the served clients,
one LR sample, one bootstrap batch) rather than a time window, so two runs
of one seed execute the same jobs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import use_backend

from perfbench.report import end_to_end, per_layer, traced_window
from perfbench.run import WORKLOAD_NAMES
from perfbench.workloads import BOOTSTRAP_BATCH, CLIENTS, WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
JOBS = {"served-roundtrip": CLIENTS, "lr-inference": 1,
        "bootstrap-refresh": BOOTSTRAP_BATCH}
SEED = 7


def _fixed_window(name: str):
    with use_backend("blas"):
        workload = WORKLOADS[name](SEED)
        workload.setup()
        return traced_window(workload, jobs=JOBS[name])


def test_workload_names_match_the_spec():
    names = tuple(entry["name"] for entry in SPEC["workloads"])
    assert names == WORKLOAD_NAMES == tuple(WORKLOADS) == tuple(JOBS)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_same_seed_gives_identical_counts_and_precision(name):
    first, second = _fixed_window(name), _fixed_window(name)
    assert first.result.failed == second.result.failed == 0
    assert first.kernels == second.kernels
    assert first.kernels["kernels.NTT.invocations_per_job"]["value"] > 0
    precision = [end_to_end(window.result, [0.0])["precision_bits_min"]
                 for window in (first, second)]
    assert precision[0] == precision[1]

    # The traced window's layer self times and unattributed time sum to
    # its wall time, and the emitted names are the declared ones.
    assert first.balanced and second.balanced
    layers = per_layer(first.result, first)
    assert set(layers) == {entry["name"] for entry in SPEC["per_layer"]}
    for entry in SPEC["per_layer"]:
        assert layers[entry["name"]]["unit"] == entry["unit"]
    metrics = end_to_end(first.result, [1.0])
    assert list(metrics) == [entry["name"] for entry in SPEC["end_to_end"]]
    for entry in SPEC["end_to_end"]:
        assert metrics[entry["name"]]["unit"] == entry["unit"]
