"""Metric computation: the end-to-end metrics and the per-layer table.

Every metric name here is listed in ``BENCHMARK.json``; the benchmark's
test checks that the two agree.
"""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro import get_active_backend
from repro.backend.residency import track_transfers
from repro.kernels.base import KernelCounter, KernelName

from .tracer import LayerTracer
from .workloads import JobRecord, RunResult, Workload

__all__ = ["end_to_end", "TracedWindow", "traced_window", "per_layer"]


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


#: Jobs (the first of each window) whose errors set ``precision_bits_min``.
#: A fixed count keeps the minimum independent of how fast jobs run.
PRECISION_JOBS = 32


def precision_bits(jobs: Sequence[JobRecord]) -> float:
    """``-log2`` of the worst max-abs error over the first jobs."""
    errors = [job.error for job in jobs[:PRECISION_JOBS] if job.error is not None]
    worst = max(errors, default=1.0)
    return -math.log2(max(worst, 2.0 ** -64))


def end_to_end(result: RunResult, setup_times: Sequence[float]) -> Dict[str, dict]:
    """The end-to-end metrics of one untraced window."""
    jobs = result.jobs
    passed = [job.latency_ms for job in jobs if job.ok]
    return {
        "jobs_per_s": _metric(len(passed) / result.wall_s, "1/s"),
        "job_ms_p50": _metric(_percentile(passed, 50), "ms"),
        "job_ms_p90": _metric(_percentile(passed, 90), "ms"),
        "precision_bits_min": _metric(precision_bits(jobs), "bits"),
        "success_ratio": _metric(len(passed) / len(jobs), "ratio"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _kernel_snapshot(counter: KernelCounter) -> Dict[str, dict]:
    return {"invocations": dict(counter.invocations),
            "limb_vectors": dict(counter.limb_vectors)}


@dataclass
class TracedWindow:
    """One measured window with the layer tracer installed."""

    result: RunResult
    tracer: LayerTracer
    #: ``kernels.*`` metrics: exact counts per job from ``KernelCounter``.
    kernels: Dict[str, dict]

    @property
    def balanced(self) -> bool:
        """Self times plus unattributed time account for the whole wall time."""
        tracer = self.tracer
        return tracer.attributed_ns() + tracer.unattributed_ns == tracer.wall_ns


def traced_window(workload: Workload, *, seconds: Optional[float] = None,
                  jobs: Optional[int] = None) -> TracedWindow:
    """Run one window of ``workload`` with every layer traced."""
    tracer, transfers = LayerTracer(), KernelCounter()
    # The context's counter object can be swapped by KernelContext.capture,
    # so read it through the facade before and after.
    before = _kernel_snapshot(workload.fhe.kernel_counter)
    tracer.install(type(get_active_backend()))
    try:
        with track_transfers(transfers):
            tracer.reset()
            result = workload.run(seconds=seconds, jobs=jobs)
            tracer.stop()
    finally:
        tracer.uninstall()
    after = _kernel_snapshot(workload.fhe.kernel_counter)

    count = len(result.jobs)
    kernels = {}
    for kind in ("invocations", "limb_vectors"):
        for kernel in KernelName.ALL:
            done = after[kind].get(kernel, 0) - before[kind].get(kernel, 0)
            kernels["kernels.%s.%s_per_job" % (kernel, kind)] = _metric(
                done / count, "count")
    for direction in ("host_to_device", "device_to_host"):
        kernels["kernels.transfers.%s_per_job" % direction] = _metric(
            transfers.transfers.get(direction, 0) / count, "count")
    return TracedWindow(result, tracer, kernels)


def per_layer(untraced: RunResult, window: TracedWindow) -> Dict[str, dict]:
    """The per-layer table of one traced window, against an untraced one."""
    tracer, jobs = window.tracer, len(window.result.jobs)
    metrics = {name: _metric(value, "ms" if name.endswith("_ms_per_job")
                             else "count")
               for name, value in tracer.layer_table(jobs).items()}

    diagnostics = window.result.diagnostics or {}
    batches = diagnostics.get("batches", {})
    requests = diagnostics.get("requests", {})
    metrics["serving.request_ms_p50"] = _metric(
        _percentile([ns / 1e6 for ns in tracer.request_ns], 50), "ms")
    metrics["serving.mean_batch"] = _metric(batches.get("mean_size", 0.0),
                                            "count")
    metrics["serving.coalesce_ratio"] = _metric(
        batches.get("coalesce_ratio", 0.0), "ratio")
    metrics["serving.rejected"] = _metric(requests.get("rejected", 0), "count")

    ntt_s = tracer.inclusive_ns["ntt"] / 1e9
    metrics["ntt.limb_transforms_per_s"] = _metric(
        tracer.volume["ntt"] / ntt_s if ntt_s else 0.0, "1/s")
    metrics["backend.bytes_computed_per_job"] = _metric(
        tracer.volume["backend"] / jobs, "bytes")
    metrics.update(window.kernels)

    untraced_ms = untraced.wall_s * 1e3 / len(untraced.jobs)
    traced_ms = tracer.wall_ns / 1e6 / jobs
    metrics["trace.wall_ms_per_job"] = _metric(traced_ms, "ms")
    metrics["trace.overhead_ratio"] = _metric(traced_ms / untraced_ms, "ratio")
    metrics["trace.unattributed_share"] = _metric(
        tracer.unattributed_ns / tracer.wall_ns, "share")
    return metrics
