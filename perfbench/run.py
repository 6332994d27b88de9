"""End-to-end benchmark of the TensorFHE reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload served-roundtrip --seed 1 --seconds 25 --trace 0

Each invocation is one process on one thread with the ``blas`` backend
selected process-wide.  It sets the workload up several times (reporting
the median set-up time), runs the parity self-check once, then measures
closed-loop jobs for ``--seconds``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` measures half the window untraced and half with the
outside-in layer tracer installed, and reports the per-layer table (self
time and calls per job for every layer, kernel counts per job, the serving
engine's batching signals, and the tracing overhead).

Lines before the last one on standard output are JSON records of the run's
provenance, parity digest and request cross-check; the last line is the
result object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORKLOAD_NAMES = ("served-roundtrip", "lr-inference", "bootstrap-refresh")
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")
#: Set-ups per run; the reported ``setup_s`` is their median.
SETUP_REPEATS = 3


def provenance(seed: int, backend: dict) -> dict:
    """Host, toolchain and source identity recorded with every result."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None                       # a plain source checkout
    # Only ask git inside a repository: elsewhere it would search the
    # directories above the checkout.
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SOURCE / "repro").rglob("*.py")):
        source.update(path.relative_to(SOURCE).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": {name: os.environ.get(name)
                         for name in BLAS_THREAD_VARIABLES},
        "backend": backend,
        "seed": seed,
        "git_commit": commit,
        "source_sha256": source.hexdigest()[:16],
    }


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Set up, check parity, measure; returns (result line, run record, backend)."""
    from repro import get_active_backend

    from perfbench.report import end_to_end, per_layer, traced_window
    from perfbench.workloads import WORKLOADS, ParityError

    setup_times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None                 # release the previous set-up first
        workload = WORKLOADS[name](seed)
        started = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - started)
    backend = {"engine_gemm": workload.fhe.compute_backend,
               "elementwise": get_active_backend().name}
    if set(backend.values()) != {"blas"}:
        raise SystemExit("perfbench: backend resolved to %s, not blas" % backend)

    record = {"workload": name, "setup_s_each": setup_times}
    try:
        record["residue_digest"] = workload.parity()
        record["parity"] = "ok"
    except ParityError as exc:
        record["parity"] = "failed: %s" % exc

    if trace:
        untraced = workload.run(seconds=seconds / 2)
        window = traced_window(workload, seconds=seconds / 2)
        record["trace_balanced"] = window.balanced
        metrics = per_layer(untraced, window)
        checked = [untraced, window.result]
    else:
        result = workload.run(seconds=seconds)
        metrics = end_to_end(result, setup_times)
        checked = [result]
    record["cross_check"] = [run.cross_check for run in checked
                             if run.cross_check]
    correct = (record["parity"] == "ok"
               and all(run.failed == 0 for run in checked)
               and all(check["agree"] for check in record["cross_check"])
               and record.get("trace_balanced", True))
    line = {"correct": bool(correct),
            "attempted": sum(len(run.jobs) for run in checked),
            "failed": sum(run.failed for run in checked), "metrics": metrics}
    return line, record, backend


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print("perfbench: no repro sources under %s" % SOURCE, file=sys.stderr)
        return 2

    # One BLAS thread per process: set before numpy is first imported.
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    from repro import set_active_backend
    set_active_backend("blas")

    line, record, backend = measure(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    print(json.dumps({"provenance": provenance(args.seed, backend)}))
    print(json.dumps({"run": record}))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
