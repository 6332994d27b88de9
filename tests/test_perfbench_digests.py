"""The end-to-end benchmark's residue digests, pinned.

Each ``perfbench`` workload's ``parity()`` runs its fused path against
the sequential facade and returns a digest of the fused residues.  At
client seed 1 on the blas backend these literals are what every change
that claims bit-identical results must reproduce.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro import use_backend

# ``perfbench`` is a top-level package next to ``src``, not part of repro.
ROOT = str(Path(__file__).resolve().parents[1])
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.workloads import WORKLOADS  # noqa: E402

DIGESTS = {
    "served-roundtrip": "51fac8d8405afc96",
    "lr-inference": "5aa1eeed1ab2240e",
    "bootstrap-refresh": "39235cc63a3cb283",
}


def test_every_workload_is_pinned():
    assert set(DIGESTS) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_parity_digest(name):
    with use_backend("blas"):
        workload = WORKLOADS[name](1)
        workload.setup()
        assert workload.parity() == DIGESTS[name]
