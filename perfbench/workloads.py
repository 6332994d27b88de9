"""The benchmark's three workloads, driven through the public API only.

Each workload builds its context and key material in :meth:`setup` (which
also runs warm-up jobs), checks batched-versus-sequential parity in
:meth:`parity`, and runs closed-loop jobs in :meth:`run` until a deadline
or a job count.  Every job's output is compared against a numpy reference
and recorded as a :class:`JobRecord`; a job fails when its error exceeds
the workload's tolerance, when it raises, or when the serving engine
rejects one of its requests.

* ``served-roundtrip`` — 8 client coroutines share one key bundle through
  :meth:`repro.serving.KeyRegistry.alias` and run encode+encrypt →
  ``engine.multiply`` → ``engine.rotate(·, 1)`` → decrypt+decode against
  one :class:`repro.serving.ServingEngine` (the fused B=8 path).
* ``lr-inference`` — one client, sequential single-ciphertext facade
  calls: encrypt → CMULT → inner sum over 64 features → mask → degree-3
  sigmoid (two HMULTs) → decrypt (the B=1 path), 32 samples packed in
  the slots of each ciphertext.
* ``bootstrap-refresh`` — ``bootstrap_many`` over 8 level-0 ciphertexts
  at the accurate bootstrap shape (N=64, 14 primes); one job is one
  refreshed ciphertext.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import TensorFheContext
from repro.ckks import Ciphertext, CkksParameters, get_preset
from repro.ckks.bootstrap import BootstrapConfig
from repro.serving import KeyRegistry
from repro.serving.errors import RejectedRequest

__all__ = ["JobRecord", "RunResult", "ParityError", "WORKLOADS"]

#: Concurrent clients of the served workload and the bootstrap batch size.
CLIENTS = 8
BOOTSTRAP_BATCH = 8
#: Features of the logistic-regression model (one per slot, power of two).
FEATURES = 64
#: Seed of what a deployed service holds fixed: every context (hence the
#: key material and the encryption randomness) and the LR model.  The
#: ``--seed`` argument varies the data the clients send.  Precision depends
#: strongly on the keys (the LR error spans 2e-5..4e-4 over context seeds
#: 11..20), so per-run keys would make the precision metric measure key
#: luck rather than the code.
SERVICE_SEED = 1


@dataclass
class JobRecord:
    """One client job: its latency, its output error, and whether it passed."""

    latency_ms: float
    error: Optional[float]       # max abs error; None when no output came back
    ok: bool


@dataclass
class RunResult:
    """The jobs of one measured window plus what the run observed around them."""

    jobs: List[JobRecord]
    wall_s: float
    #: Client-side versus engine-side request accounting (served only).
    cross_check: Dict[str, object] = field(default_factory=dict)
    diagnostics: Optional[Dict[str, object]] = None

    @property
    def failed(self) -> int:
        return sum(not job.ok for job in self.jobs)


class ParityError(AssertionError):
    """Batched and sequential execution disagreed on a residue."""


def residue_digest(ciphertexts: Sequence[Ciphertext]) -> str:
    """SHA-256 over the residues, scale and level of ``ciphertexts``."""
    digest = hashlib.sha256()
    for ciphertext in ciphertexts:
        for polynomial in (ciphertext.c0, ciphertext.c1):
            digest.update(np.ascontiguousarray(polynomial.residues,
                                               dtype=np.int64).tobytes())
        digest.update(repr((ciphertext.scale, ciphertext.level)).encode())
    return digest.hexdigest()[:16]


def _require_identical(batched: Sequence[Ciphertext],
                       sequential: Sequence[Ciphertext], what: str) -> None:
    for index, (lhs, rhs) in enumerate(zip(batched, sequential, strict=True)):
        same = (lhs.level == rhs.level and lhs.scale == rhs.scale
                and np.array_equal(lhs.c0.residues, rhs.c0.residues)
                and np.array_equal(lhs.c1.residues, rhs.c1.residues))
        if not same:
            raise ParityError("%s: stream %d differs from the sequential result"
                              % (what, index))


def _max_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want))))


def _report_exception(workload: "Workload") -> None:
    """Print the first failed job's traceback; later ones are only counted."""
    if not workload.reported_exception:
        workload.reported_exception = True
        print("%s: job raised" % workload.name, file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


class Workload:
    """Common shape: a seeded context, warm-up, parity and timed jobs."""

    name = ""
    #: Max abs error a job's output may have before it counts as failed.
    tolerance = 0.0
    warmup_jobs = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.fhe: Optional[TensorFheContext] = None
        self.reported_exception = False
        seeds = np.random.SeedSequence(seed).spawn(CLIENTS + 1)
        self._parity_rng = np.random.default_rng(seeds[0])
        self._rngs = [np.random.default_rng(s) for s in seeds[1:]]

    def setup(self) -> None:
        """Context, every key the jobs use, and the warm-up jobs."""
        raise NotImplementedError

    def parity(self) -> str:
        """Check batched against sequential execution; returns a digest."""
        raise NotImplementedError

    def run(self, *, seconds: Optional[float] = None,
            jobs: Optional[int] = None) -> RunResult:
        """Closed-loop jobs until ``seconds`` elapse or ``jobs`` are done."""
        raise NotImplementedError

    def _job_record(self, started: float, error: Optional[float]) -> JobRecord:
        latency = (time.perf_counter() - started) * 1e3
        ok = error is not None and error <= self.tolerance
        return JobRecord(latency, error, ok)


def _more(count: int, deadline: Optional[float], jobs: Optional[int]) -> bool:
    if jobs is not None:
        return count < jobs
    return time.perf_counter() < deadline


# ----------------------------------------------------------------------
# served-roundtrip
# ----------------------------------------------------------------------
class _Rounds:
    """Stop the closed-loop clients at a round boundary.

    Clients resume one after another, so they would see the deadline at
    different times and cut the last round part-way, running it as a
    smaller batch.  The first client to see the deadline freezes the last
    round at the highest job index any client has started, so every round
    that was started completes with all clients.
    """

    def __init__(self, deadline: Optional[float], per_client: Optional[int]):
        self.deadline = deadline
        self.final = None if per_client is None else per_client - 1
        self.highest_started = -1

    def may_start(self, index: int) -> bool:
        if self.final is None and time.perf_counter() >= self.deadline:
            self.final = self.highest_started
        if self.final is not None and index > self.final:
            return False
        self.highest_started = max(self.highest_started, index)
        return True


class ServedRoundtrip(Workload):
    """8 closed-loop clients through one serving engine (fused B=8)."""

    name = "served-roundtrip"
    tolerance = 1e-2

    def setup(self) -> None:
        fhe = TensorFheContext(get_preset("large"), seed=SERVICE_SEED,
                               rotation_steps=[1])
        self.fhe = fhe
        self.registry = KeyRegistry(fhe.context)
        owner = self.registry.adopt(
            "owner", secret_key=fhe.secret_key, public_key=fhe.public_key,
            relinearization_key=fhe.relinearization_key,
            rotation_keys=fhe.rotation_keys)
        self.tenants = ["client-%d" % i for i in range(CLIENTS)]
        for tenant in self.tenants:
            self.registry.alias(tenant, owner)
        self.keys = owner
        self.run(jobs=self.warmup_jobs * CLIENTS)

    def _engine(self):
        return self.fhe.create_serving_engine(registry=self.registry)

    def parity(self) -> str:
        fhe, rng = self.fhe, self._parity_rng
        inputs = [self.keys.encryptor.encrypt(rng.uniform(-1, 1, fhe.slot_count))
                  for _ in range(CLIENTS)]
        sequential = [fhe.rotate(fhe.multiply(ct, ct), 1) for ct in inputs]

        async def served():
            async with self._engine() as engine:
                async def one(tenant, ct):
                    product = await engine.multiply(tenant, ct, ct)
                    return await engine.rotate(tenant, product, 1)
                return await asyncio.gather(*(
                    one(tenant, ct) for tenant, ct in zip(self.tenants, inputs)))

        _require_identical(asyncio.run(served()), sequential,
                           "served multiply+rotate")
        return residue_digest(sequential)

    def run(self, *, seconds: Optional[float] = None,
            jobs: Optional[int] = None) -> RunResult:
        per_client = None if jobs is None else -(-jobs // CLIENTS)
        return asyncio.run(self._serve(seconds, per_client))

    async def _serve(self, seconds: Optional[float],
                     per_client: Optional[int]) -> RunResult:
        counts = {"completed": 0, "rejected": 0, "errors": 0}
        engine = self._engine()
        started = time.perf_counter()
        rounds = _Rounds(None if seconds is None else started + seconds,
                         per_client)
        async with engine:
            records = await asyncio.gather(*(
                self._client(engine, tenant, rng, rounds, counts)
                for tenant, rng in zip(self.tenants, self._rngs)))
        wall = time.perf_counter() - started
        diagnostics = engine.diagnostics()
        served = diagnostics["requests"]
        cross_check = {
            "client": dict(counts),
            "engine": {"completed": served["completed"],
                       "rejected": served["rejected"],
                       "errors": served["request_errors"]
                       + served["executor_failures"]},
        }
        cross_check["agree"] = cross_check["client"] == cross_check["engine"]
        # Job order is round by round, as the jobs were submitted.
        jobs = [job for round_jobs in itertools.zip_longest(*records)
                for job in round_jobs if job is not None]
        return RunResult(jobs, wall, cross_check, diagnostics)

    async def _client(self, engine, tenant: str, rng: np.random.Generator,
                      rounds: _Rounds,
                      counts: Dict[str, int]) -> List[JobRecord]:
        keys, slots = self.keys, self.fhe.slot_count
        records: List[JobRecord] = []

        async def request(call, *args):
            try:
                result = await call(tenant, *args)
            except RejectedRequest:
                counts["rejected"] += 1
                raise
            except Exception:
                counts["errors"] += 1
                raise
            counts["completed"] += 1
            return result

        while rounds.may_start(len(records)):
            values = rng.uniform(-1, 1, slots)
            started = time.perf_counter()
            error = None
            try:
                ciphertext = keys.encryptor.encrypt(values)
                product = await request(engine.multiply, ciphertext, ciphertext)
                rotated = await request(engine.rotate, product, 1)
                error = _max_error(keys.decryptor.decrypt_real(rotated),
                                   np.roll(values * values, -1))
            except RejectedRequest:
                pass
            except Exception:           # a failed job, not a failed benchmark
                _report_exception(self)
            records.append(self._job_record(started, error))
        return records


# ----------------------------------------------------------------------
# lr-inference
# ----------------------------------------------------------------------
def sigmoid_poly(t):
    """Degree-3 least-squares approximation of the sigmoid on [-4, 4]."""
    return 0.5 + 0.197 * t - 0.004 * t ** 3


class LrInference(Workload):
    """Encrypted logistic-regression scoring of one packed ciphertext per job.

    The job is the single-ciphertext (B=1) facade sequence of
    ``examples/encrypted_logistic_regression.py``.  Its slots pack
    ``slot_count / FEATURES`` samples, one per block of ``FEATURES`` slots,
    so each job checks that many scores, and the worst error over a few
    jobs does not hinge on one sample's logit.
    """

    name = "lr-inference"
    tolerance = 5e-2
    #: L2 norm of the model weights: with features uniform on [-1, 1] the
    #: logits stay inside the sigmoid approximation's [-4, 4] range.
    weight_norm = 2.0

    def setup(self) -> None:
        steps = [1 << i for i in range(FEATURES.bit_length() - 1)]
        fhe = TensorFheContext(get_preset("large"), seed=SERVICE_SEED,
                               rotation_steps=steps)
        self.fhe = fhe
        slots = fhe.slot_count
        self.samples_per_job = slots // FEATURES
        model = np.random.default_rng([SERVICE_SEED, FEATURES]).uniform(
            -1, 1, FEATURES)
        self.model = model * (self.weight_norm / np.linalg.norm(model))
        self.weights = np.tile(self.model, self.samples_per_job)
        # Block starts hold the logits; everything else is masked to zero.
        self.mask = np.zeros(slots)
        self.mask[::FEATURES] = 1.0
        self.c0, self.c1, self.c3 = (np.full(slots, c)
                                     for c in (0.5, 0.197, -0.004))
        self.run(jobs=self.warmup_jobs)

    def _sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-1, 1, (self.samples_per_job, FEATURES))

    def score(self, samples: np.ndarray) -> Ciphertext:
        """The encrypted sigmoid scores, one at the start of each block."""
        fhe = self.fhe
        encrypted = fhe.encrypt(samples.ravel())
        logit = fhe.inner_sum(fhe.multiply_plain(encrypted, self.weights),
                              FEATURES)
        # Mask off the partial sums so the low levels only hold the logits.
        logit = fhe.multiply_plain(logit, self.mask)
        cubic = fhe.multiply(fhe.multiply(logit, logit),
                             fhe.multiply_plain(logit, self.c3))
        # The two terms rescale by different primes.  Encode the linear
        # coefficient at the scale that lands the linear term exactly on the
        # cubic term's scale, rather than relabelling the cubic term's scale
        # as the example does (that relabelling is off by ~0.7%).
        scale = cubic.scale * logit.moduli[-1] / logit.scale
        coefficient = fhe.encryptor.encode(self.c1, scale=scale,
                                           level=logit.level)
        linear = fhe.rescale(fhe.evaluator.multiply_plain(logit, coefficient))
        return fhe.add_plain(fhe.add(linear, cubic), self.c0)

    def reference(self, samples: np.ndarray) -> np.ndarray:
        """Every decrypted slot: scores at block starts, 0.5 elsewhere."""
        expected = np.full(self.fhe.slot_count, 0.5)
        expected[::FEATURES] = sigmoid_poly(samples @ self.model)
        return expected

    def parity(self) -> str:
        sample = self._sample(self._parity_rng)
        first, second = self.score(sample), self.score(sample)
        # Fresh encryptions differ; the decrypted scores must not.
        for ciphertext in (first, second):
            error = _max_error(self.fhe.decrypt_real(ciphertext),
                               self.reference(sample))
            if error > self.tolerance:
                raise ParityError("lr-inference: score diverged from numpy")
        return residue_digest([first, second])

    def run(self, *, seconds: Optional[float] = None,
            jobs: Optional[int] = None) -> RunResult:
        rng = self._rngs[0]
        records: List[JobRecord] = []
        started_run = time.perf_counter()
        deadline = None if seconds is None else started_run + seconds
        while _more(len(records), deadline, jobs):
            sample = self._sample(rng)
            started = time.perf_counter()
            error = None
            try:
                error = _max_error(self.fhe.decrypt_real(self.score(sample)),
                                   self.reference(sample))
            except Exception:           # a failed job, not a failed benchmark
                _report_exception(self)
            records.append(self._job_record(started, error))
        return RunResult(records, time.perf_counter() - started_run)


# ----------------------------------------------------------------------
# bootstrap-refresh
# ----------------------------------------------------------------------
class BootstrapRefresh(Workload):
    """``bootstrap_many`` over 8 exhausted ciphertexts per batch."""

    name = "bootstrap-refresh"
    tolerance = 1e-2
    #: Message magnitude the accurate EvalMod configuration supports.
    magnitude = 0.05

    def setup(self) -> None:
        parameters = CkksParameters(ring_degree=1 << 6, level_count=14, dnum=3,
                                    secret_hamming_weight=8,
                                    name="bootstrap-accurate")
        fhe = TensorFheContext(parameters, seed=SERVICE_SEED,
                               bootstrap_config=BootstrapConfig(
                                   taylor_degree=7, double_angle_iterations=5))
        fhe.ensure_rotation_keys(fhe.bootstrapper.required_rotation_steps())
        self.fhe = fhe
        self.run(jobs=self.warmup_jobs * BOOTSTRAP_BATCH)

    def _messages(self, rng: np.random.Generator) -> List[np.ndarray]:
        slots, bound = self.fhe.slot_count, self.magnitude
        return [rng.uniform(-bound, bound, slots)
                + 1j * rng.uniform(-bound, bound, slots)
                for _ in range(BOOTSTRAP_BATCH)]

    def _exhausted(self, messages: Sequence[np.ndarray]) -> List[Ciphertext]:
        fhe = self.fhe
        return [fhe.evaluator.drop_to_level(fhe.encrypt(m), 0) for m in messages]

    def parity(self) -> str:
        fhe = self.fhe
        exhausted = self._exhausted(self._messages(self._parity_rng))
        batched = fhe.bootstrap_many(exhausted)
        _require_identical(batched, [fhe.bootstrap(ct) for ct in exhausted],
                           "bootstrap_many")
        return residue_digest(batched)

    def run(self, *, seconds: Optional[float] = None,
            jobs: Optional[int] = None) -> RunResult:
        rng, fhe = self._rngs[0], self.fhe
        records: List[JobRecord] = []
        started_run = time.perf_counter()
        deadline = None if seconds is None else started_run + seconds
        while _more(len(records), deadline, jobs):
            messages = self._messages(rng)
            started = time.perf_counter()
            try:
                refreshed = fhe.bootstrap_many(self._exhausted(messages))
            except Exception:           # the whole batch failed
                _report_exception(self)
                records.extend(self._job_record(started, None)
                               for _ in messages)
                continue
            for ciphertext, message in zip(refreshed, messages):
                error = None
                if ciphertext.level >= 1:
                    error = _max_error(fhe.decrypt(ciphertext), message)
                records.append(self._job_record(started, error))
        return RunResult(records, time.perf_counter() - started_run)


WORKLOADS: Dict[str, type] = {
    workload.name: workload
    for workload in (ServedRoundtrip, LrInference, BootstrapRefresh)
}
