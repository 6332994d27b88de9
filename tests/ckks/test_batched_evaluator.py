"""Batch-size parity for the multi-ciphertext evaluator.

``BatchedEvaluator`` must be *bit-identical* to looping the
single-ciphertext ``Evaluator`` (its B=1 case) over the streams —
residues, scales, levels, domains — and
the kernel counters must record exactly the same invocations and
limb-vectors (fusion is invisible to the instrumentation).  The suite runs
the fused HADD / CMULT / HMULT / RESCALE paths across every available
compute backend, plus the mixed-level grouping and the facade chunking.
"""

import numpy as np
import pytest

from repro.api import TensorFheContext
from repro.backend import available_backends, use_backend
from repro.ckks import CkksParameters

BATCH = 5


@pytest.fixture(scope="module")
def fhe(toy_fhe) -> TensorFheContext:
    """The session-scoped facade context (hoisted into tests/conftest.py)."""
    return toy_fhe


@pytest.fixture()
def streams(fhe, rng):
    lhs = [fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count)) for _ in range(BATCH)]
    rhs = [fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count)) for _ in range(BATCH)]
    return lhs, rhs


def assert_same_ciphertext(actual, expected):
    assert np.array_equal(actual.c0.residues, expected.c0.residues)
    assert np.array_equal(actual.c1.residues, expected.c1.residues)
    assert actual.scale == expected.scale
    assert actual.level == expected.level
    assert actual.c0.domain == expected.c0.domain
    assert actual.c1.domain == expected.c1.domain


def run_both(fhe, sequential, batched):
    """Run both execution models under fresh counters; compare the counts."""
    kernels = fhe.context.kernels
    with kernels.capture() as sequential_counts:
        expected = sequential()
    with kernels.capture() as batched_counts:
        actual = batched()
    for got, want in zip(actual, expected):
        assert_same_ciphertext(got, want)
    assert batched_counts.snapshot() == sequential_counts.snapshot()
    assert dict(batched_counts.limb_vectors) == dict(sequential_counts.limb_vectors)
    return actual


@pytest.mark.parametrize("backend", available_backends())
class TestFusedParity:
    def test_add(self, fhe, streams, backend):
        lhs, rhs = streams
        with use_backend(backend):
            run_both(
                fhe,
                lambda: [fhe.evaluator.add(l, r) for l, r in zip(lhs, rhs)],
                lambda: fhe.batched_evaluator.add(lhs, rhs),
            )

    def test_multiply_plain(self, fhe, streams, rng, backend):
        lhs, _ = streams
        plaintexts = [
            fhe.encryptor.encode(rng.uniform(-1, 1, fhe.slot_count),
                                 level=ciphertext.level)
            for ciphertext in lhs
        ]
        with use_backend(backend):
            run_both(
                fhe,
                lambda: [fhe.evaluator.multiply_plain(c, p)
                         for c, p in zip(lhs, plaintexts)],
                lambda: fhe.batched_evaluator.multiply_plain(lhs, plaintexts),
            )

    def test_multiply_and_rescale(self, fhe, streams, backend):
        lhs, rhs = streams
        key = fhe.relinearization_key
        with use_backend(backend):
            products = run_both(
                fhe,
                lambda: [fhe.evaluator.multiply_and_rescale(l, r, key)
                         for l, r in zip(lhs, rhs)],
                lambda: fhe.batched_evaluator.multiply_and_rescale(lhs, rhs, key),
            )
        # The batched products decrypt to the expected slot products.
        decrypted = fhe.decrypt_real(products[0])
        reference = fhe.decrypt_real(lhs[0]) * fhe.decrypt_real(rhs[0])
        assert np.allclose(decrypted, reference, atol=1e-2)

    def test_rescale(self, fhe, streams, backend):
        lhs, rhs = streams
        key = fhe.relinearization_key
        unscaled = [fhe.evaluator.multiply(l, r, key) for l, r in zip(lhs, rhs)]
        with use_backend(backend):
            run_both(
                fhe,
                lambda: [fhe.evaluator.rescale(c) for c in unscaled],
                lambda: fhe.batched_evaluator.rescale(unscaled),
            )


class TestBookkeeping:
    def test_mixed_levels_group_correctly(self, fhe, streams):
        """Streams at different levels fuse per level group, same results."""
        lhs, rhs = streams
        mixed_rhs = ([fhe.evaluator.drop_to_level(r, 1) for r in rhs[:2]]
                     + list(rhs[2:]))
        run_both(
            fhe,
            lambda: [fhe.evaluator.add(l, r) for l, r in zip(lhs, mixed_rhs)],
            lambda: fhe.batched_evaluator.add(lhs, mixed_rhs),
        )

    def test_evaluation_domain_stream_rejected(self, fhe, streams, rng):
        """Transform-based ops reject an evaluation-domain stream outright."""
        from repro.kernels import ops as kernel_ops

        lhs, rhs = streams
        eval_ct = lhs[0].copy()
        eval_ct.c0 = kernel_ops.ntt(fhe.context.kernels, eval_ct.c0)
        eval_ct.c1 = kernel_ops.ntt(fhe.context.kernels, eval_ct.c1)
        ciphertexts = [eval_ct] + list(lhs[1:])
        plaintexts = [
            fhe.encryptor.encode(rng.uniform(-1, 1, fhe.slot_count),
                                 level=ciphertext.level)
            for ciphertext in ciphertexts
        ]
        batched, keys = fhe.batched_evaluator, fhe.rotation_keys
        calls = {
            "multiply_plain": lambda: batched.multiply_plain(ciphertexts,
                                                             plaintexts),
            "multiply": lambda: batched.multiply(ciphertexts, rhs,
                                                 fhe.relinearization_key),
            "rotate": lambda: batched.rotate(ciphertexts, 1, keys),
            "conjugate": lambda: batched.conjugate(ciphertexts, keys),
            "add_plain": lambda: batched.add_plain(ciphertexts, plaintexts),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError,
                               match=name + " expects coefficient-domain"):
                call()
        # The scalar API is the B=1 case and rejects the same way.
        with pytest.raises(ValueError, match="coefficient-domain"):
            fhe.evaluator.multiply_plain(eval_ct, plaintexts[0])

    def test_scale_mismatch_rejected(self, fhe, streams):
        lhs, rhs = streams
        key = fhe.relinearization_key
        skewed = fhe.evaluator.multiply(rhs[0], rhs[0], key)
        with pytest.raises(ValueError, match="scale mismatch"):
            fhe.batched_evaluator.add([lhs[0]], [skewed])

    def test_length_mismatch_rejected(self, fhe, streams):
        lhs, rhs = streams
        with pytest.raises(ValueError, match="lengths"):
            fhe.batched_evaluator.add(lhs, rhs[:-1])

    def test_rescale_level_zero_rejected(self, fhe, streams):
        lhs, _ = streams
        bottom = fhe.evaluator.drop_to_level(lhs[0], 0)
        with pytest.raises(ValueError, match="level-0"):
            fhe.batched_evaluator.rescale([bottom])

    def test_empty_streams(self, fhe):
        assert fhe.batched_evaluator.add([], []) == []
        assert fhe.batched_evaluator.rescale([]) == []
        assert fhe.add_many([], []) == []


class TestFacadeWiring:
    def test_add_many_matches_sequential(self, fhe, streams):
        lhs, rhs = streams
        expected = [fhe.add(l, r) for l, r in zip(lhs, rhs)]
        for got, want in zip(fhe.add_many(lhs, rhs), expected):
            assert_same_ciphertext(got, want)

    def test_multiply_many_matches_sequential(self, fhe, streams):
        lhs, rhs = streams
        expected = [fhe.multiply(l, r) for l, r in zip(lhs, rhs)]
        for got, want in zip(fhe.multiply_many(lhs, rhs), expected):
            assert_same_ciphertext(got, want)

    def test_multiply_plain_many_matches_sequential(self, fhe, streams, rng):
        lhs, _ = streams
        values = [rng.uniform(-1, 1, fhe.slot_count) for _ in range(BATCH)]
        expected = [fhe.multiply_plain(c, v) for c, v in zip(lhs, values)]
        for got, want in zip(fhe.multiply_plain_many(lhs, values), expected):
            assert_same_ciphertext(got, want)

    def test_scheduler_chunks_streams(self, fhe, streams, monkeypatch):
        """The facade slices streams into scheduler-sized batches."""
        lhs, rhs = streams
        seen = []
        original = fhe.batched_evaluator.add

        def spying_add(lhs_chunk, rhs_chunk):
            seen.append(len(list(lhs_chunk)))
            return original(lhs_chunk, rhs_chunk)

        monkeypatch.setattr(fhe.batched_evaluator, "add", spying_add)
        monkeypatch.setattr(
            type(fhe), "plan_batch",
            lambda self, **kwargs: fhe.batch_scheduler.plan(
                fhe.context.ring_degree, 2, requested=2))
        results = fhe.add_many(lhs, rhs)
        assert seen == [2, 2, 1]
        expected = [fhe.evaluator.add(l, r) for l, r in zip(lhs, rhs)]
        for got, want in zip(results, expected):
            assert_same_ciphertext(got, want)

    def test_inner_sum_single_slot_needs_no_rotation_key(self):
        parameters = CkksParameters(ring_degree=1 << 6, level_count=3, dnum=3,
                                    secret_hamming_weight=8, name="toy-innersum")
        context = TensorFheContext(parameters, seed=505)
        ciphertext = context.encrypt(np.ones(context.slot_count))
        assert not context.rotation_keys.keys
        result = context.inner_sum(ciphertext, count=1)
        # count == 1 sums a single slot: no rotations, no keys generated.
        assert not context.rotation_keys.keys
        assert np.array_equal(result.c0.residues, ciphertext.c0.residues)
        # Larger counts still generate exactly the power-of-two steps.
        context.inner_sum(ciphertext, count=4)
        assert sorted(context.rotation_keys.keys) == [1, 2]
