"""BSGS linear transforms against the per-diagonal composition.

The oracle below is the textbook BSGS evaluation written with the public
batched ops only: one ``multiply_plain`` and one ``add`` per diagonal,
each shifted diagonal encoded afresh at its stream's level.
:meth:`BsgsLinearTransform.apply_many` must reproduce its residues, scale
and level bit for bit, for streams at two levels in one call, at every
batch size and on every compute backend.  The kernel counters of a
transform must not depend on whether its call is the first one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import TensorFheContext
from repro.backend import available_backends, use_backend
from repro.ckks import CkksParameters
from repro.ckks.bootstrap import BsgsLinearTransform, matrix_diagonals
from repro.ckks.ciphertext import Ciphertext, Plaintext

#: Diagonals zeroed in the test matrix, so some giant groups lack some
#: babies (the giant-0 group lacks baby 0, the giant-8 group baby 1, the
#: giant-16 group baby 4).
ZERO_DIAGONALS = (0, 9, 20)


def oracle_apply_many(transform, ciphertexts, batched, encryptor,
                      rotation_keys):
    """BSGS with one coefficient-domain CMULT and HADD per diagonal."""
    ciphertexts = list(ciphertexts)
    slot_count = transform.context.slot_count
    by_giant = {}
    for offset, diagonal in transform.diagonals.items():
        baby = offset % transform.n1
        by_giant.setdefault(offset - baby, {})[baby] = diagonal
    babies = {0: ciphertexts}
    accumulator = None
    for giant in sorted(by_giant):
        inner = None
        for baby, diagonal in sorted(by_giant[giant].items()):
            if baby not in babies:
                babies[baby] = batched.rotate(ciphertexts, baby, rotation_keys)
            shifted = np.roll(diagonal, giant % slot_count)
            plains = [encryptor.encode(shifted, scale=transform.scale,
                                       level=ct.level) for ct in ciphertexts]
            terms = batched.multiply_plain(babies[baby], plains)
            inner = terms if inner is None else batched.add(inner, terms)
        if giant % slot_count:
            inner = batched.rotate(inner, giant % slot_count, rotation_keys)
        accumulator = inner if accumulator is None else batched.add(
            accumulator, inner)
    return batched.rescale(accumulator)


@pytest.fixture(scope="module")
def fhe():
    parameters = CkksParameters(ring_degree=1 << 6, level_count=3, dnum=3,
                                secret_hamming_weight=8, name="bsgs")
    fhe = TensorFheContext(parameters, seed=909, rotation_steps=())
    fhe.ensure_rotation_keys(make_transform(fhe).rotation_steps())
    return fhe


def make_transform(fhe) -> BsgsLinearTransform:
    """A fresh transform of one seeded dense matrix minus a few diagonals."""
    n = fhe.slot_count
    rng = np.random.default_rng(5)
    matrix = (rng.uniform(-1, 1, (n, n))
              + 1j * rng.uniform(-1, 1, (n, n))) / n
    rows = np.arange(n)
    for offset in ZERO_DIAGONALS:
        matrix[rows, (rows + offset) % n] = 0
    return BsgsLinearTransform(fhe.context, matrix)


def mixed_level_streams(fhe, batch):
    """``batch`` streams at the top level interleaved with ``batch`` one
    level below, so every call fuses two prime chains."""
    rng = np.random.default_rng(17 + batch)
    streams = []
    for _ in range(batch):
        top = fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count))
        low = fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count))
        streams += [top, fhe.evaluator.drop_to_level(low, low.level - 1)]
    return streams


def fused(fhe, transform, streams):
    return transform.apply_many(streams, fhe.batched_evaluator,
                                fhe.encryptor, fhe.rotation_keys)


def oracle(fhe, transform, streams):
    return oracle_apply_many(transform, streams, fhe.batched_evaluator,
                             fhe.encryptor, fhe.rotation_keys)


def counted(fhe, call):
    with fhe.context.kernels.capture() as counts:
        call()
    return dict(counts.invocations), dict(counts.limb_vectors)


def test_matrix_diagonals_match_the_definition():
    """``diag_d[i] = M[i, (i + d) % n]``, zero diagonals skipped, in
    offset order and in the matrix's dtype."""
    n = 16
    rng = np.random.default_rng(8)
    matrix = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    rows = np.arange(n)
    for offset in (0, 5, 15):
        matrix[rows, (rows + offset) % n] = 0
    expected = {}
    for offset in range(n):
        diagonal = np.array([matrix[i, (i + offset) % n] for i in range(n)])
        if np.any(diagonal != 0):
            expected[offset] = diagonal
    diagonals = matrix_diagonals(matrix)
    assert list(diagonals) == list(expected)
    for offset, diagonal in expected.items():
        assert diagonals[offset].dtype == diagonal.dtype
        assert np.array_equal(diagonals[offset], diagonal)


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("batch", (1, 3))
def test_apply_many_matches_the_per_diagonal_oracle(fhe, backend, batch):
    streams = mixed_level_streams(fhe, batch)
    assert len({ct.level for ct in streams}) == 2
    transform = make_transform(fhe)
    with use_backend(backend):
        expected = oracle(fhe, transform, streams)
        actual = fused(fhe, transform, streams)
    assert len(actual) == len(expected) == 2 * batch
    for got, want in zip(actual, expected):
        assert np.array_equal(got.c0.residues, want.c0.residues)
        assert np.array_equal(got.c1.residues, want.c1.residues)
        assert got.c0.moduli == want.c0.moduli
        assert (got.c0.domain, got.c1.domain) == (want.c0.domain,
                                                  want.c1.domain)
        assert got.scale == want.scale
        assert got.level == want.level


def test_first_and_later_calls_record_the_same_kernels(fhe):
    """Nothing a transform precomputes is charged to its first call."""
    streams = mixed_level_streams(fhe, 2)
    transform = make_transform(fhe)
    cold = counted(fhe, lambda: fused(fhe, transform, streams))
    warm = counted(fhe, lambda: fused(fhe, transform, streams))
    assert cold == warm
    assert cold[0]["NTT"] > 0


def test_counts_do_not_depend_on_which_path_runs_first(fhe):
    streams = mixed_level_streams(fhe, 2)
    first = make_transform(fhe)
    fused_first = counted(fhe, lambda: fused(fhe, first, streams))
    oracle_second = counted(fhe, lambda: oracle(fhe, first, streams))
    second = make_transform(fhe)
    oracle_first = counted(fhe, lambda: oracle(fhe, second, streams))
    fused_second = counted(fhe, lambda: fused(fhe, second, streams))
    assert fused_first == fused_second
    assert oracle_first == oracle_second


def test_one_transform_per_baby_and_per_giant(fhe):
    """Per stream, the fused path forward-transforms each baby rotation
    once and inverse-transforms each giant sum once; the oracle pays
    three forward and two inverse transforms per diagonal.  Every other
    kernel count is the oracle's."""
    streams = mixed_level_streams(fhe, 2)
    transform = make_transform(fhe)
    fused_counts, _ = counted(fhe, lambda: fused(fhe, transform, streams))
    oracle_counts, _ = counted(fhe, lambda: oracle(fhe, transform, streams))
    diagonals = len(transform.diagonals)
    babies = len({offset % transform.n1 for offset in transform.diagonals})
    giants = len({offset // transform.n1 for offset in transform.diagonals})
    per_stream = len(streams)
    assert oracle_counts["NTT"] - fused_counts["NTT"] == \
        per_stream * (3 * diagonals - 2 * babies)
    assert oracle_counts["INTT"] - fused_counts["INTT"] == \
        per_stream * (2 * diagonals - 2 * giants)
    for kernel in set(oracle_counts) - {"NTT", "INTT"}:
        assert fused_counts[kernel] == oracle_counts[kernel]


def in_evaluation_domain(fhe, plain):
    return Plaintext(
        polynomial=plain.polynomial.to_evaluation(fhe.context.planner),
        scale=plain.scale, level=plain.level)


class TestMultiplyPlainAccumulate:
    def test_empty_inputs(self, fhe):
        assert fhe.batched_evaluator.multiply_plain_accumulate(
            iter(()), {}) == []

    def test_matches_multiply_plain(self, fhe):
        ct = fhe.encrypt(np.ones(fhe.slot_count))
        plain = fhe.encryptor.encode(np.full(fhe.slot_count, 0.5),
                                     level=ct.level)
        [[got]] = fhe.batched_evaluator.multiply_plain_accumulate(
            [[ct]], {ct.moduli: [[in_evaluation_domain(fhe, plain)]]})
        [want] = fhe.batched_evaluator.multiply_plain([ct], [plain])
        assert np.array_equal(got.c0.residues, want.c0.residues)
        assert np.array_equal(got.c1.residues, want.c1.residues)
        assert (got.scale, got.level) == (want.scale, want.level)

    def test_coefficient_domain_weights_rejected(self, fhe):
        ct = fhe.encrypt(np.ones(fhe.slot_count))
        plain = fhe.encryptor.encode(np.ones(fhe.slot_count), level=ct.level)
        with pytest.raises(ValueError, match="evaluation-domain"):
            fhe.batched_evaluator.multiply_plain_accumulate(
                [[ct]], {ct.moduli: [[plain]]})

    def test_evaluation_domain_inputs_rejected(self, fhe):
        ct = fhe.encrypt(np.ones(fhe.slot_count))
        plain = fhe.encryptor.encode(np.ones(fhe.slot_count), level=ct.level)
        planner = fhe.context.planner
        evaluated = Ciphertext(c0=ct.c0.to_evaluation(planner),
                               c1=ct.c1.to_evaluation(planner),
                               scale=ct.scale, level=ct.level)
        with pytest.raises(ValueError, match="coefficient-domain"):
            fhe.batched_evaluator.multiply_plain_accumulate(
                [[evaluated]], {ct.moduli: [[in_evaluation_domain(fhe, plain)]]})

    def test_inputs_on_different_chains_rejected(self, fhe):
        ct = fhe.encrypt(np.ones(fhe.slot_count))
        lower = fhe.evaluator.drop_to_level(ct, ct.level - 1)
        plain = fhe.encryptor.encode(np.ones(fhe.slot_count), level=ct.level)
        weights = {ct.moduli: [[in_evaluation_domain(fhe, plain)]] * 2}
        with pytest.raises(ValueError, match="same prime chains"):
            fhe.batched_evaluator.multiply_plain_accumulate(
                [[ct], [lower]], weights)

    def test_output_without_weights_rejected(self, fhe):
        ct = fhe.encrypt(np.ones(fhe.slot_count))
        plain = fhe.encryptor.encode(np.ones(fhe.slot_count), level=ct.level)
        weights = {ct.moduli: [[None, in_evaluation_domain(fhe, plain)]]}
        with pytest.raises(ValueError, match="every output"):
            fhe.batched_evaluator.multiply_plain_accumulate([[ct]], weights)
