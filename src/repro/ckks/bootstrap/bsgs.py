"""Baby-Step Giant-Step homomorphic linear transforms.

The SlotToCoeff / CoeffToSlot stages of bootstrapping (and the dense layers
of the encrypted workloads) are matrix–vector products evaluated under
encryption.  Writing the matrix in diagonal form,

    M @ v = sum_d diag_d(M) ⊙ rot(v, d),

the Baby-Step Giant-Step (BSGS) algorithm groups the ``n`` diagonals into
``n1`` baby steps and ``n2`` giant steps so that only ``n1 + n2`` distinct
rotations (instead of ``n``) are required — exactly the optimisation the
paper cites for the homomorphic DFT [14, 59].
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...backend.residency import as_ndarray, stack_arrays
from ...rns.poly import PolyDomain, RnsPolynomial
from ..batched_evaluator import BatchedEvaluator
from ..ciphertext import Ciphertext, Plaintext
from ..context import CkksContext
from ..encryptor import Encryptor
from ..evaluator import Evaluator
from ..keys import RotationKeySet

__all__ = ["matrix_diagonals", "bsgs_step_counts", "required_rotations", "BsgsLinearTransform"]


def matrix_diagonals(matrix: np.ndarray) -> Dict[int, np.ndarray]:
    """Return the generalized diagonals ``diag_d[i] = M[i, (i+d) % n]``."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("BSGS transform requires a square matrix")
    n = matrix.shape[0]
    rows = np.arange(n)
    diagonals: Dict[int, np.ndarray] = {}
    for offset in range(n):
        diagonal = matrix[rows, (rows + offset) % n]
        if np.any(diagonal != 0):
            diagonals[offset] = diagonal
    return diagonals


def bsgs_step_counts(dimension: int) -> Sequence[int]:
    """Choose ``(n1, n2)`` with ``n1 * n2 >= dimension`` and ``n1 ≈ sqrt(dimension)``."""
    n1 = 1 << max(0, int(math.ceil(math.log2(max(1, math.isqrt(dimension))))))
    n2 = -(-dimension // n1)
    return (n1, n2)


def required_rotations(dimension: int) -> List[int]:
    """Rotation step counts a BSGS transform of size ``dimension`` may need."""
    n1, n2 = bsgs_step_counts(dimension)
    steps = set()
    for j in range(1, n1):
        steps.add(j)
    for i in range(1, n2):
        steps.add((i * n1) % dimension)
    steps.discard(0)
    return sorted(steps)


class BsgsLinearTransform:
    """Homomorphic evaluation of ``ct -> Enc(M @ v)`` with BSGS rotations."""

    def __init__(self, context: CkksContext, matrix: np.ndarray, *,
                 scale: Optional[float] = None) -> None:
        self.context = context
        self.matrix = np.asarray(matrix, dtype=np.complex128)
        if self.matrix.shape[0] != context.slot_count:
            raise ValueError(
                "matrix must be %d x %d (slot count)" % (context.slot_count,
                                                         context.slot_count)
            )
        self.scale = context.scale if scale is None else scale
        self.diagonals = matrix_diagonals(self.matrix)
        self.n1, self.n2 = bsgs_step_counts(context.slot_count)
        self._babies = sorted({offset % self.n1 for offset in self.diagonals})
        self._giants = sorted({offset - offset % self.n1
                               for offset in self.diagonals})
        # Evaluation-domain diagonal tables, one per prime chain.
        self._weights: Dict[Tuple[int, ...],
                            List[List[Optional[Plaintext]]]] = {}

    # ------------------------------------------------------------------
    def rotation_steps(self) -> List[int]:
        """Rotations required to evaluate this particular matrix."""
        steps = set()
        slot_count = self.context.slot_count
        for offset in self.diagonals:
            baby = offset % self.n1
            giant = offset - baby
            if baby:
                steps.add(baby)
            if giant:
                steps.add(giant % slot_count)
        return sorted(steps)

    def apply(self, ciphertext: Ciphertext, evaluator: Evaluator,
              encryptor: Encryptor, rotation_keys: RotationKeySet) -> Ciphertext:
        """Evaluate the transform on ``ciphertext`` (one level consumed)."""
        return self.apply_many([ciphertext], evaluator.batched, encryptor,
                               rotation_keys)[0]

    def apply_many(self, ciphertexts: Sequence[Ciphertext],
                   batched_evaluator: BatchedEvaluator, encryptor: Encryptor,
                   rotation_keys: RotationKeySet) -> List[Ciphertext]:
        """Evaluate the transform on ``B`` streams as fused launches.

        Each baby-step rotation runs through
        :meth:`~repro.ckks.batched_evaluator.BatchedEvaluator.rotate`
        (one automorphism gather plus one B-fused key switch per step)
        and is forward-transformed once; every diagonal term is then one
        Hada-Mult against the cached evaluation-domain diagonal, summed
        per giant step in the evaluation domain
        (:meth:`~repro.ckks.batched_evaluator.BatchedEvaluator.
        multiply_plain_accumulate`), and one inverse launch returns every
        giant group's sum.  Each diagonal is pre-rotated by ``-giant`` so
        one giant rotation per group suffices (the standard BSGS trick,
        with the evaluation-domain accumulation of Halevi and Shoup).
        """
        ciphertexts = list(ciphertexts)
        if not ciphertexts:
            return []
        if not self.diagonals:
            raise ValueError("the transform matrix is identically zero")
        weights = {ct.moduli: self._evaluation_diagonals(ct.level, encryptor)
                   for ct in ciphertexts}
        babies = (batched_evaluator.rotate(ciphertexts, baby, rotation_keys)
                  if baby else ciphertexts for baby in self._babies)
        sums = batched_evaluator.multiply_plain_accumulate(babies, weights)
        slot_count = self.context.slot_count
        accumulator = None
        for giant, inner in zip(self._giants, sums):
            if giant % slot_count:
                inner = batched_evaluator.rotate(inner, giant % slot_count,
                                                 rotation_keys)
            accumulator = inner if accumulator is None else \
                batched_evaluator.add(accumulator, inner)
        return batched_evaluator.rescale(accumulator)

    def _evaluation_diagonals(self, level: int, encryptor: Encryptor
                              ) -> List[List[Optional[Plaintext]]]:
        """The ``babies x giants`` table of shifted diagonals in NTT form.

        Built once per prime chain: each diagonal pre-rotated by its giant
        step is encoded at ``level`` and all of them are forward-transformed
        in one launch.  This is a plaintext precompute, like key material,
        so the kernel counters do not record it.
        """
        moduli = self.context.moduli_at_level(level)
        table = self._weights.get(moduli)
        if table is not None:
            return table
        slot_count = self.context.slot_count
        terms = [(row, column, encryptor.encode(
                      np.roll(self.diagonals[giant + baby], giant % slot_count),
                      scale=self.scale, level=level))
                 for column, giant in enumerate(self._giants)
                 for row, baby in enumerate(self._babies)
                 if giant + baby in self.diagonals]
        evaluated = as_ndarray(self.context.planner.forward_ops(
            self.context.ring_degree, moduli,
            stack_arrays([plain.polynomial.buffer for _, _, plain in terms])))
        table = [[None] * len(self._giants) for _ in self._babies]
        for (row, column, plain), residues in zip(terms, evaluated):
            table[row][column] = Plaintext(
                polynomial=RnsPolynomial(self.context.ring_degree, moduli,
                                         residues, PolyDomain.EVALUATION),
                scale=plain.scale, level=level)
        self._weights[moduli] = table
        return table

    def reference(self, values: Sequence[complex]) -> np.ndarray:
        """Plaintext evaluation of the same transform (test oracle)."""
        vector = np.zeros(self.context.slot_count, dtype=np.complex128)
        values = np.asarray(values, dtype=np.complex128)
        vector[: values.size] = values
        return self.matrix @ vector
