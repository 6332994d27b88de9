"""CKKS evaluation: independent operation streams as fused launches.

The paper's central throughput claim (Section IV-D, Figure 9) is that *B*
independent ciphertext operations of the same shape can execute as single
``(L, B, N)`` tensor launches instead of ``B`` separate kernel sequences.
:class:`BatchedEvaluator` is that execution model and the only
implementation of the CKKS operations (paper Algs. 2-6): it takes
*streams* of independent HADD / HMULT / CMULT / RESCALE / HROTATE
operands, groups them by their active prime chain, and executes each
group with

* **one** ``forward_ops``/``inverse_ops`` engine call per transform step —
  a single batched backend GEMM covering every stream and every limb — and
* **one** backend-funnel mat-mod launch per element-wise step over the
  fused ``(B*L, N)`` residue matrix (tiled per-limb moduli column).

A single operation is the ``B = 1`` case; :class:`~repro.ckks.evaluator.
Evaluator` is that scalar view.  Per-stream bookkeeping (scale tracking,
level alignment, domain tags) is kept exactly, and the kernel counters
record one invocation per stream and step (fusion is invisible to the
instrumentation, via :meth:`~repro.kernels.base.KernelCounter.record_batch`),
so results and counts do not depend on how the streams were batched.
The HMULT key switch and the rotation / conjugation paths run through
:class:`~repro.ckks.batched_keyswitch.BatchedKeySwitcher`.

The transform-based operations (CMULT, HMULT, HROTATE, HCONJ and plaintext
addition) take coefficient-domain operands only; an evaluation-domain
stream is rejected with a ``ValueError``.  The one exception is the
weights of :meth:`BatchedEvaluator.multiply_plain_accumulate`, the fused
CMULT-and-sum of the BSGS transforms: they are precomputed plaintexts in
the evaluation domain, so each term costs no transform of its own.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..backend.residency import (
    as_ndarray,
    concatenate_arrays,
    contiguous,
    stack_arrays,
)
from ..kernels.automorphism import (
    apply_automorphism_coeff,
    galois_element_for_rotation,
)
from ..kernels.base import KernelName
from ..numtheory.modular import (
    mat_mod_add,
    mat_mod_mul,
    mat_mod_reduce,
    mat_mod_sub,
)
from ..rns.poly import PolyDomain, RnsPolynomial
from .batched_keyswitch import BatchedKeySwitcher
from .ciphertext import Ciphertext, Plaintext
from .context import CkksContext
from .keys import RotationKeySet, SwitchKey

__all__ = ["BatchedEvaluator", "stream_signature"]

_RELATIVE_SCALE_TOLERANCE = 1e-6


def stream_signature(ciphertext: Ciphertext) -> Tuple:
    """The compatibility key under which independent streams fuse.

    Streams sharing this tuple — active prime chain, level, scale and the
    per-component polynomial domains — can execute as one ``(B, L, N)``
    fused launch with no per-stream special-casing: the batched evaluator
    groups by the chain internally and checks scale/domain per pair, and
    the serving layer's request coalescer uses this same key up front so
    every chunk it hands over is maximally fusable.
    """
    return (ciphertext.moduli, ciphertext.level, ciphertext.scale,
            ciphertext.c0.domain, ciphertext.c1.domain)


class BatchedEvaluator:
    """Executes independent streams of CKKS operations as fused batches."""

    def __init__(self, context: CkksContext) -> None:
        self.context = context
        self.key_switcher = BatchedKeySwitcher(context)

    # ------------------------------------------------------------------
    # Level and scale bookkeeping (per ciphertext, no kernel launches)
    # ------------------------------------------------------------------
    def drop_to_level(self, ciphertext: Ciphertext, level: int) -> Ciphertext:
        """Reduce a ciphertext to a lower level by dropping RNS limbs."""
        if level > ciphertext.level:
            raise ValueError("cannot raise the level of a ciphertext")
        if level == ciphertext.level:
            return ciphertext.copy()
        moduli = self.context.moduli_at_level(level)
        return Ciphertext(
            c0=ciphertext.c0.restrict_to(moduli),
            c1=ciphertext.c1.restrict_to(moduli),
            scale=ciphertext.scale,
            level=level,
        )

    def align(self, lhs: Ciphertext, rhs: Ciphertext):
        """Bring two ciphertexts to the same (minimum) level."""
        level = min(lhs.level, rhs.level)
        return self.drop_to_level(lhs, level), self.drop_to_level(rhs, level)

    @staticmethod
    def _check_scales(lhs_scale: float, rhs_scale: float) -> None:
        if not math.isclose(lhs_scale, rhs_scale,
                            rel_tol=_RELATIVE_SCALE_TOLERANCE):
            raise ValueError(
                "scale mismatch (%.3g vs %.3g); rescale before adding" %
                (lhs_scale, rhs_scale)
            )

    def _plain_at_level(self, plaintext: Plaintext, level: int) -> RnsPolynomial:
        """Restrict an encoded plaintext to the ciphertext's active basis."""
        moduli = self.context.moduli_at_level(level)
        if tuple(plaintext.polynomial.moduli) == moduli:
            return plaintext.polynomial
        return plaintext.polynomial.restrict_to(moduli)

    # ------------------------------------------------------------------
    # HADD / subtraction: B independent pairs, one launch per component
    # ------------------------------------------------------------------
    def add(self, lhs_streams: Sequence[Ciphertext],
            rhs_streams: Sequence[Ciphertext]) -> List[Ciphertext]:
        """Batched HADD: element-wise addition of ``B`` independent pairs."""
        return self._pairwise(lhs_streams, rhs_streams, mat_mod_add,
                              KernelName.ELE_ADD)

    def subtract(self, lhs_streams: Sequence[Ciphertext],
                 rhs_streams: Sequence[Ciphertext]) -> List[Ciphertext]:
        """Batched element-wise subtraction of ``B`` independent pairs."""
        return self._pairwise(lhs_streams, rhs_streams, mat_mod_sub,
                              KernelName.ELE_SUB)

    def _pairwise(self, lhs_streams: Sequence[Ciphertext],
                  rhs_streams: Sequence[Ciphertext], funnel,
                  kernel: str) -> List[Ciphertext]:
        pairs = []
        for lhs, rhs in self._zipped(lhs_streams, rhs_streams):
            lhs, rhs = self.align(lhs, rhs)
            self._check_scales(lhs.scale, rhs.scale)
            self._check_pair_domains(lhs, rhs)
            pairs.append((lhs, rhs))

        results: List[Optional[Ciphertext]] = [None] * len(pairs)
        for moduli, indices in self._grouped(p[0].moduli for p in pairs).items():
            batch, limbs = len(indices), len(moduli)
            tiled = self._tiled_moduli(moduli, batch)
            sums = []
            for component in ("c0", "c1"):
                left = self._stack([getattr(pairs[i][0], component) for i in indices])
                right = self._stack([getattr(pairs[i][1], component) for i in indices])
                fused = funnel(self._fuse(left), self._fuse(right), tiled)
                self._record(kernel, batch, limbs)
                sums.append(fused.reshape(left.shape))
            for j, i in enumerate(indices):
                lhs = pairs[i][0]
                results[i] = Ciphertext(
                    c0=self._poly(moduli, sums[0][j], lhs.c0.domain),
                    c1=self._poly(moduli, sums[1][j], lhs.c1.domain),
                    scale=lhs.scale, level=lhs.level,
                )
        return results

    def negate(self, ciphertexts: Sequence[Ciphertext]) -> List[Ciphertext]:
        """Negate every stream (a host-side modular map, no kernel launch)."""
        return [Ciphertext(c0=ct.c0.negate(), c1=ct.c1.negate(),
                           scale=ct.scale, level=ct.level)
                for ct in ciphertexts]

    def add_plain(self, ciphertexts: Sequence[Ciphertext],
                  plaintexts: Sequence[Plaintext]) -> List[Ciphertext]:
        """Batched plaintext addition: one fused Ele-Add over the c0 stack."""
        streams = []
        for ciphertext, plaintext in self._zipped(ciphertexts, plaintexts):
            self._check_scales(ciphertext.scale, plaintext.scale)
            plain_poly = self._plain_at_level(plaintext, ciphertext.level)
            self._require_coefficient("add_plain", ciphertext.c0, plain_poly)
            streams.append((ciphertext, plain_poly))

        results: List[Optional[Ciphertext]] = [None] * len(streams)
        for moduli, indices in self._grouped(
                ct.moduli for ct, _ in streams).items():
            entries = [streams[i] for i in indices]
            batch, limbs = len(entries), len(moduli)
            tiled = self._tiled_moduli(moduli, batch)
            left = self._stack([ct.c0 for ct, _ in entries])
            right = self._stack([plain for _, plain in entries])
            fused = mat_mod_add(self._fuse(left), self._fuse(right), tiled)
            self._record(KernelName.ELE_ADD, batch, limbs)
            sums = fused.reshape(left.shape)
            for j, i in enumerate(indices):
                ciphertext = streams[i][0]
                results[i] = Ciphertext(
                    c0=self._poly(moduli, sums[j]),
                    c1=ciphertext.c1.copy(),
                    scale=ciphertext.scale, level=ciphertext.level,
                )
        return results

    # ------------------------------------------------------------------
    # CMULT: B plaintext multiplications, one NTT/Hadamard/INTT step each
    # ------------------------------------------------------------------
    def multiply_plain(self, ciphertexts: Sequence[Ciphertext],
                       plaintexts: Sequence[Plaintext]) -> List[Ciphertext]:
        """Batched CMULT: multiply each stream by its encoded plaintext."""
        streams = []
        for ciphertext, plaintext in self._zipped(ciphertexts, plaintexts):
            plain_poly = self._plain_at_level(plaintext, ciphertext.level)
            self._require_coefficient("multiply_plain", ciphertext.c0,
                                      ciphertext.c1, plain_poly)
            streams.append((ciphertext, plaintext, plain_poly))

        results: List[Optional[Ciphertext]] = [None] * len(streams)
        for moduli, indices in self._grouped(
                ct.moduli for ct, _, _ in streams).items():
            entries = [streams[i] for i in indices]
            batch, limbs = len(entries), len(moduli)
            tiled = self._tiled_moduli(moduli, batch)
            stacks = concatenate_arrays([
                self._stack([ct.c0 for ct, _, _ in entries]),
                self._stack([ct.c1 for ct, _, _ in entries]),
                self._stack([plain for _, _, plain in entries]),
            ])
            evals = self.context.planner.forward_ops(
                self.context.ring_degree, moduli, stacks)
            self._record(KernelName.NTT, 3 * batch, limbs)
            c0_eval, c1_eval = evals[:batch], evals[batch:2 * batch]
            plain_eval = evals[2 * batch:]
            d0 = self._fused_mul(c0_eval, plain_eval, tiled)
            d1 = self._fused_mul(c1_eval, plain_eval, tiled)
            self._record(KernelName.HADAMARD, 2 * batch, limbs)
            coeff = self.context.planner.inverse_ops(
                self.context.ring_degree, moduli, concatenate_arrays([d0, d1]))
            self._record(KernelName.INTT, 2 * batch, limbs)
            for j, i in enumerate(indices):
                ciphertext, plaintext, _ = streams[i]
                results[i] = Ciphertext(
                    c0=self._poly(moduli, coeff[j]),
                    c1=self._poly(moduli, coeff[batch + j]),
                    scale=ciphertext.scale * plaintext.scale,
                    level=ciphertext.level,
                )
        return results

    def multiply_plain_accumulate(
            self, inputs: Iterable[Sequence[Ciphertext]],
            weights: Mapping[Tuple[int, ...],
                             Sequence[Sequence[Optional[Plaintext]]]]
    ) -> List[List[Ciphertext]]:
        """Fused CMULT-and-sum: ``out[g] = sum_k inputs[k] * W[k][g]``.

        ``inputs`` yields ``K`` lists of the same ``B`` streams (for
        example successive rotations of one batch); it is consumed one
        entry at a time, so a generator keeps only one entry alive.
        ``weights[moduli][k][g]`` is an evaluation-domain plaintext on
        that prime chain, or None for a zero term.  Each input is
        forward-transformed once (one ``(2B, L, N)`` launch per chain);
        the products accumulate in the evaluation domain, and one inverse
        launch per chain returns all ``G`` sums.  The results are those
        of ``multiply_plain`` followed by ``add`` per term, bit for bit,
        because the transform is linear and exact; the counters record
        one Hada-Mult per term and one Ele-Add per term after a sum's
        first.
        """
        chains = None
        sums: Dict[Tuple[int, ...], Dict[int, object]] = {}
        scales: Dict[int, float] = {}
        for row, streams in enumerate(inputs):
            streams = list(streams)
            for ciphertext in streams:
                self._require_coefficient("multiply_plain_accumulate",
                                          ciphertext.c0, ciphertext.c1)
            if chains is None:
                first, chains = streams, [ct.moduli for ct in streams]
                groups = self._grouped(chains)
            elif [ct.moduli for ct in streams] != chains:
                raise ValueError("every input must carry the same prime chains")
            for moduli, indices in groups.items():
                batch, limbs = len(indices), len(moduli)
                tiled = self._tiled_moduli(moduli, 2 * batch)
                evals = self._fuse(self.context.planner.forward_ops(
                    self.context.ring_degree, moduli,
                    self._stack([streams[i].c0 for i in indices]
                                + [streams[i].c1 for i in indices])))
                self._record(KernelName.NTT, 2 * batch, limbs)
                chain_sums = sums.setdefault(moduli, {})
                for column, plain in enumerate(weights[moduli][row]):
                    if plain is None:
                        continue
                    if (plain.polynomial.domain != PolyDomain.EVALUATION
                            or plain.polynomial.moduli != moduli):
                        raise ValueError(
                            "weights must be evaluation-domain plaintexts "
                            "on the streams' prime chain")
                    self._check_scales(scales.setdefault(column, plain.scale),
                                       plain.scale)
                    # The weight repeats per operand: a transient copy.
                    weight = np.broadcast_to(
                        plain.polynomial.residues,
                        (2 * batch, limbs, self.context.ring_degree))
                    product = mat_mod_mul(evals, self._fuse(weight), tiled)
                    self._record(KernelName.HADAMARD, 2 * batch, limbs)
                    if column in chain_sums:
                        product = mat_mod_add(chain_sums[column], product,
                                              tiled)
                        self._record(KernelName.ELE_ADD, 2 * batch, limbs)
                    chain_sums[column] = product
        if not scales:
            return []
        count = len(scales)
        results = [[None] * len(chains) for _ in range(count)]
        for moduli, indices in groups.items():
            batch, limbs = len(indices), len(moduli)
            chain_sums = sums[moduli]
            if sorted(chain_sums) != list(range(count)):
                raise ValueError("every output needs a weight on every chain")
            coeff = self.context.planner.inverse_ops(
                self.context.ring_degree, moduli, concatenate_arrays(
                    [chain_sums[column].reshape(2 * batch, limbs, -1)
                     for column in range(count)]))
            self._record(KernelName.INTT, 2 * batch * count, limbs)
            for column in range(count):
                base = 2 * batch * column
                for j, i in enumerate(indices):
                    results[column][i] = Ciphertext(
                        c0=self._poly(moduli, coeff[base + j]),
                        c1=self._poly(moduli, coeff[base + batch + j]),
                        scale=first[i].scale * scales[column],
                        level=first[i].level,
                    )
        return results

    # ------------------------------------------------------------------
    # HMULT: B ciphertext multiplications with relinearization
    # ------------------------------------------------------------------
    def multiply(self, lhs_streams: Sequence[Ciphertext],
                 rhs_streams: Sequence[Ciphertext],
                 relinearization_key: SwitchKey) -> List[Ciphertext]:
        """Batched HMULT: fused transforms and one fused key switch."""
        pairs = []
        for lhs, rhs in self._zipped(lhs_streams, rhs_streams):
            lhs, rhs = self.align(lhs, rhs)
            self._require_coefficient("multiply", lhs.c0, lhs.c1,
                                      rhs.c0, rhs.c1)
            pairs.append((lhs, rhs))

        results: List[Optional[Ciphertext]] = [None] * len(pairs)
        for moduli, indices in self._grouped(
                lhs.moduli for lhs, _ in pairs).items():
            entries = [pairs[i] for i in indices]
            batch, limbs = len(entries), len(moduli)
            level = entries[0][0].level
            tiled = self._tiled_moduli(moduli, batch)
            stacks = concatenate_arrays([
                self._stack([lhs.c0 for lhs, _ in entries]),
                self._stack([lhs.c1 for lhs, _ in entries]),
                self._stack([rhs.c0 for _, rhs in entries]),
                self._stack([rhs.c1 for _, rhs in entries]),
            ])
            evals = self.context.planner.forward_ops(
                self.context.ring_degree, moduli, stacks)
            self._record(KernelName.NTT, 4 * batch, limbs)
            a0, a1 = evals[:batch], evals[batch:2 * batch]
            b0, b1 = evals[2 * batch:3 * batch], evals[3 * batch:]

            d0 = self._fused_mul(a0, b0, tiled)
            cross0 = self._fused_mul(a0, b1, tiled)
            cross1 = self._fused_mul(a1, b0, tiled)
            d2 = self._fused_mul(a1, b1, tiled)
            self._record(KernelName.HADAMARD, 4 * batch, limbs)
            d1 = mat_mod_add(self._fuse(cross0), self._fuse(cross1),
                             tiled).reshape(d0.shape)
            self._record(KernelName.ELE_ADD, batch, limbs)

            coeff = self.context.planner.inverse_ops(
                self.context.ring_degree, moduli,
                concatenate_arrays([d0, d1, d2]))
            self._record(KernelName.INTT, 3 * batch, limbs)
            # Generalized key switching, fused across the B axis: the dnum
            # decomposition of every stream stacks into one (B, dnum, L, N)
            # tensor and runs as batched ModUp / NTT / inner-product /
            # ModDown launches.
            switched = self.key_switcher.switch_many(
                [self._poly(moduli, coeff[2 * batch + j]) for j in range(batch)],
                relinearization_key, level)
            outputs = []
            for slot, component in enumerate(("c0", "c1")):
                own = coeff[slot * batch:(slot + 1) * batch]
                key_part = self._stack([pair[slot] for pair in switched])
                fused = mat_mod_add(self._fuse(own), self._fuse(key_part), tiled)
                self._record(KernelName.ELE_ADD, batch, limbs)
                outputs.append(fused.reshape(own.shape))
            for j, i in enumerate(indices):
                lhs, rhs = pairs[i]
                results[i] = Ciphertext(
                    c0=self._poly(moduli, outputs[0][j]),
                    c1=self._poly(moduli, outputs[1][j]),
                    scale=lhs.scale * rhs.scale, level=level,
                )
        return results

    def multiply_and_rescale(self, lhs_streams: Sequence[Ciphertext],
                             rhs_streams: Sequence[Ciphertext],
                             relinearization_key: SwitchKey) -> List[Ciphertext]:
        """Batched HMULT followed by batched RESCALE."""
        return self.rescale(
            self.multiply(lhs_streams, rhs_streams, relinearization_key))

    # ------------------------------------------------------------------
    # RESCALE: B level drops, three fused launches per group
    # ------------------------------------------------------------------
    def rescale(self, ciphertexts: Sequence[Ciphertext]) -> List[Ciphertext]:
        """Batched RESCALE: drop the last prime of every stream at once."""
        ciphertexts = list(ciphertexts)
        for ciphertext in ciphertexts:
            if ciphertext.level == 0:
                raise ValueError("cannot rescale a level-0 ciphertext")
        results: List[Optional[Ciphertext]] = [None] * len(ciphertexts)
        for moduli, indices in self._grouped(
                ct.moduli for ct in ciphertexts).items():
            batch, limbs = len(indices), len(moduli)
            surviving = moduli[:-1]
            last_prime = moduli[-1]
            tiled = self._tiled_moduli(surviving, 2 * batch)
            inverse_rows = np.tile(
                self.context.rescale_inverses(moduli), (2 * batch, 1))
            polys = ([ciphertexts[i].c0 for i in indices]
                     + [ciphertexts[i].c1 for i in indices])
            stacks = self._stack(polys)                       # (2B, L, N)
            head = contiguous(stacks[:, :-1, :])              # (2B, L-1, N)
            # Last limb repeated per surviving limb — a resident-image row
            # gather (bit-identical to the historical broadcast view).
            last = stacks[:, np.full(limbs - 1, limbs - 1, dtype=np.int64), :]
            # (c_i - c_last) * q_last^{-1} mod q_i, all streams and limbs
            # in three funnel launches over the (2B*(L-1), N) fused matrix.
            reduced_last = mat_mod_reduce(last.reshape(-1, head.shape[2]), tiled)
            diff = mat_mod_sub(self._fuse(head), reduced_last, tiled)
            scaled = mat_mod_mul(diff, inverse_rows, tiled).reshape(head.shape)
            self._record(KernelName.ELE_SUB, 2 * batch, limbs - 1)
            for j, i in enumerate(indices):
                ciphertext = ciphertexts[i]
                results[i] = Ciphertext(
                    c0=self._poly(surviving, scaled[j], ciphertext.c0.domain),
                    c1=self._poly(surviving, scaled[batch + j], ciphertext.c1.domain),
                    scale=ciphertext.scale / last_prime,
                    level=ciphertext.level - 1,
                )
        return results

    # ------------------------------------------------------------------
    # HROTATE / HCONJ: B automorphisms plus one fused key switch
    # ------------------------------------------------------------------
    def rotate(self, ciphertexts: Sequence[Ciphertext], steps: int,
               rotation_keys: RotationKeySet) -> List[Ciphertext]:
        """Batched HROTATE: rotate every stream by the same ``steps``.

        The automorphism is one gather over the stacked ``(2B, L, N)``
        residues and the key switch runs B-fused; streams are grouped by
        their active prime chain exactly like the other batched paths.
        """
        ciphertexts = list(ciphertexts)
        if not ciphertexts:
            # Empty in, empty out, without resolving a key.
            return []
        steps %= self.context.slot_count
        if steps == 0:
            return [ciphertext.copy() for ciphertext in ciphertexts]
        galois_element = galois_element_for_rotation(
            steps, self.context.ring_degree)
        switch_key = rotation_keys.for_steps(steps)
        return self._apply_galois_many(
            "rotate", ciphertexts, galois_element, switch_key,
            KernelName.FROBENIUS)

    def conjugate(self, ciphertexts: Sequence[Ciphertext],
                  rotation_keys: RotationKeySet) -> List[Ciphertext]:
        """Batched HCONJ: conjugate the slot vector of every stream."""
        ciphertexts = list(ciphertexts)
        if not ciphertexts:
            return []
        if rotation_keys.conjugation_key is None:
            raise ValueError("rotation key set has no conjugation key")
        galois_element = 2 * self.context.ring_degree - 1
        return self._apply_galois_many(
            "conjugate", ciphertexts, galois_element,
            rotation_keys.conjugation_key, KernelName.CONJUGATE)

    def _apply_galois_many(self, operation: str,
                           ciphertexts: Sequence[Ciphertext],
                           galois_element: int, switch_key: SwitchKey,
                           kernel: str) -> List[Ciphertext]:
        for ciphertext in ciphertexts:
            self._require_coefficient(operation, ciphertext.c0, ciphertext.c1)
        results: List[Optional[Ciphertext]] = [None] * len(ciphertexts)
        for moduli, indices in self._grouped(
                ct.moduli for ct in ciphertexts).items():
            entries = [ciphertexts[i] for i in indices]
            batch, limbs = len(entries), len(moduli)
            level = entries[0].level
            tiled = self._tiled_moduli(moduli, batch)
            column = np.asarray(moduli, dtype=np.int64)[:, None]
            # The automorphism is a host-side index gather (a counted
            # staging point for device-resident streams) over the stacked
            # (2B, L, N) components.
            rotated = apply_automorphism_coeff(
                as_ndarray(self._stack([ct.c0 for ct in entries]
                                       + [ct.c1 for ct in entries])),
                galois_element, column)
            self._record(kernel, 2 * batch, limbs)
            switched = self.key_switcher.switch_many(
                [self._poly(moduli, rotated[batch + j]) for j in range(batch)],
                switch_key, level)
            key_part = self._stack([pair[0] for pair in switched])
            fused = mat_mod_add(self._fuse(rotated[:batch]),
                                self._fuse(key_part), tiled)
            self._record(KernelName.ELE_ADD, batch, limbs)
            summed = fused.reshape(key_part.shape)
            for j, i in enumerate(indices):
                ciphertext = ciphertexts[i]
                results[i] = Ciphertext(
                    c0=self._poly(moduli, summed[j]),
                    c1=switched[j][1],
                    scale=ciphertext.scale, level=ciphertext.level,
                )
        return results

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _zipped(self, lhs: Sequence, rhs: Sequence):
        lhs, rhs = list(lhs), list(rhs)
        if len(lhs) != len(rhs):
            raise ValueError(
                "stream lists have different lengths (%d vs %d)"
                % (len(lhs), len(rhs))
            )
        return zip(lhs, rhs)

    @staticmethod
    def _grouped(moduli_iter) -> Dict[Tuple[int, ...], List[int]]:
        """Stream indices grouped by active prime chain, insertion-ordered."""
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for index, moduli in enumerate(moduli_iter):
            groups.setdefault(tuple(moduli), []).append(index)
        return groups

    @staticmethod
    def _stack(polys: Sequence[RnsPolynomial]):
        """Stack per-stream residency handles into a ``(B, L, N)`` batch.

        Returns a :class:`~repro.backend.residency.DeviceBuffer`: the
        gather stays on the device when every stream is resident there,
        and the fused launches downstream thread the handle end-to-end.
        """
        return stack_arrays([poly.buffer for poly in polys])

    @staticmethod
    def _fuse(stack):
        """Reshape ``(B, L, N)`` to the ``(B*L, N)`` fused funnel matrix."""
        return stack.reshape(-1, stack.shape[2])

    @staticmethod
    def _tiled_moduli(moduli: Tuple[int, ...], count: int) -> np.ndarray:
        """The per-limb chain repeated per operation: ``(count*L,)`` rows."""
        return np.tile(np.asarray(moduli, dtype=np.int64), count)

    def _fused_mul(self, lhs: np.ndarray, rhs: np.ndarray,
                   tiled: np.ndarray) -> np.ndarray:
        """One Hada-Mult funnel launch over stacked ``(B, L, N)`` operands."""
        return mat_mod_mul(self._fuse(lhs), self._fuse(rhs), tiled).reshape(lhs.shape)

    def _poly(self, moduli: Tuple[int, ...], residues: np.ndarray,
              domain: str = PolyDomain.COEFFICIENT) -> RnsPolynomial:
        return RnsPolynomial(self.context.ring_degree, moduli, residues, domain)

    def _record(self, kernel: str, operations: int, limbs: int) -> None:
        self.context.kernels.counter.record_batch(kernel, operations, limbs)

    @staticmethod
    def _require_coefficient(operation: str, *polys: RnsPolynomial) -> None:
        if any(poly.domain != PolyDomain.COEFFICIENT for poly in polys):
            raise ValueError(
                "%s expects coefficient-domain operands" % operation)

    @staticmethod
    def _check_pair_domains(lhs: Ciphertext, rhs: Ciphertext) -> None:
        if (lhs.c0.domain != rhs.c0.domain or lhs.c1.domain != rhs.c1.domain):
            raise ValueError(
                "polynomial domains differ (%s/%s vs %s/%s)"
                % (lhs.c0.domain, lhs.c1.domain, rhs.c0.domain, rhs.c1.domain)
            )
