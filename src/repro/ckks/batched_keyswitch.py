"""Generalized key switching (paper Algorithm 1), fused across streams.

:meth:`BatchedKeySwitcher.switch_many` takes ``B`` polynomials that are
each paired with a foreign secret (``s^2`` after multiplication,
``s(X^g)`` after an automorphism) and returns one ``(c0, c1)`` pair per
stream with ``c0 + c1*s ≈ d * s_from``.  Algorithm 1's kernel sequence runs
once for the whole batch:

* **Dcomp** — the dnum restriction of every stream is one gather into a
  ``(B, dnum, L, N)`` residue tensor;
* **ModUp** — one batched Conv per decomposition group
  (:meth:`~repro.rns.modup.ModUp.apply_batch`), the batch folded into the
  row-moduli GEMM's free dimension;
* **NTT** — a single :meth:`~repro.ntt.planner.NttPlanner.forward_ops`
  engine call transforms all ``B * dnum`` extended slices at once;
* **Inner-product** — one fused Hada-Mult funnel launch per ``(b, a)``
  component over the ``(B*dnum*L', N)`` stack, with the dnum axis folded by
  an exact modular reduction;
* **ModDown** — both accumulators of every stream return to the ciphertext
  basis through one ``inverse_ops`` call and one batched Conv
  (:meth:`~repro.rns.moddown.ModDown.apply_batch`).

A single key switch is the ``B = 1`` case (:meth:`BatchedKeySwitcher.switch`).
The kernel counters record one invocation per stream and step (via
:meth:`~repro.kernels.base.KernelCounter.record_batch`), so they do not
depend on how the streams were batched.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..backend.blas_backend import FloatResidues
from ..backend.residency import (
    DeviceBuffer,
    as_ndarray,
    concatenate_arrays,
    contiguous,
    is_buffer,
    stack_arrays,
)
from ..kernels.base import KernelName
from ..numtheory.floatmod import get_barrett_chain
from ..numtheory.modular import mat_mod_add, mat_mod_mul, mat_mod_reduce
from ..rns.moddown import ModDown
from ..rns.modup import ModUp
from ..rns.poly import PolyDomain, RnsPolynomial
from .context import CkksContext
from .keys import SwitchKey

__all__ = ["BatchedKeySwitcher"]


class BatchedKeySwitcher:
    """Key switching for a whole stream batch as fused launches."""

    def __init__(self, context: CkksContext) -> None:
        self.context = context
        self._modup_cache = {}
        self._moddown_cache = {}

    def switch(self, polynomial: RnsPolynomial, switch_key: SwitchKey,
               level: int) -> Tuple[RnsPolynomial, RnsPolynomial]:
        """Key-switch one coefficient-domain polynomial at ``level``."""
        return self.switch_many([polynomial], switch_key, level)[0]

    def switch_many(self, polynomials: Sequence[RnsPolynomial],
                    switch_key: SwitchKey, level: int
                    ) -> List[Tuple[RnsPolynomial, RnsPolynomial]]:
        """Key-switch ``B`` coefficient-domain polynomials at ``level``.

        All polynomials must live on the level's active basis.  Returns
        one ``(c0, c1)`` pair per stream, in order.
        """
        polynomials = list(polynomials)
        if not polynomials:
            return []

        context = self.context
        counter = context.kernels.counter
        active = context.moduli_at_level(level)
        extended = context.extended_moduli_at_level(level)
        for polynomial in polynomials:
            if polynomial.domain != PolyDomain.COEFFICIENT:
                raise ValueError(
                    "key switching expects coefficient-domain polynomials")
            if tuple(polynomial.moduli) != active:
                raise ValueError(
                    "polynomial basis does not match the requested level")
        key_level = switch_key.at_level(level)

        batch = len(polynomials)
        ring_degree = context.ring_degree
        ext_count = len(extended)
        planner = context.planner
        # Each step rebinds ``work``, so every (B, dnum, L', N)-sized
        # intermediate is released as soon as the next one exists.
        work = self._dcomp_mod_up(polynomials, key_level, active, extended)
        dnum = len(key_level.group_moduli)

        # NTT: all B * dnum extended slices in one engine call.
        work = planner.forward_ops(ring_degree, extended, work)
        counter.record_batch(KernelName.NTT, batch * dnum, ext_count)

        work = self._inner_product(work, key_level, extended, batch)

        # INTT + ModDown: both components of every stream at once.
        work = planner.inverse_ops(ring_degree, extended, work)
        counter.record_batch(KernelName.INTT, 2 * batch, ext_count)
        moddown = self._moddown_for(active)
        counter.record_batch(KernelName.CONV, batch, 2 * len(active))
        lowered = moddown.apply_batch(work)             # (2B, L, N)
        return [
            (RnsPolynomial(ring_degree, active, lowered[j]),
             RnsPolynomial(ring_degree, active, lowered[batch + j]))
            for j in range(batch)
        ]

    def _dcomp_mod_up(self, polynomials, key_level, active, extended):
        """Dcomp + ModUp: one batched Conv per decomposition group.

        Returns the ``(B * dnum, L', N)`` stack of extended slices.
        """
        counter = self.context.kernels.counter
        batch, ext_count = len(polynomials), len(extended)
        active_index = {q: i for i, q in enumerate(active)}
        # Stream gather through the residency handles: stays device-side
        # when every stream is resident on the same backend.
        stacked = stack_arrays([p.buffer for p in polynomials])  # (B, L, N)
        raised_groups = []
        for group in key_level.group_moduli:
            rows = np.asarray([active_index[q] for q in group], dtype=np.int64)
            modup = self._modup_for(group, extended)
            counter.record_batch(KernelName.CONV, batch,
                                 ext_count - len(group))
            raised_groups.append(
                modup.apply_batch(contiguous(stacked[:, rows])))
        raised = stack_arrays(raised_groups, axis=1)    # (B, dnum, ext, N)
        return raised.reshape(batch * len(raised_groups), ext_count,
                              self.context.ring_degree)

    def _inner_product(self, evals, key_level, extended, batch):
        """Key inner product: ``(B * dnum, L', N)`` → ``(2B, L', N)``.

        One fused Hada-Mult launch per key component, then an exact
        modular fold of the dnum axis; both accumulators come back
        stacked for the INTT.
        """
        counter = self.context.kernels.counter
        ring_degree = self.context.ring_degree
        ext_count = len(extended)
        dnum = evals.shape[0] // batch
        ext_column = np.asarray(extended, dtype=np.int64)[:, None]
        tiled_column = np.tile(ext_column, (batch * dnum, 1))
        flat_evals = evals.reshape(batch * dnum * ext_count, ring_degree)
        accumulators = []
        for component in (0, 1):                        # (b_j, a_j) pairs
            # The level's key residues stacked per group and tiled across
            # the batch in one transient copy: (B * dnum * L', N).
            key_rows = np.concatenate(
                [pair[component].residues for pair in key_level.pairs] * batch)
            products = mat_mod_mul(flat_evals, key_rows, tiled_column)
            counter.record_batch(KernelName.HADAMARD, batch * dnum, ext_count)
            accumulators.append(self._fold_groups(
                products.reshape(batch, dnum, ext_count, ring_degree),
                ext_column))
            counter.record_batch(KernelName.ELE_ADD, batch * dnum, ext_count)
        return concatenate_arrays(accumulators)

    # ------------------------------------------------------------------
    def _modup_for(self, group, extended) -> ModUp:
        key = (tuple(group), tuple(extended))
        instance = self._modup_cache.get(key)
        if instance is None:
            instance = ModUp(group, extended)
            self._modup_cache[key] = instance
        return instance

    def _moddown_for(self, active) -> ModDown:
        key = tuple(active)
        instance = self._moddown_cache.get(key)
        if instance is None:
            instance = ModDown(active, self.context.basis.special_primes)
            self._moddown_cache[key] = instance
        return instance

    @staticmethod
    def _fold_groups(products: np.ndarray, ext_column: np.ndarray) -> np.ndarray:
        """Sum a ``(B, dnum, ext, N)`` product tensor over the dnum axis.

        Each entry is a reduced residue below its row's prime, so the plain
        int64 sum is exact whenever ``dnum * max(q)`` fits in int64 (always
        for word-sized primes); the fold then reduces once per row, which
        equals a chain of per-group Ele-Add launches bit for bit.  That
        chain of funnel adds is the fold for pathological moduli and for
        products resident on a device backend, which it keeps there.  A
        float-resident product tensor folds entirely in float64 (the sum
        of ``dnum`` canonical residues stays far inside the mantissa), so
        the inner product materialises no int64 image.
        """
        batch, dnum, ext_count, ring_degree = products.shape
        tiled = np.tile(ext_column, (batch, 1))
        device_only = is_buffer(products) and products.host_image is None
        on_device = device_only and products.resident_backend is not None
        if device_only and not on_device:
            cache = products.float_cache()
            chain = get_barrett_chain(ext_column)
            if cache is not None and chain.fits(dnum * int(cache.max_value)):
                summed = cache.full().sum(axis=1)
                folded = chain.canonical_reduce(summed, axis=1)
                return DeviceBuffer.from_float(
                    FloatResidues(folded, chain.qmax - 1))
        if not on_device and dnum * int(ext_column.max()) < (1 << 63):
            summed = as_ndarray(products).sum(axis=1, dtype=np.int64)
            return mat_mod_reduce(
                summed.reshape(batch * ext_count, ring_degree), tiled
            ).reshape(batch, ext_count, ring_degree)
        accumulator = products[:, 0].reshape(batch * ext_count, ring_degree)
        for j in range(1, dnum):
            accumulator = mat_mod_add(
                accumulator,
                products[:, j].reshape(batch * ext_count, ring_degree), tiled)
        return accumulator.reshape(batch, ext_count, ring_degree)
