"""Chinese Remainder Theorem helpers for the Residue Number System.

Full-RNS CKKS (Section II-B of the paper) represents a polynomial with a
huge modulus ``Q = prod(q_i)`` as a list of residue polynomials, one per
word-sized prime.  These helpers convert between the integer and RNS
representations and expose the per-prime constants (``Q_hat_i`` and its
inverse) that the fast basis conversion kernel needs.

:meth:`CrtContext.compose_array` recombines a whole ``(L, n)`` residue
matrix with one vectorised Garner (mixed-radix) pass.  The residues are
shifted by ``S = (Q-1)//2`` (centred case); row ``i`` yields the int64
digit ``d_i`` of ``x + S = sum d_i * M_i`` (``M_i = q_0 * ... * q_{i-1}``)
through the ``vec_mod_*`` funnels, exact object arithmetic for primes of
2**31 and above.  The signed digits ``e_i = d_i - s_i`` (``s_i`` those of
``S``) satisfy ``|e_i| <= q_i/2``, so ``sum |e_i| * M_i`` bounds ``|x|``
tightly: columns bounded below 2**62 are composed in wrapping uint64
(exact, as ``x`` fits int64), the rest from their digits in object
arithmetic.  :meth:`CrtContext.compose` / :meth:`compose_centered` are the
scalar big-integer oracle for tests; :func:`crt_context` memoises one
context, Garner constants included, per moduli tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .modular import mod_inverse, vec_mod_mul

__all__ = ["CrtContext", "crt_context"]

#: A column whose digit bound ``sum |e_i| * M_i`` is below this fits int64.
_INT64_BOUND = float(1 << 62)


@dataclass
class CrtContext:
    """Precomputed CRT constants for a fixed list of co-prime moduli."""

    moduli: Sequence[int]
    modulus_product: int = field(init=False)
    quotients: List[int] = field(init=False)
    quotient_inverses: List[int] = field(init=False)

    def __post_init__(self) -> None:
        moduli = list(self.moduli)
        if not moduli:
            raise ValueError("CrtContext requires at least one modulus")
        if len(set(moduli)) != len(moduli):
            raise ValueError("CRT moduli must be distinct")
        self.moduli = moduli
        self.modulus_product = 1
        for q in moduli:
            self.modulus_product *= q
        self.quotients = [self.modulus_product // q for q in moduli]
        self.quotient_inverses = [
            mod_inverse(quotient % q, q)
            for quotient, q in zip(self.quotients, moduli)
        ]
        # Garner constants: radices M_i, M_i^{-1} mod q_i, M_j mod q_i (j < i),
        # -S mod q_i and the digits s_i of S = (Q-1)//2.
        radices = [int(np.prod(moduli[:i], dtype=object)) for i in range(len(moduli))]
        half = (self.modulus_product - 1) // 2
        self._radices = np.asarray(radices, dtype=object)
        self._radices_u64 = np.asarray([m % (1 << 64) for m in radices], dtype=np.uint64)
        self._radices_float = np.asarray([float(min(m, 1 << 64)) for m in radices])
        self._radix_inverses = [mod_inverse(m % q, q) for m, q in zip(radices, moduli)]
        self._radix_residues = [[m % q for m in radices[:i]] for i, q in enumerate(moduli)]
        self._shift_residues = [-half % q for q in moduli]
        self._half_digits = np.asarray([[(half // m) % q] for m, q in zip(radices, moduli)])
        # Row i sums up to L reduced products lazily when they fit int64.
        self._lazy_sums = (len(moduli) + 1) * max(moduli) < (1 << 63)

    def decompose(self, value: int) -> List[int]:
        """Map an integer to its residues ``value mod q_i``."""
        return [value % q for q in self.moduli]

    def compose(self, residues: Sequence[int]) -> int:
        """Map residues back to the unique integer in ``[0, Q)``."""
        if len(residues) != len(self.moduli):
            raise ValueError("residue count does not match modulus count")
        total = 0
        for residue, quotient, inverse, q in zip(
            residues, self.quotients, self.quotient_inverses, self.moduli
        ):
            total += (residue * inverse % q) * quotient
        return total % self.modulus_product

    def compose_centered(self, residues: Sequence[int]) -> int:
        """Compose and map to the centred representative in ``(-Q/2, Q/2]``."""
        value = self.compose(residues)
        if value > self.modulus_product // 2:
            value -= self.modulus_product
        return value

    def decompose_array(self, values: Sequence[int]) -> np.ndarray:
        """Decompose a vector of integers into an ``(L, len(values))`` array."""
        values = [int(v) for v in values]
        rows = [[value % q for value in values] for q in self.moduli]
        return np.asarray(rows, dtype=np.int64)

    def compose_array(self, residue_matrix: np.ndarray, *, centered: bool = True) -> List[int]:
        """Compose an ``(L, n)`` residue matrix back into ``n`` integers."""
        return self.compose_values(residue_matrix, centered=centered).tolist()

    def compose_values(self, residue_matrix: np.ndarray, *,
                       centered: bool = True) -> np.ndarray:
        """The Garner core: int64 when every value fits, else exact object."""
        matrix = np.asarray(residue_matrix, dtype=np.int64)
        if matrix.shape[0] != len(self.moduli):
            raise ValueError("residue matrix has wrong number of rows")
        digits = np.empty(matrix.shape, dtype=np.int64)
        for i, q in enumerate(self.moduli):
            # d_i = (r_i + S - sum_j d_j * M_j) / M_i  (mod q_i)
            partial = self._shift_residues[i] if centered else 0
            for j, radix in enumerate(self._radix_residues[i]):
                # A digit below 2**32 times a radix below 2**31 fits int64.
                digit = digits[j] % q if self.moduli[j] >> 32 else digits[j]
                partial = partial + vec_mod_mul(digit, radix, q)
                if not self._lazy_sums:
                    partial %= q
            digits[i] = vec_mod_mul(matrix[i] - partial % q,
                                    self._radix_inverses[i], q)
        if centered:
            digits -= self._half_digits
        values = (digits.astype(np.uint64) * self._radices_u64[:, None]).sum(
            axis=0, dtype=np.uint64).view(np.int64)
        wide = np.flatnonzero(self._radices_float @ np.abs(digits)
                              >= _INT64_BOUND)
        if wide.size == 0:
            return values
        values = values.astype(object)
        values[wide] = (digits[:, wide].astype(object)
                        * self._radices[:, None]).sum(axis=0)
        return values


@lru_cache(maxsize=64)
def crt_context(moduli: Tuple[int, ...]) -> CrtContext:
    """The shared :class:`CrtContext` (and Garner constants) of ``moduli``."""
    return CrtContext(moduli)
