"""The vectorised Garner core of ``CrtContext.compose_array`` vs the scalar oracle.

``compose`` / ``compose_centered`` compose one column with Python big
integers; ``compose_array`` composes a whole ``(L, n)`` matrix with int64
digits, wrapping uint64 composition for the columns that fit int64 and
exact object arithmetic for the rest.  Both must agree bit for bit on
20-, 30- and 33-bit chains (the last exercises the funnels' object path),
at the edges of the centred range and around +-2**63.  Two more chains
cover the overflow guards: a 36-bit prime among 30-bit ones (its digits
times a 30-bit radix overflow int64) and six 61-bit primes (whose
reduced products cannot be summed lazily).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numtheory import CrtContext, generate_ntt_primes
from repro.numtheory.crt import crt_context

#: Prime chains by name; every product Q is well above 2**64.
CHAINS = {
    "20-bit": generate_ntt_primes(4, 20, 64),
    "30-bit": generate_ntt_primes(5, 30, 64),
    "33-bit": generate_ntt_primes(3, 33, 64),
    "30+36-bit": (generate_ntt_primes(1, 30, 64) + generate_ntt_primes(1, 36, 64)
                  + generate_ntt_primes(2, 29, 64)),
    "61-bit": generate_ntt_primes(6, 61, 64),
}
CONTEXTS = {name: CrtContext(moduli) for name, moduli in CHAINS.items()}


def _matrix(crt, values):
    return np.array([[value % q for value in values] for q in crt.moduli],
                    dtype=np.int64)


def _edge_values(crt):
    """Values at +-floor(Q/2), near +-2**63 and small ones, as a strategy."""
    half = crt.modulus_product // 2
    return st.one_of(
        st.integers(-half, half),
        st.integers(0, 3).map(lambda d: half - d),
        st.integers(0, 3).map(lambda d: d - half),
        st.integers(-3, 3).map(lambda d: (1 << 63) + d),
        st.integers(-3, 3).map(lambda d: d - (1 << 63)),
        st.integers(-(1 << 40), 1 << 40),
    )


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_compose_array_matches_the_scalar_oracle(chain):
    crt = CONTEXTS[chain]

    @given(st.lists(_edge_values(crt), min_size=1, max_size=24))
    @settings(max_examples=60, deadline=None)
    def check(values):
        matrix = _matrix(crt, values)
        columns = [[int(r) for r in matrix[:, i]] for i in range(len(values))]
        assert crt.compose_array(matrix) == values
        assert crt.compose_array(matrix) == [crt.compose_centered(c)
                                             for c in columns]
        assert crt.compose_array(matrix, centered=False) == [
            crt.compose(c) for c in columns]

    check()


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_uniform_residues_match_the_scalar_oracle(chain):
    crt = CONTEXTS[chain]
    rng = np.random.default_rng(5)
    matrix = np.stack([rng.integers(0, q, 64) for q in crt.moduli])
    columns = [[int(r) for r in matrix[:, i]] for i in range(64)]
    assert crt.compose_array(matrix) == [crt.compose_centered(c)
                                         for c in columns]
    assert crt.compose_array(matrix, centered=False) == [
        crt.compose(c) for c in columns]


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_int64_only_when_every_column_fits(chain):
    crt = CONTEXTS[chain]
    small = [-(1 << 40), -1, 0, 1, 12345, 1 << 40]
    values = crt.compose_values(_matrix(crt, small))
    assert values.dtype == np.int64 and values.tolist() == small

    # Every column falls back to exact object composition.
    half = crt.modulus_product // 2
    wide = [half, -half, (1 << 63) + 5, -(1 << 63) - 5, 1 << 64]
    values = crt.compose_values(_matrix(crt, wide))
    assert values.dtype == object and values.tolist() == wide
    assert all(type(value) is int for value in values.tolist())
    uncentred = crt.compose_values(_matrix(crt, wide), centered=False)
    assert uncentred.tolist() == [v % crt.modulus_product for v in wide]


def test_single_limb_and_empty_matrices():
    crt = CrtContext([97])
    assert crt.compose_array(np.array([[0, 1, 48, 49, 96]])) == [0, 1, 48, -48, -1]
    assert crt.compose_array(np.zeros((1, 0), dtype=np.int64)) == []


def test_contexts_are_memoised_per_moduli_tuple():
    moduli = CONTEXTS["30-bit"].moduli
    assert crt_context(tuple(moduli)) is crt_context(tuple(moduli))
