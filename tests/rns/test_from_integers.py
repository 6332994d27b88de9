"""``RnsPolynomial.from_integers``: ndarray fast paths vs the list path.

Integer and float ndarrays below 2**63 reduce in one int64 broadcast;
object arrays and values beyond int64 take the exact object path.  Every
path must give the residues the plain list of Python ints gives.  The
encoder hands int64 arrays to this boundary whenever its coefficients fit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import CkksParameters
from repro.ckks.encoder import CkksEncoder
from repro.numtheory import generate_ntt_primes
from repro.rns.poly import RnsPolynomial

RING_DEGREE = 16
MODULI = {bits: tuple(generate_ntt_primes(3, bits, RING_DEGREE))
          for bits in (20, 30, 33)}

_int64 = st.integers(-(1 << 63), (1 << 63) - 1)


def _residues(coefficients, moduli):
    return RnsPolynomial.from_integers(coefficients, moduli).residues


def _list_path(values, moduli):
    """The list path's residues, checked against Python's own ``%``."""
    ints = [int(v) for v in values]
    residues = _residues(ints, moduli)
    np.testing.assert_array_equal(
        residues, [[value % q for value in ints] for q in moduli])
    return residues


@pytest.mark.parametrize("bits", sorted(MODULI))
@given(values=st.lists(_int64, min_size=RING_DEGREE, max_size=RING_DEGREE))
@settings(max_examples=40, deadline=None)
def test_int64_and_object_arrays_match_the_list_path(bits, values):
    moduli = MODULI[bits]
    expected = _list_path(values, moduli)
    for array in (np.asarray(values, dtype=np.int64),
                  np.asarray(values, dtype=object)):
        np.testing.assert_array_equal(_residues(array, moduli), expected)


@pytest.mark.parametrize("bits", sorted(MODULI))
@given(values=st.lists(st.integers(-(1 << 62), 1 << 62),
                       min_size=RING_DEGREE, max_size=RING_DEGREE))
@settings(max_examples=40, deadline=None)
def test_integral_float_arrays_match_the_list_path(bits, values):
    moduli = MODULI[bits]
    floats = np.asarray(values, dtype=np.float64)       # rounds, then exact
    np.testing.assert_array_equal(_residues(floats, moduli),
                                  _list_path(floats.tolist(), moduli))


@pytest.mark.parametrize("bits", sorted(MODULI))
@given(values=st.lists(st.integers(-(1 << 90), 1 << 90),
                       min_size=RING_DEGREE, max_size=RING_DEGREE))
@settings(max_examples=40, deadline=None)
def test_values_beyond_int64_match_the_list_path(bits, values):
    moduli = MODULI[bits]
    values[0] = (1 << 63) + 7                  # at least one wide value
    expected = _list_path(values, moduli)
    np.testing.assert_array_equal(
        _residues(np.asarray(values, dtype=object), moduli), expected)
    wide_floats = np.asarray(values, dtype=np.float64)
    np.testing.assert_array_equal(_residues(wide_floats, moduli),
                                  _list_path(wide_floats.tolist(), moduli))


def test_unsigned_arrays_above_int64_take_the_exact_path():
    moduli = MODULI[30]
    values = np.array([(1 << 64) - 1, 1 << 63, 5] + [0] * (RING_DEGREE - 3),
                      dtype=np.uint64)
    np.testing.assert_array_equal(_residues(values, moduli),
                                  _list_path(values.tolist(), moduli))


def test_encode_returns_int64_when_coefficients_fit():
    parameters = CkksParameters(ring_degree=RING_DEGREE, level_count=2)
    encoder = CkksEncoder(parameters)
    values = np.linspace(-1.0, 1.0, parameters.slot_count)
    assert encoder.encode(values).dtype == np.int64
    wide = encoder.encode(values, scale=2.0 ** 80)
    assert wide.dtype == object
    np.testing.assert_array_equal(_residues(wide, MODULI[30]),
                                  _list_path(wide.tolist(), MODULI[30]))
