"""Golden digests: every CKKS op, key switch and the bootstrap, pinned.

Each probe runs one operation over ``STREAMS`` seeded input streams and
reduces the outputs to a SHA-256 digest of their residues, moduli,
domains, scales and levels, next to the ``KernelCounter`` invocation and
limb-vector counts of the whole run.  The expected values below are
literals, so they outlive any code path they were taken from: the scalar
API (one call per stream, B=1) and the fused ``_many`` API (chunks of
B=2 and B=8) must all reproduce them exactly, on every compute backend.

The table was generated once, at commit 426842a, from the scalar API of
that commit (the sequential ``Evaluator`` / ``KeySwitcher`` /
``Bootstrapper.bootstrap`` implementation), with::

    PYTHONPATH=src:tests/ckks python -c "import pprint, test_golden as g; \\
        pprint.pprint(g.measure_table(batch=1), width=70)"

(the output indented under ``GOLDEN = ``).  The client-boundary rows,
``decrypt`` (the float64 bytes of the decrypted slots) and
``encrypt_symmetric``, were added at commit 03c33b9 with the same
command; every older row reproduced unchanged there.  The ``bootstrap``
row's NTT and INTT counts were regenerated with the same command when
the BSGS transforms moved their diagonal sums into the evaluation domain
(one forward transform per baby step, one inverse per giant step); every
digest and every other count reproduced unchanged.

Each case builds its own freshly seeded context, keys and inputs, so the
digests depend on nothing but the parameters and seeds below.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.api import TensorFheContext
from repro.ckks import CkksParameters
from repro.ckks.batched_keyswitch import BatchedKeySwitcher
from repro.ckks.bootstrap import BootstrapConfig
from repro.ckks.ciphertext import Ciphertext
from repro.ckks.keyswitch import KeySwitcher

#: Input streams per probe; B=2 and B=8 both divide it.
STREAMS = 8
BATCHES = (1, 2, 8)


# ----------------------------------------------------------------------
# Cases: a seeded context plus its input streams
# ----------------------------------------------------------------------
@dataclass
class Case:
    fhe: TensorFheContext
    lhs: List[Ciphertext]
    rhs: List[Ciphertext]
    plains: list
    exhausted: List[Ciphertext]


def _toy_case() -> Case:
    """The N=64, 3-level ``toy`` parameters."""
    parameters = CkksParameters(ring_degree=1 << 6, level_count=3, dnum=3,
                                secret_hamming_weight=8, name="toy")
    fhe = TensorFheContext(parameters, seed=101,
                           rotation_steps=(1, 2, 4, 8, 16))
    return _inputs(fhe, seed=11)


def _bootstrap_case() -> Case:
    """The ``bootstrap_fhe`` fixture's parameters and bootstrap config."""
    parameters = CkksParameters(ring_degree=1 << 6, level_count=8, dnum=4,
                                secret_hamming_weight=8,
                                name="bootstrap-facade")
    fhe = TensorFheContext(parameters, seed=505,
                           bootstrap_config=BootstrapConfig(
                               taylor_degree=3, double_angle_iterations=1))
    fhe.ensure_rotation_keys(fhe.bootstrapper.required_rotation_steps())
    return _inputs(fhe, seed=55)


def _inputs(fhe: TensorFheContext, seed: int) -> Case:
    rng = np.random.default_rng(seed)
    slots = fhe.slot_count

    def vector(bound: float = 1.0) -> np.ndarray:
        return rng.uniform(-bound, bound, slots)

    lhs = [fhe.encrypt(vector()) for _ in range(STREAMS)]
    rhs = [fhe.encrypt(vector()) for _ in range(STREAMS)]
    plains = [fhe.encode(vector()) for _ in range(STREAMS)]
    exhausted = [fhe.evaluator.drop_to_level(fhe.encrypt(vector(0.05)), 0)
                 for _ in range(STREAMS)]
    return Case(fhe, lhs, rhs, plains, exhausted)


# ----------------------------------------------------------------------
# Probes: per-stream operands, the scalar call and the fused call
# ----------------------------------------------------------------------
@dataclass
class Probe:
    operands: List[Tuple]                 # one operand tuple per stream
    scalar: Callable                      # scalar(*operands[i]) -> output
    many: Optional[Callable]              # many(*columns) -> outputs


def _lower(case: Case, streams: Sequence[Ciphertext]) -> List[Ciphertext]:
    return [case.fhe.evaluator.drop_to_level(ct, ct.level - 1)
            for ct in streams]


def _evaluator_probe(method: str, columns: Callable, *extra,
                     fused: bool = True) -> Callable:
    """``method`` on ``Evaluator`` and (if ``fused``) ``BatchedEvaluator``.

    ``columns`` picks the per-position operand lists from the case;
    ``extra`` trails every call (callables are resolved against the
    context, for the key material).
    """
    def build(case: Case) -> Probe:
        fhe = case.fhe
        resolved = [e(fhe) if callable(e) else e for e in extra]

        def call(evaluator):
            return lambda *args: getattr(evaluator, method)(*args, *resolved)
        return Probe(list(zip(*columns(case))), call(fhe.evaluator),
                     call(fhe.batched_evaluator) if fused else None)
    build.fused = fused
    return build


def _relin(fhe):
    return fhe.relinearization_key


def _rotation_keys(fhe):
    return fhe.rotation_keys


def _switch_probe(level: int) -> Callable:
    """``KeySwitcher.switch`` of each stream's c1 at ``level``."""
    def build(case: Case) -> Probe:
        fhe = case.fhe
        polys = [fhe.evaluator.drop_to_level(ct, level).c1 for ct in case.lhs]
        key = fhe.relinearization_key
        scalar = KeySwitcher(fhe.context)
        fused = BatchedKeySwitcher(fhe.context)
        return Probe([(poly,) for poly in polys],
                     lambda poly: scalar.switch(poly, key, level),
                     lambda batch: fused.switch_many(batch, key, level))
    return build


def _bootstrap_probe(case: Case) -> Probe:
    fhe = case.fhe
    refresh = fhe.bootstrapper
    keys = (fhe.encryptor, fhe.relinearization_key, fhe.rotation_keys)
    return Probe([(ct,) for ct in case.exhausted],
                 lambda ct: refresh.bootstrap(ct, fhe.evaluator, *keys),
                 lambda cts: refresh.bootstrap_many(
                     cts, fhe.batched_evaluator, *keys))


def _decrypt_probe(case: Case) -> Probe:
    """``decrypt_to_slots`` of each ``lhs`` stream and of its product."""
    fhe = case.fhe
    products = [fhe.evaluator.multiply(lhs, rhs, fhe.relinearization_key)
                for lhs, rhs in zip(case.lhs, case.rhs)]
    return Probe(list(zip(case.lhs, products)),
                 lambda ct, product: np.concatenate(
                     [fhe.decrypt(ct), fhe.decrypt(product)]),
                 None)


def _encrypt_symmetric_probe(case: Case) -> Probe:
    """``Encryptor.encrypt_symmetric`` of ``STREAMS`` seeded slot vectors."""
    fhe = case.fhe
    rng = np.random.default_rng(77)
    vectors = [rng.uniform(-1.0, 1.0, fhe.slot_count) for _ in range(STREAMS)]
    # A fresh sampler, so the digest does not depend on which probes ran
    # first against the shared case.
    fhe.context.rng = np.random.default_rng(77)
    return Probe([(vector,) for vector in vectors],
                 fhe.encryptor.encrypt_symmetric, None)


# The client boundary has no fused twin.
_decrypt_probe.fused = _encrypt_symmetric_probe.fused = False
_CLIENT = {"decrypt": _decrypt_probe,
           "encrypt_symmetric": _encrypt_symmetric_probe}

_OPS = {
    "add": _evaluator_probe("add", lambda c: (c.lhs, c.rhs)),
    "add_mixed_level": _evaluator_probe(
        "add", lambda c: (c.lhs, _lower(c, c.rhs))),
    "subtract": _evaluator_probe("subtract", lambda c: (c.lhs, c.rhs)),
    "negate": _evaluator_probe("negate", lambda c: (c.lhs,)),
    "add_plain": _evaluator_probe("add_plain", lambda c: (c.lhs, c.plains)),
    "multiply_plain": _evaluator_probe(
        "multiply_plain", lambda c: (c.lhs, c.plains)),
    "multiply_plain_lower_level": _evaluator_probe(
        "multiply_plain", lambda c: (_lower(c, c.lhs), c.plains)),
    "multiply": _evaluator_probe("multiply", lambda c: (c.lhs, c.rhs), _relin),
    "multiply_and_rescale": _evaluator_probe(
        "multiply_and_rescale", lambda c: (c.lhs, c.rhs), _relin),
    "rescale": _evaluator_probe("rescale", lambda c: (c.lhs,)),
    "rotate": _evaluator_probe("rotate", lambda c: (c.lhs,), 1, _rotation_keys),
    "rotate_by_4": _evaluator_probe(
        "rotate", lambda c: (c.lhs,), 4, _rotation_keys),
    "conjugate": _evaluator_probe(
        "conjugate", lambda c: (c.lhs,), _rotation_keys),
    # A composition of scalar rotate and add; it has no fused twin.
    "rotate_and_sum": _evaluator_probe(
        "rotate_and_sum", lambda c: (c.lhs,), _rotation_keys, fused=False),
}

CASES: Dict[str, Callable[[], Case]] = {
    "toy": _toy_case,
    "bootstrap": _bootstrap_case,
}
PROBES: Dict[str, Dict[str, Callable[[Case], Probe]]] = {
    "toy": {**_OPS, **{"switch@%d" % level: _switch_probe(level)
                       for level in range(3)}, **_CLIENT},
    "bootstrap": {**{"switch@%d" % level: _switch_probe(level)
                     for level in range(8)},
                  "bootstrap": _bootstrap_probe, **_CLIENT},
}


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def digest(outputs: Sequence) -> str:
    """SHA-256 of residues, moduli, domains, scales and levels, in order.

    Decrypted slot vectors contribute the bytes of their float64 parts.
    """
    sha = hashlib.sha256()
    for output in outputs:
        if isinstance(output, np.ndarray):
            sha.update(np.ascontiguousarray(output, dtype="<c16").tobytes())
            continue
        if isinstance(output, Ciphertext):
            sha.update(repr((float(output.scale).hex(), output.level)).encode())
            polys = (output.c0, output.c1)
        else:                                   # a key-switched (c0, c1) pair
            polys = output
        for poly in polys:
            sha.update(repr((tuple(poly.moduli), poly.domain)).encode())
            sha.update(np.ascontiguousarray(poly.residues, dtype="<i8").tobytes())
    return sha.hexdigest()


def measure(case: Case, build: Callable[[Case], Probe], batch: int) -> Tuple:
    """``(digest, invocations, limb_vectors)`` of one probe at batch ``batch``."""
    probe = build(case)
    kernels = case.fhe.context.kernels
    with kernels.capture() as counts:
        if batch == 1:
            outputs = [probe.scalar(*operands) for operands in probe.operands]
        else:
            outputs = []
            for start in range(0, STREAMS, batch):
                chunk = probe.operands[start:start + batch]
                outputs.extend(probe.many(*(list(column)
                                            for column in zip(*chunk))))
    assert len(outputs) == STREAMS
    return (digest(outputs), dict(sorted(counts.invocations.items())),
            dict(sorted(counts.limb_vectors.items())))


def measure_table(batch: int = 1) -> Dict[str, Dict[str, Tuple]]:
    """Every probe of every case at ``batch`` (the one-off generator)."""
    table = {}
    for name, make in CASES.items():
        case = make()
        table[name] = {probe: measure(case, build, batch)
                       for probe, build in PROBES[name].items()}
    return table


# ----------------------------------------------------------------------
# The pinned table (generated at 426842a and 03c33b9; see the docstring)
# ----------------------------------------------------------------------
GOLDEN = {'bootstrap': {'bootstrap': ('13ac5d46bc97ebd03f05ad0fbb33a32720d2e3743b7ece24fd2337c7961a0826',
                                      {'Conjugate': 16,
                                       'Conv': 2200,
                                       'Ele-Add': 7128,
                                       'Ele-Sub': 352,
                                       'FrobeniusMap': 960,
                                       'Hada-Mult': 6752,
                                       'INTT': 1808,
                                       'NTT': 2864},
                                      {'Conjugate': 128,
                                       'Conv': 18384,
                                       'Ele-Add': 52704,
                                       'Ele-Sub': 1568,
                                       'FrobeniusMap': 5760,
                                       'Hada-Mult': 50656,
                                       'INTT': 12752,
                                       'NTT': 22064}),
                        'decrypt': ('0f528ab99af9d27b08e7dc5eee45b5f98488bba8d14b21278780597fdf283939',
                                    {},
                                    {}),
                        'encrypt_symmetric': ('6cc876c49557c4eb943099c74543e6ebcbb67d3aef310347bc64ac00d2436707',
                                              {},
                                              {}),
                        'switch@0': ('9d2a8664325c781219fe5a3c2c2d4debd67d98a2099e5caefc20a4c20f577854',
                                     {'Conv': 16,
                                      'Ele-Add': 16,
                                      'Hada-Mult': 16,
                                      'INTT': 16,
                                      'NTT': 8},
                                     {'Conv': 32,
                                      'Ele-Add': 48,
                                      'Hada-Mult': 48,
                                      'INTT': 48,
                                      'NTT': 24}),
                        'switch@1': ('0794658878b5d15f81e951e71b1988d2073bec167fb9c2b82f91c3618b382a1b',
                                     {'Conv': 16,
                                      'Ele-Add': 16,
                                      'Hada-Mult': 16,
                                      'INTT': 16,
                                      'NTT': 8},
                                     {'Conv': 48,
                                      'Ele-Add': 64,
                                      'Hada-Mult': 64,
                                      'INTT': 64,
                                      'NTT': 32}),
                        'switch@2': ('4da946191ef0fa6b2f4b3e153171a6b235bc3623a9b18652cda27e6623e1e7f5',
                                     {'Conv': 24,
                                      'Ele-Add': 32,
                                      'Hada-Mult': 32,
                                      'INTT': 16,
                                      'NTT': 16},
                                     {'Conv': 104,
                                      'Ele-Add': 160,
                                      'Hada-Mult': 160,
                                      'INTT': 80,
                                      'NTT': 80}),
                        'switch@3': ('01a7124fbb3be0ccc9f0da10bbf6cd8e7a9cc94da376ebec58d46c66a6bb6c6a',
                                     {'Conv': 24,
                                      'Ele-Add': 32,
                                      'Hada-Mult': 32,
                                      'INTT': 16,
                                      'NTT': 16},
                                     {'Conv': 128,
                                      'Ele-Add': 192,
                                      'Hada-Mult': 192,
                                      'INTT': 96,
                                      'NTT': 96}),
                        'switch@4': ('83249ac622a1721f3a7f07e06d86acc45d4853dfecbc63a01b5760a32d40593c',
                                     {'Conv': 32,
                                      'Ele-Add': 48,
                                      'Hada-Mult': 48,
                                      'INTT': 16,
                                      'NTT': 24},
                                     {'Conv': 208,
                                      'Ele-Add': 336,
                                      'Hada-Mult': 336,
                                      'INTT': 112,
                                      'NTT': 168}),
                        'switch@5': ('b2f5c448c66709522c01e0eab80d755f6d683b91f44fb3e63318b652706f0eec',
                                     {'Conv': 32,
                                      'Ele-Add': 48,
                                      'Hada-Mult': 48,
                                      'INTT': 16,
                                      'NTT': 24},
                                     {'Conv': 240,
                                      'Ele-Add': 384,
                                      'Hada-Mult': 384,
                                      'INTT': 128,
                                      'NTT': 192}),
                        'switch@6': ('0463fd56bd488adadd57a7e28c4bbba66d6f2b6701b83fabef481ac0b87d619b',
                                     {'Conv': 40,
                                      'Ele-Add': 64,
                                      'Hada-Mult': 64,
                                      'INTT': 16,
                                      'NTT': 32},
                                     {'Conv': 344,
                                      'Ele-Add': 576,
                                      'Hada-Mult': 576,
                                      'INTT': 144,
                                      'NTT': 288}),
                        'switch@7': ('e2b98b18a77a16b9cdba36b864357904520535f4f085c18ca7370586f3169b89',
                                     {'Conv': 40,
                                      'Ele-Add': 64,
                                      'Hada-Mult': 64,
                                      'INTT': 16,
                                      'NTT': 32},
                                     {'Conv': 384,
                                      'Ele-Add': 640,
                                      'Hada-Mult': 640,
                                      'INTT': 160,
                                      'NTT': 320})},
          'toy': {'add': ('a18d78bd9a853d76de277b71ae23a2b6f053f109c8267fd467b3ec5ff1823ae6',
                          {'Ele-Add': 16},
                          {'Ele-Add': 48}),
                  'add_mixed_level': ('b334d59b19d0f53de61ca1e881e87580cec617c0d2a2b2cf2b7c2ea9a8dfeed5',
                                      {'Ele-Add': 16},
                                      {'Ele-Add': 32}),
                  'add_plain': ('1206adefddfcfd39fac2ff1f44c12ea632941fc38bd6b7016870597321b0264f',
                                {'Ele-Add': 8},
                                {'Ele-Add': 24}),
                  'conjugate': ('ed2ba615381c15d0312126dfc7d069201d20e8be2d4f5d41d2b8962a5475641a',
                                {'Conjugate': 16,
                                 'Conv': 32,
                                 'Ele-Add': 56,
                                 'Hada-Mult': 48,
                                 'INTT': 16,
                                 'NTT': 24},
                                {'Conjugate': 48,
                                 'Conv': 120,
                                 'Ele-Add': 216,
                                 'Hada-Mult': 192,
                                 'INTT': 64,
                                 'NTT': 96}),
                  'decrypt': ('82c74cea2caf8953e06d793f88fab8bec58030ef0df97e120b3987cdfea0689a',
                              {},
                              {}),
                  'encrypt_symmetric': ('a27003b6fbc0f3f7d8f776dcb902c3117d1e2ab81b91d251faabc2e1b1e1932f',
                                        {},
                                        {}),
                  'multiply': ('d9b060991e13058fce3e216cddf2d993a7c99e5c815d9e7dc264bb63a97a00fb',
                               {'Conv': 32,
                                'Ele-Add': 72,
                                'Hada-Mult': 80,
                                'INTT': 40,
                                'NTT': 56},
                               {'Conv': 120,
                                'Ele-Add': 264,
                                'Hada-Mult': 288,
                                'INTT': 136,
                                'NTT': 192}),
                  'multiply_and_rescale': ('49970f46a09a58bafa05ca6b8aeea50baa258b104fae4ddc0099516a87bc1662',
                                           {'Conv': 32,
                                            'Ele-Add': 72,
                                            'Ele-Sub': 16,
                                            'Hada-Mult': 80,
                                            'INTT': 40,
                                            'NTT': 56},
                                           {'Conv': 120,
                                            'Ele-Add': 264,
                                            'Ele-Sub': 32,
                                            'Hada-Mult': 288,
                                            'INTT': 136,
                                            'NTT': 192}),
                  'multiply_plain': ('3065c07be81b9bbc9e7261655e844972f11eea2ffcb6baeb1f1e4cc276724275',
                                     {'Hada-Mult': 16, 'INTT': 16, 'NTT': 24},
                                     {'Hada-Mult': 48, 'INTT': 48, 'NTT': 72}),
                  'multiply_plain_lower_level': ('f8da9de87694ff0c90286e5fd05d3af972f3771c17bc2ad0833dca2dd4c28da8',
                                                 {'Hada-Mult': 16,
                                                  'INTT': 16,
                                                  'NTT': 24},
                                                 {'Hada-Mult': 32,
                                                  'INTT': 32,
                                                  'NTT': 48}),
                  'negate': ('04dc266768f2476a546b31e1f577004c090e3dd6d7dd87d41bf6ee7e62516a57',
                             {},
                             {}),
                  'rescale': ('67eba5d152710c7c948ef733acf2369d368ce7ad9d90b976f1492e6b4f0bf41a',
                              {'Ele-Sub': 16},
                              {'Ele-Sub': 32}),
                  'rotate': ('8d43e4fdea33961aa36a1d734f7d65fb4f5717fd595ac55c7109d2ec8137ea54',
                             {'Conv': 32,
                              'Ele-Add': 56,
                              'FrobeniusMap': 16,
                              'Hada-Mult': 48,
                              'INTT': 16,
                              'NTT': 24},
                             {'Conv': 120,
                              'Ele-Add': 216,
                              'FrobeniusMap': 48,
                              'Hada-Mult': 192,
                              'INTT': 64,
                              'NTT': 96}),
                  'rotate_and_sum': ('8804642b411215baa0295cdbab9e13ce5fe65c7286dedaaa75da4db7fc4e01c8',
                                     {'Conv': 160,
                                      'Ele-Add': 360,
                                      'FrobeniusMap': 80,
                                      'Hada-Mult': 240,
                                      'INTT': 80,
                                      'NTT': 120},
                                     {'Conv': 600,
                                      'Ele-Add': 1320,
                                      'FrobeniusMap': 240,
                                      'Hada-Mult': 960,
                                      'INTT': 320,
                                      'NTT': 480}),
                  'rotate_by_4': ('d20847e8ee83e6e522e02814e41e212efc7cdaf2787a4e95072e4e911a6f82f4',
                                  {'Conv': 32,
                                   'Ele-Add': 56,
                                   'FrobeniusMap': 16,
                                   'Hada-Mult': 48,
                                   'INTT': 16,
                                   'NTT': 24},
                                  {'Conv': 120,
                                   'Ele-Add': 216,
                                   'FrobeniusMap': 48,
                                   'Hada-Mult': 192,
                                   'INTT': 64,
                                   'NTT': 96}),
                  'subtract': ('a790587b3c7565e19f3e3d078924275bcf9efe95f156dca14daf5284a9c6249f',
                               {'Ele-Sub': 16},
                               {'Ele-Sub': 48}),
                  'switch@0': ('4da10fdd6f5b589f642cdaa5ce2d9aa1fe944a754a71d715c2ae3285d192faf5',
                               {'Conv': 16,
                                'Ele-Add': 16,
                                'Hada-Mult': 16,
                                'INTT': 16,
                                'NTT': 8},
                               {'Conv': 24,
                                'Ele-Add': 32,
                                'Hada-Mult': 32,
                                'INTT': 32,
                                'NTT': 16}),
                  'switch@1': ('db55bbe6d88c9cb8098ee85558b213aba0ccf91c9f50d1c9d0e1ffe36e288ba9',
                               {'Conv': 24,
                                'Ele-Add': 32,
                                'Hada-Mult': 32,
                                'INTT': 16,
                                'NTT': 16},
                               {'Conv': 64,
                                'Ele-Add': 96,
                                'Hada-Mult': 96,
                                'INTT': 48,
                                'NTT': 48}),
                  'switch@2': ('b9d93c617b06b04cf334a16abf4fd0827195290a7e2ef2a6e1419693ae404545',
                               {'Conv': 32,
                                'Ele-Add': 48,
                                'Hada-Mult': 48,
                                'INTT': 16,
                                'NTT': 24},
                               {'Conv': 120,
                                'Ele-Add': 192,
                                'Hada-Mult': 192,
                                'INTT': 64,
                                'NTT': 96})}}


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
_CASE_CACHE: Dict[str, Case] = {}


def _case(name: str) -> Case:
    """Each case's context and inputs, built once for this module."""
    if name not in _CASE_CACHE:
        _CASE_CACHE[name] = CASES[name]()
    return _CASE_CACHE[name]


def test_every_probe_is_pinned():
    assert {name: sorted(table) for name, table in GOLDEN.items()} == \
        {name: sorted(probes) for name, probes in PROBES.items()}


@pytest.mark.parametrize("name,probe,batch", [
    (name, probe, batch)
    for name, probes in PROBES.items() for probe, build in probes.items()
    for batch in BATCHES if batch == 1 or getattr(build, "fused", True)])
def test_matches_golden(name, probe, batch):
    assert measure(_case(name), PROBES[name][probe], batch) \
        == GOLDEN[name][probe]
