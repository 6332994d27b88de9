"""Outside-in layer tracer for the end-to-end benchmark.

The library itself carries no spans, so this module wraps the public entry
points of each layer from the outside: :func:`LayerTracer.install` replaces
the listed methods on their classes with thin wrappers that open a span,
call the original and close the span, and :func:`LayerTracer.uninstall`
puts the originals back.  Nothing is wrapped while tracing is off, so the
untraced runs execute the unmodified library.

The benchmark is one thread, so at every instant exactly one piece of code
runs.  The tracer keeps the stack of layers that are executing right now
and charges the time since the last span boundary to the layer on top
(its *self time*), or to "unattributed" when no traced layer is running.
A layer's self time is therefore its span time minus the time of its
child spans, and the self times plus the unattributed time sum exactly to
the wall time of the traced window.  Coroutine methods (the serving
layer's ``submit`` and op methods) are driven one step at a time, so a
request that is parked on a future charges nothing while another task
runs.

Besides time, a layer counts *calls into it*: entries whose caller is a
different layer (a method of one layer calling another method of the same
layer is one call).  A few layers record a volume as well: the number of
limb transforms an NTT call performs, and the bytes of the arrays a
backend kernel reads and writes, computed from the array shapes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["LAYERS", "BACKEND_METHODS", "LayerTracer"]

#: (layer, module, class, methods) for every traced layer, outermost first.
LAYERS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("serving", "repro.serving.engine", "ServingEngine",
     ("submit", "submit_nowait", "add", "multiply", "multiply_plain",
      "rescale", "rotate", "conjugate", "bootstrap")),
    ("api", "repro.api.facade", "TensorFheContext",
     ("encode", "encrypt", "decrypt", "decrypt_real", "add", "subtract",
      "multiply", "multiply_plain", "add_plain", "rotate", "conjugate",
      "rescale", "inner_sum", "bootstrap", "add_many", "multiply_many",
      "multiply_plain_many", "rescale_many", "rotate_many",
      "conjugate_many", "bootstrap_many")),
    ("ckks.encoder", "repro.ckks.encoder", "CkksEncoder",
     ("encode", "decode")),
    ("ckks.encryptor", "repro.ckks.encryptor", "Encryptor",
     ("encode", "encrypt", "encrypt_plaintext", "encrypt_symmetric")),
    ("ckks.decryptor", "repro.ckks.decryptor", "Decryptor",
     ("decrypt", "decrypt_to_slots", "decrypt_real")),
    ("numtheory.crt", "repro.numtheory.crt", "CrtContext",
     ("compose_array",)),
    ("rns.integers", "repro.rns.poly", "RnsPolynomial",
     ("from_integers", "to_integers")),
    ("ckks.evaluator", "repro.ckks.evaluator", "Evaluator",
     ("drop_to_level", "align", "add", "subtract", "negate", "add_plain",
      "multiply_plain", "multiply", "multiply_and_rescale", "square",
      "rescale", "rotate", "conjugate", "rotate_and_sum")),
    ("ckks.evaluator", "repro.ckks.batched_evaluator", "BatchedEvaluator",
     ("add", "negate", "add_plain", "multiply_plain", "multiply",
      "multiply_and_rescale", "rescale", "rotate", "conjugate")),
    ("ckks.keyswitch", "repro.ckks.keyswitch", "KeySwitcher", ("switch",)),
    ("ckks.keyswitch", "repro.ckks.batched_keyswitch", "BatchedKeySwitcher",
     ("switch_many",)),
    ("rns.modup", "repro.rns.modup", "ModUp", ("apply", "apply_batch")),
    ("rns.moddown", "repro.rns.moddown", "ModDown", ("apply", "apply_batch")),
    ("rns.conv", "repro.rns.conv", "BasisConverter",
     ("convert", "convert_residues", "convert_residues_batch")),
    ("ckks.bootstrap", "repro.ckks.bootstrap.bootstrapper", "Bootstrapper",
     ("bootstrap", "bootstrap_many")),
    ("ckks.bootstrap.mod_raise", "repro.ckks.bootstrap.mod_raise", "ModRaise",
     ("apply", "apply_many")),
    ("ckks.bootstrap.coeff_to_slot", "repro.ckks.bootstrap.dft", "CoeffToSlot",
     ("apply", "apply_many")),
    ("ckks.bootstrap.eval_mod", "repro.ckks.bootstrap.sine_eval",
     "SineEvaluator",
     ("apply", "apply_pair", "apply_many", "apply_pair_many")),
    ("ckks.bootstrap.slot_to_coeff", "repro.ckks.bootstrap.dft", "SlotToCoeff",
     ("apply", "apply_many")),
    ("ntt", "repro.ntt.planner", "NttPlanner",
     ("forward_limbs", "inverse_limbs", "forward_ops", "inverse_ops")),
    ("numtheory.barrett", "repro.numtheory.floatmod", "BarrettChain",
     ("lazy_reduce", "canonical_reduce", "product_reduce")),
)

#: GEMM and element-wise kernels of the active ``ArrayBackend``.
BACKEND_METHODS: Tuple[str, ...] = (
    "matmul_limbs", "matmul", "matmul_rows", "hadamard_limbs", "hadamard",
    "mat_reduce", "mat_add", "mat_sub", "mat_neg", "mat_mul",
    "fmatmul", "fhadamard_limbs", "fadd_limbs", "fsub_limbs", "fneg_limbs",
    "fscalar_mul_limbs", "freduce_limbs",
    "matmul_limbs_native", "matmul_native", "matmul_rows_native",
    "hadamard_limbs_native", "hadamard_native", "mat_reduce_native",
    "mat_add_native", "mat_sub_native", "mat_neg_native", "mat_mul_native",
)

#: Every layer name, in report order.
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for layer, _, _, _ in LAYERS] + ["backend"]))

_BYTES_PER_ELEMENT = 8          # int64 residues and float64 images alike


def _limb_transforms(args: Sequence, kwargs: dict) -> int:
    """Limb NTTs one planner call performs: limbs, times B for ``*_ops``."""
    moduli, data = args[2], args[3]         # (planner, ring_degree, moduli, data)
    batch = data.shape[0] if len(data.shape) == 3 else 1
    return batch * len(moduli)


def _array_bytes(args: Sequence, kwargs: dict, result) -> int:
    """Bytes of every array operand and result, from their shapes."""
    total = 0
    for value in (*args, *kwargs.values(), result):
        shape = getattr(value, "shape", None)
        if isinstance(shape, tuple):
            total += math.prod(shape) * _BYTES_PER_ELEMENT
    return total


class LayerTracer:
    """Per-layer self time and call counts over one traced window."""

    def __init__(self) -> None:
        self._installed: List[Tuple[type, str, Optional[object]]] = []
        self._stack: List[str] = []
        self.reset()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Start a fresh window now."""
        if self._stack:
            raise RuntimeError("cannot reset the tracer inside a span")
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.inclusive_ns: Counter = Counter()
        self.volume: Counter = Counter()
        self.request_ns: List[int] = []
        self.unattributed_ns = 0
        self._start = self._last = time.perf_counter_ns()
        self.wall_ns = 0

    def stop(self) -> None:
        """Close the window; self times plus unattributed equal ``wall_ns``."""
        now = time.perf_counter_ns()
        self._charge(now)
        self.wall_ns = now - self._start

    def _charge(self, now: int) -> None:
        if self._stack:
            self.self_ns[self._stack[-1]] += now - self._last
        else:
            self.unattributed_ns += now - self._last
        self._last = now

    def _enter(self, layer: str, counted: bool = True) -> Tuple[bool, int]:
        now = time.perf_counter_ns()
        self._charge(now)
        stack = self._stack
        boundary = not stack or stack[-1] != layer
        if boundary and counted:
            self.calls[layer] += 1
        stack.append(layer)
        return boundary, now

    def _exit(self) -> int:
        now = time.perf_counter_ns()
        self._charge(now)
        self._stack.pop()
        return now

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap_sync(self, layer: str, function: Callable,
                   volume: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            boundary, start = tracer._enter(layer)
            try:
                result = function(*args, **kwargs)
                if boundary and volume is not None:
                    tracer.volume[layer] += volume(args, kwargs, result)
            finally:
                end = tracer._exit()
                if boundary:
                    tracer.inclusive_ns[layer] += end - start
            return result
        return traced

    def _wrap_async(self, layer: str, function: Callable) -> Callable:
        tracer = self

        @functools.wraps(function)
        async def traced(*args, **kwargs):
            return await _Stepped(tracer, layer, function(*args, **kwargs))
        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, backend_class: type) -> None:
        """Wrap every layer's entry points and the backend's kernels."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        volumes = {"ntt": lambda a, k, r: _limb_transforms(a, k),
                   "backend": _array_bytes}
        targets = [(layer, getattr(importlib.import_module(module), name),
                    methods) for layer, module, name, methods in LAYERS]
        targets.append(("backend", backend_class, BACKEND_METHODS))
        for layer, owner, methods in targets:
            for method in methods:
                self._patch(owner, method, layer, volumes.get(layer))

    def _patch(self, owner: type, method: str, layer: str,
               volume: Optional[Callable]) -> None:
        own = owner.__dict__.get(method)
        attribute = own if own is not None else getattr(owner, method)
        if isinstance(attribute, (classmethod, staticmethod)):
            kind, function = type(attribute), attribute.__func__
        else:
            kind, function = None, attribute
        if inspect.iscoroutinefunction(function):
            wrapped = self._wrap_async(layer, function)
        else:
            wrapped = self._wrap_sync(layer, function, volume)
        setattr(owner, method, kind(wrapped) if kind is not None else wrapped)
        self._installed.append((owner, method, own))

    def uninstall(self) -> None:
        """Restore every wrapped method (inherited ones become inherited again)."""
        while self._installed:
            owner, method, own = self._installed.pop()
            if own is None:
                delattr(owner, method)
            else:
                setattr(owner, method, own)

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------
    def layer_table(self, jobs: int) -> Dict[str, float]:
        """``<layer>.self_ms_per_job`` / ``.calls_per_job`` for every layer."""
        table: Dict[str, float] = {}
        for layer in LAYER_NAMES:
            table[layer + ".self_ms_per_job"] = self.self_ns[layer] / 1e6 / jobs
            table[layer + ".calls_per_job"] = self.calls[layer] / jobs
        return table

    def attributed_ns(self) -> int:
        return sum(self.self_ns.values())


class _Stepped:
    """Drive a coroutine step by step inside the tracer's span.

    Each resumption of the coroutine is one span step: the layer is on the
    stack only while the coroutine body runs, never while it is parked on
    a future and other tasks have the thread.  The request latency (first
    step to completion) is recorded for calls that enter the layer.
    """

    __slots__ = ("_tracer", "_layer", "_coroutine")

    def __init__(self, tracer: LayerTracer, layer: str, coroutine) -> None:
        self._tracer, self._layer, self._coroutine = tracer, layer, coroutine

    def __await__(self):
        tracer, layer = self._tracer, self._layer
        inner = self._coroutine.__await__()
        resume, value = inner.send, None
        first, boundary, started = True, False, 0
        while True:
            entered, now = tracer._enter(layer, counted=first)
            if first:
                first, boundary, started = False, entered, now
            try:
                signal = resume(value)
            except StopIteration as stop:
                end = tracer._exit()
                if boundary:
                    tracer.request_ns.append(end - started)
                return stop.value
            except BaseException:
                tracer._exit()
                raise
            tracer._exit()
            try:
                value, resume = (yield signal), inner.send
            except BaseException as exc:        # cancellation and throws
                value, resume = exc, inner.throw
