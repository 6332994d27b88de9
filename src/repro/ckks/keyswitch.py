"""Generalized key switching (paper Algorithm 1).

One key switch is the ``B = 1`` case of the fused implementation in
:mod:`repro.ckks.batched_keyswitch`; ``KeySwitcher`` names that class so
``KeySwitcher(context).switch(polynomial, key, level)`` reads as the
paper's single-operation form.
"""

from __future__ import annotations

from .batched_keyswitch import BatchedKeySwitcher

__all__ = ["KeySwitcher"]

KeySwitcher = BatchedKeySwitcher
