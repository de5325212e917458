"""Atomic-stage decomposition of the stencil smoothers.

Following "Decomposition of stencil update formula into atomic stages"
(Wang 2016), each wide smoothing stencil is split into *atomic stages* —
the per-offset 4th-difference contributions and the scalar scale/combine
steps — which the C ``smooth_full`` kernel fuses into one pass with the
element-wise binary-operation sequence of
:meth:`repro.operators.smoothing.FieldSmoother.full_into`, so the fused
pass is bit-identical to the reference tier.

:func:`apply_stages_sequential` applies the same atomic stages one by one
(the unfused schedule); the property tests assert the fused C pass agrees
with it (and exactly with the reference) on every registered plan shape.
"""
from __future__ import annotations

import numpy as np

from repro.operators.smoothing import OFFSETS_FULL, FieldSmoother


def smoother_stages(sm: FieldSmoother) -> tuple[str, ...]:
    """Names of the atomic stages the fused smoothing pass merges."""
    stages = ["delta4_x", "axpy_x"]
    if sm.beta_y:
        stages += ["delta4_y", "axpy_y"]
    if sm.cross:
        stages += ["delta4_y_of_delta4_x", "axpy_cross"]
    return tuple(stages)


def apply_stages_sequential(sm: FieldSmoother, a: np.ndarray) -> np.ndarray:
    """The unfused schedule: sum the per-offset atomic stages one by one.

    Algebraically identical to :meth:`FieldSmoother.full`; floating-point
    reassociation across stages means agreement is to rounding, not bits
    (the fused pass, unlike this schedule, equals the reference bitwise).
    """
    return sm.partial(a, OFFSETS_FULL)
