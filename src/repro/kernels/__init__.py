"""The fused C kernel tier for the stencil hot path (the default).

``kernel_tier="fused"`` routes the smoothing, advection, adaptation, and
vertical-diagnostic operators through single compiled C passes (built
with the system compiler, driven via ctypes) that reproduce the
reference tier bit for bit.  The reference implementations in
:mod:`repro.operators` stay the oracle and the fallback: without a C
compiler, or for a call outside C's coverage, they run instead.

See ``docs/kernels.md`` for the tier system, the atomic-stage
decomposition, and the exactness guarantees.
"""
from repro.kernels.cbackend import c_available
from repro.kernels.dispatch import TIERS, KernelSet, kernel_set
from repro.kernels.plans import (
    KernelPlan,
    clear_plan_cache,
    kernel_plan,
    plan_cache_stats,
    registered_plans,
)

__all__ = [
    "TIERS",
    "KernelPlan",
    "KernelSet",
    "c_available",
    "clear_plan_cache",
    "kernel_plan",
    "kernel_set",
    "plan_cache_stats",
    "registered_plans",
]
