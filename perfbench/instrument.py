"""Layer spans recorded from the benchmark's side, and the self-time ledger.

:func:`instrumented` wraps the public functions of each layer of
``repro`` with a span of category :data:`CAT`, recorded through
:mod:`repro.obs.spans`.  Nothing under ``src/`` changes: the wrappers are
installed on the classes and module globals of an imported ``repro`` and
removed again on exit.  Install them *before* forking rank or serve
worker processes; a forked child inherits them, records its spans while
a tracer is active there, and the launcher (or the serve worker) ships
the spans back to the parent.

Each span carries a small ``args`` dict filled in after the call:
``bytes`` (message or checkpoint payload, or the computed bytes of an
operator: every array of its state/diagnostics arguments and result)
and ``points`` (the 3-D points of the operator's state argument, ghosts
included, or of each 3-D field the per-field smoother reads).  Both are
computed from array sizes, not measured traffic.

A span's *self time* is its duration minus the time covered by its
child spans of the same category on the same thread; a layer's *count*
is the number of its spans not nested inside another span of the same
layer (so ``allgather_obj -> allgather`` counts one collective).
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

CAT = "perfbench"

#: the layers of the per-step ledger, reported as ``<name>_ms``
STEP_LAYERS = (
    "op.C", "op.A", "op.L", "op.F", "op.S", "op.ghost",
    "halo.start", "halo.finish", "halo.pole",
    "simmpi.send", "simmpi.wait", "simmpi.coll",
)

#: collective entry points of :class:`repro.simmpi.comm.SubComm`
_COLLECTIVES = (
    "allreduce", "reduce", "bcast", "allgather", "allgather_obj",
    "gather", "scatter", "alltoall", "exscan", "barrier",
)


def _arrays(obj):
    """The ndarrays held by a state/diagnostics object (or the array)."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            v for v in vars(obj).values() if isinstance(v, np.ndarray)
        ]
    return []


def _operator_volume(args, result) -> dict:
    """Computed bytes and points of one operator call."""
    arrays = [a for x in (*args, result) for a in _arrays(x)]
    state = next((x for x in args if hasattr(x, "Phi")), None)
    return {
        "bytes": sum(a.nbytes for a in arrays),
        "points": int(state.Phi.size) if state is not None else 0,
    }


def _field_volume(args, result) -> dict:
    """Bytes and (3-D) points of one per-field smoother call."""
    a = args[1]
    return {
        "bytes": a.nbytes + result.nbytes,
        "points": int(a.size) if a.ndim == 3 else 0,
    }


def _send_volume(args, result) -> dict:
    # SimComm.send(self, dest, array, tag)
    return {"bytes": int(np.asarray(args[2]).nbytes)}


def _checkpoint_volume(args, result) -> dict:
    # save_state(path, state, step)
    return {"bytes": sum(a.nbytes for a in _arrays(args[1]))}


#: (span name, module, attribute path, volume function or None)
SITES = (
    ("op.C", "repro.core.tendencies", "TendencyEngine.vertical",
     _operator_volume),
    ("op.A", "repro.core.tendencies", "TendencyEngine.adaptation",
     _operator_volume),
    ("op.L", "repro.core.tendencies", "TendencyEngine.advection",
     _operator_volume),
    ("op.F", "repro.core.tendencies", "TendencyEngine.apply_filter",
     _operator_volume),
    ("op.ghost", "repro.core.tendencies",
     "TendencyEngine.fill_physical_ghosts", None),
    # smoothing: the state-level entry point of the serial and original
    # cores, and the per-field smoother CA's split smoothing calls directly
    ("op.S", "repro.operators.smoothing", "smooth_state_into", None),
    ("op.S", "repro.operators.smoothing", "FieldSmoother.full",
     _field_volume),
    ("op.S", "repro.operators.smoothing", "FieldSmoother.full_into",
     _field_volume),
    ("op.S", "repro.operators.smoothing", "FieldSmoother.partial",
     _field_volume),
    # HaloExchanger.exchange is start + finish, so those two cover it
    ("halo.start", "repro.core.halo", "HaloExchanger.start", None),
    ("halo.finish", "repro.core.halo", "HaloExchanger.finish", None),
    ("halo.pole", "repro.core.halo", "AntipodalPoleExchanger.fill", None),
    ("simmpi.send", "repro.simmpi.comm", "SimComm.send", _send_volume),
    ("simmpi.wait", "repro.simmpi.comm", "Request.wait", None),
    *(
        ("simmpi.coll", "repro.simmpi.comm", f"SubComm.{name}", None)
        for name in _COLLECTIVES
    ),
    ("launch.spmd", "repro.simmpi.launcher", "run_spmd", None),
    ("launch.rank", "repro.core.comm_avoiding", "ca_rank_program", None),
    ("launch.rank", "repro.core.distributed", "original_rank_program", None),
    ("launch.scatter", "repro.grid.decomposition", "Decomposition.scatter",
     None),
    ("launch.gather", "repro.grid.decomposition", "Decomposition.gather",
     None),
    # the resilient driver runs every chunk through DynamicalCore._run_once
    ("resilience.chunk", "repro.core.driver", "DynamicalCore._run_once",
     None),
    ("io.checkpoint", "repro.state.io", "save_state", _checkpoint_volume),
    ("serve.exec", "repro.serve.worker", "execute_job", None),
)


def _wrap(fn, name: str, volume):
    from repro.obs.spans import span

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        extra: dict = {}
        with span(name, CAT, extra):
            result = fn(*args, **kwargs)
            if volume is not None:
                extra.update(volume(args, result))
        return result

    return wrapped


@contextmanager
def instrumented():
    """Install the layer wrappers for the duration of the block.

    Module-level functions are replaced in every loaded ``repro`` module
    that bound them by name (``from x import f``), so call sites see the
    wrapper whichever way they imported it.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for name, modname, path, volume in SITES:
            module = importlib.import_module(modname)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                orig = owner.__dict__[attr]
                undo.append((owner, attr, orig))
                setattr(owner, attr, _wrap(orig, name, volume))
                continue
            orig = getattr(module, attr)
            wrapped = _wrap(orig, name, volume)
            for mod in list(sys.modules.values()):
                modname_ = getattr(mod, "__name__", "")
                if not modname_.startswith("repro"):
                    continue
                if getattr(mod, attr, None) is orig:
                    undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        yield
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# the ledger
# ---------------------------------------------------------------------------
@dataclass
class LayerTotal:
    """Totals of one layer over a set of spans."""

    self_s: float = 0.0
    count: int = 0
    bytes: int = 0
    points: int = 0

    def add(self, other: "LayerTotal", sign: int = 1) -> None:
        self.self_s += sign * other.self_s
        self.count += sign * other.count
        self.bytes += sign * other.bytes
        self.points += sign * other.points


def self_times(spans) -> list[tuple[object, float, object]]:
    """``(span, self seconds, enclosing benchmark span or None)`` for every
    benchmark span, nesting taken per (process, thread)."""
    by_thread = defaultdict(list)
    for s in spans:
        if s.cat == CAT:
            by_thread[(s.pid, s.tid)].append(s)
    out = []
    for group in by_thread.values():
        group.sort(key=lambda s: (s.t_start, -s.t_end))
        covered: dict[int, float] = defaultdict(float)
        parents: list = []
        stack: list = []
        for s in group:
            while stack and not (
                stack[-1].t_start <= s.t_start and s.t_end <= stack[-1].t_end
            ):
                stack.pop()
            parent = stack[-1] if stack else None
            if parent is not None:
                covered[id(parent)] += s.duration
            parents.append(parent)
            stack.append(s)
        for s, parent in zip(group, parents):
            out.append((s, s.duration - covered[id(s)], parent))
    return out


def ledger(spans) -> dict[str, LayerTotal]:
    """Per-layer self time, count and volume of one set of spans."""
    totals: dict[str, LayerTotal] = defaultdict(LayerTotal)
    for s, self_s, parent in self_times(spans):
        t = totals[s.name]
        t.self_s += self_s
        if parent is None or parent.name != s.name:
            t.count += 1
        args = s.args or {}
        t.bytes += args.get("bytes", 0)
        t.points += args.get("points", 0)
    return dict(totals)


def spawn_seconds(spans) -> list[float]:
    """Per ``run_spmd`` call: its wall minus its slowest rank program.

    Rank programs recorded in child processes parent (through the
    launcher's own ``spmd[n]`` span) under the ``launch.spmd`` span that
    forked them; the parent chain links them across the process boundary.
    """
    by_id = {s.span_id: s for s in spans}
    slowest: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.cat != CAT or s.name != "launch.rank":
            continue
        p = by_id.get(s.parent_id)
        while p is not None and not (p.cat == CAT and p.name == "launch.spmd"):
            p = by_id.get(p.parent_id)
        if p is not None:
            slowest[p.span_id] = max(slowest[p.span_id], s.duration)
    return [
        s.duration - slowest[s.span_id]
        for s in spans
        if s.cat == CAT and s.name == "launch.spmd" and s.span_id in slowest
    ]
