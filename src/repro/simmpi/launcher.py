"""SPMD launcher: run the same function on every simulated rank.

``run_spmd(nranks, fn, *args)`` starts one thread per rank, each with its
own :class:`SimComm`, and collects the per-rank return values, statistics
and final logical clocks.  Exceptions on any rank abort the run promptly
— the world's abort flag wakes every blocked receive and collective — and
are re-raised on the caller with rank attribution.

Fault injection: pass ``faults=FaultPlan(...)`` (or a reusable
:class:`~repro.simmpi.faults.FaultInjector`) to have the communicators
inject rank crashes, message drops/corruption, degraded-network windows
and compute stragglers; ``verify_checksums=True`` arms the in-flight
payload integrity check (:class:`~repro.simmpi.faults.CorruptedMessage`).
"""
from __future__ import annotations

import pickle
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.spans import (
    NULL_SPAN,
    SpanTracer,
    active_tracer,
    current_trace_context,
    set_active,
    set_rank,
    set_trace_context,
)
from repro.simmpi.comm import SimComm, SimWorld
from repro.simmpi.faults import FaultInjector, FaultPlan
from repro.simmpi.machine import LAPTOP_LIKE, MachineModel
from repro.simmpi.network import DeadlockError
from repro.simmpi.stats import CommStats
from repro.simmpi.trace import TraceRecorder
from repro.simmpi.transport import TransportConfig


class SpmdError(RuntimeError):
    """One or more ranks raised; carries the per-rank tracebacks.

    Attributes
    ----------
    failures:
        ``{rank: traceback string}`` of every failed rank.
    exceptions:
        ``{rank: exception object}`` (same keys) — lets callers classify
        failures by type (``RankCrash``, ``CorruptedMessage``,
        ``DeadlockError``, ...) without string matching.
    stats:
        Per-rank :class:`CommStats` captured at failure time (fault
        events of the doomed attempt survive here), or ``None``.
    """

    def __init__(
        self,
        failures: dict[int, str],
        exceptions: dict[int, BaseException] | None = None,
        stats: list[CommStats] | None = None,
    ) -> None:
        self.failures = failures
        self.exceptions = exceptions or {}
        self.stats = stats
        ranks = ", ".join(str(r) for r in sorted(failures))
        lines = [f"SPMD ranks [{ranks}] failed:"]
        for r in sorted(failures):
            exc = self.exceptions.get(r)
            if exc is not None:
                summary = f"{type(exc).__name__}: {exc}"
            else:
                tb_lines = failures[r].strip().splitlines()
                summary = tb_lines[-1] if tb_lines else "unknown failure"
            lines.append(f"  rank {r}: {summary}")
        first = failures[min(failures)]
        lines.append(f"first failing rank traceback:\n{first}")
        super().__init__("\n".join(lines))


@dataclass
class SpmdResult:
    """Outcome of one SPMD run."""

    results: list[Any]
    stats: list[CommStats]
    clocks: list[float]
    traces: list[TraceRecorder] | None = None

    @property
    def nranks(self) -> int:
        return len(self.results)

    @property
    def makespan(self) -> float:
        """Simulated wall time: the slowest rank's final logical clock."""
        return max(self.clocks)

    def critical_stats(self) -> CommStats:
        """Per-field max over ranks (critical-path accounting of [16])."""
        return self.stats[0].merge_max(self.stats[1:])

    def total_comm_time(self) -> float:
        """Max over ranks of (p2p + collective) logical time."""
        return max(s.comm_time for s in self.stats)

    def total_compute_time(self) -> float:
        """Max over ranks of compute logical time."""
        return max(s.compute_time for s in self.stats)

    def fault_events(self) -> list:
        """All fault events of all ranks, in rank order."""
        return [e for s in self.stats for e in s.fault_events]


BACKENDS = ("thread", "process")

#: default extra wall-clock slack granted past ``timeout`` before the
#: join watchdog declares the run wedged
DEFAULT_JOIN_GRACE = 30.0


def reap_processes(
    procs,
    *,
    join_timeout: float = 2.0,
    term_timeout: float = 5.0,
    kill_timeout: float = 5.0,
) -> list[int]:
    """Join, then terminate, then kill: never leave a child running.

    The escalation ladder of process cleanup — a polite ``join``, a
    SIGTERM with a grace period, and finally SIGKILL for children that
    ignore SIGTERM (wedged in a handler, signal-blocked, ...).  Returns
    the pids that needed SIGKILL.  Shared by the SPMD process backend
    and the :mod:`repro.serve` worker supervisor: any component that
    owns child processes must be able to reap a wedged one without
    hanging itself.
    """
    procs = list(procs)
    for p in procs:
        p.join(timeout=join_timeout)
    for p in procs:
        if p.is_alive():
            p.terminate()
    for p in procs:
        if p.is_alive():
            p.join(timeout=term_timeout)
    killed: list[int] = []
    for p in procs:
        if p.is_alive():
            p.kill()
            p.join(timeout=kill_timeout)
            if p.pid is not None:
                killed.append(p.pid)
    return killed


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    machine: MachineModel | None = None,
    timeout: float = 120.0,
    trace: bool = False,
    faults: FaultPlan | FaultInjector | None = None,
    verify_checksums: bool = False,
    transport: TransportConfig | None = None,
    backend: str = "thread",
    shm_link_bytes: int | None = None,
    join_grace: float = DEFAULT_JOIN_GRACE,
) -> SpmdResult:
    """Run ``fn(comm, *args)`` on ``nranks`` simulated ranks.

    Parameters
    ----------
    nranks:
        Number of simulated ranks (threads or processes, see ``backend``).
    fn:
        The rank program; first argument is its :class:`SimComm`.
    machine:
        Cost model; defaults to :data:`repro.simmpi.machine.LAPTOP_LIKE`.
    timeout:
        Wall-clock seconds after which a blocked receive or collective is
        declared a deadlock.  Callers running many model steps should
        scale this with the work (see ``repro.core.driver``, which does).
    trace:
        Record per-rank :class:`TraceRecorder` timelines (compute spans,
        receive waits, collectives, fault events) in the result.
    faults:
        Declarative :class:`FaultPlan` (deterministic under its seed), or
        a live :class:`FaultInjector` when the caller wants one-shot
        crash state to persist across restart attempts.
    verify_checksums:
        Checksum every point-to-point payload at the sender and verify on
        receive; in-flight corruption then raises ``CorruptedMessage``
        instead of silently contaminating the receiver.
    transport:
        Reliable-transport policy (:class:`~repro.simmpi.transport.
        TransportConfig`): sequence-numbered messages with bounded,
        backed-off retransmission of drops and (checksummed) corruption,
        per-link circuit breakers, and prompt ``MessageLost`` detection
        of permanently dropped messages.  ``None`` models the raw
        network of the seed substrate.
    backend:
        ``"thread"`` (default) runs every rank as a thread in this
        process — deterministic fault injection, zero launch cost.
        ``"process"`` forks one OS process per rank and moves messages
        and collectives over shared-memory ring buffers
        (:mod:`repro.simmpi.shm`), so rank compute genuinely runs in
        parallel.  Numerics and logical clocks are bit-identical between
        backends.  ``nranks == 1`` always runs in the caller.
    shm_link_bytes:
        Process backend only: ring capacity per directed link (default
        sized by :func:`repro.simmpi.shm.default_link_bytes`; larger
        messages stream through in chunks).
    join_grace:
        Hard join watchdog: wall-clock slack past ``timeout`` before a
        rank that neither reported nor died is declared wedged and the
        run fails with :class:`SpmdError` (process backend children are
        then terminated, escalating to SIGKILL).  A hung child must
        never hang the caller.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; pick from {BACKENDS}")
    # Causal launch span: when tracing is on, every rank's spans — thread
    # or forked process — parent under this span, so the whole SPMD run
    # exports as one subtree of the caller's trace.
    wall_tracer = active_tracer()
    launch_cm = (
        wall_tracer.span(f"spmd[{nranks}]", "spmd")
        if wall_tracer is not None
        else NULL_SPAN
    )
    if backend == "process":
        if faults is not None:
            plan = faults.plan if isinstance(faults, FaultInjector) else faults
            if not plan.node_loss_only:
                raise ValueError(
                    "fault injection on backend='process' is limited to "
                    "node-loss-only plans (the victim kills its own OS "
                    "process) — injected drops/crashes rely on "
                    "deterministic in-process delivery (backend='thread')"
                )
        if nranks > 1:
            injector = (
                faults.injector() if isinstance(faults, FaultPlan) else faults
            )
            faults_state = None
            if injector is not None:
                injector.begin_attempt()
                # children fork *copies* of the injector: ship the plan
                # plus the fired-spec snapshot so one-shot semantics and
                # the attempt number survive the fork boundary
                faults_state = (injector.plan, injector.snapshot())
            with launch_cm as launch:
                trace_ctx = None
                if wall_tracer is not None:
                    ctx_trace, _ = current_trace_context()
                    trace_ctx = (
                        ctx_trace or wall_tracer.trace_id, launch.span_id
                    )
                return _run_spmd_process(
                    nranks, fn, args,
                    machine=machine or LAPTOP_LIKE,
                    timeout=timeout,
                    trace=trace,
                    verify_checksums=verify_checksums,
                    transport=transport,
                    shm_link_bytes=shm_link_bytes,
                    join_grace=join_grace,
                    trace_ctx=trace_ctx,
                    faults_state=faults_state,
                )
        # single rank: the serial fast path below is already process-free
    injector = faults.injector() if isinstance(faults, FaultPlan) else faults
    if injector is not None:
        injector.begin_attempt()
    world = SimWorld(
        nranks,
        machine or LAPTOP_LIKE,
        timeout=timeout,
        injector=injector,
        verify_checksums=verify_checksums,
        transport=transport,
    )
    comms = [SimComm(world, r) for r in range(nranks)]
    tracers: list[TraceRecorder] | None = None
    if trace:
        tracers = [TraceRecorder(r) for r in range(nranks)]
        for c, t in zip(comms, tracers):
            c.tracer = t
    results: list[Any] = [None] * nranks
    failures: dict[int, str] = {}
    exceptions: dict[int, BaseException] = {}
    failures_lock = threading.Lock()
    launch_ctx: tuple[str, int] | None = None

    def runner(rank: int) -> None:
        # Label wall-clock spans with the simulated rank and hand the
        # launch's causal context to this (possibly fresh) thread;
        # restore after — the serial fast path runs in the caller's
        # thread.
        prev_rank = set_rank(rank)
        prev_ctx = (
            set_trace_context(*launch_ctx) if launch_ctx is not None else None
        )
        try:
            results[rank] = fn(comms[rank], *args)
        except BaseException as exc:  # noqa: BLE001 - report everything to caller
            with failures_lock:
                failures[rank] = traceback.format_exc()
                exceptions[rank] = exc
            # fail fast: wake the surviving ranks out of blocked waits
            world.abort(f"rank {rank} failed with {type(exc).__name__}: {exc}")
        finally:
            if prev_ctx is not None:
                set_trace_context(*prev_ctx)
            set_rank(prev_rank)

    with launch_cm as launch:
        if wall_tracer is not None:
            ctx_trace, _ = current_trace_context()
            launch_ctx = (ctx_trace or wall_tracer.trace_id, launch.span_id)
        if nranks == 1:
            # Fast path: no threads for serial runs.
            runner(0)
        else:
            threads = [
                threading.Thread(
                    target=runner, args=(r,), daemon=True, name=f"rank{r}"
                )
                for r in range(nranks)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=timeout + join_grace)
            hung = [t.name for t in threads if t.is_alive()]
            if hung and not failures:
                backlog = {
                    r: world.mailboxes[r].pending_summary()
                    for r in range(nranks)
                }
                detail = (
                    f"rank threads still alive: {hung}; "
                    f"per-rank mailbox backlog: {backlog}"
                )
                raise SpmdError(
                    {-1: detail},
                    exceptions={-1: DeadlockError(detail)},
                    stats=[c.stats for c in comms],
                )
        if failures:
            raise SpmdError(
                failures, exceptions=exceptions, stats=[c.stats for c in comms]
            )
    return SpmdResult(
        results=results,
        stats=[c.stats for c in comms],
        clocks=[c.clock for c in comms],
        traces=tracers,
    )


# ---------------------------------------------------------------------------
# process backend (shared-memory rings; see repro.simmpi.shm)
# ---------------------------------------------------------------------------
def _picklable(exc: BaseException) -> BaseException:
    """``exc`` itself when it survives pickling, else a summary stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _process_rank_main(
    world, rank: int, fn, args, trace: bool, ends, trace_ctx=None,
    faults_state=None,
) -> None:
    """Entry point of one rank process (after fork).

    Runs the rank program against the shared-memory world and ships a
    status dict — result, stats, clock, logical trace, wall-clock spans —
    back through ``conn``.  Failures abort the world (fail fast for the
    peers) and ship the traceback instead.
    """
    import os

    status: dict[str, Any] = {
        "rank": rank, "ok": False, "result": None, "stats": None,
        "clock": 0.0, "trace": None, "spans": None, "tb": None, "exc": None,
    }
    # fork copies every rank's pipe write-end into every child; close the
    # other ranks' ends so a dead peer's pipe EOFs promptly in the parent
    conn = ends[rank]
    for i, end in enumerate(ends):
        if i != rank:
            end.close()
    comm = None
    tracer = None
    try:
        world.attach(rank)
        if faults_state is not None:
            # rebuild this rank's injector from the launcher's snapshot:
            # same plan, same attempt number, same consumed one-shot
            # specs — so node-loss triggers fire at the same logical
            # point as they would on the thread backend
            plan, snap = faults_state
            inj = FaultInjector(plan)
            inj.restore_snapshot(snap)
            world.injector = inj
        set_rank(rank)
        parent_tracer = active_tracer()  # inherited through fork
        if parent_tracer is not None:
            # fresh tracer on the parent's epoch: perf_counter is
            # CLOCK_MONOTONIC on Linux, shared across processes, so the
            # child's spans land on the parent's timeline directly —
            # without re-shipping the spans the parent recorded pre-fork
            tracer = SpanTracer()
            tracer.epoch = parent_tracer.epoch
            if trace_ctx is not None:
                # join the launcher's causal tree: spans recorded in this
                # process parent under the launch span and carry its
                # trace id across the fork boundary
                tracer.trace_id = trace_ctx[0]
                set_trace_context(*trace_ctx)
            set_active(tracer)
        comm = SimComm(world, rank)
        if trace:
            comm.tracer = TraceRecorder(rank)
        status["result"] = fn(comm, *args)
        status["ok"] = True
    except BaseException as exc:  # noqa: BLE001 - report everything to caller
        status["tb"] = traceback.format_exc()
        status["exc"] = _picklable(exc)
        world.abort(f"rank {rank} failed with {type(exc).__name__}: {exc}")
    finally:
        if comm is not None:
            status["stats"] = comm.stats
            status["clock"] = comm.clock
            status["trace"] = comm.tracer
        if tracer is not None:
            status["spans"] = tracer.spans
        try:
            conn.send(status)
        except Exception as exc:  # e.g. unpicklable rank result
            status.update(
                ok=False, result=None, trace=None, spans=None,
                tb=traceback.format_exc(),
                exc=RuntimeError(
                    f"rank {rank}: could not ship its result back: {exc}"
                ),
            )
            try:
                conn.send(status)
            except Exception:
                os._exit(70)
        finally:
            conn.close()


def _run_spmd_process(
    nranks: int,
    fn: Callable[..., Any],
    args: tuple,
    *,
    machine: MachineModel,
    timeout: float,
    trace: bool,
    verify_checksums: bool,
    transport: TransportConfig | None,
    shm_link_bytes: int | None,
    join_grace: float,
    trace_ctx: tuple[str, int] | None = None,
    faults_state=None,
) -> SpmdResult:
    """One OS process per rank over shared-memory rings (fork start method).

    Fork keeps the launch cheap and pickle-free: the rank function, its
    arguments and the world object are inherited copy-on-write.  Results
    come back over per-rank pipes; a child that dies without reporting
    (hard crash, ``os._exit``) is detected by its pipe's EOF and surfaces
    as a :class:`SpmdError` carrying a ``ChildProcessError``.
    """
    from multiprocessing.connection import wait as conn_wait

    from repro.kernels.cbackend import c_available
    from repro.simmpi.shm import ShmWorld, sweep_stale_segments

    # build/load the kernel library before forking: the ranks inherit it
    # instead of each compiling their own on a cold cache
    c_available()

    world = ShmWorld(
        nranks, machine,
        timeout=timeout,
        verify_checksums=verify_checksums,
        transport=transport,
        link_bytes=shm_link_bytes,
    )
    ctx = world.ctx
    procs: dict[int, Any] = {}
    conns: dict[int, Any] = {}
    try:
        child_ends = []
        for r in range(nranks):
            recv_end, send_end = ctx.Pipe(duplex=False)
            conns[r] = recv_end
            child_ends.append(send_end)
        for r in range(nranks):
            procs[r] = ctx.Process(
                target=_process_rank_main,
                args=(world, r, fn, args, trace, child_ends, trace_ctx,
                      faults_state),
                daemon=True,
                name=f"rank{r}",
            )
        for p in procs.values():
            p.start()
        for end in child_ends:
            end.close()  # EOF on a rank's pipe now means "its process died"

        rank_of = {conn: r for r, conn in conns.items()}
        pending = dict(conns)
        reports: dict[int, dict] = {}
        crashed: dict[int, int | None] = {}
        deadline = time.monotonic() + timeout + join_grace
        while pending:
            ready = conn_wait(list(pending.values()), timeout=0.5)
            for conn in ready:
                r = rank_of[conn]
                try:
                    reports[r] = conn.recv()
                except (EOFError, OSError):
                    procs[r].join(timeout=2.0)
                    crashed[r] = procs[r].exitcode
                    world.abort(
                        f"rank {r} process died with exit code "
                        f"{procs[r].exitcode} before reporting"
                    )
                del pending[r]
            if pending and time.monotonic() > deadline:
                world.abort(
                    f"SPMD run exceeded its {timeout + join_grace:.0f}s "
                    "deadline"
                )
                # one last short grace period for in-flight reports
                for conn in conn_wait(list(pending.values()), timeout=2.0):
                    r = rank_of[conn]
                    try:
                        reports[r] = conn.recv()
                    except (EOFError, OSError):
                        crashed[r] = procs[r].exitcode
                    del pending[r]
                break
        hung = sorted(pending)

        results: list[Any] = [None] * nranks
        stats = [CommStats() for _ in range(nranks)]
        clocks = [0.0] * nranks
        tracers: list[TraceRecorder] | None = (
            [TraceRecorder(r) for r in range(nranks)] if trace else None
        )
        failures: dict[int, str] = {}
        exceptions: dict[int, BaseException] = {}
        tracer = active_tracer()
        for r, rep in sorted(reports.items()):
            if rep.get("stats") is not None:
                stats[r] = rep["stats"]
            clocks[r] = rep.get("clock", 0.0)
            if tracers is not None and rep.get("trace") is not None:
                tracers[r] = rep["trace"]
            if tracer is not None and rep.get("spans"):
                tracer.absorb(
                    rep["spans"],
                    trace_id=trace_ctx[0] if trace_ctx else None,
                    parent_id=trace_ctx[1] if trace_ctx else None,
                )
            if rep.get("ok"):
                results[r] = rep["result"]
            else:
                failures[r] = rep.get("tb") or "(no traceback captured)"
                exceptions[r] = rep.get("exc") or RuntimeError(
                    f"rank {r} failed without detail"
                )
        for r, code in sorted(crashed.items()):
            detail = (
                f"rank {r} process died with exit code {code} "
                "before reporting its result"
            )
            failures[r] = detail
            exceptions[r] = ChildProcessError(detail)
        if failures:
            raise SpmdError(failures, exceptions=exceptions, stats=stats)
        if hung:
            backlog = {
                r: world.mailboxes[r].pending_summary() for r in range(nranks)
            }
            detail = (
                f"rank processes still running: {hung}; "
                f"per-rank mailbox backlog: {backlog}"
            )
            raise SpmdError(
                {-1: detail},
                exceptions={-1: DeadlockError(detail)},
                stats=stats,
            )
        return SpmdResult(
            results=results, stats=stats, clocks=clocks, traces=tracers
        )
    finally:
        # hard reap: a child wedged in a handler (or ignoring SIGTERM)
        # must never outlive the run — escalate join -> TERM -> KILL
        reap_processes(procs.values())
        for conn in conns.values():
            conn.close()
        world.destroy()
        # reclaim segments a *previous*, SIGKILLed launcher left behind
        # (our own are covered by destroy() and the shm atexit hook)
        sweep_stale_segments()
