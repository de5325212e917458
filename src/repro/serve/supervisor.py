"""The job-runner supervisor: scheduling, watchdogs, retries, degradation.

Architecture (one :class:`JobServer`):

* **admission** — ``submit()`` pushes onto a
  :class:`~repro.serve.queue.BoundedJobQueue`; a full queue sheds the
  job with a typed :class:`~repro.serve.queue.ServerBusy` instead of
  queueing unboundedly.
* **dispatch thread** — pops jobs, probes the
  :class:`~repro.serve.cache.ResultCache` (hits complete immediately,
  corrupt entries are quarantined and recomputed), coalesces duplicates
  of an in-flight key, and assigns the rest to idle workers.
* **worker pool** — one crash-isolated worker *process* per slot
  (``fork`` start method, the PR-5 process-backend idiom); each slot is
  owned by a **monitor thread** that relays assignments, consumes
  heartbeats, and acts as the per-job watchdog: a worker that stops
  heartbeating (wedged) is killed-and-reaped via
  :func:`repro.simmpi.launcher.reap_processes` (TERM → KILL — a hung
  child must never hang the server) and the slot respawned.
* **retries** — a failed attempt (worker crash, watchdog kill, job
  exception) is requeued with bounded exponential backoff and
  deterministic per-job jitter; retries resume from the job's resilience
  checkpoints.  Exhausted jobs complete with a typed ``failed`` result —
  the pool stays healthy.
* **degradation ladder** — if worker processes cannot be started, or a
  slot keeps faulting past ``max_worker_restarts``, the pool falls back
  to thread-mode workers with a logged, metered downgrade (watchdogs
  then detect but cannot kill; the server never crashes because its
  substrate misbehaves).

Every decision is metered into a :class:`~repro.obs.metrics.
MetricsRegistry` and spanned per job through :mod:`repro.obs.spans`.
"""
from __future__ import annotations

import heapq
import itertools
import logging
import queue as stdqueue
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.kernels.cbackend import c_available
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import (
    SpanTracer,
    format_traceparent,
    new_trace_id,
    trace_context,
)
from repro.serve.cache import CORRUPT, HIT, ResultCache
from repro.serve.job import JobResult, JobSpec, backoff_delay, job_key, state_digest
from repro.serve.queue import BoundedJobQueue, Empty, ServerBusy
from repro.serve.worker import worker_main, worker_process_entry
from repro.simmpi.launcher import reap_processes
from repro.simmpi.shm import sweep_stale_segments
from repro.state.io import load_state

logger = logging.getLogger(__name__)

EXECUTORS = ("process", "thread")


@dataclass
class ServeConfig:
    """Knobs of the :class:`JobServer`.

    Parameters
    ----------
    workers:
        Pool slots (concurrent jobs).
    max_queue:
        Admission bound; a submit beyond it raises
        :class:`~repro.serve.queue.ServerBusy`.
    max_retries:
        Job-level retries after the first attempt (so a job runs at most
        ``max_retries + 1`` times) before it completes as ``failed``.
    heartbeat_timeout:
        Watchdog: seconds without a worker heartbeat (chunk commit)
        before the attempt is declared wedged and the worker killed.
    job_timeout:
        Hard per-attempt wall-clock ceiling (``None`` disables).
    backoff_base / backoff_factor / backoff_max:
        Exponential retry backoff, scaled into ``[0.5x, 1.5x)`` by a
        deterministic per-(job, attempt) jitter draw seeded by ``seed``.
    executor:
        ``"process"`` (default: crash-isolated workers) or ``"thread"``
        (the degraded mode — also reachable automatically).
    max_worker_restarts:
        Per-slot process respawns before the pool degrades to threads.
    seed:
        Seed of the deterministic backoff jitter.
    poll_interval:
        Monitor-thread poll granularity in seconds.
    """

    workers: int = 2
    max_queue: int = 16
    max_retries: int = 2
    heartbeat_timeout: float = 15.0
    job_timeout: float | None = 300.0
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    executor: str = "process"
    max_worker_restarts: int = 8
    seed: int = 0
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )


class JobHandle:
    """Client-side future of one submitted job."""

    def __init__(self, job_id: int, key: str, spec: JobSpec) -> None:
        self.job_id = job_id
        self.key = key
        self.spec = spec
        self._event = threading.Event()
        self._result: JobResult | None = None

    def _complete(self, result: JobResult) -> None:
        self._result = result
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> JobResult:
        """The :class:`JobResult` (typed, never raises for job failures)."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} not complete within {timeout}s"
            )
        assert self._result is not None
        return self._result


@dataclass
class _Job:
    job_id: int
    spec: JobSpec
    key: str
    handle: JobHandle
    submitted_at: float
    attempt: int = 0
    watchdog_kills: int = 0
    notes: list[str] = field(default_factory=list)
    followers: list["_Job"] = field(default_factory=list)
    trace_id: str = ""   # causal tree of this job (minted at submit)
    span_id: int = 0     # the supervisor-side job span (absorb parent)


class _Worker:
    """One pool slot: transport + underlying process/thread."""

    __slots__ = ("slot", "kind", "proc", "thread", "conn", "mailbox",
                 "restarts")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.kind = "none"
        self.proc = None
        self.thread = None
        self.conn = None
        self.mailbox: stdqueue.Queue = stdqueue.Queue()
        self.restarts = 0


# --------------------------------------------------------------------------
# thread-mode transport: an in-process stand-in for a duplex Pipe
# --------------------------------------------------------------------------
_CLOSE = object()


class _QueueConn:
    """Duplex-``Pipe``-shaped connection over two ``queue.Queue``s."""

    def __init__(self, rx: stdqueue.Queue, tx: stdqueue.Queue) -> None:
        self._rx = rx
        self._tx = tx
        self._pending: deque = deque()
        self._closed = False

    def send(self, obj) -> None:
        if self._closed:
            raise OSError("connection closed")
        self._tx.put(obj)

    def poll(self, timeout: float = 0.0) -> bool:
        if self._pending:
            return True
        try:
            self._pending.append(self._rx.get(timeout=max(timeout, 1e-4)))
            return True
        except stdqueue.Empty:
            return False

    def recv(self):
        obj = self._pending.popleft() if self._pending else self._rx.get()
        if obj is _CLOSE:
            raise EOFError
        return obj

    def close(self) -> None:
        self._closed = True
        self._tx.put(_CLOSE)  # EOF for the peer


def _queue_conn_pair() -> tuple[_QueueConn, _QueueConn]:
    a2b: stdqueue.Queue = stdqueue.Queue()
    b2a: stdqueue.Queue = stdqueue.Queue()
    return _QueueConn(b2a, a2b), _QueueConn(a2b, b2a)


class JobServer:
    """Multi-tenant simulation job runner (see module docstring).

    Usable as a context manager; ``close()`` drains by default.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        work_dir: str | Path | None = None,
        config: ServeConfig | None = None,
        observe: bool = True,
        **overrides,
    ) -> None:
        if config is None:
            config = ServeConfig(**overrides)
        elif overrides:
            raise ValueError("pass either config or keyword overrides")
        self.config = config
        self.cache = ResultCache(cache_dir)
        self.work_root = Path(work_dir) if work_dir is not None else (
            Path(cache_dir) / "work"
        )
        self.work_root.mkdir(parents=True, exist_ok=True)
        #: post-mortem dumps land here: worker-side SIGTERM dumps plus
        #: the supervisor's own kill/crash records (reap paths)
        self.flight_dir = self.work_root / "flightrec"
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer() if observe else None
        self.executor = config.executor
        self.queue = BoundedJobQueue(config.max_queue)
        self._retryq: list = []
        self._seq = itertools.count()
        self._next_id = itertools.count(1)
        self._lock = threading.RLock()
        self._inflight: dict[str, _Job] = {}
        self._idle: stdqueue.Queue = stdqueue.Queue()
        self._stop = threading.Event()
        self._accepting = True
        self._closed = False

        self._ctx = None
        if self.executor == "process":
            try:
                import multiprocessing

                self._ctx = multiprocessing.get_context("fork")
            except (ImportError, ValueError) as exc:
                self._degrade(f"fork context unavailable: {exc!r}")

        if self._ctx is not None:
            # forked workers inherit the loaded kernel library instead of
            # each compiling their own on a cold cache
            c_available()
        self._workers = {
            slot: _Worker(slot) for slot in range(config.workers)
        }
        for w in self._workers.values():
            self._attach_transport(w)
        self._monitors = [
            threading.Thread(
                target=self._monitor_loop, args=(w,), daemon=True,
                name=f"serve-monitor-{w.slot}",
            )
            for w in self._workers.values()
        ]
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, daemon=True, name="serve-dispatch"
        )
        for t in self._monitors:
            t.start()
        self._dispatcher.start()
        logger.info(
            "serve: %d %s worker(s), queue bound %d, %d retries, "
            "heartbeat timeout %.1fs",
            config.workers, self.executor, config.max_queue,
            config.max_retries, config.heartbeat_timeout,
        )

    # ---- public API ------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobHandle:
        """Admit one job; raises :class:`ServerBusy` when the queue is full."""
        if not self._accepting:
            raise RuntimeError("server is closed")
        key = job_key(spec)
        job_id = next(self._next_id)
        handle = JobHandle(job_id, key, spec)
        job = _Job(
            job_id=job_id, spec=spec, key=key, handle=handle,
            submitted_at=time.monotonic(), trace_id=new_trace_id(),
        )
        try:
            self.queue.put_nowait(job)
        except ServerBusy:
            self._count("serve_shed_total",
                        "jobs rejected by admission control")
            raise
        self._count("serve_jobs_submitted_total", "jobs admitted")
        return job.handle

    def counter_value(self, name: str, **labels) -> float:
        """Current value of one counter (0 if never incremented)."""
        return self.registry.counter(name, **labels).value

    def counter_total(self, name: str) -> float:
        """Sum of one counter family across all of its label sets."""
        family = self.registry.as_dict().get(name)
        if family is None:
            return 0.0
        return sum(s["value"] for s in family["samples"])

    def metrics_text(self) -> str:
        """Prometheus text dump of every serve metric."""
        return self.registry.to_prometheus_text()

    def close(self, drain: bool = True, timeout: float = 120.0) -> None:
        """Stop the server; with ``drain`` (default) finish queued work."""
        if self._closed:
            return
        self._accepting = False
        deadline = time.monotonic() + timeout
        if drain:
            while time.monotonic() < deadline:
                with self._lock:
                    idle = not self._retryq and not self._inflight
                if idle and len(self.queue) == 0:
                    break
                time.sleep(0.02)
        self._stop.set()
        self._dispatcher.join(timeout=5.0)
        for w in self._workers.values():
            w.mailbox.put(None)
        for t in self._monitors:
            t.join(timeout=5.0)
        for w in self._workers.values():
            try:
                w.conn.send(("stop",))
            except (OSError, ValueError, AttributeError):
                pass
        reap_processes(
            [w.proc for w in self._workers.values() if w.proc is not None]
        )
        for w in self._workers.values():
            if w.conn is not None:
                try:
                    w.conn.close()
                except OSError:
                    pass
        # Reaped workers may have died holding inner SPMD shm worlds open
        # (process-backend jobs); unlink whatever their dead pids left.
        sweep_stale_segments()
        self._closed = True

    def __enter__(self) -> "JobServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---- dispatch --------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            item = self._next_job()
            if item is None:
                continue
            job, is_retry = item
            if not is_retry and not self._admit_to_pool(job):
                continue
            self._assign(job)

    def _next_job(self) -> tuple[_Job, bool] | None:
        with self._lock:
            if self._retryq and self._retryq[0][0] <= time.monotonic():
                return heapq.heappop(self._retryq)[2], True
        try:
            return self.queue.get(timeout=0.05), False
        except Empty:
            return None

    def _admit_to_pool(self, job: _Job) -> bool:
        """Cache probe + coalescing; True when the job needs a worker."""
        path, verdict = self.cache.probe(job.key)
        if verdict == HIT:
            self._count("serve_cache_hits_total", "results served from cache")
            self._complete_from_cache(job, path)
            return False
        if verdict == CORRUPT:
            self._count(
                "serve_cache_corrupt_total",
                "corrupt cache entries quarantined and recomputed",
            )
        else:
            self._count("serve_cache_misses_total", "cache misses")
        with self._lock:
            running = self._inflight.get(job.key)
            if running is not None:
                running.followers.append(job)
                self._count(
                    "serve_coalesced_total",
                    "duplicate submissions coalesced onto in-flight jobs",
                )
                return False
            self._inflight[job.key] = job
        return True

    def _assign(self, job: _Job) -> None:
        while not self._stop.is_set():
            try:
                slot = self._idle.get(timeout=0.2)
            except stdqueue.Empty:
                continue
            self._workers[slot].mailbox.put(job)
            return
        # shutting down mid-assign: fail it so no handle hangs forever
        self._finish_failure(job, "ServerClosed", "server shut down")

    # ---- monitor / watchdog ---------------------------------------------
    def _monitor_loop(self, w: _Worker) -> None:
        while True:
            self._idle.put(w.slot)
            job = w.mailbox.get()
            if job is None:
                return
            if self.tracer is None:
                self._run_attempt(w, job)
                continue
            # the job span roots the job's causal tree: the worker's
            # attempt span (shipped back and absorbed) parents under it
            with trace_context(job.trace_id):
                with self.tracer.span(f"job:{job.job_id}", "serve") as jspan:
                    job.span_id = jspan.span_id
                    self._run_attempt(w, job)

    def _run_attempt(self, w: _Worker, job: _Job) -> None:
        cfg = self.config
        job.attempt += 1
        payload = {
            "job_id": job.job_id, "attempt": job.attempt, "key": job.key,
            "spec": asdict(job.spec),
        }
        if self.tracer is not None:
            # traceparent header + the shared perf_counter epoch: the
            # worker records spans on this tracer's timeline, under the
            # job span, and ships them back with its result
            payload["obs"] = {
                "traceparent": format_traceparent(job.trace_id, job.span_id),
                "epoch": self.tracer.epoch,
            }
        try:
            w.conn.send(("job", payload))
        except (OSError, ValueError):
            self._handle_crash(w, job, "worker pipe closed on assignment")
            return
        started = last_beat = time.monotonic()
        while True:
            got = False
            try:
                if w.conn.poll(cfg.poll_interval):
                    msg = w.conn.recv()
                    got = True
            except (EOFError, OSError):
                self._handle_crash(w, job, self._death_detail(w))
                return
            if got:
                kind = msg[0]
                if kind in ("start", "hb") and msg[1] == job.job_id:
                    last_beat = time.monotonic()
                elif kind == "done" and msg[1] == job.job_id:
                    self._absorb_worker_spans(job, msg[3].pop("spans", None))
                    self._finish_success(w, job, msg[3])
                    return
                elif kind == "fail" and msg[1] == job.job_id:
                    if len(msg) > 6:
                        self._absorb_worker_spans(job, msg[6])
                    self._retry_or_fail(w, job, msg[3], msg[4])
                    return
                continue  # drain any queued messages before timing out
            now = time.monotonic()
            wedged = None
            if now - last_beat > cfg.heartbeat_timeout:
                wedged = (
                    f"no heartbeat for {cfg.heartbeat_timeout:.1f}s "
                    f"(attempt {job.attempt})"
                )
            elif cfg.job_timeout is not None and now - started > cfg.job_timeout:
                wedged = (
                    f"attempt exceeded the {cfg.job_timeout:.1f}s "
                    "job timeout"
                )
            if wedged is not None:
                self._handle_wedged(w, job, wedged)
                return

    def _absorb_worker_spans(self, job: _Job, spans) -> None:
        """Merge the worker's shipped-back spans under the job span."""
        if self.tracer is not None and spans:
            self.tracer.absorb(
                spans, trace_id=job.trace_id, parent_id=job.span_id
            )

    def _write_flight_record(
        self, kind: str, reason: str, job: _Job, w: _Worker
    ) -> None:
        """Supervisor-side post-mortem record for a reaped worker.

        A SIGKILL'd or hard-crashed worker cannot dump its own ring, so
        the supervisor writes what *it* knows from the reap path — the
        artifact exists for every killed job, not just cooperative ones.
        """
        from repro.obs.flightrec import FlightRecorder

        try:
            rec = FlightRecorder(
                self.flight_dir
                / f"{kind}-job{job.job_id}-attempt{job.attempt}.json",
                meta={
                    "job_id": job.job_id, "attempt": job.attempt,
                    "worker": w.slot, "trace_id": job.trace_id,
                    "kind": kind,
                },
            )
            rec.note(kind, reason=reason, notes=list(job.notes))
            rec.dump(reason)
        except OSError as exc:  # observability must not fail the job path
            logger.warning("serve: could not write flight record: %s", exc)

    def _death_detail(self, w: _Worker) -> str:
        code = None
        if w.proc is not None:
            w.proc.join(timeout=1.0)
            code = w.proc.exitcode
        return f"worker {w.slot} died mid-job (exit code {code})"

    def _handle_crash(self, w: _Worker, job: _Job, detail: str) -> None:
        logger.warning("serve: %s", detail)
        job.notes.append(detail)
        self._write_flight_record("worker-crash", detail, job, w)
        self._respawn(w, detail)
        self._retry_or_fail(w, job, "WorkerCrash", detail)

    def _handle_wedged(self, w: _Worker, job: _Job, detail: str) -> None:
        job.watchdog_kills += 1
        job.notes.append(f"watchdog: {detail}")
        self._count(
            "serve_watchdog_kills_total",
            "wedged workers killed by the heartbeat watchdog",
        )
        logger.warning(
            "serve: watchdog killing worker %d — %s", w.slot, detail
        )
        self._write_flight_record(
            "watchdog-kill", f"watchdog kill: {detail}", job, w
        )
        if w.kind == "process":
            reap_processes([w.proc], join_timeout=0.1)
        else:
            # degraded thread mode cannot kill: abandon the thread (its
            # sends land in a closed conn) and account for it honestly
            try:
                w.conn.close()
            except OSError:
                pass
            logger.warning(
                "serve: thread-mode worker %d wedged — abandoned "
                "(no kill isolation in degraded mode)", w.slot,
            )
        self._respawn(w, detail)
        self._retry_or_fail(w, job, "WorkerWedged", detail)

    # ---- worker lifecycle -----------------------------------------------
    def _start_worker_process(self, w: _Worker) -> None:
        """Fork one worker process for ``w`` (overridable for tests)."""
        parent, child = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=worker_process_entry,
            args=(child, w.slot, str(self.work_root)),
            daemon=False,  # jobs may fork their own SPMD rank processes
            name=f"serve-worker-{w.slot}",
        )
        proc.start()
        child.close()
        w.kind, w.proc, w.thread, w.conn = "process", proc, None, parent

    def _attach_transport(self, w: _Worker) -> None:
        if self.executor == "process":
            try:
                self._start_worker_process(w)
                return
            except Exception as exc:
                self._degrade(f"cannot start a worker process: {exc!r}")
        sup_conn, wrk_conn = _queue_conn_pair()
        t = threading.Thread(
            target=worker_main,
            args=(wrk_conn, w.slot, str(self.work_root)),
            kwargs={"allow_exit": False},
            daemon=True,
            name=f"serve-worker-{w.slot}",
        )
        t.start()
        w.kind, w.proc, w.thread, w.conn = "thread", None, t, sup_conn

    def _respawn(self, w: _Worker, reason: str) -> None:
        w.restarts += 1
        self._count("serve_worker_restarts_total", "worker slots respawned")
        if w.proc is not None:
            reap_processes([w.proc], join_timeout=0.5)
            try:
                w.conn.close()
            except OSError:
                pass
            # a killed worker cannot clean up its inner SPMD shm worlds
            sweep_stale_segments()
        if (
            self.executor == "process"
            and w.restarts > self.config.max_worker_restarts
        ):
            self._degrade(
                f"worker slot {w.slot} faulted {w.restarts} times "
                f"(> {self.config.max_worker_restarts})"
            )
        self._attach_transport(w)

    def _degrade(self, reason: str) -> None:
        """Process pool unusable: fall back to thread workers, loudly."""
        if self.executor != "process":
            return
        self.executor = "thread"
        self._count(
            "serve_downgrades_total",
            "executor downgrades (process pool -> thread pool)",
        )
        logger.warning(
            "serve DEGRADED to thread-mode workers: %s — jobs keep "
            "running without kill isolation", reason,
        )

    # ---- completion ------------------------------------------------------
    def _count(self, name: str, help: str = "", **labels) -> None:
        self.registry.counter(name, help, **labels).inc()

    def _retry_or_fail(
        self, w: _Worker, job: _Job, error_type: str, detail: str
    ) -> None:
        if self._stop.is_set():
            self._finish_failure(job, "ServerClosed", "server shut down")
            return
        cfg = self.config
        if job.attempt <= cfg.max_retries:
            delay = backoff_delay(
                cfg.backoff_base, cfg.backoff_factor, cfg.backoff_max,
                cfg.seed, job.key, job.attempt,
            )
            self._count("serve_retries_total", "job attempts retried",
                        reason=error_type)
            logger.warning(
                "serve: job %d attempt %d failed (%s) — retrying in "
                "%.3fs", job.job_id, job.attempt, error_type, delay,
            )
            with self._lock:
                heapq.heappush(
                    self._retryq,
                    (time.monotonic() + delay, next(self._seq), job),
                )
        else:
            self._finish_failure(job, error_type, detail)

    def _record_completion(
        self, result: JobResult, trace_id: str = ""
    ) -> None:
        self._count("serve_jobs_total", "completed jobs",
                    status=result.status)
        self.registry.histogram(
            "serve_job_latency_seconds", "submit-to-result latency"
        ).observe(result.latency_s, trace_id=trace_id or None)
        self.registry.gauge(
            "serve_job_latency_last_seconds", "per-job latency",
            job=str(result.job_id),
        ).set(result.latency_s)
        if result.makespan:
            self.registry.gauge(
                "serve_job_makespan_logical_seconds",
                "per-job simulated makespan", job=str(result.job_id),
            ).set(result.makespan)

    def _pop_inflight(self, job: _Job) -> list[_Job]:
        with self._lock:
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]
            followers, job.followers = job.followers, []
        return followers

    def _finish_success(self, w: _Worker, job: _Job, out: dict) -> None:
        path = self.cache.put(job.key, out["data"])
        result = JobResult(
            job_id=job.job_id, key=job.key, status="ok", spec=job.spec,
            attempts=job.attempt,
            latency_s=time.monotonic() - job.submitted_at,
            artifact=path, state_digest=out["digest"],
            resumed_from_step=out["resumed_from_step"],
            restarts=out["restarts"],
            rank_losses=out.get("rank_losses", 0),
            membership_epoch=out.get("membership_epoch", 0),
            final_nranks=out.get("final_nranks", 0),
            watchdog_kills=job.watchdog_kills,
            makespan=out["makespan"], worker=w.slot, notes=list(job.notes),
        )
        self._record_completion(result, trace_id=job.trace_id)
        job.handle._complete(result)
        for f in self._pop_inflight(job):
            fres = JobResult(
                job_id=f.job_id, key=f.key, status="ok", spec=f.spec,
                cache_hit=True, coalesced=True,
                latency_s=time.monotonic() - f.submitted_at,
                artifact=path, state_digest=out["digest"],
            )
            self._record_completion(fres, trace_id=f.trace_id)
            f.handle._complete(fres)

    def _finish_failure(
        self, job: _Job, error_type: str, detail: str
    ) -> None:
        result = JobResult(
            job_id=job.job_id, key=job.key, status="failed", spec=job.spec,
            attempts=job.attempt,
            latency_s=time.monotonic() - job.submitted_at,
            watchdog_kills=job.watchdog_kills,
            error_type=error_type, error=detail, notes=list(job.notes),
        )
        self._record_completion(result, trace_id=job.trace_id)
        logger.error(
            "serve: job %d failed permanently after %d attempt(s): %s: %s",
            job.job_id, job.attempt, error_type, detail,
        )
        job.handle._complete(result)
        for f in self._pop_inflight(job):
            fres = JobResult(
                job_id=f.job_id, key=f.key, status="failed", spec=f.spec,
                coalesced=True,
                latency_s=time.monotonic() - f.submitted_at,
                error_type=error_type, error=detail,
            )
            self._record_completion(fres, trace_id=f.trace_id)
            f.handle._complete(fres)

    def _complete_from_cache(self, job: _Job, path: Path) -> None:
        state, _ = load_state(path)
        result = JobResult(
            job_id=job.job_id, key=job.key, status="ok", spec=job.spec,
            cache_hit=True,
            latency_s=time.monotonic() - job.submitted_at,
            artifact=path, state_digest=state_digest(state),
        )
        self._record_completion(result, trace_id=job.trace_id)
        job.handle._complete(result)
