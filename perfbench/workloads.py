"""The four benchmark workloads, their timed loops and output checks.

Every workload drives ``repro`` only through ``DynamicalCore(...).run``
and ``JobServer.submit`` and sets no kernel-tier, kernel-backend or
executor knob, so it measures what a default caller gets.  Inputs come
from the seed alone; outputs are checked outside every timed interval.

Simulation workloads (``serial``, ``ca-p2``, ``orig-p2-z``) alternate a
0-step and an ``N``-step ``run`` on one core.  The 0-step run is the
set-up a caller pays per call (construction, fork, shm rings, scatter,
gather, reap); the per-pair difference divided by ``N`` is the marginal
model step.  A "job" of a simulation workload is one ``N``-step call.

The ``jobs`` workload is a closed loop: two client threads each submit
their next job only when the previous one returned, against a 1-worker
``JobServer``.  Its "step" is the wall time per simulated model step,
all per-job costs included.

With ``trace`` on, the first half of the run is untraced (the reference
for ``trace.overhead``) and the second half runs with the layer
wrappers of :mod:`perfbench.instrument` and an active span tracer.
"""
from __future__ import annotations

import dataclasses
import itertools
import os
import resource
import statistics
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.instrument import (
    STEP_LAYERS,
    LayerTotal,
    instrumented,
    ledger,
    spawn_seconds,
)

#: max |difference| against the serial reference (the tier-1 bound)
TOLERANCE = 1e-12


@dataclass(frozen=True)
class Scale:
    """Problem sizes of one benchmark configuration."""

    mesh: tuple[int, int, int]
    long_steps: int
    job_mesh: tuple[int, int, int]
    #: (nsteps, checkpoint_interval) variants of the short jobs
    job_shapes: tuple[tuple[int, int], ...]
    setup_repeats: int


#: the benchmark proper: the medium mesh and 32x32x6 jobs
FULL = Scale(
    mesh=(72, 48, 12), long_steps=4,
    job_mesh=(32, 32, 6), job_shapes=((2, 1), (3, 2)), setup_repeats=20,
)
#: a seconds-long smoke size for the benchmark's own tests
TINY = Scale(
    mesh=(16, 32, 4), long_steps=1,
    job_mesh=(16, 32, 4), job_shapes=((1, 1), (2, 1)), setup_repeats=2,
)

#: simulation workload -> DynamicalCore arguments (decomp as px, py, pz)
SIMULATIONS = {
    "serial": {"algorithm": "serial"},
    "ca-p2": {"algorithm": "ca", "nprocs": 2, "backend": "process"},
    "orig-p2-z": {
        "algorithm": "original-yz", "nprocs": 2, "backend": "process",
        "decomp": (1, 1, 2),
    },
}
WORKLOADS = (*SIMULATIONS, "jobs")


@dataclass
class Outcome:
    """What one benchmark run reports."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    #: values the tests check that are not printed as metrics
    details: dict = field(default_factory=dict)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(why)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------
def shm_segments() -> set[str]:
    """The ``repro-shm-*`` segments present now."""
    from repro.simmpi.shm import live_segment_names

    return set(live_segment_names())


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def resolved_knobs(core) -> dict:
    """The knobs a default ``DynamicalCore`` resolved to."""
    cfg = core.config
    d = cfg.resolve_decomposition()
    return {
        "kernel_tier": cfg.kernel_tier,
        "kernel_backend": cfg.kernel_backend,
        "executor": cfg.executor,
        "decomposition": [d.px, d.py, d.pz],
    }


def _metric_layers(totals: dict[str, LayerTotal], ranks: float, steps: float,
                   out: dict[str, float]) -> float:
    """Per-step layer rows; returns the summed layer self time (ms).

    Times and per-rank counts are per rank and step (a rank's share of
    the step's wall time); volumes are per step, summed over ranks.
    """
    def get(name: str) -> LayerTotal:
        return totals.get(name, LayerTotal())

    rank_steps = ranks * steps
    layer_ms = 0.0
    for name in STEP_LAYERS:
        ms = 1000.0 * get(name).self_s / rank_steps
        out[f"{name}_ms"] = ms
        layer_ms += ms
    for op in ("C", "A", "L"):
        out[f"op.{op}_calls"] = get(f"op.{op}").count / rank_steps
    ops = [get(f"op.{op}") for op in ("C", "A", "L", "F", "S")]
    out["op.points"] = sum(t.points for t in ops) / steps
    out["op.computed_mb"] = sum(t.bytes for t in ops) / steps / 1e6
    out["halo.exchanges"] = get("halo.start").count / rank_steps
    out["simmpi.msgs"] = get("simmpi.send").count / steps
    out["simmpi.mb"] = get("simmpi.send").bytes / steps / 1e6
    out["simmpi.colls"] = get("simmpi.coll").count / rank_steps
    return layer_ms


def _zero(out: dict[str, float], names) -> None:
    for name in names:
        out.setdefault(name, 0.0)


# ---------------------------------------------------------------------------
# simulation workloads
# ---------------------------------------------------------------------------
def simulation_input(seed: int, scale: Scale = FULL):
    """The seeded initial state of the simulation workloads."""
    from repro.grid import LatLonGrid
    from repro.physics.initial import balanced_random_state

    grid = LatLonGrid(*scale.mesh)
    return grid, balanced_random_state(grid, np.random.default_rng(seed))


def make_core(name: str, grid):
    from repro.core import DynamicalCore
    from repro.grid.decomposition import Decomposition
    from repro.physics import HeldSuarezForcing

    kwargs = dict(SIMULATIONS[name])
    if "decomp" in kwargs:
        kwargs["decomp"] = Decomposition(
            grid.nx, grid.ny, grid.nz, *kwargs["decomp"]
        )
    return DynamicalCore(grid, forcing=HeldSuarezForcing(), **kwargs)


@dataclass
class _Run:
    wall: float
    diag: object
    totals: dict[str, LayerTotal] | None = None
    spawn: list[float] | None = None


class _Simulation:
    """One core, one input, its reference output and the op counter."""

    def __init__(self, name: str, seed: int, scale: Scale,
                 outcome: Outcome) -> None:
        from repro.core import SerialCore
        from repro.physics import HeldSuarezForcing
        from repro.serve import state_digest

        self.digest = state_digest
        self.grid, self.state0 = simulation_input(seed, scale)
        self.core = make_core(name, self.grid)
        self.n = scale.long_steps
        self.outcome = outcome
        self.ranks = self.core.config.resolve_decomposition().nranks
        self.reference = SerialCore(
            self.grid, params=self.core.config.params,
            approximate_c=SIMULATIONS[name]["algorithm"] == "ca",
            forcing=HeldSuarezForcing(),
        ).run(self.state0, self.n)
        self.long_digest: str | None = None
        #: largest difference of a 0-step run's output from its input
        self.zero_step_diff = 0.0
        self.leaked = 0

    def op(self, nsteps: int, traced: bool) -> _Run | None:
        """One checked ``run`` call; ``None`` when it failed."""
        from repro.obs.spans import tracing

        out = self.outcome
        out.attempted += 1
        before = shm_segments()
        try:
            with tracing() if traced else nullcontext() as tracer:
                t0 = time.perf_counter()
                final, diag = self.core.run(self.state0, nsteps)
                wall = time.perf_counter() - t0
        except Exception as exc:  # a failed operation, reported as such
            out.fail(f"run({nsteps}) raised {type(exc).__name__}: {exc}")
            return None
        leaked = len(shm_segments() - before)
        self.leaked += leaked
        why = self._check(nsteps, final)
        if leaked:
            why = why or f"run({nsteps}) leaked {leaked} shm segment(s)"
        if why is not None:
            out.fail(why)
            return None
        run = _Run(wall, diag)
        if traced:
            spans = tracer.spans
            run.totals = ledger(spans)
            run.spawn = spawn_seconds(spans)
        return run

    def _check(self, nsteps: int, final) -> str | None:
        """Why ``final`` is wrong, or ``None``.

        The first ``N``-step run is compared with the serial reference;
        later ones must be bit-identical to it.  A 0-step run is the
        set-up probe: it should return its input, and when it does not
        the largest difference is recorded in :attr:`zero_step_diff`
        and reported with the run's provenance instead of failing the
        probe (``ca`` applies its final smoothing and forcing even when
        no step is taken).
        """
        if nsteps == 0:
            self.zero_step_diff = max(
                self.zero_step_diff, self.state0.max_difference(final)
            )
            return None
        if self.long_digest is not None:
            if self.digest(final) != self.long_digest:
                return f"run({nsteps}) is not bit-identical to its first run"
            return None
        diff = self.reference.max_difference(final)
        if not diff <= TOLERANCE:
            return f"run({nsteps}) differs from the reference by {diff:.3e}"
        self.long_digest = self.digest(final)
        return None

    def pairs(self, seconds: float, traced: bool):
        """(0-step, N-step) run pairs for ``seconds`` (at least one)."""
        pairs = []
        deadline = time.perf_counter() + seconds
        while not pairs or time.perf_counter() < deadline:
            short = self.op(0, traced)
            long = self.op(self.n, traced)
            if short is not None and long is not None:
                pairs.append((short, long))
            elif time.perf_counter() >= deadline:
                break
        return pairs


def mean_step_ms(pairs, n: int) -> float:
    return 1000.0 * sum(l.wall - s.wall for s, l in pairs) / (len(pairs) * n)


def run_simulation(name: str, seed: int, seconds: float, trace: bool,
                   scale: Scale = FULL) -> Outcome:
    out = Outcome()
    sim = _Simulation(name, seed, scale, out)
    out.provenance = resolved_knobs(sim.core)
    try:
        return _measure_simulation(sim, out, seconds, trace)
    finally:
        out.provenance["zero_step_max_diff_from_input"] = sim.zero_step_diff


def _measure_simulation(sim: _Simulation, out: Outcome, seconds: float,
                        trace: bool) -> Outcome:
    n = sim.n
    # first-use costs (imports, workspace pools, page faults) are paid
    # here, untimed; the ops are still counted and checked
    sim.op(0, False)
    sim.op(n, False)
    if not trace:
        pairs = sim.pairs(seconds, False)
        if not pairs:
            return out
        steps = [1000.0 * (l.wall - s.wall) / n for s, l in pairs]
        longs = [l.wall for _, l in pairs]
        _, p50, p75 = quartiles(longs)
        out.metrics = {
            "step_ms": statistics.median(steps),
            "setup_s": statistics.median(s.wall for s, _ in pairs),
            "peak_rss_mb": peak_rss_mb(),
            "job_p50_s": p50,
            "job_p75_s": p75,
            "jobs_per_s": len(longs) / sum(longs),
        }
        out.provenance["samples"] = len(pairs)
        return out

    plain = sim.pairs(seconds / 2, False)
    with instrumented():
        sim.op(0, True)  # warm the wrappers' first calls
        traced = sim.pairs(seconds / 2, True)
    if not plain or not traced:
        return out
    m: dict[str, float] = {}
    k = len(traced) * n
    totals: dict[str, LayerTotal] = defaultdict(LayerTotal)
    for s, l in traced:
        for name_, t in l.totals.items():
            totals[name_].add(t)
        for name_, t in s.totals.items():
            totals[name_].add(t, -1)
    traced_ms = mean_step_ms(traced, n)
    layer_ms = _metric_layers(totals, sim.ranks, k, m)
    m["step.unattributed_ms"] = traced_ms - layer_ms
    m["trace.overhead"] = traced_ms / mean_step_ms(plain, n)
    runs = [r for pair in traced for r in pair]
    m["launch.spawn_ms"] = 1000.0 * sum(
        sum(r.spawn) for r in runs) / len(runs)
    for layer in ("scatter", "gather"):
        m[f"launch.{layer}_ms"] = 1000.0 * sum(
            r.totals.get(f"launch.{layer}", LayerTotal()).self_s
            for r in runs) / len(runs)
    m["launch.leaked_segments"] = float(sim.leaked)

    def dsum(attr: str) -> float:
        return sum(getattr(l.diag, attr) - getattr(s.diag, attr)
                   for s, l in traced)

    compute, stencil, coll = (
        dsum("compute_time"), dsum("stencil_comm_time"),
        dsum("collective_comm_time"),
    )
    m["model.step_ms"] = 1000.0 * dsum("makespan") / k
    m["model.compute_ms"] = 1000.0 * compute / k
    m["model.stencil_comm_ms"] = 1000.0 * stencil / k
    m["model.collective_ms"] = 1000.0 * coll / k
    total = compute + stencil + coll
    m["model.comm_fraction"] = (stencil + coll) / total if total else 0.0
    m["simmpi.retransmits"] = dsum("retransmits") / k
    _zero(m, JOB_ONLY_LAYERS)
    out.metrics = m
    out.details["traced_step_ms"] = traced_ms
    return out


#: per-layer rows that only the jobs workload exercises
JOB_ONLY_LAYERS = (
    "io.checkpoint_ms", "io.checkpoint_mb", "io.checkpoints",
    "resilience.chunks", "serve.queue_ms", "serve.exec_ms",
    "serve.cache_hit_ratio", "serve.attempts",
)


# ---------------------------------------------------------------------------
# the jobs workload
# ---------------------------------------------------------------------------
JOB_ALGORITHMS = (("serial", 1), ("ca", 2), ("original-yz", 2))
JOB_CLIENTS = 2
#: every REPEAT_EVERY-th submission repeats an earlier spec (20 %)
REPEAT_EVERY = 5


def job_variants(seed: int, scale: Scale = FULL) -> list:
    """The physics variants of one run's jobs (amplitudes from the seed)."""
    from repro.serve import JobSpec

    rng = np.random.default_rng([seed, 1])
    nx, ny, nz = scale.job_mesh
    return [
        JobSpec(
            algorithm=alg, nprocs=p, backend="process", nx=nx, ny=ny, nz=nz,
            nsteps=nsteps, checkpoint_interval=interval,
            amplitude_k=float(np.round(rng.uniform(0.5, 2.0), 4)),
        )
        for alg, p in JOB_ALGORITHMS
        for nsteps, interval in scale.job_shapes
    ]


class JobSequence:
    """The seeded submission sequence, shared by the client threads.

    Fresh specs cycle through seeded permutations of the variants under
    unique names, so every window of the run has the same mix; every
    :data:`REPEAT_EVERY`-th submission resubmits an earlier spec.
    """

    def __init__(self, seed: int, variants: list) -> None:
        self._seed = seed
        self._rng = np.random.default_rng([seed, 2])
        self._variants = variants
        self._order: list[int] = []
        self._issued: list = []
        self._n = 0
        self._lock = threading.Lock()

    def next(self):
        with self._lock:
            i = self._n
            self._n += 1
            if i % REPEAT_EVERY == REPEAT_EVERY - 1:
                return self._issued[int(self._rng.integers(len(self._issued)))]
            if not self._order:
                self._order = [int(k) for k in
                               self._rng.permutation(len(self._variants))]
            spec = dataclasses.replace(
                self._variants[self._order.pop()], name=f"s{self._seed}-{i}"
            )
            self._issued.append(spec)
            return spec


@dataclass
class _Job:
    spec: object
    latency: float
    result: object = None
    error: str | None = None


def closed_loop(server, seq: JobSequence, seconds: float,
                clients: int = JOB_CLIENTS) -> tuple[list[_Job], float]:
    """Run the clients for ``seconds``; returns the jobs and the wall
    time until the last one completed."""
    jobs: list[_Job] = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def client() -> None:
        while time.perf_counter() < deadline:
            spec = seq.next()
            t0 = time.perf_counter()
            try:
                result = server.submit(spec).result(timeout=120.0)
                job = _Job(spec, time.perf_counter() - t0, result)
            except Exception as exc:  # shed, timed out: a failed job
                job = _Job(spec, time.perf_counter() - t0,
                           error=f"{type(exc).__name__}: {exc}")
            with lock:
                jobs.append(job)

    threads = [threading.Thread(target=client, name=f"client{c}")
               for c in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return jobs, time.perf_counter() - start


def direct_digest(spec) -> str:
    """Digest of the spec run directly, chunked like the resilient driver."""
    from repro.constants import ModelParameters
    from repro.core import DynamicalCore
    from repro.grid import LatLonGrid
    from repro.physics import perturbed_rest_state
    from repro.serve import state_digest

    grid = LatLonGrid(nx=spec.nx, ny=spec.ny, nz=spec.nz)
    params = ModelParameters(
        dt_adaptation=spec.dt_adaptation, dt_advection=spec.dt_advection,
        m_iterations=spec.m_iterations,
    )
    core = DynamicalCore(grid, algorithm=spec.algorithm, nprocs=spec.nprocs,
                         params=params, backend=spec.backend)
    state = perturbed_rest_state(grid, amplitude_k=spec.amplitude_k)
    done = 0
    while done < spec.nsteps:
        k = min(spec.checkpoint_interval, spec.nsteps - done)
        state, _ = core.run(state, k)
        done += k
    return state_digest(state)


def check_jobs(jobs: list[_Job], direct: dict, out: Outcome) -> None:
    """Every job ok, repeats identical, digests equal a direct run."""
    by_key: dict[str, str] = {}
    for job in jobs:
        out.attempted += 1
        r = job.result
        if job.error is not None or r is None or not r.ok:
            out.fail(f"job {job.spec.name}: "
                     f"{job.error or (r.error_type, r.error)}")
            continue
        first = by_key.setdefault(r.key, r.state_digest)
        pkey = job.spec.physics_key()
        if pkey not in direct:
            direct[pkey] = direct_digest(job.spec)
        if r.state_digest != first:
            out.fail(f"job {job.spec.name}: repeat has another digest")
        elif r.state_digest != direct[pkey]:
            out.fail(f"job {job.spec.name}: digest differs from a direct run")


def run_jobs(seed: int, seconds: float, trace: bool, workdir: Path,
             scale: Scale = FULL) -> Outcome:
    from repro.core import DynamicalCore
    from repro.grid import LatLonGrid
    from repro.serve import JobServer, job_key

    out = Outcome()
    variants = job_variants(seed, scale)
    probe = DynamicalCore(LatLonGrid(*scale.job_mesh), algorithm="ca",
                          nprocs=2, backend="process")
    out.provenance = resolved_knobs(probe)
    job_key(variants[0])  # the code version is resolved once per process

    setups: list[float] = []
    counter = itertools.count()

    def server():
        t0 = time.perf_counter()
        srv = JobServer(workdir / f"server{next(counter)}", workers=1)
        setups.append(time.perf_counter() - t0)
        return srv

    for _ in range(scale.setup_repeats):
        server().close()

    direct: dict[str, str] = {}

    def phase(seconds_: float):
        # each phase starts from the same sequence on a fresh cache
        seq = JobSequence(seed, variants)
        before = shm_segments()
        srv = server()
        try:
            jobs, wall = closed_loop(srv, seq, seconds_)
        finally:
            srv.close()
        leaked = len(shm_segments() - before)
        check_jobs(jobs, direct, out)
        if leaked:
            out.fail(f"{leaked} shm segment(s) leaked")
        ok = [j for j in jobs if j.result is not None and j.result.ok]
        computed = [j for j in ok if not j.result.cache_hit]
        steps = sum(j.spec.nsteps for j in computed)
        step_ms = 1000.0 * wall / steps if steps else float("nan")
        return srv, jobs, computed, wall, step_ms, leaked

    if not trace:
        _, jobs, _, wall, step_ms, _ = phase(seconds)
        lat = [j.latency for j in jobs]
        if not lat:
            return out
        _, p50, p75 = quartiles(lat)
        out.metrics = {
            "step_ms": step_ms,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "job_p50_s": p50,
            "job_p75_s": p75,
            "jobs_per_s": len(jobs) / wall,
        }
        # the p75 needs at least ten samples beyond it to be reported
        out.provenance.update(samples=len(jobs),
                              beyond_p75=sum(x > p75 for x in lat))
        return out

    _, _, _, _, plain_ms, _ = phase(seconds / 2)
    with instrumented():
        srv, jobs, computed, wall, traced_ms, leaked = phase(seconds / 2)
    if not computed:
        return out
    spans = srv.tracer.spans
    totals = ledger(spans)
    n_jobs = len(computed)
    steps = sum(j.spec.nsteps for j in computed)
    rank_steps = sum(j.spec.nsteps * j.spec.nprocs for j in computed)
    m: dict[str, float] = {}
    layer_ms = _metric_layers(totals, rank_steps / steps, steps, m)
    m["step.unattributed_ms"] = traced_ms - layer_ms
    m["trace.overhead"] = traced_ms / plain_ms

    def per_job(name: str, attr: str = "self_s", scale_: float = 1000.0):
        return scale_ * getattr(totals.get(name, LayerTotal()), attr) / n_jobs

    m["launch.spawn_ms"] = 1000.0 * sum(spawn_seconds(spans)) / n_jobs
    m["launch.scatter_ms"] = per_job("launch.scatter")
    m["launch.gather_ms"] = per_job("launch.gather")
    m["launch.leaked_segments"] = float(leaked)
    m["io.checkpoint_ms"] = per_job("io.checkpoint")
    m["io.checkpoint_mb"] = per_job("io.checkpoint", "bytes", 1e-6)
    m["io.checkpoints"] = per_job("io.checkpoint", "count", 1.0)
    m["resilience.chunks"] = per_job("resilience.chunk", "count", 1.0)
    execs = [s.duration for s in spans if s.name == "serve.exec"]
    exec_ms = 1000.0 * sum(execs) / max(1, len(execs))
    m["serve.exec_ms"] = exec_ms
    m["serve.queue_ms"] = (
        1000.0 * statistics.mean(j.latency for j in computed) - exec_ms
    )
    m["serve.cache_hit_ratio"] = sum(
        j.result.cache_hit for j in jobs if j.result is not None
    ) / len(jobs)
    m["serve.attempts"] = statistics.mean(j.result.attempts for j in computed)
    m["model.step_ms"] = 1000.0 * sum(
        j.result.makespan for j in computed) / steps
    _zero(m, ("model.compute_ms", "model.stencil_comm_ms",
              "model.collective_ms", "model.comm_fraction",
              "simmpi.retransmits"))
    out.metrics = m
    out.details["traced_step_ms"] = traced_ms
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: Path, scale: Scale = FULL) -> Outcome:
    if workload in SIMULATIONS:
        return run_simulation(workload, seed, seconds, trace, scale)
    if workload == "jobs":
        return run_jobs(seed, seconds, trace, workdir, scale)
    raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")


def scratch_dir(root: Path) -> Path:
    """The benchmark's own working directory inside the checkout."""
    d = root / ".perfbench" / f"run-{os.getpid()}"
    d.mkdir(parents=True, exist_ok=True)
    return d
