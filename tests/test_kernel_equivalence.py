"""Kernel-equivalence harness: the fused tier must be a bitwise no-op.

The fused C kernels (the default tier) reproduce the reference operators
— the oracle — bit for bit: same IEEE binary-operation sequence, only
the scheduling differs.  These tests pin that guarantee at three levels:
per-operator against the reference workspace implementations,
per-trajectory on the serial core, and per-trajectory across the thread
and process SPMD backends; and they pin the fallback to the reference
operators when no C compiler resolves.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.constants import ModelParameters
from repro.core.driver import DynamicalCore
from repro.core.integrator import SerialCore
from repro.grid.decomposition import Decomposition
from repro.grid.latlon import LatLonGrid
from repro.kernels import (
    TIERS,
    c_available,
    kernel_set,
    plan_cache_stats,
    registered_plans,
)
from repro.physics import balanced_random_state
from repro.serve import state_digest

needs_c = pytest.mark.skipif(not c_available(), reason="no C compiler on this host")

FIELDS = ("U", "V", "Phi", "psa")


def _assert_states_equal(a, b, context: str) -> None:
    for f in FIELDS:
        fa, fb = getattr(a, f), getattr(b, f)
        assert np.array_equal(fa, fb), (
            f"{context}: field {f} diverges "
            f"(max |delta| = {np.max(np.abs(fa - fb))})"
        )
        # array_equal treats -0.0 == 0.0; the tier contract is bitwise
        assert np.array_equal(np.signbit(fa), np.signbit(fb)), (
            f"{context}: field {f} differs in signed zeros"
        )


def _serial_trajectory(grid, s0, tier=None, nsteps=3, params=None):
    """``tier=None`` builds the core with its default tier."""
    kwargs = {} if tier is None else {"kernel_tier": tier}
    core = SerialCore(grid, params=params or ModelParameters(), **kwargs)
    w = core.pad(s0)
    for _ in range(nsteps):
        w = core.step(w)
    return w  # ghost-extended working state: compared in full


# ---------------------------------------------------------------------------
# tier plumbing
# ---------------------------------------------------------------------------
def test_reference_tier_has_no_kernel_set():
    assert kernel_set("reference") is None


def test_unknown_tier_and_backend_rejected():
    with pytest.raises(ValueError, match="kernel tier"):
        kernel_set("turbo")
    # the backend is no longer a knob: the fused tier is the C library
    with pytest.raises(TypeError, match="kernel_backend"):
        SerialCore(LatLonGrid(nx=16, ny=8, nz=4), kernel_backend="c")


@needs_c
def test_resolve_auto_prefers_compiled(small_grid):
    """The default core runs the fused C kernels when the compiler resolves."""
    core = SerialCore(small_grid)
    assert core.kernel_tier == "fused"
    assert core.kernels is not None
    assert DynamicalCore(small_grid).config.kernel_backend == "c"
    ref = DynamicalCore(small_grid, kernel_tier="reference")
    assert ref.config.kernel_backend == "reference"


@needs_c
def test_describe_reports_coverage():
    d = kernel_set("fused").describe()
    assert d["tier"] == "fused"
    assert d["backend"] == "c"
    assert d["coverage"] == ["smoothing", "advection", "adaptation", "vertical"]


def test_tiers_tuple_is_the_public_contract():
    assert TIERS == ("reference", "fused")


# ---------------------------------------------------------------------------
# serial trajectories: fused == reference, bit for bit
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["auto", "c"])
def test_serial_trajectory_bit_identical(backend, small_grid, rng):
    """``auto``: the default-constructed core; ``c``: fused asked for."""
    s0 = balanced_random_state(small_grid, rng)
    ref = _serial_trajectory(small_grid, s0, "reference")
    fused = _serial_trajectory(
        small_grid, s0, None if backend == "auto" else "fused"
    )
    _assert_states_equal(ref, fused, f"serial {backend}")


def test_serial_trajectory_with_y_smoothing_and_cross(small_grid, rng):
    """The beta_y / cross smoothing stages must fuse bit-exactly too."""
    params = ModelParameters(smoothing_beta_y_uv=0.06)
    s0 = balanced_random_state(small_grid, rng)
    ref = _serial_trajectory(small_grid, s0, "reference", params=params)
    fused = _serial_trajectory(small_grid, s0, "fused", params=params)
    _assert_states_equal(ref, fused, "serial fused with beta_y")


def test_fused_plans_registered_and_memoised(small_grid, rng):
    s0 = balanced_random_state(small_grid, rng)
    _serial_trajectory(small_grid, s0, "fused", nsteps=2)
    plans = registered_plans()
    assert plans, "fused run registered no kernel plans"
    ops = {p.op for p in plans}
    if c_available():
        assert {"smoothing", "advection", "adaptation", "vertical"} <= ops
    stats = plan_cache_stats()
    assert stats["size"] == len(plans)
    assert stats["hits"] > 0, "second step should hit the plan cache"
    for plan in plans:
        assert plan.stages, f"plan {plan.op} lists no atomic stages"


# ---------------------------------------------------------------------------
# SPMD trajectories: tier equivalence across execution backends
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("spmd_backend", ["thread", "process"])
def test_distributed_trajectory_bit_identical(spmd_backend, one_iter_params):
    grid = LatLonGrid(nx=32, ny=16, nz=6)
    s0 = balanced_random_state(grid, np.random.default_rng(20180813))
    finals = {}
    for tier in ("reference", "fused"):
        core = DynamicalCore(
            grid,
            algorithm="original-yz",
            nprocs=2,
            params=one_iter_params,
            backend=spmd_backend,
            kernel_tier=tier,
        )
        finals[tier], _ = core.run(s0, 2)
    _assert_states_equal(
        finals["reference"], finals["fused"], f"{spmd_backend} backend"
    )


def test_ca_algorithm_trajectory_bit_identical(one_iter_params):
    grid = LatLonGrid(nx=32, ny=32, nz=6)
    s0 = balanced_random_state(grid, np.random.default_rng(20180813))
    finals = {}
    for tier in ("reference", "fused"):
        core = DynamicalCore(
            grid,
            algorithm="ca",
            nprocs=2,
            params=one_iter_params,
            kernel_tier=tier,
        )
        finals[tier], _ = core.run(s0, 2)
    _assert_states_equal(finals["reference"], finals["fused"], "ca algorithm")


#: (id, algorithm, nprocs, decomposition (px, py, pz) or None = the
#: algorithm's default, grid ny, m_iterations)
ALGORITHM_CASES = [
    ("serial", "serial", 1, None, 16, 1),
    ("ca", "ca", 4, None, 16, 1),
    ("original-yz", "original-yz", 4, None, 16, 1),
    ("original-xy", "original-xy", 4, None, 16, 1),
    ("original-3d", "original-3d", 4, None, 16, 1),
    # z-split CA (gz > 0): the later smoothing copies smoothed z-ghost levels
    ("ca-z-split", "ca", 4, (1, 2, 2), 16, 1),
    # the default M = 3: the widest CA halo (gy = 11) around the strips
    ("ca-m3", "ca", 2, None, 32, 3),
]


@pytest.mark.parametrize("spmd_backend", ["thread", "process"])
@pytest.mark.parametrize(
    "algorithm,nprocs,shape,ny,m_iterations",
    [case[1:] for case in ALGORITHM_CASES],
    ids=[case[0] for case in ALGORITHM_CASES],
)
def test_default_run_digest_equals_reference(
    algorithm, nprocs, shape, ny, m_iterations, spmd_backend, one_iter_params
):
    """A default-configured run is bit-identical to the reference tier."""
    grid = LatLonGrid(nx=32, ny=ny, nz=8)
    params = replace(one_iter_params, m_iterations=m_iterations)
    decomp = (
        Decomposition(grid.nx, grid.ny, grid.nz, *shape)
        if shape is not None else None
    )
    s0 = balanced_random_state(grid, np.random.default_rng(11))
    digests = {}
    for label, kwargs in (("default", {}), ("reference", {"kernel_tier": "reference"})):
        core = DynamicalCore(
            grid, algorithm=algorithm, nprocs=nprocs, params=params,
            decomp=decomp, backend=spmd_backend, **kwargs,
        )
        final, _ = core.run(s0, 2)
        digests[label] = state_digest(final)
    assert digests["default"] == digests["reference"]


# ---------------------------------------------------------------------------
# graceful fallback
# ---------------------------------------------------------------------------
@pytest.fixture
def cold_kernel_cache(tmp_path, monkeypatch):
    """A fresh kernel cache dir and a process that has loaded no library."""
    from repro.kernels import cbackend, dispatch

    monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path))
    monkeypatch.setattr(cbackend, "_LIB", None)
    monkeypatch.setattr(cbackend, "_LIB_ERROR", None)
    monkeypatch.setattr(dispatch, "_warned", False)
    return tmp_path


def test_no_compiler_runs_reference_bit_identically(
    cold_kernel_cache, monkeypatch, small_grid, rng, one_iter_params
):
    """Without a compiler the default core is the reference tier, warned
    about once per process."""
    import warnings

    from repro.kernels import cbackend

    def no_compiler():
        raise cbackend.KernelBuildError("no working C compiler: test")

    monkeypatch.setattr(cbackend, "_build_so", no_compiler)
    s0 = balanced_random_state(small_grid, rng)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fallback = _serial_trajectory(small_grid, s0)
        core = DynamicalCore(
            small_grid, algorithm="original-yz", nprocs=2, params=one_iter_params
        )
        dist, _ = core.run(s0, 1)
    ref = _serial_trajectory(small_grid, s0, "reference")
    _assert_states_equal(ref, fallback, "no-compiler fallback")
    ref_dist, _ = DynamicalCore(
        small_grid, algorithm="original-yz", nprocs=2, params=one_iter_params,
        kernel_tier="reference",
    ).run(s0, 1)
    _assert_states_equal(ref_dist, dist, "no-compiler distributed fallback")
    unavailable = [
        w for w in caught
        if issubclass(w.category, RuntimeWarning)
        and "fused C kernels unavailable" in str(w.message)
    ]
    assert len(unavailable) == 1, [str(w.message) for w in caught]
    assert core.config.kernel_backend == "reference"


@needs_c
def test_process_ranks_share_one_cold_build(cold_kernel_cache, one_iter_params):
    """The launcher builds the library before forking: one build, not one
    per rank."""
    grid = LatLonGrid(nx=32, ny=16, nz=6)
    s0 = balanced_random_state(grid, np.random.default_rng(3))
    core = DynamicalCore(
        grid, algorithm="original-yz", nprocs=2, params=one_iter_params,
        backend="process",
    )
    core.run(s0, 1)
    builds = [p for p in cold_kernel_cache.iterdir() if p.is_dir()]
    assert len(builds) == 1, builds
    assert len(list(cold_kernel_cache.glob("repro_kernels_*.so"))) == 1


@needs_c
def test_c_falls_back_outside_its_coverage(small_grid, rng):
    """C fuses only the full-column ``C``: a z-gathered call (a z-split
    rank) returns ``None``, so the engine runs the reference path — whose
    results ``test_default_run_digest_equals_reference[original-3d-*]``
    pins."""
    core = SerialCore(small_grid)
    w, eng = core.pad(balanced_random_state(small_grid, rng)), core.engine
    fields = (w.U, w.V, w.Phi, w.psa, eng.geom)
    full = core.kernels.vertical(*fields, None, eng.ws, eng._vert_cache)
    assert full is not None
    gathered = core.kernels.vertical(
        *fields, lambda block: block, eng.ws, eng._vert_cache
    )
    assert gathered is None


@needs_c
def test_non_contiguous_input_falls_back(small_grid, rng):
    from repro.core.workspace import Workspace
    from repro.operators.smoothing import smoothers_for

    ks = kernel_set("fused")
    sm = smoothers_for(ModelParameters())["U"]
    a = np.asfortranarray(rng.normal(size=(6, 16, 32)))
    out = np.empty_like(a)
    assert ks.smooth_field(sm, a, out, Workspace()) is None


def test_env_override_selects_tier(small_grid, rng, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_TIER", "fused")
    core = DynamicalCore(grid=small_grid, algorithm="serial")
    assert core.config.kernel_tier == "fused"
    monkeypatch.setenv("REPRO_KERNEL_TIER", "warp")
    with pytest.raises(ValueError, match="kernel_tier"):
        DynamicalCore(grid=small_grid, algorithm="serial")


# ---------------------------------------------------------------------------
# observability: fused calls appear as kernel-category spans
# ---------------------------------------------------------------------------
def test_fused_runs_emit_kernel_spans(tmp_path, one_iter_params):
    import json

    from repro.obs import ObsConfig

    grid = LatLonGrid(nx=32, ny=16, nz=6)
    s0 = balanced_random_state(grid, np.random.default_rng(7))
    trace = tmp_path / "fused_trace.json"
    core = DynamicalCore(
        grid,
        algorithm="serial",
        params=one_iter_params,
        kernel_tier="fused",
        observe=ObsConfig(chrome_trace=trace),
    )
    core.run(s0, 1)
    events = json.loads(trace.read_text())
    events = events["traceEvents"] if isinstance(events, dict) else events
    kernel_spans = [
        e for e in events
        if isinstance(e, dict) and e.get("cat") == "kernel"
    ]
    assert kernel_spans, "no kernel-category spans in the fused trace"
    names = {e["name"] for e in kernel_spans}
    assert any(n.startswith("smoothing-fused[") for n in names), names
