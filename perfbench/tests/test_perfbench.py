"""Tests of the benchmark itself: its spec, workloads, ledger and compare mode.

Run from the repository root::

    python -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (ROOT, ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from perfbench import compare, instrument  # noqa: E402
from perfbench import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


# ---- the spec ---------------------------------------------------------------
def test_names_use_allowed_characters_and_are_unique():
    names = [w["name"] for w in SPEC["workloads"]] + E2E + PER_LAYER
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names))
    units = [m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(UNIT.match(u) for u in units), units
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])


def test_spec_keys_and_bounds_follow_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert all(set(w) == {"name", "why"} for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"}
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert isinstance(SPEC["run_seconds"], int)


def test_spec_matches_the_code_and_the_layer_table():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert set(LAYERS["per_layer"]) == set(PER_LAYER)
    assert set(LAYERS["end_to_end"]) - {"error_rate"} == set(E2E)
    for row in LAYERS["per_layer"].values():
        for pair in row["moves"]:
            assert pair["metric"] in E2E
            assert pair["workload"] in wl.WORKLOADS


# ---- tiny runs of every workload ----------------------------------------------
@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Outcomes of every workload at the tiny size, by (workload, trace, seed)."""
    cache: dict = {}

    def get(workload: str, trace: bool, seed: int = 1) -> wl.Outcome:
        key = (workload, trace, seed)
        if key not in cache:
            work = tmp_path_factory.mktemp(f"{workload}-{int(trace)}-{seed}")
            cache[key] = wl.run(workload, seed, 0.4, trace, work, wl.TINY)
        return cache[key]

    return get


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_workload_runs_at_tiny_size(tiny, workload, trace):
    out = tiny(workload, trace)
    assert out.attempted >= 1
    assert out.failed == 0, out.errors
    assert set(out.metrics) == set(PER_LAYER if trace else E2E)
    assert all(np.isfinite(v) for v in out.metrics.values()), out.metrics
    if not trace:
        assert all(v > 0 for v in out.metrics.values()), out.metrics
    else:
        assert out.metrics["launch.leaked_segments"] == 0
    assert {"kernel_tier", "kernel_backend", "executor",
            "decomposition"} <= set(out.provenance)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_layer_self_times_plus_unattributed_equal_the_traced_step(
    tiny, workload
):
    out = tiny(workload, True)
    layers = sum(out.metrics[f"{name}_ms"] for name in instrument.STEP_LAYERS)
    total = layers + out.metrics["step.unattributed_ms"]
    assert total == pytest.approx(out.details["traced_step_ms"], rel=1e-9)


def test_traced_counts_follow_the_algorithms(tiny):
    ca, orig = tiny("ca-p2", True), tiny("orig-p2-z", True)
    assert ca.metrics["halo.exchanges"] == pytest.approx(2.0)
    assert ca.metrics["simmpi.colls"] == 0
    assert orig.metrics["halo.exchanges"] > ca.metrics["halo.exchanges"]
    assert orig.metrics["simmpi.colls"] > 0
    assert tiny("serial", True).metrics["simmpi.msgs"] == 0


def test_another_seed_changes_inputs_not_metric_names(tiny):
    _, a = wl.simulation_input(1, wl.TINY)
    _, b = wl.simulation_input(2, wl.TINY)
    assert a.max_difference(b) > 0
    seq = [wl.JobSequence(s, wl.job_variants(s, wl.TINY)) for s in (1, 2)]
    first = [[q.next() for _ in range(10)] for q in seq]
    assert first[0] != first[1]
    for trace in (False, True):
        assert set(tiny("serial", trace, 2).metrics) == set(
            tiny("serial", trace, 1).metrics
        )


def test_job_sequence_repeats_one_in_five():
    seq = wl.JobSequence(3, wl.job_variants(3, wl.TINY))
    specs = [seq.next() for _ in range(50)]
    assert len({s.name for s in specs}) == 40


# ---- the ledger -------------------------------------------------------------
def _span(name, t0, t1, tid=1, pid=1, sid=0, parent=0):
    from repro.obs.spans import Span

    return Span(name=name, cat=instrument.CAT, t_start=t0, t_end=t1, rank=0,
                tid=tid, depth=0, span_id=sid, parent_id=parent, pid=pid)


def test_self_time_subtracts_children_on_the_same_thread_only():
    spans = [
        _span("op.C", 0.0, 10.0),
        _span("simmpi.coll", 2.0, 5.0),
        _span("simmpi.coll", 3.0, 4.0),   # nested collective: one count
        _span("op.A", 6.0, 8.0),
        _span("op.A", 1.0, 9.0, tid=2),   # other thread: not a child
    ]
    totals = instrument.ledger(spans)
    assert totals["op.C"].self_s == pytest.approx(5.0)
    assert totals["simmpi.coll"].self_s == pytest.approx(3.0)
    assert totals["simmpi.coll"].count == 1
    assert totals["op.A"].self_s == pytest.approx(10.0)
    assert totals["op.A"].count == 2


def test_spawn_is_launch_wall_minus_slowest_rank():
    spans = [
        _span("launch.spmd", 0.0, 10.0, sid=1),
        _span("launch.rank", 1.0, 8.0, pid=2, sid=2, parent=1),
        _span("launch.rank", 1.0, 9.0, pid=3, sid=3, parent=1),
    ]
    assert instrument.spawn_seconds(spans) == [pytest.approx(2.0)]


# ---- compare mode and the command ------------------------------------------
def _record(workload, value, host="h1"):
    return {
        "workload": workload, "trace": 0,
        "provenance": {"host": {"id": host}},
        "result": {"correct": True, "metrics": {
            m: {"value": value, "unit": "x"} for m in E2E}},
    }


def test_compare_reports_agreement_and_refuses_other_hosts():
    a = [_record("serial", v) for v in (1.0, 1.01, 0.99, 1.0)]
    b = [_record("serial", v) for v in (1.02, 1.0, 1.01, 0.995)]
    rows = compare.compare(SPEC, a, b)
    assert {r["metric"] for r in rows} == set(E2E)
    assert all(r["agree"] for r in rows)
    worse = [_record("serial", 2.0) for _ in range(4)]
    assert not all(r["agree"] for r in compare.compare(SPEC, a, worse))
    with pytest.raises(ValueError):
        compare.compare(SPEC, a, [_record("serial", 1.0, host="h2")])


def test_command_fails_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
