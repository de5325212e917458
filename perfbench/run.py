"""The repository benchmark: one command, four workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ca-p2 --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric
with ``--trace 1``.  The line before it holds the run's provenance
(resolved kernel tier, backend, executor and decomposition, source
revision, host fingerprint, the share of CPU time the host stole during
the run).  ``--out FILE`` also appends both, with the
workload and seed, to a JSON-lines file, and ::

    python3 perfbench/run.py --compare A.jsonl B.jsonl

reports, per (end-to-end metric, workload), the medians and quartiles
of the two result sets and whether they agree within the bounds of
``BENCHMARK.json``; it refuses to compare results from different hosts.

The benchmark needs the ``repro`` sources under ``src/`` next to it and
exits with code 2, printing no result, without them.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: environment knobs that would change what a default caller gets
CLEARED_ENV = ("REPRO_KERNEL_TIER", "REPRO_KERNEL_BACKEND", "REPRO_EXECUTOR")


def load_spec(root: Path = ROOT) -> dict:
    with open(root / "BENCHMARK.json") as fh:
        return json.load(fh)


def isolate_environment(state_dir: Path) -> None:
    """Clear the knob overrides; keep caches and temp files in the checkout."""
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    kernels = state_dir / "kernels"
    tmp = state_dir / "tmp"
    kernels.mkdir(parents=True, exist_ok=True)
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNELS_CACHE"] = str(kernels)
    os.environ["TMPDIR"] = str(tmp)
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR


def warm_kernel_cache() -> bool:
    """Build (or find) the compiled kernel library; False if none builds."""
    from repro.kernels.cbackend import c_available

    return c_available()


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts on the
    first shared-memory segment, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def host_fingerprint() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    host = {"cpu": model, "nproc": os.cpu_count(),
            "machine": platform.machine()}
    host["id"] = hashlib.sha256(
        json.dumps(host, sort_keys=True).encode()
    ).hexdigest()[:16]
    return host


def cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) jiffies of the host's CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def source_revision(root: Path = ROOT) -> dict:
    """The git commit when there is one, and a hash of ``src/`` always."""
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16]}


def result_line(outcome, names: list[str], units: dict[str, str]) -> dict:
    missing = [n for n in names if n not in outcome.metrics]
    if missing:
        outcome.fail(f"metrics not measured: {missing}")
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            n: {"value": float(outcome.metrics.get(n, float("nan"))),
                "unit": units[n]}
            for n in names
        },
    }


def bench_main(args) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"pick from {workloads}", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    state_dir = ROOT / ".perfbench"
    isolate_environment(state_dir)
    sys.path.insert(0, str(src))
    from perfbench import workloads as wl

    c_kernels = warm_kernel_cache()
    workdir = wl.scratch_dir(ROOT)
    before = cpu_jiffies()
    try:
        outcome = wl.run(args.workload, args.seed, float(args.seconds),
                         bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        stop_resource_tracker()
    after = cpu_jiffies()
    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]
    units = {m["name"]: m["unit"] for m in spec[kind]}
    result = result_line(outcome, names, units)
    provenance = {
        **outcome.provenance,
        "c_kernels_built": c_kernels,
        **source_revision(),
        "host": host_fingerprint(),
    }
    if before is not None and after is not None and after[1] > before[1]:
        # CPU time the hypervisor gave to other guests during the run:
        # a contended host slows every workload, the 2-rank ones most
        provenance["host_steal_share"] = (
            (after[0] - before[0]) / (after[1] - before[1])
        )
    for err in outcome.errors:
        print(f"perfbench: FAILED {err}", file=sys.stderr)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "provenance": provenance, "result": result,
            }) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two JSONL result sets")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    if args.compare:
        from perfbench.compare import compare_main

        return compare_main(load_spec(), *args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return bench_main(args)


if __name__ == "__main__":
    sys.exit(main())
