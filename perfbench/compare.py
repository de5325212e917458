"""Compare two result sets of the benchmark against its bounds.

A result set is a JSON-lines file written by ``run.py --out``.  For each
(end-to-end metric, workload) pair present in both sets, the report
gives each set's median and quartiles and two verdicts:

* ``spread`` — each set's interquartile range, as a share of its median,
  is within the metric's bound (not required of ``setup_s``);
* ``shift`` — set B's median is not worse than set A's by more than the
  bound, in the metric's ``better`` direction.

The pair agrees when both hold.  Results recorded on different hosts
(host fingerprint ids) are never compared.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

EXEMPT_SPREAD = ("setup_s",)


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def values_by_pair(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = defaultdict(list)
    for rec in records:
        if rec["trace"] or not rec["result"]["correct"]:
            continue
        for name, m in rec["result"]["metrics"].items():
            out[(name, rec["workload"])].append(m["value"])
    return out


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": med, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def compare(spec: dict, a: list[dict], b: list[dict]) -> list[dict]:
    """One row per (end-to-end metric, workload) pair found in both sets."""
    hosts = {r["provenance"]["host"]["id"] for r in a + b}
    if len(hosts) > 1:
        raise ValueError(f"results come from different hosts: {sorted(hosts)}")
    va, vb = values_by_pair(a), values_by_pair(b)
    rows = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload in (w["name"] for w in spec["workloads"]):
            key = (name, workload)
            if key not in va or key not in vb:
                continue
            sa, sb = summary(va[key]), summary(vb[key])
            change = sign * (sb["median"] - sa["median"]) / sa["median"]
            spread_ok = name in EXEMPT_SPREAD or (
                sa["spread"] <= bound and sb["spread"] <= bound
            )
            shift_ok = change <= bound
            rows.append({
                "metric": name, "workload": workload, "bound": bound,
                "a": sa, "b": sb, "worse_by": change,
                "spread_ok": spread_ok, "shift_ok": shift_ok,
                "agree": spread_ok and shift_ok,
            })
    return rows


def compare_main(spec: dict, path_a: str, path_b: str) -> int:
    try:
        rows = compare(spec, load(path_a), load(path_b))
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"{'metric':<12} {'workload':<10} {'A median':>11} {'A IQR%':>7} "
          f"{'B median':>11} {'B IQR%':>7} {'worse%':>7} {'bound%':>6}  agree")
    for r in rows:
        print(f"{r['metric']:<12} {r['workload']:<10} "
              f"{r['a']['median']:>11.5g} {100 * r['a']['spread']:>7.2f} "
              f"{r['b']['median']:>11.5g} {100 * r['b']['spread']:>7.2f} "
              f"{100 * r['worse_by']:>7.2f} {100 * r['bound']:>6.1f}  "
              f"{'yes' if r['agree'] else 'NO'}")
    agree = bool(rows) and all(r["agree"] for r in rows)
    print(json.dumps({"pairs": len(rows), "agree": agree}))
    return 0 if agree else 1
