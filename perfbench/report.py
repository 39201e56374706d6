"""Compare two result files, and rebuild the ROADMAP re-anchor table from traced runs."""

from __future__ import annotations

import statistics
from pathlib import Path

import common

# ROADMAP re-anchor baseline (single runs on a 2-core OpenBLAS machine), in ms:
# entry -> (description, low, high)
ROADMAP_ANCHOR = {
    "build_lmi_p16_ms": ("`build_lmi`, dilation channel n=k=4 (p=16, d=240)", 4200.0, 4400.0),
    "lmi_build_p16_cli_ms": ("`chanfact lmi-build` on the p=16 channel, end to end", 6100.0, 6100.0),
    "cli_floor_ms": ("`chanfact check` (floor)", 280.0, 280.0),
    "verify_certificate_p36_ms": ("`verify_certificate`, p=36", 342.0, 342.0),
    "decompose_by_factors_p36_ms": ("`decompose_by_factors`, p=36", 245.0, 245.0),
    "hm_verify_certificate_ms": ("`verify_certificate`, HM example", 1.8, 1.8),
    "hm_certificate_from_point_ms": ("`certificate_from_point`, HM example", 0.56, 0.56),
    "stinespring_dilation_n12_ms": ("`stinespring_dilation`, n=p=12", 47.0, 47.0),
}


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(old_path: str, new_path: str, spec: dict) -> int:
    """Ratio NEW/OLD of the median of each end-to-end metric, with a verdict.

    unresolved: either side's spread (IQR / median) exceeds the bound, unless
    every new run beats every old run; worse: the new median is worse by more
    than the bound; better: it is better by more than the old runs' IQR;
    otherwise within bound.
    """
    old = [r for r in common.read_records(Path(old_path)) if r["trace"] == 0]
    new = [r for r in common.read_records(Path(new_path)) if r["trace"] == 0]
    print(f"{'workload':<14} {'metric':<16} {'unit':<5} {'old':>11} {'new':>11} "
          f"{'new/old':>8}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]] for r in old if r["workload"] == name]
            b = [r["metrics"][m["name"]] for r in new if r["workload"] == name]
            if not a or not b:
                print(f"{name:<14} {m['name']:<16} {m['unit']:<5} {'-':>11} {'-':>11}")
                continue
            print(f"{name:<14} {m['name']:<16} {m['unit']:<5} {statistics.median(a):>11.5g} "
                  f"{statistics.median(b):>11.5g} {statistics.median(b) / statistics.median(a):>8.4f}"
                  f"  {verdict(a, b, m)}")
    return 0


def verdict(old: list[float], new: list[float], metric: dict) -> str:
    bound = metric.get("bound", 0.25)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    med_old, med_new = statistics.median(old), statistics.median(new)
    worse_by = sign * (med_new - med_old) / med_old
    all_better = max(sign * x for x in new) < min(sign * x for x in old)
    noisy = max(common.spread(old), common.spread(new)) > bound
    if noisy and not all_better:
        return "unresolved (spread wider than the bound)"
    if worse_by > bound:
        return f"worse beyond the bound ({bound:g})"
    q1, _, q3 = _summary(old)
    gain = sign * (med_old - med_new)
    return "better" if gain > max(q3 - q1, 0.0) else "within bound"


def anchor(results_path: str) -> int:
    """Markdown table: ROADMAP value against the traced runs' median and IQR."""
    pooled: dict[str, list[float]] = {}
    runs = 0
    for rec in common.read_records(Path(results_path)):
        if rec["trace"] != 1 or "anchor" not in rec:
            continue
        runs += 1
        for entry, values in rec["anchor"].items():
            pooled.setdefault(entry, []).extend(values)
    print(f"Re-anchor table from {runs} traced run(s); ms per call.\n")
    print("| Entry | ROADMAP | median | IQR | samples | flag |")
    print("| --- | --- | --- | --- | --- | --- |")
    for entry, (label, low, high) in ROADMAP_ANCHOR.items():
        values = pooled.get(entry)
        ref = f"{low:g}" if low == high else f"{low:g}-{high:g}"
        if not values:
            print(f"| {label} | {ref} | - | - | 0 | not measured |")
            continue
        q1, med, q3 = _summary(values)
        gap = max(low - med, med - high, 0.0)
        flag = "differs by more than its spread" if gap > q3 - q1 else "within spread"
        print(f"| {label} | {ref} | {med:.4g} | {q1:.4g}-{q3:.4g} | {len(values)} | {flag} |")
    return 0
