"""chanfact benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the root of a checkout (chanfact is imported from ./src):

    python3 perfbench/run.py --workload certify_io --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl
    python3 perfbench/run.py --anchor RESULTS.jsonl
    python3 perfbench/run.py --self-test

The last line of a workload run is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Each run also appends a record, with its environment, to
perfbench/results/runs.jsonl (or ``--results FILE``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ beside the benchmark's files

import common  # pins the BLAS thread count before numpy loads
import layers
import report
import selftest
import workloads

SETUP_REPEATS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--workload", help="workload name from BENCHMARK.json")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                      help="compare two result files metric by metric")
    mode.add_argument("--anchor", metavar="RESULTS",
                      help="re-anchor table from the traced records of a result file")
    mode.add_argument("--self-test", action="store_true",
                      help="check at tiny sizes that wrong outputs are counted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(common.RESULTS_DIR / "runs.jsonl"),
                        help="file the run record is appended to")
    args = parser.parse_args(argv)
    if not (args.workload or args.compare or args.anchor or args.self_test):
        parser.error("one of --workload, --compare, --anchor, --self-test is required")
    return args


def setup(name: str, seed: int, cf, env, work):
    """Input generation, file writing and warm-up, repeated; returns the plan and median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        plan = workloads.build_plan(name, work, seed, cf)
        workloads.warm_up(plan, env)
        times.append(time.perf_counter() - t0)
    return plan, statistics.median(times)


def run_workload(args, spec) -> int:
    cf = common.import_chanfact()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise common.SetupError(f"unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    env = common.child_env()
    work = common.BENCH_DIR / "work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan, setup_s = setup(args.workload, args.seed, cf, env, work)
        if args.trace:
            tally, measured, detail = layers.traced_run(plan, seconds, env, cf, work)
            wanted = spec["per_layer"]
        else:
            tally = workloads.measure(plan, seconds, env)
            lat = tally.latencies_ms
            ok = tally.attempted - len(tally.failures)
            measured = {
                "ops_per_s": ok / tally.busy_s if tally.busy_s else 0.0,
                "latency_p50_ms": common.quantile(lat, 0.5),
                "latency_p90_ms": common.quantile(lat, 0.9),
                "setup_s": setup_s,
                "peak_rss_mb": common.peak_rss_mb(),
            }
            detail = None
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    # a layer that no op of this workload reaches reads 0
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    unknown = sorted(set(measured) - set(metrics))
    if unknown:
        raise common.SetupError(f"metrics missing from BENCHMARK.json: {unknown}")

    failed = len(tally.failures)
    error_rate = failed / tally.attempted if tally.attempted else 1.0
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": seconds,
        "env": common.environment(args.seed),
        "attempted": tally.attempted,
        "failed": failed,
        "error_rate": error_rate,
        "failures": tally.failures[:20],
        "kind_p50_ms": tally.kind_medians(),
        "metrics": {k: v["value"] for k, v in metrics.items()},
    }
    if detail is not None:
        record["anchor"] = detail["anchor"]
        spans_path = common.RESULTS_DIR / f"spans-{args.workload}-{args.seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["op", "name", "start", "end", "parent", "counts", "size"],
                       "kinds": detail["kinds"], "spans": detail["spans"]}, fh)
    common.append_record(record, Path(args.results))

    for failure in tally.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    p90 = common.quantile(tally.latencies_ms, 0.9) if tally.latencies_ms else 0.0
    beyond = sum(1 for x in tally.latencies_ms if x > p90)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} samples={tally.attempted} "
          f"beyond_p90={beyond} error_rate={error_rate:.6g} ratio "
          f"blas_threads={common.BLAS_THREADS}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = common.load_spec()
        if args.compare:
            return report.compare(*args.compare, spec)
        if args.anchor:
            return report.anchor(args.anchor)
        if args.self_test:
            common.import_chanfact()
            return selftest.main()
        return run_workload(args, spec)
    except common.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
