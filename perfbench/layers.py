"""The traced run: per-layer metrics from spans, counts and start-up probes.

End-to-end numbers never come from here. Each operation is replayed
in-process twice, untraced and then traced, and the difference between the
two is reported as the tracing overhead. CLI operations also run once as a
subprocess, for the CLI's own share of their latency.
"""

from __future__ import annotations

import fnmatch
import statistics
import subprocess
import sys
import time

import tracing
import workloads

# layer metric -> span names; a span nested in another span of the same set
# is not counted twice
SPAN_METRICS = {
    "jsonio.load_ms": ("json.load",),
    "jsonio.parse_ms": ("jsonio.*_from_json",),
    "jsonio.dumps_ms": ("jsonio.dumps", "jsonio.*_to_json"),
    "complement.kernel_basis_ms": ("complement.selfadjoint_kernel_basis",),
    "complement.data_ms": ("complement.complement_data",),
    "complement.is_extreme_ms": ("complement.is_extreme_channel",),
    "lmi.build_ms": ("lmi.build_lmi",),
    "lmi.membership_ms": ("lmi.lmi_membership",),
    "lmi.extract_ms": ("lmi.extract_blocks",),
    "lmi.point_from_blocks_ms": ("lmi.point_from_blocks",),
    "lmi.face_channel_ms": ("lmi.face_channel",),
    "factorization.verify_ms": ("factorization.verify_certificate",),
    "factorization.cert_from_point_ms": ("factorization.certificate_from_point",),
    "factorization.combine_ms": ("factorization.combine_certificates",),
    "factorization.decompose_ms": ("factorization.decompose_by_factors",),
    "factorization.extremality_check_ms": ("factorization.extremality_check",),
    "channel.stinespring_ms": ("channel.stinespring_dilation",),
    "linalg.complete_isometry_ms": ("linalg.complete_isometry",),
    "channel.checks_ms": ("channel.channel_checks",),
    "linalg.eigh_ms": ("linalg.eigh",),
    "linalg.psd_factor_ms": ("linalg.psd_factor",),
    "schur.hm_example_ms": ("schur.hm_example",),
    "schur.channel_from_gram_ms": ("schur.schur_channel_from_gram",),
}

# Entries of the re-anchor table: span name (or probe) and the op kind it is read from.
ANCHOR_SPANS = {
    "build_lmi_p16_ms": ("lmi.build_lmi", "lmi-build-p16"),
    "verify_certificate_p36_ms": ("factorization.verify_certificate", "verify-p36"),
    "decompose_by_factors_p36_ms": ("factorization.decompose_by_factors", "decompose-p36"),
    "hm_verify_certificate_ms": ("factorization.verify_certificate", "hm.verify_certificate"),
    "hm_certificate_from_point_ms": ("factorization.certificate_from_point",
                                     "hm.certificate_from_point"),
    "stinespring_dilation_n12_ms": ("channel.stinespring_dilation", "dilate-n12"),
}

PROBE_REPEATS = 5
KERNEL_BASIS = "complement.selfadjoint_kernel_basis"


def probe(env: dict, work) -> dict:
    """Fresh-interpreter start-up: import chanfact.cli, import numpy, a `check` floor."""
    channel = workloads.write_doc(work, "channel-floor.json",
                                  {"dim_in": 1, "dim_out": 1,
                                   "kraus": [{"rows": 1, "cols": 1, "data": [[[1.0, 0.0]]]}]})
    startup, numpy_import, floor = [], [], []
    timer = ("import time; t = time.perf_counter(); import numpy; "
             "print(time.perf_counter() - t)")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import chanfact.cli"], env=env, check=True)
        startup.append((time.perf_counter() - t0) * 1e3)
        out = subprocess.run([sys.executable, "-c", timer], env=env, check=True,
                             capture_output=True, text=True).stdout
        numpy_import.append(float(out) * 1e3)
        seconds, code, _, _ = workloads.spawn(["check", "-i", channel, "--json"], env)
        floor.append(seconds * 1e3)
    return {"startup": startup, "numpy_import": numpy_import, "floor": floor}


def traced_run(plan, seconds: float, env: dict, cf, work):
    """Replay the schedule of an untraced run; returns (tally, metrics, detail)."""
    tracer = tracing.Tracer()
    tally = workloads.Tally()
    judge = workloads.Judge()
    kinds: dict[int, str] = {}
    plain_s = traced_s = 0.0
    cli_wall: dict[str, list[float]] = {}
    cli_self: list[float] = []
    bytes_in = bytes_out = 0

    def one(op):
        nonlocal plain_s, traced_s, bytes_in, bytes_out
        op_id = len(kinds)
        kinds[op_id] = op.kind
        if op.argv is not None:
            res = workloads.execute(op, env)
            reason = judge(op, res)
            cli_wall.setdefault(op.kind, []).append(res.seconds * 1e3)
            plain, code, text = workloads.replay(op, cf)
            with tracing.instrument(tracer), tracer.operation(op_id, "op." + op.kind):
                workloads.replay(op, cf)
            cli_self.append((res.seconds - plain) * 1e3)
            if reason is None and (code != res.code or text.encode() != res.payload[0]):
                reason = "in-process output differs from the subprocess output"
            bytes_in += op.bytes_in
            bytes_out += len(res.payload[0])
        else:
            res = workloads.execute(op, env)
            plain = res.seconds
            reason = judge(op, res)
            with tracing.instrument(tracer), tracer.operation(op_id, "op." + op.kind):
                again = op.call()
            if reason is None and workloads.digest_of(again) != res.digest:
                reason = "traced output differs from the untraced output"
        root = next(s for s in reversed(tracer.spans) if s.parent is None)
        plain_s += plain
        traced_s += root.end - root.start
        tally.record(op, plain, reason)

    for op in workloads.schedule(plan, seconds):
        one(op)

    n_ops = len(kinds)
    metrics = span_metrics(tracer, n_ops)
    metrics.update(count_metrics(tracer, kinds))
    cli_ops = sum(len(v) for v in cli_wall.values())
    metrics["cli.self_ms"] = statistics.fmean(cli_self) if cli_self else 0.0
    for kind, walls in cli_wall.items():
        metrics[f"cli.{kind}.p50_ms"] = statistics.median(walls)
    metrics["jsonio.bytes_in"] = bytes_in / cli_ops if cli_ops else 0.0
    metrics["jsonio.bytes_out"] = bytes_out / cli_ops if cli_ops else 0.0
    probes = probe(env, work)
    metrics["cli.startup_ms"] = statistics.median(probes["startup"])
    metrics["cli.numpy_import_ms"] = statistics.median(probes["numpy_import"])
    metrics["cli.floor_ms"] = statistics.median(probes["floor"])
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s

    anchor = {"cli_floor_ms": probes["floor"]}
    for entry, (name, kind) in ANCHOR_SPANS.items():
        values = [(s.end - s.start) * 1e3 for s in tracer.spans
                  if s.name == name and kinds.get(s.op) == kind and _outermost(tracer, s, {name})]
        if values:
            anchor[entry] = values
    if "lmi-build-p16" in cli_wall:
        anchor["lmi_build_p16_cli_ms"] = cli_wall["lmi-build-p16"]
    detail = {"anchor": anchor, "spans": tracer.dump(), "kinds": kinds}
    return tally, metrics, detail


def _within(tracer, span, names) -> bool:
    """True when ``span`` or one of its ancestors has a name in ``names``."""
    while span is not None:
        if span.name in names:
            return True
        span = tracer.spans[span.parent] if span.parent is not None else None
    return False


def _outermost(tracer, span, names) -> bool:
    return span.parent is None or not _within(tracer, tracer.spans[span.parent], names)


def span_metrics(tracer, n_ops: int) -> dict:
    seen = {s.name for s in tracer.spans}
    out = {}
    for metric, patterns in SPAN_METRICS.items():
        names = {n for n in seen if any(fnmatch.fnmatchcase(n, p) for p in patterns)}
        total = sum(s.end - s.start for s in tracer.spans
                    if s.name in names and _outermost(tracer, s, names))
        out[metric] = total * 1e3 / n_ops
    return out


def count_metrics(tracer, kinds: dict[int, str]) -> dict:
    """Per-op numpy decomposition counts by op kind, decomposition time, SVDs per basis element."""
    per_op: dict[int, dict[str, int]] = {}
    decomp_s = 0.0
    svd_in_basis = 0
    basis_elems = 0
    for span in tracer.spans:
        if span.name == KERNEL_BASIS and span.size is not None:
            basis_elems += span.size
        if not span.counts:
            continue
        ops = per_op.setdefault(span.op, {})
        for name, (calls, seconds) in span.counts.items():
            ops[name] = ops.get(name, 0) + calls
            decomp_s += seconds
        if "numpy.svd" in span.counts and _within(tracer, span, {KERNEL_BASIS}):
            svd_in_basis += span.counts["numpy.svd"][0]
    by_kind: dict[str, list[tuple[int, int]]] = {}
    for op_id, kind in kinds.items():
        c = per_op.get(op_id, {})
        svd = c.get("numpy.svd", 0)
        eig = c.get("numpy.eigh", 0) + c.get("numpy.eigvalsh", 0)
        by_kind.setdefault(kind, []).append((svd, eig))
    out = {
        "numpy.decomp_ms": decomp_s * 1e3 / max(len(kinds), 1),
        "complement.svd_per_basis_elem": svd_in_basis / basis_elems if basis_elems else 0.0,
    }
    for kind, pairs in by_kind.items():
        out[f"numpy.svd_calls.{kind}"] = statistics.fmean(p[0] for p in pairs)
        out[f"numpy.eigh_calls.{kind}"] = statistics.fmean(p[1] for p in pairs)
    return out
