"""Fast self-test of the harness at tiny sizes (p=4 dilation channels).

Runs a short clean loop, then the same loop with injected wrong outputs, and
checks that exactly the tampered operations are counted as failed:

- a perturbed certificate reported as valid (exit 0, "pass": true);
- a kernel basis with one element scaled, so it is no longer orthonormal;
- a certificate report whose bytes change between repeats of one input.
"""

from __future__ import annotations

import hashlib
import json
import shutil

import numpy as np

import common
import gen
import workloads

SECONDS = 2.0


def plan(work) -> workloads.Plan:
    rng = np.random.default_rng(7)
    kraus, blocks, ch, cert = workloads.certified_channel(work, "p4", 2, 2, rng)
    bad = [b.copy() for b in blocks]
    bad[0] += 1e-3
    bad_cert = workloads.write_doc(work, "cert-p4-bad.json", gen.certificate_doc(bad))
    cycle = [
        workloads.verify_op("verify-p4", "p4", kraus, blocks, ch, cert),
        workloads.verify_op("verify-bad-p4", "p4 perturbed", kraus, bad, ch, bad_cert),
        *workloads.kernel_ops(work, "p4", kraus, "p4")[1:],
    ]
    return workloads.Plan(cycle, [])


def tampering(kind: str):
    """An executor that corrupts the output of one op kind, and counts how often."""
    hits = {"n": 0}

    def run(op, env):
        res = workloads.execute(op, env)
        if op.kind != kind:
            return res
        hits["n"] += 1
        out, err = res.payload
        doc = json.loads(out)
        code = res.code
        if kind == "verify-bad-p4":
            doc["pass"] = True
            for key in ("orthonormality_residual", "complement_residual", "unitarity_residual"):
                doc[key] = 0.0
            code = 0
        elif kind == "kernel-basis-p4":
            row = doc["z"][0]["data"][0]
            row[0] = [row[0][0] * 1.01, row[0][1]]
        else:
            doc["orthonormality_residual"] = hits["n"] * 1e-17
        text = json.dumps(doc).encode()
        return workloads.Result(res.seconds, code, (text, err), hashlib.sha256(text).digest())

    return run, hits


def main() -> int:
    env = common.child_env()
    work = common.BENCH_DIR / "work" / "self-test"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ok = True
    try:
        p = plan(work)
        clean = workloads.measure(p, SECONDS, env, min_ops=0)
        good = clean.attempted > 0 and not clean.failures
        print(f"{'PASS' if good else 'FAIL'} clean run: {clean.attempted} ops, "
              f"{len(clean.failures)} failed {clean.failures[:3]}")
        ok &= good
        cases = [
            ("verify-bad-p4", "perturbed certificate labelled valid", 0),
            ("kernel-basis-p4", "kernel basis not orthonormal", 0),
            ("verify-p4", "report bytes change between repeats", 1),
        ]
        for kind, label, first_ok in cases:
            run, hits = tampering(kind)
            tally = workloads.measure(p, SECONDS, env, run=run, min_ops=0)
            expected = hits["n"] - first_ok
            rate = len(tally.failures) / tally.attempted
            good = expected > 0 and len(tally.failures) == expected
            print(f"{'PASS' if good else 'FAIL'} {label}: {len(tally.failures)} of "
                  f"{tally.attempted} ops failed (expected {expected}), error_rate={rate:.3f}")
            ok &= good
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1
