"""The three workloads, their operations, and the closed-loop runner.

One client runs operations back to back (closed loop). A CLI operation is a
fresh ``chanfact`` process, timed from spawn until it has exited and its
stdout has been read; a library operation is one timed call. Every output is
judged after the clock stops: expected exit code, the numpy oracle, and the
determinism guard (repeats of one operation on one input within a run must
give identical bytes).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

import common
import gen
import oracle

OP_TIMEOUT_S = 150
# An untraced run keeps going past its time until it has this many samples,
# so that at least ten of them lie beyond the 90th percentile.
MIN_SAMPLES = 100


@dataclasses.dataclass
class Op:
    """One benchmark operation on one fixed input.

    ``key`` names the operation and its input for the determinism guard;
    ``check`` receives (stdout, stderr) for CLI ops and the returned value
    for library ops, and returns None or the reason the output is wrong.
    """

    kind: str
    key: str
    check: Callable
    expect: int = 0
    argv: list | None = None
    call: Callable | None = None
    bytes_in: int = 0


@dataclasses.dataclass
class Result:
    seconds: float
    code: int
    payload: object
    digest: bytes


def spawn(argv: list[str], env: dict) -> tuple[float, int, bytes, bytes]:
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", common.CLI_ENTRY, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=common.ROOT,
    )
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return time.perf_counter() - t0, proc.returncode, out, err


def digest_of(obj) -> bytes:
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(repr((x.dtype.str, x.shape)).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif dataclasses.is_dataclass(x):
            h.update(type(x).__name__.encode())
            for f in dataclasses.fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, (list, tuple)):
            h.update(b"[%d" % len(x))
            for item in x:
                feed(item)
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.digest()


def execute(op: Op, env: dict) -> Result:
    """Run one operation; only the operation itself is inside the clock."""
    if op.argv is not None:
        seconds, code, out, err = spawn(op.argv, env)
        return Result(seconds, code, (out, err), hashlib.sha256(out).digest())
    t0 = time.perf_counter()
    value = op.call()
    seconds = time.perf_counter() - t0
    return Result(seconds, 0, value, digest_of(value))


class Judge:
    """Exit code, oracle and determinism verdicts; the oracle runs once per distinct output."""

    def __init__(self):
        self.first: dict[str, tuple[bytes, str | None]] = {}

    def __call__(self, op: Op, res: Result) -> str | None:
        if res.code != op.expect:
            return f"exit code {res.code}, expected {op.expect}"
        key = f"{op.kind} {op.key}"
        seen = self.first.get(key)
        if seen is not None:
            if seen[0] != res.digest:
                return "output differs from an earlier run of the same op on the same input"
            return seen[1]
        try:
            verdict = op.check(*res.payload) if op.argv is not None else op.check(res.payload)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            verdict = f"unreadable output: {type(exc).__name__}: {exc}"
        self.first[key] = (res.digest, verdict)
        return verdict


@dataclasses.dataclass
class Tally:
    latencies_ms: list = dataclasses.field(default_factory=list)
    kinds: list = dataclasses.field(default_factory=list)
    failures: list = dataclasses.field(default_factory=list)
    busy_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    def kind_medians(self) -> dict[str, float]:
        by_kind: dict[str, list[float]] = {}
        for kind, ms in zip(self.kinds, self.latencies_ms):
            by_kind.setdefault(kind, []).append(ms)
        return {kind: statistics.median(v) for kind, v in sorted(by_kind.items())}

    def record(self, op: Op, seconds: float, reason: str | None) -> None:
        self.latencies_ms.append(seconds * 1e3)
        self.kinds.append(op.kind)
        self.busy_s += seconds
        if reason is not None:
            self.failures.append(f"{op.kind} [{op.key}]: {reason}")


def schedule(plan: "Plan", seconds: float, min_ops: int = 0):
    """Whole cycles until ``seconds`` have passed and ``min_ops`` ops have run,
    so every run has the same op mix; the one-off ops run once, after the
    first cycle."""
    deadline = time.perf_counter() + seconds
    count = len(plan.cycle) + len(plan.once)
    yield from plan.cycle
    yield from plan.once
    while time.perf_counter() < deadline or count < min_ops:
        count += len(plan.cycle)
        yield from plan.cycle


def measure(plan: "Plan", seconds: float, env: dict, run=execute,
            min_ops: int = MIN_SAMPLES) -> Tally:
    tally = Tally()
    judge = Judge()
    for op in schedule(plan, seconds, min_ops):
        try:
            res = run(op, env)
        except Exception as exc:  # a crashed op is a failed op; the run goes on
            tally.record(op, 0.0, f"{type(exc).__name__}: {exc}")
            continue
        tally.record(op, res.seconds, judge(op, res))
    return tally


@dataclasses.dataclass
class Plan:
    """Ops of one cycle, and ops that run once per run."""

    cycle: list
    once: list


# ---------------------------------------------------------------- CLI helpers


def _doc(out: bytes):
    return json.loads(out.decode("utf-8"))


def write_doc(work: Path, name: str, doc) -> str:
    path = work / name
    gen.write_json(path, doc)
    return str(path)


def cli_op(kind, key, argv, check, files=(), expect=0) -> Op:
    nbytes = sum(Path(f).stat().st_size for f in files)
    return Op(kind, key, check, expect, argv=[*argv, "--json"], bytes_in=nbytes)


def _kraus(doc) -> list:
    return list(gen.matrices_from_docs(doc["kraus"]))


def _certificate(doc) -> tuple[list, list]:
    factors = [(f["dim"], f["weight"]) for f in doc["algebra"]["factors"]]
    elements = [tuple(gen.matrix_from_doc(b) for b in el) for el in doc["v"]]
    return factors, elements


def kernel_ops(work, tag, kraus, kind_size) -> list[Op]:
    """lmi-build, kernel-basis: the returned basis must span the Hermitian kernel."""
    path = write_doc(work, f"channel-{tag}.json", gen.channel_doc(kraus))
    d = oracle.kernel_dim(kraus)
    p = len(kraus)

    def check_lmi(out, err):
        doc = _doc(out)
        if doc["p"] != p:
            return f"p={doc['p']}, expected {p}"
        return oracle.kernel_basis_error(kraus, gen.matrices_from_docs(doc["z"]), d)

    def check_basis(out, err):
        doc = _doc(out)
        if doc["d"] != d:
            return f"d={doc['d']}, expected {d}"
        return oracle.kernel_basis_error(kraus, gen.matrices_from_docs(doc["z"]), d)

    return [
        cli_op(f"lmi-build-{kind_size}", f"lmi-build {tag}", ["lmi-build", "-i", path],
               check_lmi, [path]),
        cli_op(f"kernel-basis-{kind_size}", f"kernel-basis {tag}", ["kernel-basis", "-i", path],
               check_basis, [path]),
    ]


def extremality_op(work, tag, kraus, k, kind, rng) -> Op:
    """A tiny point (PSD, full rank) and a large traceless one (not PSD): both consistent
    for any orthonormal kernel basis, so the expected report does not depend on it."""
    path = write_doc(work, f"channel-{tag}.json", gen.channel_doc(kraus))
    d = oracle.kernel_dim(kraus)
    p = len(kraus)
    files = [path]
    expected = []
    tiny = np.asarray([1e-3 / max(d, 1) * gen.random_hermitian(rng, k) for _ in range(d)])
    large = np.asarray([50.0 * gen.traceless_hermitian(rng, k) for _ in range(d)])
    # with d = 0 both points are empty and the pencil is the identity
    candidates = [(tiny, True, p * k), (large, False, None)] if d else [(tiny, True, p * k)]
    for idx, (a, psd, rank) in enumerate(candidates):
        pt = write_doc(work, f"point-{tag}-{idx}.json", gen.point_doc(a, k))
        files.append(pt)
        trace_norm = float(np.max(np.abs(np.trace(a, axis1=1, axis2=2)))) if d else 0.0
        expected.append((psd, rank, trace_norm))
    argv = ["extremality"] + [x for f in files for x in ("-i", f)]

    def check(out, err):
        doc = _doc(out)
        if doc["d"] != d or doc["extreme_channel"] != (d == 0):
            return f"d={doc['d']} extreme={doc['extreme_channel']}, expected d={d}"
        if not doc["all_consistent"] or len(doc["candidates"]) != len(expected):
            return "candidate reports inconsistent or missing"
        for got, (psd, rank, trace_norm) in zip(doc["candidates"], expected):
            if got["in_solution_set"] != psd or (rank is not None and got["rank"] != rank):
                return f"candidate psd={got['in_solution_set']} rank={got['rank']}"
            if not oracle.close(got["trace_norm"], trace_norm, 1e-12):
                return f"trace norm {got['trace_norm']!r}, expected {trace_norm!r}"
        return None

    return cli_op(kind, f"extremality {tag}", argv, check, files)


def certified_channel(work, tag, n, k, rng):
    kraus, blocks = gen.dilation_channel(rng, n, k)
    ch = write_doc(work, f"channel-{tag}.json", gen.channel_doc(kraus))
    cert = write_doc(work, f"cert-{tag}.json", gen.certificate_doc(blocks))
    return kraus, blocks, ch, cert


def verify_op(kind, tag, kraus, blocks, ch, cert) -> Op:
    """Expected verdict comes from the oracle; a rejected certificate must exit 1."""
    valid = oracle.certificate_error(kraus, [(blocks[0].shape[0], 1.0)],
                                     [(b,) for b in blocks]) is None

    def check(out, err):
        doc = _doc(out)
        residuals = [doc["orthonormality_residual"], doc["complement_residual"],
                     doc["unitarity_residual"]]
        if doc["pass"] != valid or (max(residuals) <= 1e-9) != valid:
            return f"pass={doc['pass']} residuals={residuals}, oracle says valid={valid}"
        return None

    return cli_op(kind, f"verify {tag}", ["verify", "-i", ch, "-i", cert], check,
                  [ch, cert], expect=0 if valid else 1)


def decompose_op(kind, tag, kraus, ch, cert) -> Op:
    def check(out, err):
        comps = []
        for c in _doc(out)["components"]:
            factors, elements = _certificate(c["certificate"])
            comps.append((c["weight"], _kraus(c["channel"]), factors, elements))
        return oracle.decomposition_error(kraus, comps)

    return cli_op(kind, f"decompose {tag}", ["decompose", "-i", ch, "-i", cert], check,
                  [ch, cert])


# ---------------------------------------------------------------- workloads


def kernel_build_plan(work: Path, rng, cf) -> Plan:
    """Kernel builds through the CLI: p=9 (d=72) channels, a d=0 channel, one p=16 build."""
    cycle = []
    for tag in ("p9a", "p9b"):
        kraus, _ = gen.dilation_channel(rng, 3, 3)
        cycle += kernel_ops(work, tag, kraus, "p9")
        cycle.append(extremality_op(work, tag, kraus, 3, "extremality-p9", rng))
    extreme = gen.random_tp_channel(rng, 12, 12)
    cycle.append(extremality_op(work, "n12", extreme, 1, "extremality-n12", rng))
    big, _ = gen.dilation_channel(rng, 4, 4)
    once = kernel_ops(work, "p16", big, "p16")[:1]
    return Plan(cycle, once)


def certify_io_plan(work: Path, rng, cf) -> Plan:
    """Certificate checks, dilation and JSON reads through the CLI; no kernel builds."""
    a_kraus, a_blocks, a_ch, a_cert = certified_channel(work, "p16a", 4, 4, rng)
    b_kraus, b_blocks, b_ch, b_cert = certified_channel(work, "p16b", 4, 4, rng)
    c_kraus, c_blocks, c_ch, c_cert = certified_channel(work, "p36", 6, 6, rng)

    bad_blocks = [b.copy() for b in a_blocks]
    bad_blocks[0] += 1e-3 * gen.complex_gaussian(rng, bad_blocks[0].shape)
    bad_cert = write_doc(work, "cert-p16-bad.json", gen.certificate_doc(bad_blocks))

    malformed = gen.channel_doc(a_kraus)
    malformed["kraus"][0]["data"][0] = malformed["kraus"][0]["data"][0][:-1]
    bad_doc = write_doc(work, "channel-malformed.json", malformed)

    def check_malformed(out, err):
        if out:
            return "malformed input produced stdout"
        return None if "error" in json.loads(err.decode().strip().splitlines()[-1]) else "no error"

    t = float(rng.uniform(0.2, 0.8))

    def check_combine(out, err):
        doc = _doc(out)
        kraus = _kraus(doc["channel"])
        factors, elements = _certificate(doc["certificate"])
        target = t * oracle.choi(a_kraus) + (1.0 - t) * oracle.choi(b_kraus)
        if doc["t"] != t or np.linalg.norm(oracle.choi(kraus) - target) > oracle.TOL:
            return "combined channel is not the mixture"
        if [w for _, w in factors] != [t, 1.0 - t]:
            return f"factor weights {factors}"
        return oracle.certificate_error(kraus, factors, elements)

    tp = gen.random_tp_channel(rng, 12, 12)
    tp_path = write_doc(work, "channel-tp12.json", gen.channel_doc(tp))
    probe = np.random.default_rng(int(rng.integers(1 << 31)))

    def check_dilate(out, err):
        doc = _doc(out)
        if doc["p"] != len(tp):
            return f"p={doc['p']}"
        return oracle.dilation_error(tp, gen.matrix_from_doc(doc["unitary"]), doc["p"], probe)

    # The p=16 system is built once here, by the numpy generator, so that
    # lmi-check and extract read a 2.8 MB document without a kernel build.
    z = gen.hermitian_kernel(a_kraus)
    a = gen.point_from_certificate(z, a_blocks)
    sys_path = write_doc(work, "system-p16.json", gen.system_doc(z))
    pt_path = write_doc(work, "point-p16.json", gen.point_doc(a, 4))
    psd, rank, traces = oracle.membership(z, a)

    def check_lmi_check(out, err):
        doc = _doc(out)
        if doc["psd"] != psd or doc["rank"] != rank:
            return f"psd={doc['psd']} rank={doc['rank']}, expected {psd} {rank}"
        if np.max(np.abs(np.asarray(doc["traces"]) - traces)) > 1e-12:
            return "coefficient traces differ"
        return None

    def check_extract(out, err):
        doc = _doc(out)
        if doc["k"] != 4:
            return f"k={doc['k']}"
        return oracle.blocks_error(z, a, list(gen.matrices_from_docs(doc["blocks"])))

    def check_hm(out, err):
        doc = _doc(out)
        residuals = (doc["span_residuals"] + doc["annihilation_residuals"]
                     + doc["equation_residuals"] + [doc["certificate"]["unitarity_residual"]])
        c = oracle.hm_correlation()
        if doc["correlation_rank"] != np.linalg.matrix_rank(c) or doc["kernel_dim"] != 3:
            return "wrong correlation rank or kernel dimension"
        mem = doc["membership"]
        if not (mem["psd"] and mem["rank"] == 2 and doc["pass"] and max(residuals) <= 1e-8):
            return "worked example does not verify"
        return None

    pair = [a_ch, a_cert, b_ch, b_cert]
    cycle = [
        verify_op("verify-p16", "p16a", a_kraus, a_blocks, a_ch, a_cert),
        decompose_op("decompose-p16", "p16a", a_kraus, a_ch, a_cert),
        verify_op("verify-p36", "p36", c_kraus, c_blocks, c_ch, c_cert),
        decompose_op("decompose-p36", "p36", c_kraus, c_ch, c_cert),
        cli_op("combine-p16", "combine p16a p16b",
               ["combine", *[x for f in pair for x in ("-i", f)], "--t", repr(t)],
               check_combine, pair),
        cli_op("dilate-n12", "dilate tp12", ["dilate", "-i", tp_path], check_dilate, [tp_path]),
        cli_op("lmi-check-p16", "lmi-check p16", ["lmi-check", "-i", sys_path, "-i", pt_path],
               check_lmi_check, [sys_path, pt_path]),
        cli_op("extract-p16", "extract p16", ["extract", "-i", sys_path, "-i", pt_path],
               check_extract, [sys_path, pt_path]),
        cli_op("example-hm-verify", "example hm", ["example", "hm", "--verify"], check_hm),
        verify_op("verify-bad-p16", "p16 perturbed", a_kraus, bad_blocks, a_ch, bad_cert),
        cli_op("malformed", "verify malformed", ["verify", "-i", bad_doc, "-i", a_cert],
               check_malformed, [bad_doc, a_cert], expect=2),
        verify_op("verify-p16", "p16b", b_kraus, b_blocks, b_ch, b_cert),
        decompose_op("decompose-p16", "p16b", b_kraus, b_ch, b_cert),
    ]
    return Plan(cycle, [])


def hm_pipeline_plan(work: Path, rng, cf) -> Plan:
    """The Haagerup-Musat example (p=3, n=6) on seeded rank-2 solutions, in-process."""
    hm = cf.schur.hm_example()
    channel = cf.schur.schur_channel_from_gram(hm.w)
    kraus = list(channel.operators)
    system = cf.lmi.LmiSystem(3, hm.z, source=channel)
    z = np.asarray(hm.z)
    d = oracle.kernel_dim(kraus)
    base = np.asarray(cf.schur.hm_derived_point())

    def point(a):
        return cf.lmi.LmiPoint(2, tuple(a))

    def certificate(factors, elements):
        algebra = cf.factorization.FactorAlgebra(tuple(factors))
        return cf.factorization.FactorizationCertificate(algebra, tuple(elements))

    # rank-2 traceless solutions: the worked point conjugated by Haar unitaries
    solutions = [base] + [
        np.einsum("uv,ivw,xw->iux", u, base, u.conj())
        for u in (gen.haar_unitary(rng, 2) for _ in range(3))
    ]
    cases = []
    for j, a in enumerate(solutions):
        blocks = oracle.psd_blocks(oracle.pencil(z, a), 2, 3)
        other = oracle.psd_blocks(oracle.pencil(z, solutions[(j + 1) % len(solutions)]), 2, 3)
        t = float(rng.uniform(0.2, 0.8))
        mix_kraus = [np.sqrt(t) * k for k in kraus] + [np.sqrt(1 - t) * k for k in kraus]
        zero = np.zeros((2, 2), dtype=complex)
        mix_elements = [(b / np.sqrt(t), zero) for b in blocks] + [
            (zero, b / np.sqrt(1 - t)) for b in other
        ]
        bad = [b.copy() for b in blocks]
        bad[0] = bad[0] + 1e-3 * gen.complex_gaussian(rng, (2, 2))
        x = rng.standard_normal(3)
        x *= 0.7 / abs(np.linalg.eigvalsh(np.einsum("i,iab->ab", x, z))[0])
        tiny = 1e-3 * np.asarray([gen.random_hermitian(rng, 2) for _ in range(3)])
        large = 50.0 * np.asarray([gen.traceless_hermitian(rng, 2) for _ in range(3)])
        cases.append(dict(
            a=a, blocks=blocks, other=other, t=t, x=x, tiny=tiny, large=large,
            cert=certificate([(2, 1.0)], [(b,) for b in blocks]),
            cert_other=certificate([(2, 1.0)], [(b,) for b in other]),
            mix=(cf.channel.KrausChannel(tuple(mix_kraus)),
                 certificate([(2, t), (2, 1 - t)], mix_elements)),
            mix_kraus=mix_kraus,
            bad=certificate([(2, 1.0)], [(b,) for b in bad]),
        ))
        if oracle.certificate_error(kraus, [(2, 1.0)], [(b,) for b in blocks]):
            raise common.SetupError("generated HM certificate does not verify")

    c = oracle.hm_correlation()
    probe = np.random.default_rng(int(rng.integers(1 << 31)))

    def check_example(ch):
        x = gen.complex_gaussian(probe, (6, 6))
        err = np.linalg.norm(oracle.apply(list(ch.operators), x) - c * x)
        return None if err <= oracle.TOL * np.linalg.norm(x) else f"not the Schur channel ({err:.2e})"

    def check_build(s):
        return oracle.kernel_basis_error(kraus, np.asarray(s.z), d)

    def check_cert(cert, factors, elements_kraus=None):
        got = [(dd, q) for dd, q in cert.algebra.factors]
        if got != factors:
            return f"algebra {got}, expected {factors}"
        return oracle.certificate_error(elements_kraus or kraus, got, list(cert.elements))

    def ops_for(j, case):
        a, pt = case["a"], point(case["a"])
        psd, rank, traces = oracle.membership(z, a)

        def check_membership(mem):
            if (mem.psd, mem.rank) != (psd, rank) or np.max(np.abs(np.asarray(mem.traces) - traces)) > 1e-12:
                return f"membership psd={mem.psd} rank={mem.rank}, expected {psd} {rank}"
            return None

        def check_verify(rep, valid):
            residuals = [rep.orthonormality_residual, rep.complement_residual, rep.unitarity_residual]
            if rep.passed != valid or (max(residuals) <= 1e-9) != valid:
                return f"passed={rep.passed} residuals={residuals}, oracle says valid={valid}"
            return None

        def check_combine(out):
            ch, cert = out
            ops = list(ch.operators)
            if np.linalg.norm(oracle.choi(ops) - oracle.choi(kraus)) > oracle.TOL:
                return "combined channel is not the mixture"
            return check_cert(cert, [(2, case["t"]), (2, 1 - case["t"])], ops)

        def check_decompose(comps):
            return oracle.decomposition_error(case["mix_kraus"], [
                (cc.weight, list(cc.channel.operators), list(cc.certificate.algebra.factors),
                 list(cc.certificate.elements)) for cc in comps])

        def check_point(p):
            return oracle.blocks_error(z, np.asarray(p.a), case["blocks"])

        value = np.eye(3) + np.einsum("i,iab->ab", case["x"], z)

        def check_face(ch):
            ops = list(ch.operators)
            f = np.asarray([k.reshape(-1, order="F") for k in kraus]).T
            target = f @ value.T @ f.conj().T
            if np.linalg.norm(oracle.choi(ops) - target) > oracle.TOL or oracle.tp_error(ops) > oracle.TOL:
                return "face channel has the wrong Choi matrix"
            return None

        cands = [case["a"], case["tiny"], case["large"]]
        expect = [oracle.membership(z, cand) for cand in cands]

        def check_extremality(rep):
            if not rep.all_consistent:
                return "candidates reported inconsistent"
            for got, (cpsd, crank, ctr) in zip(rep.candidates, expect):
                if got.in_solution_set != cpsd or (cpsd and got.rank != crank):
                    return f"candidate psd={got.in_solution_set} rank={got.rank}"
                if not oracle.close(got.trace_norm, float(np.max(np.abs(ctr))), 1e-12):
                    return "trace norm differs"
            return None

        lmi, fac = cf.lmi, cf.factorization
        cand_points = [point(cand) for cand in cands]
        return [
            Op("hm.lmi_membership", f"{j}", check_membership,
               call=lambda: lmi.lmi_membership(system, pt)),
            Op("hm.extract_blocks", f"{j}", lambda b: oracle.blocks_error(z, a, list(b)),
               call=lambda: lmi.extract_blocks(system, pt)),
            Op("hm.certificate_from_point", f"{j}", lambda cert: check_cert(cert, [(2, 1.0)]),
               call=lambda: fac.certificate_from_point(channel, system, pt)),
            Op("hm.verify_certificate", f"{j}", lambda rep: check_verify(rep, True),
               call=lambda: fac.verify_certificate(channel, case["cert"])),
            Op("hm.combine_certificates", f"{j}", check_combine,
               call=lambda: fac.combine_certificates(channel, case["cert"], channel,
                                                     case["cert_other"], case["t"])),
            Op("hm.decompose_by_factors", f"{j}", check_decompose,
               call=lambda: fac.decompose_by_factors(*case["mix"])),
            Op("hm.point_from_blocks", f"{j}", check_point,
               call=lambda: lmi.point_from_blocks(system, case["blocks"])),
            Op("hm.face_channel", f"{j}", check_face,
               call=lambda: lmi.face_channel(channel, case["x"], system=system)),
            Op("hm.extremality_check", f"{j}", check_extremality,
               call=lambda: fac.extremality_check(channel, system, cand_points)),
            Op("hm.verify_perturbed", f"{j}", lambda rep: check_verify(rep, False),
               call=lambda: fac.verify_certificate(channel, case["bad"])),
        ]

    cycle = []
    for j, case in enumerate(cases):
        cycle += [
            Op("hm.example_channel", "hm", check_example,
               call=lambda: cf.schur.schur_channel_from_gram(cf.schur.hm_example().w)),
            Op("hm.build_lmi", "hm", check_build, call=lambda: cf.lmi.build_lmi(channel)),
        ]
        cycle += ops_for(j, case)
    return Plan(cycle, [])


PLANS = {
    "hm_pipeline": hm_pipeline_plan,
    "kernel_build": kernel_build_plan,
    "certify_io": certify_io_plan,
}


def build_plan(name: str, work: Path, seed: int, cf) -> Plan:
    work.mkdir(parents=True, exist_ok=True)
    return PLANS[name](work, np.random.default_rng(seed), cf)


def warm_up(plan: Plan, env: dict) -> None:
    """One run of the first op: loads the interpreter, numpy and chanfact's bytecode."""
    op = plan.cycle[0]
    if op.argv is not None:
        spawn(op.argv, env)
    else:
        for lib_op in plan.cycle:
            lib_op.call()


# ------------------------------------------------------------- in-process replay


def replay(op: Op, cf) -> tuple[float, int, str]:
    """Run a CLI op in this process through ``chanfact.cli.main``: the same
    json.load, jsonio parse, library call and jsonio.dumps as the handler."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cf.cli.main(list(op.argv))
    return time.perf_counter() - t0, code, out.getvalue()
