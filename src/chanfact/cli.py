"""Command line front end. All outputs are deterministic JSON documents.

Exit codes: 0 on success (and passing checks), 1 when the input was well
formed but a check failed (certificate rejected, matrix not PSD, a result
overflowed, ...), 2 on malformed input. Errors are reported on stderr as
{"error": ..., "detail": ...}.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import jsonio
from .channel import (
    apply_adjoint,
    apply_channel,
    channel_checks,
    choi_from_kraus,
    kraus_from_choi,
    stinespring_dilation,
)
from .complement import (
    apply_complement,
    apply_complement_adjoint,
    selfadjoint_kernel_basis,
)
from .errors import ChanfactError, SchemaError
from .factorization import (
    certificate_from_point,
    combine_certificates,
    decompose_by_factors,
    extremality_check,
    hm_equation_residuals,
    verify_certificate,
)
from .linalg import DEFAULT_TOL, Tolerance, frob
from .lmi import LmiPoint, LmiSystem, build_lmi, extract_blocks, lmi_membership
from .schur import (
    gram_from_correlation,
    hm_derived_point,
    hm_example,
    schur_channel,
    schur_channel_from_gram,
    validate_correlation,
)


class _UsageError(Exception):
    """argparse's message for a command line it cannot parse."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # subparsers inherit it: report as JSON in main, not usage text
        raise _UsageError(message)


# name -> (help, input documents or None, handler), filled by @_command below
_COMMANDS: dict = {}


def _command(name: str, help: str, inputs: str | None):
    """Declare a subcommand; main checks the count of ``inputs``, unless it is None."""

    def declare(handler):
        _COMMANDS[name] = (help, inputs, handler)
        return handler

    return declare


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-i", "--input", action="append", default=[], metavar="FILE",
                        help="input JSON file (repeat for multiple inputs)")
    common.add_argument("-o", "--output", metavar="FILE", help="write JSON output to FILE")
    common.add_argument("--tol", type=float, default=DEFAULT_TOL.abs_tol,
                        help="absolute tolerance")
    common.add_argument("--rank-tol", type=float, default=DEFAULT_TOL.rel_rank_tol,
                        help="relative rank tolerance")
    common.add_argument("--json", action="store_true",
                        help="suppress the human-readable summary on stderr")

    parser = _Parser(prog="chanfact", description="quantum channel factorization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    p = {name: sub.add_parser(name, parents=[common], help=help)
         for name, (help, _, _) in _COMMANDS.items()}
    p["apply"].add_argument("--adjoint", action="store_true", help="apply the adjoint instead")
    p["complement"].add_argument("--adjoint", action="store_true",
                                 help="apply its adjoint instead")
    p["combine"].add_argument("--t", type=float, required=True, help="weight of the first channel")
    p["example"].add_argument("name", choices=["hm"], help="example name")
    p["example"].add_argument("--verify", action="store_true",
                              help="run the full example pipeline")
    return parser


def _need(docs: list, what: str) -> None:
    count = len(what.split(", "))
    if len(docs) != count:
        raise SchemaError(f"expected {count} input file(s): {what}; got {len(docs)}")


def _need_square(x: np.ndarray, size: int, what: str) -> None:
    if x.shape != (size, size):
        raise SchemaError(f"matrix: expected shape {(size, size)} for {what}, got {x.shape}")


def _need_coefficients(point: LmiPoint, d: int, where: str) -> None:
    if len(point.a) != d:
        raise SchemaError(f"{where}: {len(point.a)} coefficient(s), the system needs {d}")


def _certified(docs: list, i: int, tag: str) -> tuple:
    k = jsonio.channel_from_json(docs[i], f"channel{tag}")
    cert = jsonio.certificate_from_json(docs[i + 1], f"certificate{tag}")
    if cert.num_elements != k.num_kraus:
        raise SchemaError(f"certificate{tag}: {cert.num_elements} element(s) "
                          f"for {k.num_kraus} Kraus operator(s)")
    return k, cert


def _membership_doc(mem) -> dict:
    return {"psd": mem.psd, "rank": mem.rank, "traces": list(mem.traces)}


def _report_doc(report) -> dict:
    return {
        "orthonormality_residual": report.orthonormality_residual,
        "complement_residual": report.complement_residual,
        "unitarity_residual": report.unitarity_residual,
        "pass": report.passed,
    }


@_command("choi", "Choi matrix of a Kraus channel", "channel")
def _cmd_choi(args, docs, tol):
    k = jsonio.channel_from_json(docs[0])
    c = choi_from_kraus(k)
    return jsonio.choi_to_json(c), f"choi: {c.matrix.shape[0]}x{c.matrix.shape[1]} matrix", 0


@_command("kraus", "Kraus operators of a Choi matrix", "choi matrix")
def _cmd_kraus(args, docs, tol):
    c = jsonio.choi_from_json(docs[0])
    k = kraus_from_choi(c, tol)
    return jsonio.channel_to_json(k), f"kraus: {k.num_kraus} operator(s)", 0


@_command("check", "trace preservation and unitality", "channel")
def _cmd_check(args, docs, tol):
    k = jsonio.channel_from_json(docs[0])
    checks = channel_checks(k, tol)
    doc = {
        "trace_preserving": checks.trace_preserving,
        "unital": checks.unital,
        "completely_positive": checks.completely_positive,
    }
    summary = ", ".join(f"{name}={value}" for name, value in doc.items())
    return doc, f"check: {summary}", 0


@_command("apply", "apply a channel to a matrix", "channel, matrix")
def _cmd_apply(args, docs, tol):
    k = jsonio.channel_from_json(docs[0])
    x = jsonio.matrix_from_json(docs[1])
    if args.adjoint:
        _need_square(x, k.dim_out, "the channel's adjoint")
        y = apply_adjoint(k, x)
    else:
        _need_square(x, k.dim_in, "the channel")
        y = apply_channel(k, x)
    return {"matrix": jsonio.matrix_to_json(y)}, f"apply: {y.shape[0]}x{y.shape[1]} result", 0


@_command("dilate", "Stinespring dilation unitary", "channel")
def _cmd_dilate(args, docs, tol):
    k = jsonio.channel_from_json(docs[0])
    u, p = stinespring_dilation(k, tol)
    doc = {"p": p, "unitary": jsonio.matrix_to_json(u)}
    return doc, f"dilate: {u.shape[0]}x{u.shape[1]} unitary, p={p}", 0


@_command("complement", "apply the complementary channel to a matrix", "channel, matrix")
def _cmd_complement(args, docs, tol):
    k = jsonio.channel_from_json(docs[0])
    x = jsonio.matrix_from_json(docs[1])
    if args.adjoint:
        _need_square(x, k.num_kraus, "the complement's adjoint")
        y = apply_complement_adjoint(k, x)
    else:
        _need_square(x, k.dim_in, "the complement")
        y = apply_complement(k, x)
    return {"matrix": jsonio.matrix_to_json(y)}, f"complement: {y.shape[0]}x{y.shape[1]} result", 0


@_command("kernel-basis", "Hermitian basis of the complement adjoint kernel", "channel")
def _cmd_kernel_basis(args, docs, tol):
    k = jsonio.channel_from_json(docs[0])
    basis = selfadjoint_kernel_basis(k, tol)
    doc = {"d": len(basis), "z": [jsonio.matrix_to_json(zi) for zi in basis]}
    return doc, f"kernel-basis: d={len(basis)}", 0


@_command("schur", "Schur channel of a correlation matrix", "correlation")
def _cmd_schur(args, docs, tol):
    c = validate_correlation(jsonio.correlation_matrix_from_json(docs[0]), tol)
    k = schur_channel(c)
    return jsonio.channel_to_json(k), f"schur: {k.num_kraus} diagonal Kraus operator(s)", 0


@_command("gram", "Gram vectors of a correlation matrix", "correlation")
def _cmd_gram(args, docs, tol):
    c = validate_correlation(jsonio.correlation_matrix_from_json(docs[0]), tol)
    w = gram_from_correlation(c)
    return jsonio.gram_to_json(w), f"gram: {w.n} vectors in C^{w.p}", 0


@_command("lmi-build", "LMI system of a channel", "channel")
def _cmd_lmi_build(args, docs, tol):
    k = jsonio.channel_from_json(docs[0])
    s = build_lmi(k, tol)
    return jsonio.lmi_to_json(s), f"lmi-build: p={s.p}, d={s.d}", 0


@_command("lmi-check", "membership of a point in a system", "lmi system, point")
def _cmd_lmi_check(args, docs, tol):
    s = jsonio.lmi_from_json(docs[0], tol=tol)
    point = jsonio.point_from_json(docs[1], tol=tol)
    _need_coefficients(point, s.d, "point")
    mem = lmi_membership(s, point, tol)
    return _membership_doc(mem), f"lmi-check: psd={mem.psd}, rank={mem.rank}", 0 if mem.psd else 1


@_command("extract", "block factorization of a solution", "lmi system, point")
def _cmd_extract(args, docs, tol):
    s = jsonio.lmi_from_json(docs[0], tol=tol)
    point = jsonio.point_from_json(docs[1], tol=tol)
    _need_coefficients(point, s.d, "point")
    blocks = extract_blocks(s, point, tol)
    doc = {"k": point.k, "blocks": [jsonio.matrix_to_json(b) for b in blocks]}
    return doc, f"extract: {len(blocks)} block(s) of size {point.k}", 0


@_command("verify", "verify a factorization certificate", "channel, certificate")
def _cmd_verify(args, docs, tol):
    k, cert = _certified(docs, 0, "")
    report = verify_certificate(k, cert, tol)
    return _report_doc(report), f"verify: pass={report.passed}", 0 if report.passed else 1


@_command("combine", "convex combination of two certified channels",
          "channel, certificate, channel, certificate")
def _cmd_combine(args, docs, tol):
    k1, c1 = _certified(docs, 0, "1")
    k2, c2 = _certified(docs, 2, "2")
    if (k2.dim_in, k2.dim_out) != (k1.dim_in, k1.dim_out):
        raise SchemaError(f"channel2: maps M_{k2.dim_in} -> M_{k2.dim_out}, unlike channel1")
    channel, cert = combine_certificates(k1, c1, k2, c2, args.t, tol)
    doc = {
        "t": float(args.t),
        "channel": jsonio.channel_to_json(channel),
        "certificate": jsonio.certificate_to_json(cert),
    }
    return doc, f"combine: {channel.num_kraus} Kraus operator(s)", 0


@_command("decompose", "split a channel along its certificate's factors", "channel, certificate")
def _cmd_decompose(args, docs, tol):
    k, cert = _certified(docs, 0, "")
    components = decompose_by_factors(k, cert, tol)
    doc = {
        "components": [
            {
                "weight": comp.weight,
                "channel": jsonio.channel_to_json(comp.channel),
                "certificate": jsonio.certificate_to_json(comp.certificate),
            }
            for comp in components
        ]
    }
    return doc, f"decompose: {len(components)} component(s)", 0


@_command("extremality", "extreme-point test and candidate consistency reports", None)
def _cmd_extremality(args, docs, tol):
    if not docs:
        raise SchemaError("expected a channel input, then zero or more points")
    k = jsonio.channel_from_json(docs[0])
    points = [jsonio.point_from_json(obj, f"point{i}", tol) for i, obj in enumerate(docs[1:])]
    s = build_lmi(k, tol)
    for i, point in enumerate(points):
        _need_coefficients(point, s.d, f"point{i}")
    extreme = s.d == 0
    report = extremality_check(k, s, points, tol)
    doc = {
        "extreme_channel": extreme,
        "d": s.d,
        "candidates": [
            {
                "in_solution_set": c.in_solution_set,
                "rank": c.rank,
                "trace_norm": c.trace_norm,
                "consistent_with_extremality": c.consistent_with_extremality,
            }
            for c in report.candidates
        ],
        "all_consistent": report.all_consistent,
    }
    code = 0 if report.all_consistent else 1
    return doc, f"extremality: extreme={extreme}, candidates={len(points)}", code


def _hm_verification(tol: Tolerance) -> tuple[dict, int]:
    hm = hm_example(tol)
    channel = schur_channel_from_gram(hm.w)
    checks = channel_checks(channel, tol)
    basis = selfadjoint_kernel_basis(channel, tol)
    span_residuals = []
    annihilation_residuals = []
    for z in hm.z:
        proj = sum(np.vdot(b, z).real * b for b in basis) if len(basis) else 0.0 * z
        span_residuals.append(frob(z - proj))
        annihilation_residuals.append(frob(apply_complement_adjoint(channel, z)))
    a = hm_derived_point()
    equation_residuals = list(hm_equation_residuals(*a))
    system = LmiSystem(channel.num_kraus, hm.z)
    point = LmiPoint(2, a)
    mem = lmi_membership(system, point, tol)
    cert = certificate_from_point(channel, system, point, tol)
    report = verify_certificate(channel, cert, tol)
    gaps = [*span_residuals, *annihilation_residuals, *equation_residuals, *map(abs, mem.traces)]
    ok = (
        hm.c.rank == 3
        and checks.trace_preserving
        and checks.unital
        and len(basis) == 3
        and all(map(tol.close, gaps))
        and mem.psd
        and mem.rank == 2
        and report.passed
    )
    doc = {
        "correlation_rank": hm.c.rank,
        "trace_preserving": checks.trace_preserving,
        "unital": checks.unital,
        "kernel_dim": len(basis),
        "span_residuals": span_residuals,
        "annihilation_residuals": annihilation_residuals,
        "equation_residuals": equation_residuals,
        "membership": _membership_doc(mem),
        "certificate": _report_doc(report),
        "pass": ok,
    }
    return doc, 0 if ok else 1


@_command("example", "built-in worked examples", None)
def _cmd_example(args, docs, tol):
    if docs:
        raise SchemaError("example takes no input files")
    if args.verify:
        doc, code = _hm_verification(tol)
        return doc, f"example hm --verify: pass={doc['pass']}", code
    hm = hm_example(tol)
    doc = {
        "c": jsonio.correlation_to_json(hm.c.matrix),
        "w": jsonio.gram_to_json(hm.w),
        "z": [jsonio.matrix_to_json(zi) for zi in hm.z],
    }
    return doc, "example hm: correlation, Gram vectors, kernel basis", 0


def _emit_error(name: str, detail: str) -> None:
    sys.stderr.write(jsonio.dumps({"error": name, "detail": detail}) + "\n")


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _, inputs, handler = _COMMANDS[args.command]
        tol = Tolerance(abs_tol=args.tol, rel_rank_tol=args.rank_tol)
        docs = []
        for path in args.input:
            with open(path, "r", encoding="utf-8") as fh:
                try:
                    docs.append(json.load(fh))
                except RecursionError:
                    raise SchemaError(f"{path}: JSON nested too deeply to parse") from None
        if inputs is not None:
            _need(docs, inputs)
        with np.errstate(all="ignore"):  # an overflow surfaces as a non-finite result below
            doc, summary, code = handler(args, docs, tol)
    except _UsageError as exc:
        _emit_error("UsageError", str(exc))
        return 2
    except SchemaError as exc:
        _emit_error("SchemaError", str(exc))
        return 2
    except json.JSONDecodeError as exc:
        _emit_error("JSONDecodeError", str(exc))
        return 2
    except OSError as exc:
        _emit_error("IOError", str(exc))
        return 2
    except ValueError as exc:
        _emit_error("ValueError", str(exc))
        return 2
    except ChanfactError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 1
    try:
        text = jsonio.dumps(doc) + "\n"
    except ValueError as exc:  # finite input whose result overflowed: well formed, exit 1
        _emit_error("NonFiniteResult", str(exc))
        return 1
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _emit_error("IOError", str(exc))
            return 2
    else:
        sys.stdout.write(text)
    if not args.json:
        sys.stderr.write(summary + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
