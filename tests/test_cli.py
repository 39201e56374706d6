import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

from chanfact import (
    DEFAULT_TOL,
    FactorAlgebra,
    FactorizationCertificate,
    KrausChannel,
    LmiPoint,
    LmiSystem,
    Tolerance,
    certificate_from_point,
    channel_from_dilation,
    choi_from_kraus,
    dilation_certificate,
    hm_derived_point,
    hm_example,
    jsonio,
    linalg,
    schur_channel_from_gram,
)
from chanfact.cli import _COMMANDS, _build_parser, main
from chanfact.factorization import WEIGHT_SUM_TOL
from helpers import amplitude_damping, haar_unitary, phase_flip_over_two_m2, reference_dumps


def write(path, doc):
    path.write_text(jsonio.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    return code, doc, captured.err


def identity_channel_doc():
    return jsonio.channel_to_json(KrausChannel((np.eye(2, dtype=complex),)))


def dephasing_doc():
    return jsonio.channel_to_json(
        KrausChannel((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
    )


def hm_setup():
    hm = hm_example()
    k = schur_channel_from_gram(hm.w)
    system = LmiSystem(3, hm.z, source=k)
    point = LmiPoint(2, hm_derived_point())
    return hm, k, system, point


def test_check_identity_channel(tmp_path, capsys):
    path = write(tmp_path / "id.json", identity_channel_doc())
    code, doc, err = run(capsys, "check", "-i", path)
    assert code == 0
    assert doc == {"trace_preserving": True, "unital": True, "completely_positive": True}
    assert "check" in err


def test_tolerance_defaults_are_the_library_defaults():
    args = _build_parser().parse_args(["check"])
    assert Tolerance(abs_tol=args.tol, rel_rank_tol=args.rank_tol) == DEFAULT_TOL


def test_json_flag_suppresses_summary(tmp_path, capsys):
    path = write(tmp_path / "id.json", identity_channel_doc())
    code, doc, err = run(capsys, "check", "-i", path, "--json")
    assert code == 0 and err == ""


def test_choi_and_kraus_roundtrip(tmp_path, capsys):
    path = write(tmp_path / "deph.json", dephasing_doc())
    code, doc, _ = run(capsys, "choi", "-i", path)
    assert code == 0
    mat = jsonio.matrix_from_json(doc["matrix"])
    assert np.array_equal(mat, np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex))

    choi_path = write(tmp_path / "choi.json", doc)
    code, doc, _ = run(capsys, "kraus", "-i", choi_path)
    assert code == 0
    assert len(doc["kraus"]) == 2


def test_kraus_rank_tolerance_cuts_the_choi_eigenvalues(tmp_path, capsys):
    # amplitude damping, g = 0.15: its Choi eigenvalue g is below 0.1 * (2 - g),
    # so a coarse rank tolerance keeps one Kraus operator of the two
    choi = choi_from_kraus(amplitude_damping(0.15))
    choi_path = write(tmp_path / "choi.json", jsonio.choi_to_json(choi))
    code, doc, _ = run(capsys, "kraus", "-i", choi_path)
    assert code == 0
    assert len(doc["kraus"]) == 2
    code, doc, _ = run(capsys, "kraus", "-i", choi_path, "--rank-tol", "0.1")
    assert code == 0
    assert len(doc["kraus"]) == 1


def test_apply_and_adjoint(tmp_path, capsys):
    ch = write(tmp_path / "deph.json", dephasing_doc())
    x = write(tmp_path / "x.json", jsonio.matrix_to_json(np.array([[1.0, 2.0], [3.0, 4.0]])))
    code, doc, _ = run(capsys, "apply", "-i", ch, "-i", x)
    assert code == 0
    assert np.array_equal(jsonio.matrix_from_json(doc["matrix"]), np.diag([1.0, 4.0]).astype(complex))
    code, doc, _ = run(capsys, "apply", "--adjoint", "-i", ch, "-i", x)
    assert code == 0
    assert np.array_equal(jsonio.matrix_from_json(doc["matrix"]), np.diag([1.0, 4.0]).astype(complex))


def test_dilate_is_unitary(tmp_path, capsys):
    ch = write(tmp_path / "deph.json", dephasing_doc())
    code, doc, _ = run(capsys, "dilate", "-i", ch)
    assert code == 0 and doc["p"] == 2
    u = jsonio.matrix_from_json(doc["unitary"])
    assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-9


def test_complement_and_kernel_basis(tmp_path, capsys):
    ch = write(tmp_path / "deph.json", dephasing_doc())
    x = write(tmp_path / "x.json", jsonio.matrix_to_json(np.array([[1.0, 2.0], [3.0, 4.0]])))
    code, doc, _ = run(capsys, "complement", "-i", ch, "-i", x)
    assert code == 0
    assert np.array_equal(jsonio.matrix_from_json(doc["matrix"]), np.diag([1.0, 4.0]).astype(complex))
    code, doc, _ = run(capsys, "kernel-basis", "-i", ch)
    assert code == 0 and doc["d"] == 2


def test_schur_and_gram(tmp_path, capsys):
    hm, _, _, _ = hm_setup()
    corr = write(tmp_path / "c.json", jsonio.correlation_to_json(hm.c.matrix))
    code, doc, _ = run(capsys, "schur", "-i", corr)
    assert code == 0
    assert doc["dim_in"] == 6 and len(doc["kraus"]) == 3
    code, doc, _ = run(capsys, "gram", "-i", corr)
    assert code == 0
    assert doc["n"] == 6 and doc["p"] == 3


def test_lmi_pipeline(tmp_path, capsys):
    hm, k, system, point = hm_setup()
    ch = write(tmp_path / "hm.json", jsonio.channel_to_json(k))
    code, doc, _ = run(capsys, "lmi-build", "-i", ch)
    assert code == 0
    assert doc["p"] == 3 and len(doc["z"]) == 3

    lmi = write(tmp_path / "lmi.json", jsonio.lmi_to_json(system))
    pt = write(tmp_path / "pt.json", jsonio.point_to_json(point))
    code, doc, _ = run(capsys, "lmi-check", "-i", lmi, "-i", pt)
    assert code == 0
    assert doc["psd"] is True and doc["rank"] == 2

    code, doc, _ = run(capsys, "extract", "-i", lmi, "-i", pt)
    assert code == 0
    assert doc["k"] == 2 and len(doc["blocks"]) == 3

    shrunk = write(
        tmp_path / "half.json",
        jsonio.point_to_json(LmiPoint(2, tuple(0.5 * a for a in point.a))),
    )
    code, doc, _ = run(capsys, "lmi-check", "-i", lmi, "-i", shrunk)
    assert code == 0 and doc["rank"] == 6

    grown = write(
        tmp_path / "big.json",
        jsonio.point_to_json(LmiPoint(2, tuple(5.0 * a for a in point.a))),
    )
    code, doc, _ = run(capsys, "lmi-check", "-i", lmi, "-i", grown)
    assert code == 1 and doc["psd"] is False


def test_verify_pass_and_bogus_certificate(tmp_path, capsys):
    hm, k, system, point = hm_setup()
    ch = write(tmp_path / "hm.json", jsonio.channel_to_json(k))
    cert = certificate_from_point(k, system, point)
    good = write(tmp_path / "cert.json", jsonio.certificate_to_json(cert))
    code, doc, _ = run(capsys, "verify", "-i", ch, "-i", good)
    assert code == 0 and doc["pass"] is True
    assert doc["unitarity_residual"] <= 1e-8

    bogus_doc = {
        "algebra": {"factors": [{"dim": 2, "weight": 1.0}]},
        "v": [[jsonio.matrix_to_json(np.eye(2))] for _ in range(3)],
    }
    bogus = write(tmp_path / "bogus.json", bogus_doc)
    code, doc, _ = run(capsys, "verify", "-i", ch, "-i", bogus)
    assert code == 1 and doc["pass"] is False
    assert doc["orthonormality_residual"] > 0.1


def test_combine_and_decompose(tmp_path, capsys):
    hm, k, system, point = hm_setup()
    cert = certificate_from_point(k, system, point)
    ch = write(tmp_path / "hm.json", jsonio.channel_to_json(k))
    ct = write(tmp_path / "cert.json", jsonio.certificate_to_json(cert))
    id6 = KrausChannel((np.eye(6, dtype=complex),))
    id_cert_doc = {
        "algebra": {"factors": [{"dim": 1, "weight": 1.0}]},
        "v": [[jsonio.matrix_to_json(np.array([[1.0]]))]],
    }
    ch2 = write(tmp_path / "id.json", jsonio.channel_to_json(id6))
    ct2 = write(tmp_path / "idcert.json", id_cert_doc)

    code, doc, _ = run(
        capsys, "combine", "--t", "0.3", "-i", ch, "-i", ct, "-i", ch2, "-i", ct2
    )
    assert code == 0
    assert doc["t"] == 0.3
    factors = doc["certificate"]["algebra"]["factors"]
    assert [f["dim"] for f in factors] == [2, 1]
    assert [f["weight"] for f in factors] == pytest.approx([0.3, 0.7])

    mixed_ch = write(tmp_path / "mixed.json", doc["channel"])
    mixed_ct = write(tmp_path / "mixedcert.json", doc["certificate"])
    code, doc, _ = run(capsys, "decompose", "-i", mixed_ch, "-i", mixed_ct)
    assert code == 0
    weights = [c["weight"] for c in doc["components"]]
    assert weights == pytest.approx([0.3, 0.7])


def test_components_of_an_ill_conditioned_factor_verify(tmp_path, capsys):
    # relative Gram eigenvalue 1e-8: the factor's Gram matrix squares its
    # conditioning, and the components are taken from the blocks themselves
    k, cert = phase_flip_over_two_m2(2e-4, np.random.default_rng(57))
    ch = write(tmp_path / "ch.json", jsonio.channel_to_json(k))
    ct = write(tmp_path / "cert.json", jsonio.certificate_to_json(cert))
    code, doc, _ = run(capsys, "decompose", "-i", ch, "-i", ct)
    assert code == 0 and len(doc["components"]) == 2
    for f, comp in enumerate(doc["components"]):
        ch = write(tmp_path / f"ch{f}.json", comp["channel"])
        ct = write(tmp_path / f"cert{f}.json", comp["certificate"])
        code, report, _ = run(capsys, "verify", "-i", ch, "-i", ct)
        assert code == 0 and report["pass"] is True


def test_extremality_exit_codes(tmp_path, capsys):
    hm, k, system, point = hm_setup()
    ch = write(tmp_path / "hm.json", jsonio.channel_to_json(k))
    pt = write(tmp_path / "pt.json", jsonio.point_to_json(point))
    code, doc, _ = run(capsys, "extremality", "-i", ch, "-i", pt)
    assert code == 0
    assert doc["extreme_channel"] is False and doc["d"] == 3
    assert doc["all_consistent"] is True

    deph = write(tmp_path / "deph.json", dephasing_doc())
    flat = write(
        tmp_path / "flat.json",
        jsonio.point_to_json(
            LmiPoint(1, (np.array([[np.sqrt(2.0)]]), np.array([[0.0]])))
        ),
    )
    code, doc, _ = run(capsys, "extremality", "-i", deph, "-i", flat)
    assert code == 1
    assert doc["all_consistent"] is False
    assert doc["candidates"][0]["rank"] == 1

    ident = write(tmp_path / "id.json", identity_channel_doc())
    code, doc, _ = run(capsys, "extremality", "-i", ident)
    assert code == 0
    assert doc["extreme_channel"] is True and doc["d"] == 0


def test_example_hm_outputs_data(capsys):
    code, doc, _ = run(capsys, "example", "hm")
    assert code == 0
    assert set(doc) == {"c", "w", "z"}
    assert doc["w"]["n"] == 6 and len(doc["z"]) == 3


def test_example_hm_verify_passes(capsys):
    code, doc, _ = run(capsys, "example", "hm", "--verify")
    assert code == 0
    assert doc["pass"] is True
    assert doc["kernel_dim"] == 3
    assert max(doc["span_residuals"]) <= 1e-9
    assert max(doc["annihilation_residuals"]) <= 1e-12


def test_example_hm_verify_follows_tol(capsys):
    # the worst span residual, 5.6e-16, is close to 0 at the default tolerance, not at
    # 3e-16; the trace-preservation gap, 1.6e-16 per sqrt(n), passes at 3e-16, not at 1e-16
    code, doc, _ = run(capsys, "example", "hm", "--verify", "--tol", "3e-16")
    assert code == 1 and doc["pass"] is False
    assert 3e-16 < max(doc["span_residuals"]) <= DEFAULT_TOL.abs_tol


@pytest.mark.parametrize("command", ["gram", "schur"])
def test_gram_and_schur_factor_the_matrix_once(tmp_path, capsys, monkeypatch, command):
    corr = write(tmp_path / "c.json", jsonio.correlation_to_json(hm_example().c.matrix))
    real, calls = linalg.psd_factor, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("chanfact") and getattr(module, "psd_factor", None) is real:
            monkeypatch.setattr(module, "psd_factor", counting)
    code, _, _ = run(capsys, command, "-i", corr)
    assert code == 0 and len(calls) == 1


def test_output_file_and_determinism(tmp_path, capsys):
    ch = write(tmp_path / "deph.json", dephasing_doc())
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    code, doc, _ = run(capsys, "choi", "-i", ch, "-o", str(out1), "--json")
    assert code == 0 and doc is None
    run(capsys, "choi", "-i", ch, "-o", str(out2), "--json")
    assert out1.read_bytes() == out2.read_bytes()


def test_kernel_builds_are_byte_identical(tmp_path, capsys):
    rng = np.random.default_rng(31)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    w, _ = np.linalg.qr(g)
    ch = write(tmp_path / "dil.json", jsonio.channel_to_json(channel_from_dilation(w, 3, 3)))
    for command in ("kernel-basis", "lmi-build"):
        outputs = []
        for _ in range(2):
            assert main([command, "-i", ch, "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0])["z"]) == 72


def test_lmi_hermitian_check_follows_tol(tmp_path, capsys):
    # anti-Hermitian part about 1e-8 of the norm: above the default 1e-9, below 1e-6
    z = np.diag([1.0, -1.0]) + 5e-9 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    lmi = write(tmp_path / "lmi.json", {"p": 2, "z": [jsonio.matrix_to_json(z)]})
    pt = write(tmp_path / "pt.json", jsonio.point_to_json(LmiPoint(1, (np.array([[0.1]]),))))
    code, _, err = run(capsys, "lmi-check", "-i", lmi, "-i", pt)
    assert code == 2 and json.loads(err)["error"] == "SchemaError"
    code, doc, _ = run(capsys, "lmi-check", "-i", lmi, "-i", pt, "--tol", "1e-6")
    assert code == 0 and doc["psd"] is True
    bad = write(tmp_path / "bad.json", {"k": 2, "a": [jsonio.matrix_to_json(z)]})
    good = write(tmp_path / "good.json", {"p": 2, "z": [jsonio.matrix_to_json(np.diag([1.0, -1.0]))]})
    code, _, err = run(capsys, "lmi-check", "-i", good, "-i", bad)
    assert code == 2 and json.loads(err)["error"] == "SchemaError"
    code, doc, _ = run(capsys, "lmi-check", "-i", good, "-i", bad, "--tol", "1e-6")
    assert code == 0


def test_malformed_input_exits_2(tmp_path, capsys):
    code, doc, err = run(capsys, "check", "-i", str(tmp_path / "missing.json"))
    assert code == 2 and doc is None
    assert json.loads(err)["error"] == "IOError"

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "check", "-i", str(garbled))
    assert code == 2
    assert json.loads(err)["error"] == "JSONDecodeError"

    wrong = write(tmp_path / "wrong.json", {"dim_in": 2})
    code, _, err = run(capsys, "check", "-i", str(wrong))
    assert code == 2
    assert json.loads(err)["error"] == "SchemaError"

    ch = write(tmp_path / "deph.json", dephasing_doc())
    code, _, err = run(capsys, "check", "-i", ch, "--tol", "-3")
    assert code == 2
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["verify", "--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
        ([], "the following arguments are required: command"),
        (["combine", "-i", "x"], "the following arguments are required: --t"),
        (["example", "nope"], "argument name: invalid choice: 'nope'"),
    ],
    ids=["bad float", "no subcommand", "combine without --t", "unknown example"],
)
def test_usage_error_is_one_json_line(capsys, argv, detail):
    code, doc, err = run(capsys, *argv)
    assert code == 2 and doc is None
    assert len(err.splitlines()) == 1
    report = json.loads(err)
    assert report["error"] == "UsageError"
    assert report["detail"].startswith(detail)


# the input documents of every subcommand that takes a fixed number of them
FIXED_INPUTS = {
    "choi": "channel", "kraus": "choi matrix", "check": "channel",
    "apply": "channel, matrix", "dilate": "channel", "complement": "channel, matrix",
    "kernel-basis": "channel", "schur": "correlation", "gram": "correlation",
    "lmi-build": "channel", "lmi-check": "lmi system, point", "extract": "lmi system, point",
    "verify": "channel, certificate", "combine": "channel, certificate, channel, certificate",
    "decompose": "channel, certificate",
}


@pytest.mark.parametrize("command", list(FIXED_INPUTS))
def test_wrong_input_count_exits_2(tmp_path, capsys, command):
    what = FIXED_INPUTS[command]
    count = len(what.split(", "))
    extra = ["--t", "0.5"] if command == "combine" else []
    empty = write(tmp_path / "empty.json", {})
    for got in (count - 1, count + 1):
        code, doc, err = run(capsys, command, *extra, *["-i", empty] * got)
        assert code == 2 and doc is None
        assert json.loads(err) == {
            "error": "SchemaError",
            "detail": f"expected {count} input file(s): {what}; got {got}",
        }


def test_every_declared_subcommand_is_parsed_and_has_help(capsys):
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(_COMMANDS)
    assert set(_COMMANDS) == set(FIXED_INPUTS) | {"extremality", "example"}
    for command in _COMMANDS:
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: chanfact {command}")


def test_over_deep_nesting_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    for command in ("check", "verify", "lmi-check"):
        code, doc, err = run(capsys, command, "-i", str(deep), "-i", str(deep))
        assert code == 2 and doc is None
        assert err.count("\n") == 1
        report = json.loads(err)
        assert report["error"] == "SchemaError" and "nested too deeply" in report["detail"]


@pytest.mark.parametrize(
    "command",
    [["apply"], ["apply", "--adjoint"], ["complement"], ["complement", "--adjoint"]],
)
def test_matrix_that_does_not_fit_the_channel_exits_2(tmp_path, capsys, command):
    ch = write(tmp_path / "deph.json", dephasing_doc())
    x = write(tmp_path / "x.json", jsonio.matrix_to_json(np.eye(3)))
    code, doc, err = run(capsys, *command, "-i", ch, "-i", x)
    assert code == 2 and doc is None
    report = json.loads(err)
    assert report["error"] == "SchemaError"
    assert report["detail"].startswith("matrix: expected shape (2, 2)")


@pytest.mark.parametrize("command", ["lmi-check", "extract", "extremality"])
def test_point_that_does_not_fit_the_system_exits_2(tmp_path, capsys, command):
    hm, k, system, point = hm_setup()
    first = jsonio.channel_to_json(k) if command == "extremality" else jsonio.lmi_to_json(system)
    src = write(tmp_path / "src.json", first)
    short = write(tmp_path / "short.json", jsonio.point_to_json(LmiPoint(1, (np.eye(1),))))
    inputs = ["-i", src, "-i", short]
    if command == "extremality":  # the fitting point comes first, the offender is point1
        inputs[2:2] = ["-i", write(tmp_path / "pt.json", jsonio.point_to_json(point))]
    code, doc, err = run(capsys, command, *inputs)
    assert code == 2 and doc is None
    report = json.loads(err)
    assert report["error"] == "SchemaError"
    where = "point1" if command == "extremality" else "point"
    assert report["detail"] == f"{where}: 1 coefficient(s), the system needs 3"


@pytest.mark.parametrize(
    "command, where",
    [("verify", "certificate"), ("decompose", "certificate"), ("combine", "certificate1"),
     ("combine", "certificate2"), ("combine", "channel2")],
)
def test_certificate_or_channel_that_does_not_fit_exits_2(tmp_path, capsys, command, where):
    hm, k, system, point = hm_setup()
    docs = {
        "channel": jsonio.channel_to_json(k),
        "certificate": jsonio.certificate_to_json(certificate_from_point(k, system, point)),
    }
    short = dict(docs["certificate"], v=docs["certificate"]["v"][:2])
    if command == "combine":
        docs = {f"{name}{i}": doc for i in (1, 2) for name, doc in docs.items()}
        if where == "channel2":  # a certified channel on M_2, not M_6
            k2, cert2 = dilation_certificate(haar_unitary(np.random.default_rng(19), 4), 2, 2)
            docs.update(channel2=jsonio.channel_to_json(k2),
                        certificate2=jsonio.certificate_to_json(cert2))
    if where != "channel2":
        docs[where] = short
    extra = ["--t", "0.5"] if command == "combine" else []
    inputs = [a for name, doc in docs.items() for a in ("-i", write(tmp_path / name, doc))]
    code, doc, err = run(capsys, command, *extra, *inputs)
    assert code == 2 and doc is None
    report = json.loads(err)
    assert report["error"] == "SchemaError"
    if where == "channel2":
        assert report["detail"] == "channel2: maps M_2 -> M_2, unlike channel1"
    else:
        assert report["detail"] == f"{where}: 2 element(s) for 3 Kraus operator(s)"


# document, JSON path to a value, the invalid value, and the path the error names;
# FactorAlgebra, FactorizationCertificate, ChoiMatrix and the Hermitian test reject them
INVALID_DOCUMENTS = {
    "weight sum off": ("certificate", ("algebra", "factors", 0, "weight"),
                       1.0 + 4 * WEIGHT_SUM_TOL, "certificate.algebra.factors"),
    "negative weight": ("certificate", ("algebra", "factors", 0, "weight"), -1.0,
                        "certificate.algebra.factors"),
    "dim 0": ("certificate", ("algebra", "factors", 0, "dim"), 0, "certificate.algebra.factors"),
    "no factors": ("certificate", ("algebra", "factors"), [], "certificate.algebra.factors"),
    "block missing": ("certificate", ("v", 0), [], "certificate.v"),
    "block size": ("certificate", ("v", 0, 0), jsonio.matrix_to_json(np.eye(3)), "certificate.v"),
    "no elements": ("certificate", ("v",), [], "certificate.v"),
    "choi size": ("choi", ("matrix",), jsonio.matrix_to_json(np.eye(3)), "choi.matrix"),
    "lmi not Hermitian": ("lmi", ("z", 0, "data", 0, 1), [5.0, 0.0], "lmi.z[0]"),
    "lmi shape": ("lmi", ("z", 1), jsonio.matrix_to_json(np.eye(2)), "lmi.z[1]"),
    "point not Hermitian": ("point", ("a", 2, "data", 1, 0), [0.0, 5.0], "point.a[2]"),
}
COMMAND_INPUTS = {
    "certificate": ("verify", ("channel", "certificate")),
    "choi": ("kraus", ("choi",)),
    "lmi": ("lmi-check", ("lmi", "point")),
    "point": ("lmi-check", ("lmi", "point")),
}


@pytest.mark.parametrize("case", list(INVALID_DOCUMENTS))
def test_invalid_document_exits_2_naming_its_path(tmp_path, capsys, case):
    name, path, value, where = INVALID_DOCUMENTS[case]
    command, names = COMMAND_INPUTS[name]
    hm, k, system, point = hm_setup()
    docs = {
        "channel": jsonio.channel_to_json(k),
        "certificate": jsonio.certificate_to_json(certificate_from_point(k, system, point)),
        "choi": jsonio.choi_to_json(choi_from_kraus(k)),
        "lmi": jsonio.lmi_to_json(system),
        "point": jsonio.point_to_json(point),
    }

    def call():
        return run(capsys, command, *[a for n in names for a in ("-i", write(tmp_path / n, docs[n]))])

    assert call()[0] == 0
    target = docs[name]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    code, doc, err = call()
    assert code == 2 and doc is None
    assert len(err.splitlines()) == 1
    report = json.loads(err)
    assert report["error"] == "SchemaError"
    assert report["detail"].startswith(where)


@pytest.mark.parametrize("command", ["lmi-check", "extract"])
def test_point_whose_pencil_norm_overflows_is_rejected(tmp_path, capsys, command):
    # the HM point times 1e308: the pencil value has lambda_min about -1e308, two
    # infinite eigenvalues and a Frobenius norm beyond the float range, so no
    # threshold at that scale holds and no rank can be counted
    hm, k, system, point = hm_setup()
    s = write(tmp_path / "s.json", jsonio.lmi_to_json(system))
    big = write(tmp_path / "big.json", jsonio.point_to_json(LmiPoint(2, 1e308 * point.a)))
    code, doc, err = run(capsys, command, "-i", s, "-i", big, "--json")
    assert code == 1 and doc is None
    assert len(err.splitlines()) == 1
    expected = {"lmi-check": "NoConvergence", "extract": "NotHermitian"}[command]
    assert json.loads(err)["error"] == expected


def test_membership_that_does_not_converge_exits_1(tmp_path, capsys):
    # at 1.5e308 times the HM point the pencil value is not finite and eigvalsh fails
    hm, k, system, point = hm_setup()
    s = write(tmp_path / "s.json", jsonio.lmi_to_json(system))
    big = write(tmp_path / "big.json", jsonio.point_to_json(LmiPoint(2, 1.5e308 * point.a)))
    code, doc, err = run(capsys, "lmi-check", "-i", s, "-i", big)
    assert code == 1 and doc is None
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "NoConvergence"


def test_verify_of_non_square_channel_exits_1(tmp_path, capsys):
    # a well-formed 2 -> 3 channel: certificates need square channels, a
    # failed precondition of the check rather than a malformed document
    v = np.eye(3, 2, dtype=complex)
    ch = write(tmp_path / "iso.json", jsonio.channel_to_json(KrausChannel((v,))))
    cert = FactorizationCertificate(FactorAlgebra(((1, 1.0),)), ((np.eye(1),),))
    ct = write(tmp_path / "cert.json", jsonio.certificate_to_json(cert))
    code, doc, err = run(capsys, "verify", "-i", ch, "-i", ct)
    assert code == 1 and doc is None
    assert json.loads(err)["error"] == "DimensionMismatch"


def test_dilate_of_a_channel_into_a_smaller_space_exits_1(tmp_path, capsys):
    # the trace map M_3 -> M_1 is trace preserving, but M_3 has no place in M_1
    trace_map = KrausChannel(np.eye(3).reshape(3, 1, 3))
    ch = write(tmp_path / "trace.json", jsonio.channel_to_json(trace_map))
    code, doc, err = run(capsys, "dilate", "-i", ch)
    assert code == 1 and doc is None
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "DimensionMismatch"


def test_cli_documents_match_reference_writer(tmp_path, capsys, monkeypatch):
    written = []
    depth = [0]
    dumps = jsonio.dumps

    def recording_dumps(doc):
        depth[0] += 1
        try:
            text = dumps(doc)
        finally:
            depth[0] -= 1
        if depth[0] == 0:  # the whole document, not the walk's recursive calls
            written.append((doc, text))
        return text

    hm, k, system, point = hm_setup()
    cert = certificate_from_point(k, system, point)
    ch = write(tmp_path / "hm.json", jsonio.channel_to_json(k))
    ct = write(tmp_path / "cert.json", jsonio.certificate_to_json(cert))
    lmi = write(tmp_path / "lmi.json", jsonio.lmi_to_json(system))
    pt = write(tmp_path / "pt.json", jsonio.point_to_json(point))
    corr = write(tmp_path / "c.json", jsonio.correlation_to_json(hm.c.matrix))
    choi = write(tmp_path / "choi.json", jsonio.choi_to_json(choi_from_kraus(k)))
    x6 = write(tmp_path / "x6.json", jsonio.matrix_to_json(np.arange(36.0).reshape(6, 6) - 17.5))
    x3 = write(tmp_path / "x3.json", jsonio.matrix_to_json(np.eye(3) * -0.0))
    monkeypatch.setattr(jsonio, "dumps", recording_dumps)
    runs = [
        ["choi", "-i", ch], ["kraus", "-i", choi], ["check", "-i", ch],
        ["apply", "-i", ch, "-i", x6], ["apply", "--adjoint", "-i", ch, "-i", x6],
        ["complement", "-i", ch, "-i", x6], ["complement", "--adjoint", "-i", ch, "-i", x3],
        ["dilate", "-i", ch], ["kernel-basis", "-i", ch], ["schur", "-i", corr],
        ["gram", "-i", corr], ["lmi-build", "-i", ch], ["lmi-check", "-i", lmi, "-i", pt],
        ["extract", "-i", lmi, "-i", pt], ["verify", "-i", ch, "-i", ct],
        ["combine", "--t", "0.25", "-i", ch, "-i", ct, "-i", ch, "-i", ct],
        ["decompose", "-i", ch, "-i", ct], ["extremality", "-i", ch, "-i", pt],
        ["example", "hm"], ["example", "hm", "--verify"], ["check", "-i", x3],
    ]
    for args in runs:
        main(args + ["--json"])
    capsys.readouterr()
    assert len(written) == len(runs)
    for doc, text in written:
        assert text == reference_dumps(doc)


def test_output_into_missing_directory_exits_2(tmp_path, capsys):
    ch = write(tmp_path / "deph.json", dephasing_doc())
    out = tmp_path / "missing" / "out.json"
    code, doc, err = run(capsys, "choi", "-i", ch, "-o", str(out), "--json")
    assert code == 2 and doc is None
    assert json.loads(err)["error"] == "IOError"
    assert not out.exists()


def test_integer_too_large_for_float_exits_2(tmp_path):
    doc = identity_channel_doc()
    doc["kraus"][0]["data"][0][0] = [10**400, 0]
    path = write(tmp_path / "huge.json", doc)
    proc = subprocess.run(
        [sys.executable, "-m", "chanfact.cli", "check", "-i", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "SchemaError"


def test_domain_failure_exits_1(tmp_path, capsys):
    bad_choi = {
        "dim_in": 1,
        "dim_out": 2,
        "matrix": jsonio.matrix_to_json(np.diag([1.0, -1.0])),
    }
    path = write(tmp_path / "bad.json", bad_choi)
    code, doc, err = run(capsys, "kraus", "-i", path)
    assert code == 1 and doc is None
    assert json.loads(err)["error"] == "NotPSD"


def huge_entry_docs(where):
    """A p=16 dilation channel and its certificate with one entry set to 1e308."""
    channel, cert = dilation_certificate(haar_unitary(np.random.default_rng(16), 16), 4, 4)
    docs = {"channel": jsonio.channel_to_json(channel),
            "certificate": jsonio.certificate_to_json(cert)}
    target = docs["channel"]["kraus"][0] if where == "kraus" else docs["certificate"]["v"][0][0]
    target["data"][0][0] = [1e308, 0.0]
    return docs


@pytest.mark.parametrize("command, where", [
    ("verify", "certificate"), ("verify", "kraus"), ("choi", "kraus"),
])
def test_result_that_overflows_exits_1(tmp_path, capsys, command, where):
    # the document is well formed, but 1e308 squared overflows to a non-finite result
    docs = huge_entry_docs(where)
    names = ("channel", "certificate") if command == "verify" else ("channel",)
    args = [arg for name in names for arg in ("-i", write(tmp_path / name, docs[name]))]
    code, doc, err = run(capsys, command, *args)
    assert code == 1 and doc is None
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "NonFiniteResult"


def test_module_entry_point(tmp_path):
    path = tmp_path / "id.json"
    path.write_text(jsonio.dumps(identity_channel_doc()), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "chanfact.cli", "check", "-i", str(path), "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "trace_preserving": True,
        "unital": True,
        "completely_positive": True,
    }
