"""CLI fuzz property: mutated documents never give a traceback.

Every command reads valid documents written by ``jsonio.*_to_json`` with at
most one mutation applied: a dropped key, a value of the wrong JSON type, a
ragged row, rows and cols swapped, a zero, negative or huge integer, or one
extra level of nesting. ``cli.main`` must return 0, 1 or 2 and raise
nothing; on exit 2 stdout is empty and the last line of stderr is a JSON
error report.
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chanfact import (  # noqa: E402
    GramVectors,
    KrausChannel,
    LmiPoint,
    LmiSystem,
    certificate_from_point,
    choi_from_kraus,
    correlation_from_gram,
    dilation_certificate,
    hm_derived_point,
    hm_example,
    jsonio,
    schur_channel_from_gram,
)
from chanfact.cli import main  # noqa: E402
from helpers import (  # noqa: E402
    amplitude_damping,
    complex_gaussian,
    haar_unitary,
    random_hermitian,
    random_tp_channel,
)


def scenarios():
    """(argv, valid input documents) for every command that reads input."""
    rng = np.random.default_rng(41)
    hm = hm_example()
    k = schur_channel_from_gram(hm.w)
    system = LmiSystem(3, hm.z, source=k)
    point = LmiPoint(2, hm_derived_point())
    cert = certificate_from_point(k, system, point)
    small, small_cert = dilation_certificate(haar_unitary(rng, 4), 2, 2)
    g = complex_gaussian(rng, (3, 4))
    corr = correlation_from_gram(GramVectors(g / np.linalg.norm(g, axis=1, keepdims=True)))

    ch, ct = jsonio.channel_to_json(k), jsonio.certificate_to_json(cert)
    ch2, ct2 = jsonio.channel_to_json(small), jsonio.certificate_to_json(small_cert)
    lmi, pt = jsonio.lmi_to_json(system), jsonio.point_to_json(point)
    x2 = jsonio.matrix_to_json(random_hermitian(rng, 2))
    x3 = jsonio.matrix_to_json(random_hermitian(rng, 3))
    choi = jsonio.choi_to_json(choi_from_kraus(random_tp_channel(rng, 2, 2)))
    return [
        (["choi"], [ch2]),
        (["kraus"], [choi]),
        (["check"], [ch]),
        (["apply"], [ch2, x2]),
        (["apply", "--adjoint"], [ch2, x2]),
        (["dilate"], [jsonio.channel_to_json(amplitude_damping(0.3))]),
        (["complement"], [ch2, x2]),
        (["complement", "--adjoint"], [ch, x3]),
        (["kernel-basis"], [ch]),
        (["schur"], [jsonio.correlation_to_json(corr.matrix)]),
        (["gram"], [jsonio.correlation_to_json(hm.c.matrix)]),
        (["lmi-build"], [ch2]),
        (["lmi-check"], [lmi, pt]),
        (["extract"], [lmi, pt]),
        (["verify"], [ch, ct]),
        (["verify"], [ch2, ct2]),
        (["combine", "--t", "0.25"], [ch2, ct2, ch2, ct2]),
        (["decompose"], [ch2, ct2]),
        (["extremality"], [ch, pt]),
    ]


SCENARIOS = scenarios()
MUTATIONS = ("none", "drop", "type", "ragged", "swap", "int", "nest")
WRONG_TYPES = ("x", None, True, 0.5, [], {}, [[1.0]])
INTEGERS = (0, -1, -7, 10**6, 2**63, 10**30)


@st.composite
def mutated(draw, doc):
    """``doc`` with one drawn mutation at a node reached by a drawn walk from the root."""
    root = [copy.deepcopy(doc)]
    parent, key = root, 0
    while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
        node = parent[key]
        parent, key = node, draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                                 else range(len(node))))
    node, kind = parent[key], draw(st.sampled_from(MUTATIONS))
    if kind == "drop" and isinstance(node, dict) and node:
        del node[draw(st.sampled_from(sorted(node)))]
    elif kind == "type":
        parent[key] = draw(st.sampled_from(WRONG_TYPES))
    elif kind == "ragged" and isinstance(node, list):
        rows = [row for row in node if isinstance(row, list) and row]
        if rows:
            draw(st.sampled_from(rows)).pop()
    elif kind == "swap" and isinstance(node, dict) and {"rows", "cols"} <= node.keys():
        node["rows"], node["cols"] = node["cols"], node["rows"]
    elif kind == "int":
        parent[key] = draw(st.sampled_from(INTEGERS))
    elif kind == "nest":
        parent[key] = [node]
    return root[0]


@st.composite
def cli_case(draw):
    argv, docs = draw(st.sampled_from(SCENARIOS))
    docs = list(docs)
    i = draw(st.integers(0, len(docs) - 1))
    docs[i] = draw(mutated(docs[i]))
    return argv, docs


TRACE_MAP = jsonio.channel_to_json(KrausChannel(np.eye(3).reshape(3, 1, 3)))


@settings(max_examples=200, deadline=None)
@given(case=cli_case())
@example(case=(["dilate"], [TRACE_MAP]))
def test_mutated_documents_exit_0_1_or_2(tmp_path_factory, case):
    argv, docs = case
    folder = tmp_path_factory.mktemp("fuzz", numbered=True)
    inputs = []
    for i, doc in enumerate(docs):
        path = folder / f"input{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        inputs += ["-i", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + inputs + ["--json"])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert "error" in json.loads(err.getvalue().splitlines()[-1])
