import json

import numpy as np
import pytest

from chanfact import (
    DEFAULT_TOL,
    ChoiMatrix,
    FactorAlgebra,
    FactorizationCertificate,
    KrausChannel,
    LmiPoint,
    LmiSystem,
    SchemaError,
    Tolerance,
    choi_from_kraus,
    hm_example,
)
from chanfact import jsonio
from chanfact.factorization import WEIGHT_SUM_TOL
from helpers import (
    complex_gaussian,
    random_hermitian,
    random_tp_channel,
    reference_dumps,
    reference_matrix_from_json,
    reference_matrix_to_json,
)


def test_dumps_formats():
    doc = {"a": True, "b": 3, "c": 0.1, "d": "x", "e": [1.5, None]}
    text = jsonio.dumps(doc)
    assert text == '{"a":true,"b":3,"c":0.10000000000000001,"d":"x","e":[1.5,null]}'
    assert json.loads(text) == {"a": True, "b": 3, "c": 0.1, "d": "x", "e": [1.5, None]}


def test_dumps_floats_roundtrip_bit_exactly():
    rng = np.random.default_rng(60)
    for value in rng.standard_normal(50):
        assert json.loads(jsonio.dumps(float(value))) == value


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        jsonio.dumps(float("inf"))


def test_matrix_roundtrip_is_exact():
    rng = np.random.default_rng(61)
    m = complex_gaussian(rng, (3, 2))
    doc = json.loads(jsonio.dumps(jsonio.matrix_to_json(m)))
    assert np.array_equal(jsonio.matrix_from_json(doc), m)


def test_matrix_schema_errors():
    with pytest.raises(SchemaError):
        jsonio.matrix_from_json({"rows": 1, "cols": 1})
    with pytest.raises(SchemaError):
        jsonio.matrix_from_json({"rows": 1, "cols": 1, "data": [[[1.0]]]})
    with pytest.raises(SchemaError):
        jsonio.matrix_from_json({"rows": 2, "cols": 1, "data": [[[1.0, 0.0]]]})
    with pytest.raises(SchemaError):
        jsonio.matrix_from_json({"rows": 0, "cols": 1, "data": []})


def test_channel_roundtrip():
    rng = np.random.default_rng(62)
    k = random_tp_channel(rng, 3, 2)
    doc = json.loads(jsonio.dumps(jsonio.channel_to_json(k)))
    k2 = jsonio.channel_from_json(doc)
    assert k2.num_kraus == k.num_kraus
    for a, b in zip(k2.operators, k.operators):
        assert np.array_equal(a, b)
    with pytest.raises(SchemaError):
        jsonio.channel_from_json({"dim_in": 2, "dim_out": 2, "kraus": []})
    bad = jsonio.channel_to_json(k)
    bad["dim_out"] = 5
    with pytest.raises(SchemaError):
        jsonio.channel_from_json(bad)


def test_choi_roundtrip():
    rng = np.random.default_rng(63)
    c = choi_from_kraus(random_tp_channel(rng, 2, 2))
    doc = json.loads(jsonio.dumps(jsonio.choi_to_json(c)))
    c2 = jsonio.choi_from_json(doc)
    assert np.array_equal(c2.matrix, c.matrix)
    with pytest.raises(SchemaError):
        jsonio.choi_from_json({"dim_in": 2, "dim_out": 2, "matrix": jsonio.matrix_to_json(np.eye(3))})


def test_correlation_and_gram_serialization():
    hm = hm_example()
    doc = json.loads(jsonio.dumps(jsonio.correlation_to_json(hm.c.matrix)))
    assert np.array_equal(jsonio.correlation_matrix_from_json(doc), hm.c.matrix)
    gram_doc = json.loads(jsonio.dumps(jsonio.gram_to_json(hm.w)))
    assert gram_doc["n"] == 6 and gram_doc["p"] == 3
    restored = np.array(gram_doc["vectors"], dtype=float).view(complex)[..., 0]
    for a, b in zip(restored, hm.w.vectors):
        assert np.array_equal(a, b)


def test_lmi_and_point_roundtrip():
    hm = hm_example()
    s = LmiSystem(3, hm.z)
    doc = json.loads(jsonio.dumps(jsonio.lmi_to_json(s)))
    s2 = jsonio.lmi_from_json(doc)
    assert s2.p == 3 and s2.d == 3
    for a, b in zip(s2.z, s.z):
        assert np.array_equal(a, b)
    point = LmiPoint(2, (np.eye(2, dtype=complex),))
    doc = json.loads(jsonio.dumps(jsonio.point_to_json(point)))
    p2 = jsonio.point_from_json(doc)
    assert np.array_equal(p2.a[0], point.a[0])


def test_lmi_and_point_require_hermitian_entries():
    bad = jsonio.matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(SchemaError):
        jsonio.lmi_from_json({"p": 2, "z": [bad]})
    with pytest.raises(SchemaError):
        jsonio.point_from_json({"k": 2, "a": [bad]})


def test_hermitian_check_at_an_overflowing_scale():
    # the squares of 1e160 overflow; an infinite scale would pass this anti-Hermitian entry
    skew = jsonio.matrix_to_json(np.array([[0.0, 1e160], [-1e160, 0.0]]))
    with pytest.raises(SchemaError, match=r"point\.a\[0\]: must be Hermitian"):
        jsonio.point_from_json({"k": 2, "a": [skew]})


@pytest.mark.parametrize("entries", [
    [[0.0, 1.5e308], [-1.5e308, 0.0]],  # a - a* overflows: an infinite gap
    [[1.5e308, 0.0], [0.0, 1.5e308]],  # Hermitian, but its norm is not a float
])
def test_hermitian_check_beyond_the_float_range(entries):
    # rejected without an overflow warning (the suite turns warnings into errors)
    doc = {"k": 2, "a": [jsonio.matrix_to_json(np.array(entries))]}
    with pytest.raises(SchemaError, match=r"point\.a\[0\]: must be Hermitian"):
        jsonio.point_from_json(doc)


def _walk_error(mats, size, where, tol):
    """The per-matrix walk the stacked check must agree with."""
    for i, m in enumerate(mats):
        if m.shape != (size, size):
            return f"{where}[{i}]: expected shape {(size, size)}"
        if np.linalg.norm(m - m.conj().T) > tol.abs_tol * max(1.0, np.linalg.norm(m)):
            return f"{where}[{i}]: must be Hermitian"
    return None


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerance(abs_tol=1e-6)])
def test_hermitian_checks_name_the_first_offender(tol):
    rng = np.random.default_rng(16)
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    kinds = [
        lambda: random_hermitian(rng, 2),
        lambda: random_hermitian(rng, 2) + 1e-8 * skew,  # rejected at 1e-9 only
        lambda: random_hermitian(rng, 2) + 1e-3 * skew,
        lambda: random_hermitian(rng, 3),
    ]
    seen = set()
    for _ in range(300):
        mats = [kinds[j]() for j in rng.choice(4, size=int(rng.integers(0, 6)), p=[0.7, 0.1, 0.1, 0.1])]
        expected = _walk_error(mats, 2, "lmi.z", tol)
        seen.add(expected is None)
        docs = [jsonio.matrix_to_json(m) for m in mats]
        for read, doc, where in (
            (jsonio.lmi_from_json, {"p": 2, "z": docs}, "lmi.z"),
            (jsonio.point_from_json, {"k": 2, "a": docs}, "point.a"),
        ):
            if expected is None:
                read(doc, tol=tol)
                continue
            with pytest.raises(SchemaError) as info:
                read(doc, tol=tol)
            assert str(info.value) == expected.replace("lmi.z", where)
    assert seen == {True, False}


def test_algebra_roundtrip_and_validation():
    algebra = FactorAlgebra(((2, 0.25), (3, 0.75)))
    doc = json.loads(jsonio.dumps(jsonio.algebra_to_json(algebra)))
    assert jsonio.algebra_from_json(doc).factors == algebra.factors
    with pytest.raises(SchemaError):
        jsonio.algebra_from_json({"factors": [{"dim": 2, "weight": 0.5}]})
    with pytest.raises(SchemaError):
        jsonio.algebra_from_json({"factors": [{"dim": 2, "weight": -1.0}, {"dim": 1, "weight": 2.0}]})


def test_certificate_roundtrip():
    algebra = FactorAlgebra(((2, 0.5), (1, 0.5)))
    elements = (
        (np.eye(2, dtype=complex), np.array([[1.0 + 0j]])),
        (1j * np.eye(2, dtype=complex), np.array([[-1.0 + 0j]])),
    )
    cert = FactorizationCertificate(algebra, elements)
    doc = json.loads(jsonio.dumps(jsonio.certificate_to_json(cert)))
    cert2 = jsonio.certificate_from_json(doc)
    assert cert2.algebra.factors == algebra.factors
    for e1, e2 in zip(cert2.elements, cert.elements):
        for b1, b2 in zip(e1, e2):
            assert np.array_equal(b1, b2)
    trimmed = jsonio.certificate_to_json(cert)
    trimmed["v"][0] = trimmed["v"][0][:1]
    with pytest.raises(SchemaError):
        jsonio.certificate_from_json(trimmed)


def test_serialization_is_deterministic():
    rng = np.random.default_rng(64)
    k = random_tp_channel(rng, 2, 2)
    text1 = jsonio.dumps(jsonio.channel_to_json(k))
    text2 = jsonio.dumps(jsonio.channel_to_json(KrausChannel(tuple(k.operators))))
    assert text1 == text2


def edge_matrix():
    """Entries the row templates must write like format(x, ".17g")."""
    tiny = np.nextafter(0.0, 1.0)
    m = np.array(
        [
            [-0.0, 1.0, 2.0**52 + 1.0, 1e16],
            [tiny, -tiny * 3.0, 2.2250738585072014e-308, 1.7976931348623157e308],
            [0.1, -1.0 / 3.0, 12345678901234567.0, 9.999999999999999e16],
        ]
    )
    return m + 1j * m[::-1, ::-1]


def test_percent_template_matches_format():
    rng = np.random.default_rng(65)
    values = np.concatenate(
        [
            rng.standard_normal(10_000) * 10.0 ** rng.integers(-300, 300, 10_000),
            rng.uniform(1e16, 1e17, 5_000),
            rng.integers(-(2**60), 2**60, 5_000).astype(float),
            [-0.0, np.nextafter(0.0, 1.0), 5e-324 * 7, np.finfo(float).max, -np.finfo(float).max],
        ]
    )
    for x in values.tolist():
        assert "%.17g" % x == format(x, ".17g")


def test_matrix_to_json_matches_reference():
    rng = np.random.default_rng(66)
    g = complex_gaussian(rng, (6, 8))
    cases = [
        edge_matrix(),
        g,
        g[:, ::2],  # non-contiguous columns
        g.T,  # Fortran order
        g[::3, 1::3],
        np.arange(12.0).reshape(3, 4),  # integer-valued real floats
        np.eye(3, dtype=np.complex64),
        np.array([[1, 2], [3, 4]]),  # integer dtype
    ]
    for m in cases:
        doc = jsonio.matrix_to_json(m)
        assert doc["rows"] == m.shape[0] and doc["cols"] == m.shape[1]
        assert jsonio._dump_complex_rows(doc["data"]) is not None  # the template path ran
        text = jsonio.dumps(doc)
        assert text == reference_dumps(reference_matrix_to_json(m))
        assert text == reference_dumps(doc)
    v = g[:, 3]
    assert jsonio.dumps(jsonio.vector_to_json(v)) == reference_dumps(
        reference_matrix_to_json(v.reshape(1, -1))["data"][0]
    )


def test_every_document_kind_matches_reference_writer():
    rng = np.random.default_rng(67)
    hm = hm_example()
    k = random_tp_channel(rng, 3, 2)
    algebra = FactorAlgebra(((2, 0.25), (1, 0.75)))
    cert = FactorizationCertificate(
        algebra, tuple((complex_gaussian(rng, (2, 2)), complex_gaussian(rng, (1, 1)))
                       for _ in range(2))
    )
    docs = [
        jsonio.channel_to_json(k),
        jsonio.choi_to_json(choi_from_kraus(k)),
        jsonio.correlation_to_json(hm.c.matrix),
        jsonio.gram_to_json(hm.w),
        jsonio.lmi_to_json(LmiSystem(3, hm.z)),
        jsonio.point_to_json(LmiPoint(2, (np.eye(2), -np.eye(2)))),
        jsonio.certificate_to_json(cert),
        {"matrix": jsonio.matrix_to_json(edge_matrix())},
        {"p": 4, "unitary": jsonio.matrix_to_json(edge_matrix()[:, 1:])},
        {"k": 2, "blocks": [jsonio.matrix_to_json(complex_gaussian(rng, (2, 2)))] * 3},
        {"psd": True, "rank": 2, "traces": [0.0, -0.0, 1e-300]},
        {"components": [{"weight": 0.5, "channel": jsonio.channel_to_json(k)}]},
    ]
    for doc in docs:
        assert jsonio.dumps(doc) == reference_dumps(doc)


def test_dumps_mixed_and_irregular_matrix_slots_match_reference():
    docs = [
        [[[1, 0.5], [True, np.float64(2.0)]]],  # int, bool, numpy scalar
        [[[1.0, 0.5], [0.25, np.float64(2.0)]]],
        [[[1.0, 0.5]], [[0.25, 0.5], [1.0, 2.0]]],  # ragged rows
        [[[1.0, 0.5, 0.25]]],  # three-element entry
        [[(1.0, 0.5)]],  # tuple pair
        [[[1.0, [0.5]]]],
        [[[1.0, None]]],
        [[], []],
        [[[]]],
        [[{"a": 1.0}]],
        ([[1.0, 2.0]],),
    ]
    for doc in docs:
        assert jsonio.dumps(doc) == reference_dumps(doc)


def test_dumps_rejects_non_finite_in_matrix_slots():
    for bad in (float("nan"), float("inf"), -float("inf")):
        doc = {"rows": 1, "cols": 2, "data": [[[0.0, 1.0], [bad, 0.0]]]}
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.dumps(doc)
        with pytest.raises(ValueError, match="non-finite"):
            jsonio.dumps(jsonio.matrix_to_json(np.array([[0.0, bad]])))


def test_matrix_from_json_matches_reference_walk():
    rng = np.random.default_rng(68)
    texts = [
        jsonio.dumps(jsonio.matrix_to_json(edge_matrix())),
        jsonio.dumps(jsonio.matrix_to_json(complex_gaussian(rng, (5, 7)))),
        '{"rows": 2, "cols": 1, "data": [[[1, -0]], [[9007199254740993, -0.0]]]}',
        '{"rows": 1, "cols": 2, "data": [[[1e308, 5e-324], [18446744073709551617, 0]]]}',
    ]
    for text in texts:
        doc = json.loads(text)
        assert jsonio._complex_array_from(doc["data"], (doc["rows"], doc["cols"])) is not None
        got = jsonio.matrix_from_json(doc)
        want = reference_matrix_from_json(doc)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.view(float).tobytes() == want.view(float).tobytes()


@pytest.mark.parametrize(
    "entry",
    [
        "[true, 0.0]",
        "[0.0, false]",
        '["1.5", 0.0]',
        "[null, 0.0]",
        "[1.0]",
        "[1.0, 2.0, 3.0]",
        "[[1.0, 2.0], 3.0]",
        "[[1.0], [2.0]]",
        "1.0",
        "{}",
        "[NaN, 0.0]",
        "[0.0, Infinity]",
        "[-Infinity, 0.0]",
        "[" + "9" * 400 + ", 0]",
    ],
)
def test_matrix_from_json_malformed_entry_matches_reference(entry):
    text = '{"rows": 2, "cols": 2, "data": [[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0], %s]]}' % entry
    doc = json.loads(text)
    with pytest.raises(SchemaError) as want:
        reference_matrix_from_json(doc)
    with pytest.raises(SchemaError) as got:
        jsonio.matrix_from_json(doc)
    assert str(got.value) == str(want.value)
    assert "data[1][1]" in str(got.value)


@pytest.mark.parametrize(
    "data",
    [
        "[[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0]]]",  # ragged row
        "[[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0], [4.0, 0.0], [5.0, 0.0]]]",
        "[[[1.0, 0.0], [2.0, 0.0]]]",  # missing row
        "[[[[1.0, 0.0], [2.0, 0.0]]], [[[3.0, 0.0], [4.0, 0.0]]]]",  # extra depth
        "[[[1.0, 0.0], [2.0, 0.0]], {}]",
        "[[[1.0, 0.0], [2.0, 0.0]], null]",
        '"abcd"',
    ],
)
def test_matrix_from_json_malformed_rows_match_reference(data):
    doc = json.loads('{"rows": 2, "cols": 2, "data": %s}' % data)
    with pytest.raises(SchemaError) as want:
        reference_matrix_from_json(doc)
    with pytest.raises(SchemaError) as got:
        jsonio.matrix_from_json(doc)
    assert str(got.value) == str(want.value)


def test_algebra_weight_sum_follows_factorization_tolerance():
    ok = {"factors": [{"dim": 1, "weight": 0.5}, {"dim": 1, "weight": 0.5 + WEIGHT_SUM_TOL / 2}]}
    assert jsonio.algebra_from_json(ok).num_factors == 2
    bad = {"factors": [{"dim": 1, "weight": 0.5}, {"dim": 1, "weight": 0.5 + WEIGHT_SUM_TOL * 4}]}
    with pytest.raises(SchemaError, match="weights sum"):
        jsonio.algebra_from_json(bad)
