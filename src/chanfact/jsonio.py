"""JSON schemas for the CLI: deterministic, 17-significant-digit output.

Complex scalars are encoded as [re, im]; a matrix is
{"rows": r, "cols": c, "data": [[[re, im], ...], ...]} in row-major order.
Serialization then parsing reproduces every value bit-exactly.
Readers check what the format owns (types, nesting, required keys, finite
numbers); the library code they call decides every other condition, and its
rejection becomes a SchemaError naming the document path.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import chain

import numpy as np

from .channel import ChoiMatrix, KrausChannel
from .errors import DimensionMismatch, NotHermitian, SchemaError
from .factorization import FactorAlgebra, FactorizationCertificate
from .linalg import DEFAULT_TOL, Tolerance, _require_hermitian
from .lmi import LmiPoint, LmiSystem
from .schur import GramVectors


def dumps(doc) -> str:
    """Serialize a document with floats at 17 significant digits."""
    if isinstance(doc, bool):
        return "true" if doc else "false"
    if doc is None:
        return "null"
    if isinstance(doc, (int, np.integer)):
        return str(int(doc))
    if isinstance(doc, (float, np.floating)):
        value = float(doc)
        if not math.isfinite(value):
            raise ValueError("cannot serialize non-finite numbers")
        return format(value, ".17g")
    if isinstance(doc, str):
        return json.dumps(doc)
    if isinstance(doc, (list, tuple)):
        text = _dump_complex_rows(doc)
        if text is not None:
            return text
        return "[" + ",".join(dumps(item) for item in doc) + "]"
    if isinstance(doc, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{dumps(v)}" for k, v in doc.items()) + "}"
    raise TypeError(f"cannot serialize {type(doc).__name__}")


@functools.lru_cache(maxsize=64)
def _row_template(cols: int) -> str:
    return "[" + ",".join(["[%.17g,%.17g]"] * cols) + "]"


def _types(items) -> set:
    return set(map(type, items))


def _dump_complex_rows(doc) -> str | None:
    """Text of a list of equal-length rows of finite [float, float] pairs, else None.

    The checks run at C speed and each row is written by one %-template;
    "%.17g" % x equals format(x, ".17g"), so the bytes match the recursive
    walk. Exact float type is required: int, bool and numpy scalars, like
    non-finite values and anything else, take the walk instead.
    """
    if type(doc) is not list or not doc:
        return None
    first = doc[0]
    if type(first) is not list or not first or type(first[0]) is not list:
        return None
    if _types(doc) != {list} or set(map(len, doc)) != {len(first)}:
        return None
    pairs = list(chain.from_iterable(doc))
    if _types(pairs) != {list} or set(map(len, pairs)) != {2}:
        return None
    values = tuple(chain.from_iterable(pairs))
    if _types(values) != {float} or not all(map(math.isfinite, values)):
        return None
    template = _row_template(len(first))
    step = 2 * len(first)
    return "[" + ",".join(
        template % values[i : i + step] for i in range(0, len(values), step)
    ) + "]"


def _expect_dict(obj, keys: tuple[str, ...], where: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}")
    return obj


def _expect_int(value, where: str, minimum: int | None = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{where}: must be at least {minimum}")
    return value


def _expect_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number")
    try:
        value = float(value)
    except OverflowError:
        raise SchemaError(f"{where}: integer too large for a float") from None
    if not math.isfinite(value):
        raise SchemaError(f"{where}: must be finite")
    return value


def _built(where: str, make, *args):
    """``make(*args)``; the DimensionMismatch or ValueError of a library check
    that rejects the document is raised as a SchemaError naming ``where``."""
    try:
        return make(*args)
    except (DimensionMismatch, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _complex_from(obj, where: str) -> complex:
    if not isinstance(obj, list) or len(obj) != 2:
        raise SchemaError(f"{where}: complex scalars are [re, im] pairs")
    return complex(_expect_number(obj[0], where), _expect_number(obj[1], where))


def _complex_array_from(data, shape: tuple[int, ...]) -> np.ndarray | None:
    """Complex array of nested [re, im] lists with this shape, or None.

    ``data`` must already hold ``shape[0]`` items. The nesting is checked and flattened one level at a time at C speed,
    and one np.array call converts the flat scalars. numpy alone would
    accept what the schema refuses (true as 1.0, "1.5" as 1.5, null as NaN),
    so scalar types and finiteness are checked too. None sends the caller
    to its per-entry walk, which reports the first error.
    """
    level = data
    for size in (*shape[1:], 2):
        if _types(level) != {list} or set(map(len, level)) != {size}:
            return None
        level = list(chain.from_iterable(level))
    if not _types(level) <= {int, float}:
        return None
    try:
        arr = np.array(level, dtype=float)
    except OverflowError:
        return None
    if not np.isfinite(arr).all():
        return None
    return arr.view(complex).reshape(shape)


def _pairs(m: np.ndarray, shape: tuple[int, ...]) -> list:
    return np.ascontiguousarray(m, dtype=complex).view(float).reshape(*shape, 2).tolist()


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    rows, cols = int(m.shape[0]), int(m.shape[1])
    return {"rows": rows, "cols": cols, "data": _pairs(m, (rows, cols))}


def matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    obj = _expect_dict(obj, ("rows", "cols", "data"), where)
    rows = _expect_int(obj["rows"], f"{where}.rows")
    cols = _expect_int(obj["cols"], f"{where}.cols")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows:
        raise SchemaError(f"{where}.data: expected {rows} rows")
    fast = _complex_array_from(data, (rows, cols))
    if fast is not None:
        return fast
    out = np.empty((rows, cols), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{where}.data[{i}]: expected {cols} entries")
        for j, entry in enumerate(row):
            out[i, j] = _complex_from(entry, f"{where}.data[{i}][{j}]")
    return out


def _matrices(items, where: str) -> list:
    """The matrices of a JSON list, each named by its index in errors."""
    if not isinstance(items, list):
        raise SchemaError(f"{where}: expected a list")
    return [matrix_from_json(item, f"{where}[{i}]") for i, item in enumerate(items)]


def vector_to_json(v: np.ndarray) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return _pairs(v, v.shape)


def channel_to_json(k: KrausChannel) -> dict:
    return {
        "dim_in": k.dim_in,
        "dim_out": k.dim_out,
        "kraus": [matrix_to_json(op) for op in k.operators],
    }


def channel_from_json(obj, where: str = "channel") -> KrausChannel:
    obj = _expect_dict(obj, ("dim_in", "dim_out", "kraus"), where)
    n = _expect_int(obj["dim_in"], f"{where}.dim_in")
    m = _expect_int(obj["dim_out"], f"{where}.dim_out")
    ops = _matrices(obj["kraus"], f"{where}.kraus")
    for i, op in enumerate(ops):
        if op.shape != (m, n):
            raise SchemaError(f"{where}.kraus[{i}]: expected shape {(m, n)}, got {op.shape}")
    return _built(f"{where}.kraus", KrausChannel, ops)


def choi_to_json(c: ChoiMatrix) -> dict:
    return {
        "dim_in": c.dim_in,
        "dim_out": c.dim_out,
        "matrix": matrix_to_json(c.matrix),
    }


def choi_from_json(obj, where: str = "choi") -> ChoiMatrix:
    obj = _expect_dict(obj, ("dim_in", "dim_out", "matrix"), where)
    n = _expect_int(obj["dim_in"], f"{where}.dim_in")
    m = _expect_int(obj["dim_out"], f"{where}.dim_out")
    mat = matrix_from_json(obj["matrix"], f"{where}.matrix")
    return _built(f"{where}.matrix", ChoiMatrix, n, m, mat)


def correlation_to_json(matrix: np.ndarray) -> dict:
    return {"matrix": matrix_to_json(matrix)}


def correlation_matrix_from_json(obj, where: str = "correlation") -> np.ndarray:
    obj = _expect_dict(obj, ("matrix",), where)
    mat = matrix_from_json(obj["matrix"], f"{where}.matrix")
    if mat.shape[0] != mat.shape[1]:
        raise SchemaError(f"{where}.matrix: must be square")
    return mat


def gram_to_json(w: GramVectors) -> dict:
    return {
        "n": w.n,
        "p": w.p,
        "vectors": [vector_to_json(v) for v in w.vectors],
    }


def _hermitian_list(items, size: int, where: str, tol: Tolerance) -> np.ndarray:
    """A list of size x size matrices, Hermitian within ``tol``, as one
    count x size x size array; the error names the first offender."""
    mats = _matrices(items, where)
    for i, m in enumerate(mats):
        if m.shape != (size, size):
            raise SchemaError(f"{where}[{i}]: expected shape {(size, size)}")
        try:
            _require_hermitian(m, tol)
        except NotHermitian:
            raise SchemaError(f"{where}[{i}]: must be Hermitian") from None
    return np.array(mats, dtype=complex).reshape(-1, size, size)


def lmi_to_json(s: LmiSystem) -> dict:
    return {"p": s.p, "z": [matrix_to_json(zi) for zi in s.z]}


def lmi_from_json(obj, where: str = "lmi", tol: Tolerance = DEFAULT_TOL) -> LmiSystem:
    obj = _expect_dict(obj, ("p", "z"), where)
    p = _expect_int(obj["p"], f"{where}.p")
    return LmiSystem(p, _hermitian_list(obj["z"], p, f"{where}.z", tol))


def point_to_json(point: LmiPoint) -> dict:
    return {"k": point.k, "a": [matrix_to_json(ai) for ai in point.a]}


def point_from_json(obj, where: str = "point", tol: Tolerance = DEFAULT_TOL) -> LmiPoint:
    obj = _expect_dict(obj, ("k", "a"), where)
    k = _expect_int(obj["k"], f"{where}.k")
    return LmiPoint(k, _hermitian_list(obj["a"], k, f"{where}.a", tol))


def algebra_to_json(algebra: FactorAlgebra) -> dict:
    return {"factors": [{"dim": d, "weight": q} for d, q in algebra.factors]}


def algebra_from_json(obj, where: str = "algebra") -> FactorAlgebra:
    obj = _expect_dict(obj, ("factors",), where)
    items = obj["factors"]
    if not isinstance(items, list):
        raise SchemaError(f"{where}.factors: expected a list")
    factors = []
    for i, item in enumerate(items):
        item = _expect_dict(item, ("dim", "weight"), f"{where}.factors[{i}]")
        d = _expect_int(item["dim"], f"{where}.factors[{i}].dim", minimum=None)
        factors.append((d, _expect_number(item["weight"], f"{where}.factors[{i}].weight")))
    return _built(f"{where}.factors", FactorAlgebra, tuple(factors))


def certificate_to_json(cert: FactorizationCertificate) -> dict:
    return {
        "algebra": algebra_to_json(cert.algebra),
        "v": [
            [matrix_to_json(blk) for blk in element] for element in cert.elements
        ],
    }


def certificate_from_json(obj, where: str = "certificate") -> FactorizationCertificate:
    obj = _expect_dict(obj, ("algebra", "v"), where)
    algebra = algebra_from_json(obj["algebra"], f"{where}.algebra")
    items = obj["v"]
    if not isinstance(items, list):
        raise SchemaError(f"{where}.v: expected a list")
    elements = [_matrices(blocks, f"{where}.v[{i}]") for i, blocks in enumerate(items)]
    return _built(f"{where}.v", FactorizationCertificate, algebra, elements)
