"""Seeded random generators and loop references shared by the test modules."""

import json
import math

import numpy as np

from chanfact import (
    DEFAULT_TOL,
    DimensionMismatch,
    KrausChannel,
    NotHermitian,
    SchemaError,
    frob,
    kron,
)


def complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_unitary(rng, n):
    q, r = np.linalg.qr(complex_gaussian(rng, (n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_isometry(rng, rows, cols):
    q, r = np.linalg.qr(complex_gaussian(rng, (rows, cols)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_tp_channel(rng, n, p, m=None):
    # V*V = I_n guarantees sum_i K_i* K_i = I_n
    m = n if m is None else m
    v = random_isometry(rng, m * p, n)
    t = v.reshape(m, p, n)
    return KrausChannel(tuple(t[:, i, :] for i in range(p)))


def random_cp_channel(rng, n, m, p):
    ops = tuple(complex_gaussian(rng, (m, n)) / np.sqrt(2.0 * p) for _ in range(p))
    return KrausChannel(ops)


def random_hermitian(rng, n):
    g = complex_gaussian(rng, (n, n))
    return (g + g.conj().T) / 2.0


def random_psd(rng, n, rank=None):
    r = n if rank is None else rank
    b = complex_gaussian(rng, (n, r))
    return b @ b.conj().T


def reference_apply_complement(k, x):
    """Loop evaluation of the complement, one ``vdot`` per (a, b) entry Tr(K_b* K_a X)."""
    p = k.num_kraus
    kx = [op @ x for op in k.operators]
    out = np.empty((p, p), dtype=complex)
    for a in range(p):
        for b in range(p):
            out[a, b] = np.vdot(k.operators[b], kx[a])
    return out


def reference_lmi_eval(s, point):
    """Pencil value I (x) I + sum_i Z_i (x) A_i as d ``kron`` calls, the
    reference for the single product in ``lmi_eval``."""
    if len(point.a) != s.d:
        raise DimensionMismatch(f"point has {len(point.a)} coefficients, system needs {s.d}")
    out = np.eye(s.p * point.k, dtype=complex)
    for zi, ai in zip(s.z, point.a):
        out += kron(zi, ai)
    return out


def reference_eigh(h, tol=DEFAULT_TOL):
    """``linalg.eigh`` with its phase fix as a loop over the columns."""
    h = np.asarray(h, dtype=complex)
    scale = max(1.0, frob(h))
    if frob(h - h.conj().T) > tol.abs_tol * scale:
        raise NotHermitian("matrix is not Hermitian")
    w, q = np.linalg.eigh(h)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    q = np.array(q[:, order], dtype=complex)
    for j in range(q.shape[1]):
        col = q[:, j]
        idx = np.flatnonzero(np.abs(col) > tol.rel_rank_tol)
        if idx.size:
            phase = col[idx[0]]
            q[:, j] = col * (phase.conjugate() / abs(phase))
    return w, q


def reference_residuals(k, cert):
    """Loop evaluation of the three certificate residuals, one complement call per (a, b).

    The reference for the tensor contractions in ``verify_certificate``: returns
    (orthonormality, complement, unitarity) with the same meaning.
    """
    n, p = k.dim_in, k.num_kraus
    algebra = cert.algebra
    orth = 0.0
    for i in range(p):
        for j in range(p):
            inner = algebra.trace(
                tuple(vi.conj().T @ vj for vi, vj in zip(cert.elements[i], cert.elements[j]))
            )
            orth = max(orth, abs(inner - (1.0 if i == j else 0.0)))
    compl = 0.0
    for a in range(n):
        for b in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[a, b] = 1.0
            x = reference_apply_complement(k, e)
            for f, (d, _) in enumerate(algebra.factors):
                r = -np.trace(x) * np.eye(d, dtype=complex)
                for i in range(p):
                    for j in range(p):
                        r += x[i, j] * (cert.elements[j][f].conj().T @ cert.elements[i][f])
                compl = max(compl, frob(r))
    unit_sq = 0.0
    for f, (d, _) in enumerate(algebra.factors):
        u = sum(kron(k.operators[i], cert.elements[i][f]) for i in range(p))
        unit_sq += frob(u.conj().T @ u - np.eye(n * d)) ** 2
    return float(orth), float(compl), float(np.sqrt(unit_sq))


def reference_factor_gram(cert, f):
    """Loop evaluation of the p x p Gram matrix Tr(V_i* V_j) / d of factor f."""
    d = cert.algebra.factors[f][0]
    p = cert.num_elements
    gram = np.empty((p, p), dtype=complex)
    for i in range(p):
        for j in range(p):
            gram[i, j] = np.trace(cert.elements[i][f].conj().T @ cert.elements[j][f]) / d
    return gram


def reference_adjoint_operator_matrix(k):
    """The complement adjoint Y -> sum_ij y_ij K_i* K_j as an n^2 x p^2 matrix.

    Column (i, j), in row-major order, is the column-stacked K_i* K_j, so the
    matrix sends the row-major flattening of Y to the column-stacked image.
    """
    ops = k.operators
    return np.column_stack([(ki.conj().T @ kj).ravel(order="F") for ki in ops for kj in ops])


def reference_selfadjoint_kernel_basis(k, tol=DEFAULT_TOL):
    """Greedy Hermitian kernel basis, one real-rank SVD per candidate.

    The reference for the single decomposition in ``selfadjoint_kernel_basis``:
    from a complex orthonormal basis {B} of the null space of
    :func:`reference_adjoint_operator_matrix`, the candidates (B + B*)/2 and
    (B - B*)/(2i) that raise the real-linear rank are kept, then made
    HS-orthonormal by a QR with nonnegative diagonal.
    """
    p = k.num_kraus
    mat = reference_adjoint_operator_matrix(k)
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    rank = int(np.sum(s > tol.rel_rank_tol * s[0])) if s.size and s[0] > 0.0 else 0
    candidates = []
    for c in vh[rank:].conj():
        y = c.reshape(p, p)
        candidates.append((y + y.conj().T) / 2.0)
        candidates.append((y - y.conj().T) / 2.0j)
    vectors = []
    for cand in candidates:
        if np.linalg.norm(cand) <= tol.abs_tol:
            continue
        rv = np.concatenate([cand.real.ravel(), cand.imag.ravel()])
        s = np.linalg.svd(np.column_stack(vectors + [rv]), compute_uv=False)
        if np.sum(s > tol.rel_rank_tol * s[0]) > len(vectors):
            vectors.append(rv)
    if not vectors:
        return []
    q, r = np.linalg.qr(np.column_stack(vectors))
    q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
    half = p * p
    basis = []
    for j in range(q.shape[1]):
        h = q[:half, j].reshape(p, p) + 1j * q[half:, j].reshape(p, p)
        basis.append((h + h.conj().T) / 2.0)
    return basis


def reference_dumps(doc):
    """Recursive writer, one ``format(x, ".17g")`` per float.

    The reference for the row templates in ``jsonio.dumps``.
    """
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
        return "[" + ",".join(reference_dumps(item) for item in doc) + "]"
    if isinstance(doc, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{reference_dumps(v)}" for k, v in doc.items()) + "}"
    raise TypeError(f"cannot serialize {type(doc).__name__}")


def reference_matrix_to_json(m):
    """Matrix document built one complex entry at a time."""
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[[float(complex(z).real), float(complex(z).imag)] for z in row] for row in m],
    }


def _reference_number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number")
    try:
        value = float(value)
    except OverflowError:
        raise SchemaError(f"{where}: integer too large for a float") from None
    if not math.isfinite(value):
        raise SchemaError(f"{where}: must be finite")
    return value


def reference_complex_from_json(obj, where):
    if not isinstance(obj, list) or len(obj) != 2:
        raise SchemaError(f"{where}: complex scalars are [re, im] pairs")
    return complex(_reference_number(obj[0], where), _reference_number(obj[1], where))


def reference_matrix_from_json(obj, where="matrix"):
    """Per-entry schema walk: the reference for ``jsonio.matrix_from_json``'s
    single ``np.array`` parse, with the same errors in the same order."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    missing = [k for k in ("rows", "cols", "data") if k not in obj]
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}")
    dims = []
    for key in ("rows", "cols"):
        value = obj[key]
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{where}.{key}: expected an integer")
        if value < 1:
            raise SchemaError(f"{where}.{key}: must be at least 1")
        dims.append(value)
    rows, cols = dims
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows:
        raise SchemaError(f"{where}.data: expected {rows} rows")
    out = np.empty((rows, cols), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{where}.data[{i}]: expected {cols} entries")
        for j, entry in enumerate(row):
            out[i, j] = reference_complex_from_json(entry, f"{where}.data[{i}][{j}]")
    return out
