"""Seeded random generators, matrix utilities (kron, vec, unvec, rank_tol) and
loop references shared by the test modules."""

import json
import math

import numpy as np

from chanfact import (
    DEFAULT_TOL,
    DimensionMismatch,
    KrausChannel,
    NoConvergence,
    NotHermitian,
    NotPSD,
    RankTooHigh,
    SchemaError,
    eigh,
    frob,
    lmi_eval,
)
from chanfact.complement import _hermitian_units, _kraus_products
from chanfact.linalg import _factor_from_eigh, _psd_floor, spectral_rank


def kron(a, b):
    """Kronecker product, left factor major: ``kron(E_11, X)`` has X as its top-left block."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def vec(k):
    """Column-stacking vectorization: ``vec(E_12)`` in M_2 is the third basis vector of C^4."""
    k = np.asarray(k, dtype=complex)
    if k.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {k.shape}")
    return k.reshape(-1, order="F")


def unvec(v, rows, cols):
    """Inverse of :func:`vec` for the given target shape."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != rows * cols:
        raise DimensionMismatch(f"vector of length {v.size} cannot fill {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def rank_tol(m, tol=DEFAULT_TOL):
    """Numerical rank: singular values above ``rel_rank_tol`` times the largest."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0
    return spectral_rank(np.linalg.svd(m, compute_uv=False), tol)


def algebra_trace(algebra, blocks):
    """Normalized tracial state sum_f q_f Tr(B_f) / d_f of a block element of the algebra."""
    return sum(q * np.trace(blk) / d for (d, q), blk in zip(algebra.factors, blocks))


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
            inner = algebra_trace(
                algebra,
                tuple(vi.conj().T @ vj for vi, vj in zip(cert.elements[i], cert.elements[j])),
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


def reference_svd_kernel(k, tol=DEFAULT_TOL):
    """The kernel basis as the trailing right singular vectors of the real SVD,
    each signed so that its first entry above ``rel_rank_tol`` is positive.

    The reference for the echelon factor in ``selfadjoint_kernel_basis``: the
    same span, a basis that rounding can rotate.
    """
    p = k.num_kraus
    units = _hermitian_units(p)
    images = _kraus_products(k).reshape(p * p, -1).T @ units
    real_map = np.vstack([images.real, images.imag])
    _, s, vt = np.linalg.svd(real_map, full_matrices=real_map.shape[0] < p * p)
    kernel = vt[spectral_rank(s, tol) :]
    lead = np.argmax(np.abs(kernel) > tol.rel_rank_tol, axis=1)
    signs = np.where(kernel[np.arange(kernel.shape[0]), lead] < 0.0, -1.0, 1.0)
    return ((signs[:, None] * kernel) @ units.T).reshape(-1, p, p)


def reference_eigh_blocks(s, point, tol=DEFAULT_TOL):
    """``extract_blocks`` with V = sqrt(lambda) q* from the phase-fixed ``eigh``.

    The reference for the echelon factor: the same Gram matrix V* V, rows that
    rounding can rotate inside a degenerate eigenspace.
    """
    value = lmi_eval(s, point)
    w, q = eigh(value, tol)
    if w[-1] < _psd_floor(value, tol):
        raise NotPSD("pencil value is not positive semidefinite")
    k = point.k
    b = _factor_from_eigh(w, q, tol)
    if b.shape[0] > k:
        raise RankTooHigh(f"pencil value has rank {b.shape[0]} > {k}")
    v = np.zeros((k, s.p * k), dtype=complex)
    v[: b.shape[0], :] = b
    return [v[:, i * k : (i + 1) * k] for i in range(s.p)]


def reference_complete_isometry(v, drop=1e-12):
    """Gram-Schmidt of e_1, e_2, ... against range(v), in index order, two passes
    per kept vector, skipping residuals of norm at most ``drop``."""
    n, c = v.shape
    cols = [np.array(v[:, j], dtype=complex) for j in range(c)]
    for i in range(n):
        if len(cols) == n:
            break
        x = np.zeros(n, dtype=complex)
        x[i] = 1.0
        for col in cols:
            x = x - np.vdot(col, x) * col
        norm = np.linalg.norm(x)
        if norm <= drop:
            continue
        x = x / norm
        for col in cols:
            x = x - np.vdot(col, x) * col
        cols.append(x / np.linalg.norm(x))
    if len(cols) != n:
        raise NoConvergence("failed to complete isometry to a unitary")
    return np.column_stack(cols)


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
