"""Seeded random generators, matrix utilities (kron, partial_trace, vec, unvec,
rank_tol) and loop references shared by the test modules."""

import json
import math

import numpy as np

from chanfact import (
    DEFAULT_TOL,
    DimensionMismatch,
    FactorAlgebra,
    FactorizationCertificate,
    KrausChannel,
    NoConvergence,
    NotHermitian,
    NotPSD,
    RankTooHigh,
    SchemaError,
    frob,
    lmi_eval,
)
from chanfact.complement import _kraus_products
from chanfact.linalg import spectral_rank


def kron(a, b):
    """Kronecker product, left factor major: ``kron(E_11, X)`` has X as its top-left block."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m, dims, side):
    """Trace out one tensor factor of a matrix on C^a (x) C^b.

    ``side='left'`` returns (Tr (x) id)(m), a b x b matrix; ``side='right'``
    returns (id (x) Tr)(m), an a x a matrix.
    """
    a, b = dims
    m = np.asarray(m, dtype=complex)
    if m.shape != (a * b, a * b):
        raise DimensionMismatch(f"expected shape {(a * b, a * b)}, got {m.shape}")
    t = m.reshape(a, b, a, b)
    if side == "left":
        return np.einsum("ixiy->xy", t)
    if side == "right":
        return np.einsum("xiyi->xy", t)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


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


def amplitude_damping(g):
    return KrausChannel(
        (np.array([[1.0, 0.0], [0.0, np.sqrt(1 - g)]]), np.array([[0.0, np.sqrt(g)], [0.0, 0.0]]))
    )


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
    """Descending eigenpairs of a Hermitian matrix, each eigenvector's first
    entry above ``rel_rank_tol`` in modulus made real and positive."""
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

    The reference for the Gram products in ``verify_certificate``: returns
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


def phase_flip_over_two_m2(theta, rng):
    """The channel (rho + Z rho Z) / 2, conjugated by a Haar unitary, with a
    certificate over M_2 (+) M_2 (weights 1/2) whose factor Gram matrices have
    eigenvalues 1 + cos(theta) and 1 - cos(theta).

    Factor f is unitary as diag(X_+, X_-) with X_+ = I and X_- = diag(e^ia,
    e^-ia), a = theta and pi - theta; the Kraus family and the elements are
    mixed by a Haar unitary, so the Gram matrices are dense.
    """
    u, mix = haar_unitary(rng, 2), haar_unitary(rng, 2)
    kraus = np.array([np.eye(2), np.diag([1.0, -1.0])], dtype=complex) / np.sqrt(2.0)
    kraus = np.tensordot(mix, np.einsum("ab,ibc,dc->iad", u, kraus, u.conj()), 1)
    elements = np.zeros((2, 2, 2, 2), dtype=complex)  # Kraus index, factor, block
    for f, a in enumerate((theta, np.pi - theta)):
        x_minus = np.diag([np.exp(1j * a), np.exp(-1j * a)])
        elements[:, f] = np.array([np.eye(2) + x_minus, np.eye(2) - x_minus]) / np.sqrt(2.0)
    elements = np.tensordot(mix.conj(), elements, 1)
    algebra = FactorAlgebra(((2, 0.5), (2, 0.5)))
    return KrausChannel(kraus), FactorizationCertificate(algebra, tuple(map(tuple, elements)))


def reference_factor_echelon(cert, f):
    """Echelon factor of factor f's Gram matrix from the Householder QR of its blocks.

    The columns vec(V_i) / sqrt(d) have the Gram matrix Tr(V_i* V_j) / d; the
    triangular factor of their QR, its diagonal made real and positive, is
    that matrix's echelon factor when the columns are independent.
    """
    d = cert.algebra.factors[f][0]
    m = np.array([element[f].reshape(-1) for element in cert.elements]).T / np.sqrt(d)
    r = np.linalg.qr(m, mode="r")
    diag = np.diag(r)
    return r * (diag.conj() / np.abs(diag))[:, None]


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


def hermitian_coefficients(h):
    """Coordinates of a Hermitian matrix in E_ii, (E_ij + E_ji)/sqrt2, i(E_ij - E_ji)/sqrt2."""
    iu, ju = np.triu_indices(h.shape[0], 1)
    off = np.sqrt(2.0) * h[iu, ju]
    return np.concatenate([np.diag(h).real, off.real, off.imag])


def smallest_kept_pivot(basis, tol=DEFAULT_TOL):
    """The smallest pivot the echelon factor of a kernel basis keeps; 1.0 for d = 0.

    The pivots are those of the in-order Cholesky of the projector onto the
    basis's span, in the coordinates of :func:`hermitian_coefficients`, with
    columns at or below the ``rel_rank_tol`` cut skipped: they depend on the
    span alone, not on which basis of it is given.
    """
    p = basis.shape[1]
    c = np.array([hermitian_coefficients(h) for h in basis]).reshape(len(basis), p * p)
    g = c.T @ c
    cut = tol.rel_rank_tol * g.diagonal().max(initial=0.0)
    pivots = []
    for j in range(len(g)):
        if g[j, j] > cut:
            pivots.append(math.sqrt(g[j, j]))
            g = g - np.outer(g[:, j], g[j]) / g[j, j]
    return min(pivots, default=1.0)


def _hermitian_units(p):
    """p^2 x p^2 matrix whose columns are the row-major flattenings of the
    HS-orthonormal basis E_ii, (E_ij + E_ji)/sqrt2, i(E_ij - E_ji)/sqrt2 (i < j)
    of Herm(p), in that order."""
    iu, ju = np.triu_indices(p, 1)
    off = np.arange(iu.size)
    units = np.zeros((p, p, p * p), dtype=complex)
    units[np.arange(p), np.arange(p), np.arange(p)] = 1.0
    units[iu, ju, p + off] = units[ju, iu, p + off] = np.sqrt(0.5)
    units[iu, ju, p + iu.size + off] = 1j * np.sqrt(0.5)
    units[ju, iu, p + iu.size + off] = -1j * np.sqrt(0.5)
    return units.reshape(p * p, p * p)


def reference_svd_kernel(k, tol=DEFAULT_TOL):
    """The kernel basis as the trailing right singular vectors of the real SVD,
    each signed so that its first entry above ``rel_rank_tol`` is positive.

    The reference for the echelon factor and the index-built coordinates in
    ``selfadjoint_kernel_basis``: the same span, a basis that rounding can
    rotate, both changes of coordinates as dense products with
    :func:`_hermitian_units`.
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
    """``extract_blocks`` with V = sqrt(lambda) q* from :func:`reference_eigh`.

    The reference for the echelon factor: the same Gram matrix V* V, rows that
    rounding can rotate inside a degenerate eigenspace.
    """
    value = lmi_eval(s, point)
    w, q = reference_eigh(value, tol)
    if w[-1] < -tol.abs_tol * max(1.0, frob(value)):
        raise NotPSD("pencil value is not positive semidefinite")
    k = point.k
    r = int(np.sum(w > tol.rel_rank_tol * max(w[0], 0.0)))
    b = np.sqrt(w[:r])[:, None] * q[:, :r].conj().T
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
