"""Seeded random generators shared by the test modules."""

import numpy as np

from chanfact import KrausChannel, apply_complement, frob, kron


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
            x = apply_complement(k, e)
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
