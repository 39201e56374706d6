"""Seeded inputs built with plain numpy, independent of chanfact.

Dilation channels come from Haar unitaries w on C^n (x) C^k: the Kraus
operators are K_ab = k^-1/2 (I (x) e_a*) w (I (x) e_b) in lexicographic (a, b)
order, p = k^2, and the certificate elements are sqrt(k) E_ab. Random
trace-preserving channels come from a random isometry C^n -> C^m (x) C^p.
"""

from __future__ import annotations

import json

import numpy as np


def complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_gaussian(rng, (n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_isometry(rng, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_gaussian(rng, (rows, cols)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def dilation_channel(rng, n: int, k: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Kraus operators and M_k certificate blocks of a Haar dilation channel."""
    w = haar_unitary(rng, n * k).reshape(n, k, n, k)
    root = 1.0 / np.sqrt(k)
    kraus, blocks = [], []
    for a in range(k):
        for b in range(k):
            kraus.append(root * w[:, a, :, b])
            unit = np.zeros((k, k), dtype=complex)
            unit[a, b] = np.sqrt(k)
            blocks.append(unit)
    return kraus, blocks


def random_tp_channel(rng, n: int, p: int) -> list[np.ndarray]:
    t = random_isometry(rng, n * p, n).reshape(n, p, n)
    return [t[:, i, :] for i in range(p)]


def random_hermitian(rng, n: int) -> np.ndarray:
    g = complex_gaussian(rng, (n, n))
    return (g + g.conj().T) / 2.0


def traceless_hermitian(rng, n: int) -> np.ndarray:
    h = random_hermitian(rng, n)
    return h - (np.trace(h).real / n) * np.eye(n)


def operator_matrix(kraus: list[np.ndarray]) -> np.ndarray:
    """n^2 x p^2 matrix whose column i*p + j is K_i* K_j flattened, so that
    M @ Y.ravel() flattens sum_ij y_ij K_i* K_j."""
    ops = np.asarray(kraus)
    prod = np.einsum("iba,jbc->ijac", ops.conj(), ops)
    p = ops.shape[0]
    return prod.reshape(p * p, -1).T


def hermitian_kernel(kraus: list[np.ndarray], rel_tol: float = 1e-9) -> np.ndarray:
    """HS-orthonormal Hermitian basis of ker(Y -> sum_ij y_ij K_i* K_j), shape (d, p, p).

    One SVD of the real-linear map restricted to Hermitian Y, written in the
    orthonormal basis E_ii, (E_ij + E_ji)/sqrt2, i(E_ij - E_ji)/sqrt2.
    """
    p = len(kraus)
    herm = []
    for i in range(p):
        for j in range(i, p):
            if i == j:
                e = np.zeros((p, p), dtype=complex)
                e[i, i] = 1.0
                herm.append(e)
                continue
            e = np.zeros((p, p), dtype=complex)
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
            herm.append(e)
            f = np.zeros((p, p), dtype=complex)
            f[i, j] = 1j / np.sqrt(2.0)
            f[j, i] = -1j / np.sqrt(2.0)
            herm.append(f)
    herm = np.asarray(herm)
    images = operator_matrix(kraus) @ herm.reshape(len(herm), -1).T
    real_map = np.vstack([images.real, images.imag])
    _, s, vt = np.linalg.svd(real_map)
    rank = int(np.sum(s > rel_tol * s[0])) if s.size and s[0] > 0 else 0
    coeffs = vt[rank:]
    return np.einsum("dh,hab->dab", coeffs, herm)


def point_from_certificate(z: np.ndarray, blocks: list[np.ndarray]) -> np.ndarray:
    """Coefficients A_i with I + sum Z_i (x) A_i equal to the Gram matrix of the blocks.

    Projects G - I onto span{Z_i (x) M_k}; exact when the blocks certify the
    channel whose kernel the HS-orthonormal Z_i span. Shape (d, k, k).
    """
    v = np.concatenate(blocks, axis=1)
    p, k = len(blocks), blocks[0].shape[0]
    g = v.conj().T @ v - np.eye(p * k)
    a = np.einsum("iab,aubv->iuv", z.conj(), g.reshape(p, k, p, k))
    return (a + np.conj(np.swapaxes(a, 1, 2))) / 2.0


# ---- chanfact JSON schema, written with the standard library ----


def matrix_doc(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[[float(z.real), float(z.imag)] for z in row] for row in m],
    }


def channel_doc(kraus: list[np.ndarray]) -> dict:
    m, n = kraus[0].shape
    return {"dim_in": n, "dim_out": m, "kraus": [matrix_doc(op) for op in kraus]}


def certificate_doc(blocks: list[np.ndarray]) -> dict:
    k = blocks[0].shape[0]
    return {
        "algebra": {"factors": [{"dim": k, "weight": 1.0}]},
        "v": [[matrix_doc(b)] for b in blocks],
    }


def system_doc(z: np.ndarray) -> dict:
    return {"p": z.shape[1], "z": [matrix_doc(zi) for zi in z]}


def point_doc(a: np.ndarray, k: int) -> dict:
    return {"k": k, "a": [matrix_doc(ai) for ai in a]}


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


# ---- parsing chanfact output back into arrays ----


def matrix_from_doc(doc: dict) -> np.ndarray:
    data = np.asarray(doc["data"], dtype=float)
    return data[..., 0] + 1j * data[..., 1]


def matrices_from_docs(docs: list[dict]) -> np.ndarray:
    if not docs:
        return np.zeros((0, 0, 0), dtype=complex)
    data = np.asarray([d["data"] for d in docs], dtype=float)
    return data[..., 0] + 1j * data[..., 1]
