"""Correctness checks recomputed with plain numpy, outside the timed region.

Each check returns None when the output is right and a one-line reason when
it is not. None of them calls chanfact, so a wrong answer cannot vouch for
itself.
"""

from __future__ import annotations

import numpy as np

from gen import operator_matrix

TOL = 1e-8


def kernel_dim(kraus: list[np.ndarray]) -> int:
    """p^2 minus the rank of the n^2 x p^2 operator matrix of the complement adjoint."""
    m = operator_matrix(kraus)
    s = np.linalg.svd(m, compute_uv=False)
    rank = int(np.sum(s > 1e-9 * s[0])) if s.size and s[0] > 0 else 0
    return len(kraus) ** 2 - rank


def kernel_basis_error(kraus, z: np.ndarray, d: int) -> str | None:
    """Count, Hermiticity, annihilation and HS orthonormality of a kernel basis."""
    if len(z) != d:
        return f"basis has {len(z)} elements, expected d={d}"
    if d == 0:
        return None
    herm = np.max(np.abs(z - np.conj(np.swapaxes(z, 1, 2))))
    if herm > TOL:
        return f"basis element not Hermitian ({herm:.2e})"
    annihilation = np.max(np.abs(operator_matrix(kraus) @ z.reshape(d, -1).T))
    if annihilation > TOL:
        return f"basis not in the kernel ({annihilation:.2e})"
    flat = z.reshape(d, -1)
    gram = flat.conj() @ flat.T
    orth = np.max(np.abs(gram - np.eye(d)))
    if orth > TOL:
        return f"basis not HS-orthonormal ({orth:.2e})"
    return None


def choi(kraus) -> np.ndarray:
    flat = np.asarray([np.asarray(op).reshape(-1, order="F") for op in kraus])
    return flat.T @ flat.conj()


def apply(kraus, x: np.ndarray) -> np.ndarray:
    return sum(op @ x @ op.conj().T for op in kraus)


def tp_error(kraus) -> float:
    n = kraus[0].shape[1]
    return float(np.linalg.norm(sum(op.conj().T @ op for op in kraus) - np.eye(n)))


def certificate_error(kraus, factors, elements) -> str | None:
    """Tracial orthonormality and per-factor unitarity of U_f = sum_i K_i (x) V_i^f.

    ``factors`` is [(dim, weight)], ``elements`` one tuple of blocks per Kraus
    operator. For a trace-preserving channel these imply the complement-range
    identity, so they decide validity.
    """
    p = len(kraus)
    if len(elements) != p:
        return f"{len(elements)} elements for {p} Kraus operators"
    n = kraus[0].shape[1]
    gram = np.zeros((p, p), dtype=complex)
    for f, (d, q) in enumerate(factors):
        v = np.asarray([el[f] for el in elements])
        gram += q * np.einsum("iba,jbc->ijac", v.conj(), v).trace(axis1=2, axis2=3) / d
        u = sum(np.kron(kraus[i], v[i]) for i in range(p))
        unit = np.linalg.norm(u.conj().T @ u - np.eye(n * d))
        if unit > TOL:
            return f"factor {f} unitarity residual {unit:.2e}"
    orth = np.max(np.abs(gram - np.eye(p)))
    if orth > TOL:
        return f"orthonormality residual {orth:.2e}"
    return None


def pencil(z: np.ndarray, a: np.ndarray) -> np.ndarray:
    p, k = z.shape[1], a.shape[1]
    out = np.eye(p * k, dtype=complex)
    for zi, ai in zip(z, a):
        out += np.kron(zi, ai)
    return out


def membership(z: np.ndarray, a: np.ndarray) -> tuple[bool, int, np.ndarray]:
    """PSD flag, numerical rank and coefficient traces of the pencil value."""
    value = pencil(z, a)
    w = np.linalg.eigvalsh(value)
    scale = max(1.0, float(np.linalg.norm(value)))
    psd = bool(w[0] >= -1e-9 * scale)
    rank = int(np.sum(np.abs(w) > 1e-9 * np.max(np.abs(w))))
    return psd, rank, np.trace(a, axis1=1, axis2=2).real


def blocks_error(z: np.ndarray, a: np.ndarray, blocks: list[np.ndarray]) -> str | None:
    """The blocks V_i reproduce the pencil value: sum_ij E_ij (x) V_i* V_j."""
    v = np.concatenate(blocks, axis=1)
    target = pencil(z, a)
    err = np.linalg.norm(v.conj().T @ v - target) / max(1.0, np.linalg.norm(target))
    return None if err <= TOL else f"blocks miss the pencil by {err:.2e}"


def dilation_error(kraus, u: np.ndarray, p: int, rng) -> str | None:
    """Unitarity of u and (id (x) Tr)(u (X (x) E_11) u*) = Phi(X) for a random X."""
    m, n = kraus[0].shape
    if u.shape != (m * p, m * p):
        return f"unitary has shape {u.shape}"
    unit = np.linalg.norm(u.conj().T @ u - np.eye(m * p))
    if unit > TOL:
        return f"dilation not unitary ({unit:.2e})"
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = u[:, 0 : n * p : p]
    image = np.einsum("xiyi->xy", (w @ x @ w.conj().T).reshape(m, p, m, p))
    err = np.linalg.norm(image - apply(kraus, x)) / max(1.0, np.linalg.norm(x))
    return None if err <= TOL else f"partial trace misses the channel by {err:.2e}"


def decomposition_error(kraus, components) -> str | None:
    """Weights sum to 1, weighted Choi matrices sum to the input's, parts certified.

    ``components`` is [(weight, kraus, factors, elements)].
    """
    total = sum(w for w, _, _, _ in components)
    if abs(total - 1.0) > TOL:
        return f"weights sum to {total!r}"
    target = choi(kraus)
    mixed = sum(w * choi(ops) for w, ops, _, _ in components)
    err = np.linalg.norm(mixed - target)
    if err > TOL:
        return f"weighted Choi matrices miss the input by {err:.2e}"
    for idx, (_, ops, factors, elements) in enumerate(components):
        bad = certificate_error(ops, factors, elements)
        if bad:
            return f"component {idx}: {bad}"
    return None


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


def psd_blocks(value: np.ndarray, k: int, p: int) -> list[np.ndarray]:
    """Blocks V_i (k x k) of V = sqrt(L_k) Q_k* from the top k eigenpairs of a PSD value."""
    w, q = np.linalg.eigh(value)
    v = np.sqrt(np.clip(w[::-1][:k], 0.0, None))[:, None] * q[:, ::-1][:, :k].conj().T
    return [v[:, i * k : (i + 1) * k] for i in range(p)]


def hm_correlation() -> np.ndarray:
    """The Haagerup-Musat matrix I + S/sqrt5, rebuilt from its sign rule.

    On the pentagon indices 1..5 the sign is + for neighbours (|i-j| = 1 or 4)
    and - otherwise; the first row and column are all +.
    """
    s = np.ones((6, 6))
    for i in range(1, 6):
        for j in range(1, 6):
            s[i, j] = 1.0 if abs(i - j) in (1, 4) else -1.0
    np.fill_diagonal(s, 0.0)
    return np.eye(6) + s / np.sqrt(5.0)
