"""Dense complex linear algebra with an explicit, overridable tolerance policy.

Conventions used throughout the package:

- ``vec`` stacks columns (column-major), so ``vec(E_12)`` in M_2 is the third
  standard basis vector of C^4.
- Approximate equality is Frobenius-norm based, relative to ``max(1, scale)``
  where ``scale`` is the norm of the operand.
- Eigenvalues are returned in descending order and eigenvector phases are
  fixed deterministically: the first entry of each eigenvector whose magnitude
  exceeds ``rel_rank_tol`` is made real and nonnegative.
- ``kron`` is left-factor major: ``kron(E_11, X)`` has ``X`` as its top-left
  block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    NotIsometry,
    NotPSD,
)


@dataclass(frozen=True)
class Tolerance:
    """Numerical tolerance configuration.

    :param abs_tol: absolute Frobenius tolerance, scaled by max(1, operand norm).
    :param rel_rank_tol: relative threshold on singular values for rank decisions.
    """

    abs_tol: float = 1e-9
    rel_rank_tol: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_rank_tol"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


DEFAULT_TOL = Tolerance()


def frob(a: np.ndarray) -> float:
    """Frobenius norm as a plain float."""
    return float(np.linalg.norm(a))


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def eigh(h: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with deterministic output.

    Returns ``(w, q)`` with eigenvalues ``w`` real and descending and ``q``
    unitary, ``h = q @ diag(w) @ q*``. Each eigenvector's phase is fixed by
    making its first entry of magnitude above ``rel_rank_tol`` real and
    nonnegative.

    Raises NotHermitian if ``h`` is not Hermitian within tolerance, and
    NoConvergence if the underlying solver fails.
    """
    h = _as_square(h)
    scale = max(1.0, frob(h))
    if frob(h - h.conj().T) > tol.abs_tol * scale:
        raise NotHermitian(f"matrix deviates from Hermitian by {frob(h - h.conj().T):.3e}")
    try:
        w, q = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    order = np.argsort(-w, kind="stable")
    w = w[order]
    q = np.array(q[:, order], dtype=complex)
    mask = np.abs(q) > tol.rel_rank_tol
    cols = np.flatnonzero(mask.any(axis=0))
    if cols.size:
        phase = q[np.argmax(mask[:, cols], axis=0), cols]
        # hypot, not np.abs: the vectorised complex abs can differ from it in the last bit
        q[:, cols] *= phase.conj() / np.hypot(phase.real, phase.imag)
    return w, q


def psd_factor(p: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Factor a PSD matrix as ``p = b* @ b`` with ``b`` of shape (rank, n).

    Eigenvalues at or below ``rel_rank_tol * max_eigenvalue``, among them
    tiny negative ones within the PSD tolerance, are treated as zero.

    Raises NotPSD when the smallest eigenvalue is below
    ``-abs_tol * max(1, ||p||_F)``.
    """
    w, q = eigh(p, tol)
    floor = _psd_floor(p, tol)
    if w.size and w[-1] < floor:
        raise NotPSD(f"smallest eigenvalue {w[-1]:.3e} below {floor:.3e}")
    return _factor_from_eigh(w, q, tol)


def _psd_floor(m: np.ndarray, tol: Tolerance) -> float:
    """Smallest eigenvalue a PSD matrix may show: ``-abs_tol * max(1, ||m||_F)``."""
    return -tol.abs_tol * max(1.0, frob(m))


def _factor_from_eigh(w: np.ndarray, q: np.ndarray, tol: Tolerance) -> np.ndarray:
    """:func:`psd_factor`'s rows sqrt(lambda) q* from :func:`eigh` output, no PSD check."""
    wmax = float(w[0]) if w.size else 0.0
    threshold = tol.rel_rank_tol * max(wmax, 0.0)
    r = int(np.sum(w > threshold))
    return np.sqrt(w[:r])[:, None] * q[:, :r].conj().T


def rank_tol(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Numerical rank: singular values above ``rel_rank_tol`` times the largest."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0
    return spectral_rank(np.linalg.svd(m, compute_uv=False), tol)


def spectral_rank(values: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Count of |values| above ``rel_rank_tol`` times the largest |value|.

    On singular values this is ``rank_tol``; on the eigenvalues of a
    Hermitian matrix, whose moduli are its singular values, it gives the
    same rank without a second decomposition.
    """
    a = np.abs(np.asarray(values))
    if a.size == 0:
        return 0
    top = a.max()
    if top <= 0.0:
        return 0
    return int(np.sum(a > tol.rel_rank_tol * top))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, left factor major."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m: np.ndarray, dims: tuple[int, int], side: str) -> np.ndarray:
    """Trace out one tensor factor of a matrix on C^a (x) C^b.

    ``side='left'`` returns (Tr (x) id)(m), a b x b matrix; ``side='right'``
    returns (id (x) Tr)(m), an a x a matrix.
    """
    a, b = dims
    m = _as_square(m)
    if m.shape != (a * b, a * b):
        raise DimensionMismatch(f"expected shape {(a * b, a * b)}, got {m.shape}")
    t = m.reshape(a, b, a, b)
    if side == "left":
        return np.einsum("ixiy->xy", t)
    if side == "right":
        return np.einsum("xiyi->xy", t)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def vec(k: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization of a matrix."""
    k = np.asarray(k, dtype=complex)
    if k.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {k.shape}")
    return k.reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec` for the given target shape."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != rows * cols:
        raise DimensionMismatch(f"vector of length {v.size} cannot fill {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def complete_isometry(v: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Complete an isometry ``v`` (N x c, v* v = I_c) to an N x N unitary.

    The added columns come from Gram-Schmidt of the standard basis vectors
    against range(v), taken in index order and skipping dependents, so the
    completion is deterministic. The first c columns of the result equal ``v``.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2 or v.shape[0] < v.shape[1]:
        raise NotIsometry(f"shape {v.shape} cannot be an isometry")
    n, c = v.shape
    scale = max(1.0, frob(v))
    defect = frob(v.conj().T @ v - np.eye(c))
    if defect > tol.abs_tol * scale:
        raise NotIsometry(f"columns deviate from orthonormal by {defect:.3e}")
    cols = [np.array(v[:, j]) for j in range(c)]
    drop = max(tol.abs_tol, 1e-12)
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
        # second orthogonalization pass keeps the completion unitary to
        # machine precision even when the first residual was small
        for col in cols:
            x = x - np.vdot(col, x) * col
        x = x / np.linalg.norm(x)
        cols.append(x)
    if len(cols) != n:
        raise NoConvergence("failed to complete isometry to a unitary")
    return np.column_stack(cols)
