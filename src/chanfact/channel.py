"""Quantum channels in Kraus form, Choi matrices, and Stinespring dilations.

A channel Phi: M_n -> M_m is stored through its Kraus operators
Phi(X) = sum_i K_i X K_i*. The Choi matrix is assembled in the left-factor
major layout C = sum_ij E_ij (x) Phi(E_ij) with E_ij in M_n, so C equals
K @ K* where K has the column-stacked Kraus operators as columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NotTracePreserving,
    NotUnitary,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    _stack,
    complete_isometry,
    frob,
    psd_factor,
)


@dataclass
class KrausChannel:
    """A channel given by p >= 1 Kraus operators, stored as one complex p x m x n array."""

    operators: np.ndarray

    def __post_init__(self) -> None:
        self.operators = _stack(self.operators, (None, None), "Kraus operators")

    @property
    def dim_in(self) -> int:
        return self.operators.shape[2]

    @property
    def dim_out(self) -> int:
        return self.operators.shape[1]

    @property
    def num_kraus(self) -> int:
        return len(self.operators)


@dataclass
class ChoiMatrix:
    """Choi matrix of a map M_n -> M_m, an (n*m) x (n*m) matrix."""

    dim_in: int
    dim_out: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=complex)
        size = self.dim_in * self.dim_out
        if self.matrix.shape != (size, size):
            raise DimensionMismatch(
                f"Choi matrix must be {size}x{size}, got {self.matrix.shape}"
            )


@dataclass(frozen=True)
class ChannelChecks:
    trace_preserving: bool
    unital: bool
    completely_positive: bool


def choi_from_kraus(k: KrausChannel) -> ChoiMatrix:
    """Choi matrix sum_ij E_ij (x) Phi(E_ij) of a Kraus-form channel."""
    kmat = k.operators.transpose(0, 2, 1).reshape(k.num_kraus, -1).T  # column i is vec(K_i)
    return ChoiMatrix(k.dim_in, k.dim_out, kmat @ kmat.conj().T)


def kraus_from_choi(c: ChoiMatrix, tol: Tolerance = DEFAULT_TOL) -> KrausChannel:
    """Recover a canonical Kraus family from a PSD Choi matrix.

    The operators are the scaled eigenvectors of the Choi matrix, so the
    family is minimal (one operator per nonzero eigenvalue) and deterministic.
    Raises NotPSD when the matrix is not positive semidefinite, which signals
    that the map is not completely positive.
    """
    b = psd_factor(c.matrix, tol)
    m, n = c.dim_out, c.dim_in
    if b.shape[0] == 0:
        return KrausChannel(np.zeros((1, m, n)))
    # row i of b is conj(vec(K_i))
    return KrausChannel(b.conj().reshape(-1, n, m).transpose(0, 2, 1))


def apply_channel(k: KrausChannel, x: np.ndarray) -> np.ndarray:
    """Evaluate sum_i K_i X K_i* on an n x n input."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (k.dim_in, k.dim_in):
        raise DimensionMismatch(f"input must be {k.dim_in}x{k.dim_in}, got {x.shape}")
    out = np.zeros((k.dim_out, k.dim_out), dtype=complex)
    for op in k.operators:
        out += op @ x @ op.conj().T
    return out


def apply_adjoint(k: KrausChannel, y: np.ndarray) -> np.ndarray:
    """Evaluate the Hilbert-Schmidt adjoint sum_i K_i* Y K_i on an m x m input."""
    y = np.asarray(y, dtype=complex)
    if y.shape != (k.dim_out, k.dim_out):
        raise DimensionMismatch(f"input must be {k.dim_out}x{k.dim_out}, got {y.shape}")
    out = np.zeros((k.dim_in, k.dim_in), dtype=complex)
    for op in k.operators:
        out += op.conj().T @ y @ op
    return out


def channel_checks(k: KrausChannel, tol: Tolerance = DEFAULT_TOL) -> ChannelChecks:
    """Report trace preservation, unitality, and complete positivity.

    Complete positivity is true by construction for Kraus form; the field is
    reported so Choi-derived channels carry the full record.
    """
    n, m = k.dim_in, k.dim_out
    column = k.operators.reshape(-1, n)  # the K_i stacked: sum_i K_i* K_i = column* column
    row = k.operators.transpose(1, 0, 2).reshape(m, -1)  # side by side: sum_i K_i K_i* = row row*
    tp = frob(column.conj().T @ column - np.eye(n)) <= tol.abs_tol * np.sqrt(n)
    unital = frob(row @ row.conj().T - np.eye(m)) <= tol.abs_tol * np.sqrt(m)
    return ChannelChecks(bool(tp), bool(unital), True)


def stinespring_dilation(
    k: KrausChannel, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, int]:
    """Dilate a trace-preserving channel to a unitary on C^m (x) C^p.

    Returns ``(u, p)`` where ``p`` is the Kraus count and ``u`` is an
    (m*p) x (m*p) unitary, in the system-major layout, satisfying
    (id (x) Tr)(u (X (x) E_11) u*) = Phi(X) for n x n inputs X embedded in
    the top-left corner of M_m.
    """
    if not channel_checks(k, tol).trace_preserving:
        raise NotTracePreserving("stinespring_dilation requires a trace-preserving channel")
    m, n, p = k.dim_out, k.dim_in, k.num_kraus
    # sum_i K_i (x) e_i; + 0.0 turns -0.0 into +0.0 as the summed kron did
    v = k.operators.transpose(1, 0, 2).reshape(m * p, n) + 0.0
    u0 = complete_isometry(v, tol)
    # route column b of v to position (b, environment index 1) so that the
    # reconstruction identity holds in the kron layout
    size = m * p
    positions = [b * p for b in range(n)]
    taken = set(positions)
    rest = [j for j in range(size) if j not in taken]
    u = np.zeros_like(u0)
    u[:, positions] = u0[:, :n]
    u[:, rest] = u0[:, n:]
    return u, p


def channel_from_dilation(
    w: np.ndarray, n: int, k: int, tol: Tolerance = DEFAULT_TOL
) -> KrausChannel:
    """Channel X -> (id (x) tau_k)(w (X (x) I_k) w*) from a unitary w on C^n (x) C^k.

    The Kraus operators are K_ab = k^(-1/2) (I (x) e_a*) w (I (x) e_b) in
    lexicographic (a, b) order; numerically zero operators are dropped. The
    result is trace preserving by construction.
    """
    return KrausChannel(_dilation_blocks(w, n, k, tol)[1])


def _dilation_blocks(
    w: np.ndarray, n: int, k: int, tol: Tolerance
) -> tuple[np.ndarray, np.ndarray]:
    """The kept indices a*k + b and stacked K_ab of a dilation unitary, in that order.

    K_ab is kept when its norm exceeds ``abs_tol``; when none is, K_00 alone
    is kept, so the channel and its certificate always share one index list.
    """
    w = np.asarray(w, dtype=complex)
    if w.shape != (n * k, n * k):
        raise DimensionMismatch(f"dilation unitary must be {n * k}x{n * k}, got {w.shape}")
    scale = max(1.0, frob(w))
    if frob(w.conj().T @ w - np.eye(n * k)) > tol.abs_tol * scale:
        raise NotUnitary("dilation matrix is not unitary within tolerance")
    ops = (1.0 / np.sqrt(k)) * w.reshape(n, k, n, k).transpose(1, 3, 0, 2).reshape(k * k, n, n)
    big = np.linalg.norm(ops, axis=(1, 2)) > tol.abs_tol
    keep = np.flatnonzero(big) if big.any() else np.zeros(1, dtype=int)
    return keep, ops[keep]


def convex_combine_channels(
    k1: KrausChannel, k2: KrausChannel, t: float
) -> KrausChannel:
    """Kraus form of t*Phi_1 + (1-t)*Phi_2 for t strictly between 0 and 1."""
    if not 0.0 < t < 1.0:
        raise ValueError(f"mixing weight must lie strictly in (0, 1), got {t!r}")
    if (k1.dim_in, k1.dim_out) != (k2.dim_in, k2.dim_out):
        raise DimensionMismatch("channels must share input and output dimensions")
    return KrausChannel(
        np.concatenate([np.sqrt(t) * k1.operators, np.sqrt(1.0 - t) * k2.operators])
    )
