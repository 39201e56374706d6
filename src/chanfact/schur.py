"""Schur product channels built from correlation matrices.

A correlation matrix C (PSD, unit diagonal) defines the channel X -> X o C
(entrywise product). Its Kraus operators are diagonal, with the diagonals
read off a family of unit Gram vectors for C, and the complementary channel
has the closed forms implemented here. Includes the Haagerup-Musat 6x6
example data used by the factorization tests and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import KrausChannel
from .errors import DiagonalNotOne, DimensionMismatch
from .linalg import DEFAULT_TOL, Tolerance, _stack, psd_factor


@dataclass
class CorrelationMatrix:
    """A validated correlation matrix C with its echelon factor b (b* b = C), one row per rank."""

    matrix: np.ndarray = field(repr=False)
    factor: np.ndarray = field(repr=False)

    @property
    def rank(self) -> int:
        return len(self.factor)


@dataclass
class GramVectors:
    """Unit vectors w_1..w_n in C^p, <w_i, w_j> = c_ij, stored as the rows of one n x p array."""

    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.vectors = _stack(self.vectors, (None,), "Gram vectors")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def p(self) -> int:
        return self.vectors.shape[1]


def validate_correlation(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> CorrelationMatrix:
    """Check Hermitian, PSD, and unit diagonal; keep the PSD factor."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"correlation matrix must be square, got {m.shape}")
    factor = psd_factor(m, tol)
    diag_defect = float(np.abs(np.diag(m) - 1.0).max())
    if not tol.close(diag_defect):
        raise DiagonalNotOne(f"diagonal deviates from 1 by {diag_defect:.3e}")
    return CorrelationMatrix(m, factor)


def gram_from_correlation(c: CorrelationMatrix) -> GramVectors:
    """Gram vectors of a correlation matrix, living in C^rank.

    The vectors are the columns of its PSD factor b (b* b = C), so they are
    unit vectors with <w_i, w_j> = c_ij.
    """
    return GramVectors(c.factor.T)


def correlation_from_gram(w: GramVectors, tol: Tolerance = DEFAULT_TOL) -> CorrelationMatrix:
    """Correlation matrix [<w_i, w_j>] of a unit Gram family."""
    return validate_correlation(w.vectors.conj() @ w.vectors.T, tol)


def schur_channel_from_gram(w: GramVectors) -> KrausChannel:
    """Diagonal Kraus operators of the Schur channel with Gram family w.

    The i-th Kraus operator is diag(v_i) with v_ij = conj(w_j)_i, so the
    channel maps X to X o C for C = [<w_i, w_j>].
    """
    ops = np.zeros((w.p, w.n, w.n), dtype=complex)
    ops[:, np.arange(w.n), np.arange(w.n)] = w.vectors.T.conj()
    return KrausChannel(ops)


def schur_channel(c: CorrelationMatrix) -> KrausChannel:
    """Schur channel X -> X o C with Gram vectors derived from C."""
    return schur_channel_from_gram(gram_from_correlation(c))


def schur_complement_apply(w: GramVectors, x: np.ndarray) -> np.ndarray:
    """Complement of a Schur channel: sum_i x_ii (w_i w_i*)^T, a p x p matrix."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (w.n, w.n):
        raise DimensionMismatch(f"input must be {w.n}x{w.n}, got {x.shape}")
    return (w.vectors.conj().T * np.diag(x)) @ w.vectors


def schur_complement_adjoint_apply(w: GramVectors, y: np.ndarray) -> np.ndarray:
    """Adjoint of the Schur complement: diag(w_i^T Y conj(w_i)), an n x n matrix."""
    y = np.asarray(y, dtype=complex)
    if y.shape != (w.p, w.p):
        raise DimensionMismatch(f"input must be {w.p}x{w.p}, got {y.shape}")
    return np.diag(np.einsum("ia,ab,ib->i", w.vectors, y, w.vectors.conj()))


@dataclass
class HmExample:
    """The Haagerup-Musat 6x6 correlation matrix with its Gram vectors and its
    kernel basis, stored as one complex 3 x 3 x 3 array z."""

    c: CorrelationMatrix
    w: GramVectors
    z: np.ndarray


# Off-diagonal sign pattern of the Haagerup-Musat matrix. On the pentagon
# indices 2..6 the sign is + for neighbours (|i-j| = 1 or 4 mod 5) and - for
# diagonals (|i-j| = 2 or 3); the first row and column are all +.
_HM_SIGNS = np.array(
    [
        [0, 1, 1, 1, 1, 1],
        [1, 0, 1, -1, -1, 1],
        [1, 1, 0, 1, -1, -1],
        [1, -1, 1, 0, 1, -1],
        [1, -1, -1, 1, 0, 1],
        [1, 1, -1, -1, 1, 0],
    ],
    dtype=float,
)


def hm_example(tol: Tolerance = DEFAULT_TOL) -> HmExample:
    """The Haagerup-Musat example: matrix, Gram vectors, and kernel basis.

    The Gram vectors are hard coded (beta = 1/sqrt(5), omega the principal
    primitive fifth root of unity) so that downstream kernel computations
    match the three printed basis elements Z_1, Z_2, Z_3 exactly; a fresh
    factorization of C would only be unitarily equivalent to them.
    """
    beta = 1.0 / np.sqrt(5.0)
    c = validate_correlation(np.eye(6) + beta * _HM_SIGNS, tol)
    s2 = np.sqrt(2.0)
    omega = np.exp(2j * np.pi / 5.0)
    root5 = np.sqrt(5.0)
    w = GramVectors(
        (
            np.array([1.0, 0.0, 0.0], dtype=complex),
            np.array([1.0, s2, s2], dtype=complex) / root5,
            np.array([1.0, s2 * omega, s2 * omega**4], dtype=complex) / root5,
            np.array([1.0, s2 * omega**2, s2 * omega**3], dtype=complex) / root5,
            np.array([1.0, s2 * omega**3, s2 * omega**2], dtype=complex) / root5,
            np.array([1.0, s2 * omega**4, s2 * omega], dtype=complex) / root5,
        )
    )
    z1 = np.diag([0.0, s2, -s2]).astype(complex)
    z2 = np.array([[0, 1, -1], [1, 0, 0], [-1, 0, 0]], dtype=complex)
    z3 = 1j * np.array([[0, 1, 1], [-1, 0, 0], [-1, 0, 0]], dtype=complex)
    return HmExample(c, w, np.array([z1, z2, z3]))


def hm_derived_point() -> np.ndarray:
    """The rank-2 solution (A_1, A_2, A_3) of the Haagerup-Musat system, as one
    complex 3 x 2 x 2 array.

    A_1 = diag(-1/sqrt(2), 1/sqrt(2)) and A_2 + i A_3 = sqrt(2) E_12, the
    point whose extracted blocks certify factorization by M_2.
    """
    s2 = np.sqrt(2.0)
    a1 = np.diag([-1.0 / s2, 1.0 / s2]).astype(complex)
    a2 = (s2 / 2.0) * np.array([[0, 1], [1, 0]], dtype=complex)
    a3 = (s2 / 2.0) * np.array([[0, -1j], [1j, 0]], dtype=complex)
    return np.array([a1, a2, a3])
