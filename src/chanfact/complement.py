"""Complementary channels and the kernel of their adjoint.

For a channel with Kraus operators {K_i}_{i=1..p}, the complementary channel
sends X to the p x p matrix with (a, b) entry Tr(K_b* K_a X); its adjoint
sends Y to sum_ij y_ij K_i* K_j. The kernel of that adjoint drives the
extremality test and the LMI system built in :mod:`chanfact.lmi`; one real
SVD of the adjoint on Hermitian Y gives its dimension and Hermitian bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import KrausChannel, channel_checks
from .errors import DimensionMismatch, NotTracePreserving
from .linalg import DEFAULT_TOL, Tolerance


@dataclass
class ComplementData:
    """Materialized adjoint of the complementary channel.

    ``adjoint_operator_matrix`` is n^2 x p^2 with columns vec(K_i* K_j) in
    lexicographic (i, j) order; ``kernel_dim`` is p^2 minus its rank.
    """

    source: KrausChannel
    adjoint_operator_matrix: np.ndarray = field(repr=False)
    kernel_dim: int


def _kraus_products(k: KrausChannel) -> np.ndarray:
    """Kraus product tensor A[i, j] = K_i* K_j, shape p x p x n x n."""
    ops = np.stack(k.operators)
    return np.einsum("iab,jac->ijbc", ops.conj(), ops)


def _hermitian_units(p: int) -> np.ndarray:
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


def _hermitian_decomposition(
    k: KrausChannel, tol: Tolerance
) -> tuple[np.ndarray, np.ndarray, int]:
    """One real SVD of the complement adjoint restricted to Herm(p).

    Y -> sum_ij y_ij K_i* K_j maps Hermitian Y to Hermitian matrices, so its
    Gram matrix in the basis of :func:`_hermitian_units` is real and the real
    map has the singular values of the complex one: the rank, and hence the
    kernel dimension, is that of the n^2 x p^2 operator matrix.

    Returns ``(products, basis, rank)``: the Kraus product tensor, and the
    p^2 HS-orthonormal Hermitian matrices given by the right singular vectors,
    range first and kernel last, each coefficient vector signed so that its
    first entry above ``rel_rank_tol`` is positive.
    """
    p = k.num_kraus
    products = _kraus_products(k)
    units = _hermitian_units(p)
    images = products.reshape(p * p, -1).T @ units
    real_map = np.vstack([images.real, images.imag])
    # the kernel needs all p^2 right singular vectors, also when 2n^2 < p^2
    _, s, vt = np.linalg.svd(real_map, full_matrices=real_map.shape[0] < p * p)
    rank = int(np.sum(s > tol.rel_rank_tol * s[0])) if s.size and s[0] > 0.0 else 0
    lead = np.argmax(np.abs(vt) > tol.rel_rank_tol, axis=1)
    signs = np.where(vt[np.arange(p * p), lead] < 0.0, -1.0, 1.0)
    basis = ((signs[:, None] * vt) @ units.T).reshape(p * p, p, p)
    return products, basis, rank


def complement_data(k: KrausChannel, tol: Tolerance = DEFAULT_TOL) -> ComplementData:
    """Operator matrix of the complement adjoint and its kernel size.

    The matrix is a reshape of the Kraus product tensor; the kernel size
    comes from the rank of the Hermitian decomposition.
    """
    n, p = k.dim_in, k.num_kraus
    products, _, rank = _hermitian_decomposition(k, tol)
    mat = products.transpose(0, 1, 3, 2).reshape(p * p, n * n).T
    return ComplementData(k, mat, p * p - rank)


def apply_complement(k: KrausChannel, x: np.ndarray) -> np.ndarray:
    """Complementary channel: (a, b) entry Tr(K_b* K_a X) for n x n input X."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (k.dim_in, k.dim_in):
        raise DimensionMismatch(f"input must be {k.dim_in}x{k.dim_in}, got {x.shape}")
    return np.einsum("bacd,dc->ab", _kraus_products(k), x)


def apply_complement_adjoint(k: KrausChannel, y: np.ndarray) -> np.ndarray:
    """Adjoint of the complement: sum_ij y_ij K_i* K_j for p x p input Y."""
    y = np.asarray(y, dtype=complex)
    p = k.num_kraus
    if y.shape != (p, p):
        raise DimensionMismatch(f"input must be {p}x{p}, got {y.shape}")
    return np.einsum("ij,ijbc->bc", y, _kraus_products(k))


def selfadjoint_kernel_basis(
    k: KrausChannel, tol: Tolerance = DEFAULT_TOL
) -> list[np.ndarray]:
    """Hermitian, HS-orthonormal basis of the kernel of the complement adjoint.

    The kernel is closed under adjoints, so its Hermitian part has real
    dimension kernel_dim. The basis is read off the trailing right singular
    vectors of one real SVD of the adjoint restricted to Herm(p), written in
    the basis E_ii, (E_ij + E_ji)/sqrt2, i(E_ij - E_ji)/sqrt2; each coefficient
    vector's first entry above ``rel_rank_tol`` is positive. Requires a
    trace-preserving channel.
    """
    if not channel_checks(k, tol).trace_preserving:
        raise NotTracePreserving("kernel basis requires a trace-preserving channel")
    _, basis, rank = _hermitian_decomposition(k, tol)
    return list(basis[rank:])


def complement_range_basis(
    k: KrausChannel, tol: Tolerance = DEFAULT_TOL
) -> list[np.ndarray]:
    """Hermitian, HS-orthonormal basis of span{Phi^C(E_ab)} inside M_p.

    The range is the orthogonal complement of the kernel of the adjoint and,
    like it, closed under adjoints: the basis is the leading right singular
    vectors of the same decomposition as :func:`selfadjoint_kernel_basis`, so
    the two together are an HS-orthonormal basis of M_p.
    """
    _, basis, rank = _hermitian_decomposition(k, tol)
    return list(basis[:rank])


def is_extreme_channel(k: KrausChannel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Extreme point test: the complement adjoint is injective on M_p.

    Tests the Kraus family as given; a linearly dependent family always
    reports False, so pass a minimal (Choi-derived) family to test the map
    itself. Requires a trace-preserving channel.
    """
    if not channel_checks(k, tol).trace_preserving:
        raise NotTracePreserving("extremality test requires a trace-preserving channel")
    _, _, rank = _hermitian_decomposition(k, tol)
    return rank == k.num_kraus**2
