"""Complementary channels and the kernel of their adjoint.

For a channel with Kraus operators {K_i}_{i=1..p}, the complementary channel
sends X to the p x p matrix with (a, b) entry Tr(K_b* K_a X); its adjoint
sends Y to sum_ij y_ij K_i* K_j. The kernel of that adjoint drives the
extremality test and the LMI system built in :mod:`chanfact.lmi`; one real
SVD of the adjoint on Hermitian Y gives its dimension, and the echelon factor
of its projector gives a Hermitian basis of it.
"""

from __future__ import annotations

import numpy as np

from .channel import KrausChannel, channel_checks
from .errors import DimensionMismatch, NotTracePreserving
from .linalg import DEFAULT_TOL, Tolerance, _echelon_factor, spectral_rank


def _kraus_products(k: KrausChannel) -> np.ndarray:
    """Kraus product tensor A[i, j] = K_i* K_j, shape p x p x n x n."""
    return np.einsum("iab,jac->ijbc", k.operators.conj(), k.operators)


def _hermitian_units(p: int) -> np.ndarray:
    """p^2 x p^2 matrix whose columns are the row-major flattenings of the
    HS-orthonormal basis E_ii, (E_ij + E_ji)/sqrt2, i(E_ij - E_ji)/sqrt2 (i < j)
    of Herm(p), in that order."""
    # np.triu_indices(p, 1), at a third of its cost
    iu, ju = np.nonzero(np.arange(p)[:, None] < np.arange(p))
    off = np.arange(iu.size)
    units = np.zeros((p, p, p * p), dtype=complex)
    units[np.arange(p), np.arange(p), np.arange(p)] = 1.0
    units[iu, ju, p + off] = units[ju, iu, p + off] = np.sqrt(0.5)
    units[iu, ju, p + iu.size + off] = 1j * np.sqrt(0.5)
    units[ju, iu, p + iu.size + off] = -1j * np.sqrt(0.5)
    return units.reshape(p * p, p * p)


def _hermitian_kernel(k: KrausChannel, tol: Tolerance) -> np.ndarray:
    """One real SVD of the complement adjoint restricted to Herm(p).

    Y -> sum_ij y_ij K_i* K_j maps Hermitian Y to Hermitian matrices, so its
    Gram matrix in the basis of :func:`_hermitian_units` is real and the real
    map has the singular values of the complex one: the rank, and hence the
    kernel dimension, is that of the n^2 x p^2 operator matrix.

    Returns the d = p^2 - rank HS-orthonormal Hermitian matrices whose
    coefficient vectors are the orthonormal echelon factor of the projector
    onto the span of the trailing right singular vectors.
    """
    p = k.num_kraus
    units = _hermitian_units(p)
    images = _kraus_products(k).reshape(p * p, -1).T @ units
    real_map = np.vstack([images.real, images.imag])
    # the kernel needs all p^2 right singular vectors, also when 2n^2 < p^2
    _, s, vt = np.linalg.svd(real_map, full_matrices=real_map.shape[0] < p * p)
    kernel = vt[spectral_rank(s, tol) :]
    # K^T K, not I - (range part)^T (range part): dependent pivots stay at rounding level
    coeffs = _echelon_factor(kernel.T @ kernel, len(kernel), tol, orthonormal=True)
    # coeffs is real: two real products give the complex product's bytes at half its cost
    basis = np.empty((len(coeffs), p * p), dtype=complex)
    basis.real = coeffs @ units.real.T
    basis.imag = coeffs @ units.imag.T
    return basis.reshape(-1, p, p)


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
    dimension kernel_dim, which one real SVD of the adjoint restricted to
    Herm(p) decides. The coefficient vectors in E_ii, (E_ij + E_ji)/sqrt2,
    i(E_ij - E_ji)/sqrt2 are the orthonormal echelon factor of the kernel
    projector (see :mod:`chanfact.linalg`). Requires a trace-preserving channel.
    """
    if not channel_checks(k, tol).trace_preserving:
        raise NotTracePreserving("kernel basis requires a trace-preserving channel")
    return list(_hermitian_kernel(k, tol))


def is_extreme_channel(k: KrausChannel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Extreme point test: the complement adjoint is injective on M_p.

    Tests the Kraus family as given; a linearly dependent family always
    reports False, so pass a minimal (Choi-derived) family to test the map
    itself. Requires a trace-preserving channel.
    """
    return not selfadjoint_kernel_basis(k, tol)
