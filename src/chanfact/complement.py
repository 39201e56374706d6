"""Complementary channels and the kernel of their adjoint.

For a channel with Kraus operators {K_i}_{i=1..p}, the complementary channel
sends X to the p x p matrix with (a, b) entry Tr(K_b* K_a X); its adjoint
sends Y to sum_ij y_ij K_i* K_j. The kernel of that adjoint drives the
extremality test and the LMI system built in :mod:`chanfact.lmi`; one real
SVD of the adjoint on Hermitian Y gives its dimension and the rows that span
it, and the echelon factor of those rows gives a Hermitian basis of it.
"""

from __future__ import annotations

import numpy as np

from .channel import KrausChannel, channel_checks
from .errors import DimensionMismatch, NotTracePreserving
from .linalg import DEFAULT_TOL, Tolerance, _root_echelon, spectral_rank


def _kraus_products(k: KrausChannel) -> np.ndarray:
    """Kraus product tensor A[i, j] = K_i* K_j, shape p x p x n x n."""
    return np.einsum("iab,jac->ijbc", k.operators.conj(), k.operators)


def _hermitian_kernel(k: KrausChannel, tol: Tolerance) -> np.ndarray:
    """One real SVD of the complement adjoint restricted to Herm(p).

    Y -> sum_ij y_ij K_i* K_j maps Hermitian Y to Hermitian matrices, so in the
    HS-orthonormal basis E_ii, (E_ij + E_ji)/sqrt2, i(E_ij - E_ji)/sqrt2 (i < j)
    of Herm(p) its Gram matrix is real and the real map has the singular values
    of the complex one: the rank, and hence the kernel dimension, is that of the
    n^2 x p^2 operator matrix.

    Returns the d = p^2 - rank HS-orthonormal Hermitian matrices, a (d, p, p)
    array, whose coefficient vectors are the orthonormal echelon factor of the
    kernel projector, factored from its root: the d trailing right singular
    vectors, as rows.
    """
    p = k.num_kraus
    a = _kraus_products(k).reshape(p, p, -1)
    diag = np.arange(p)
    # np.triu_indices(p, 1), at a third of its cost
    iu, ju = np.nonzero(diag[:, None] < diag)
    upper, lower = a[iu, ju], a[ju, iu]
    half = np.sqrt(0.5)
    images = np.concatenate([a[diag, diag], half * (upper + lower), 1j * half * (upper - lower)])
    real_map = np.hstack([images.real, images.imag]).T
    # the kernel needs all p^2 right singular vectors, also when 2n^2 < p^2
    _, s, vt = np.linalg.svd(real_map, full_matrices=real_map.shape[0] < p * p)
    kernel = vt[spectral_rank(s, tol) :]
    coeffs = _root_echelon(kernel, tol, len(kernel))
    sym, anti = np.split(half * coeffs[:, p:], 2, axis=1)
    basis = np.empty((len(coeffs), p, p), dtype=complex)
    basis[:, diag, diag] = coeffs[:, :p]
    basis[:, iu, ju], basis[:, ju, iu] = sym + 1j * anti, sym - 1j * anti
    return basis


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


def selfadjoint_kernel_basis(k: KrausChannel, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian, HS-orthonormal (d, p, p) basis of the kernel of the complement adjoint.

    The kernel is closed under adjoints, so its Hermitian part has real
    dimension kernel_dim, which one real SVD of the adjoint restricted to
    Herm(p) decides. The coefficient vectors in E_ii, (E_ij + E_ji)/sqrt2,
    i(E_ij - E_ji)/sqrt2 are the orthonormal echelon factor of the kernel
    projector, factored from its rows (see :mod:`chanfact.linalg`). Requires a
    trace-preserving channel.
    """
    if not channel_checks(k, tol).trace_preserving:
        raise NotTracePreserving("kernel basis requires a trace-preserving channel")
    return _hermitian_kernel(k, tol)

