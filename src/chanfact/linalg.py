"""Dense complex linear algebra with an explicit, overridable tolerance policy.

Conventions used throughout the package:

- Every tolerance decision is :meth:`Tolerance.close`, every rank decision
  :func:`spectral_rank` on a spectrum or the echelon pivot cut.
- Every factor and basis the package prints is the echelon factor R of a PSD
  matrix G = R* R: row t is zero before its pivot column, where it is real and
  positive, the columns are taken in index order, and a column is skipped when
  its pivot is at or below ``rel_rank_tol`` times G's largest diagonal entry.
  This factor is unique, so it moves only by rounding when G does, and the
  pivots it keeps are the rank of the factor. Two routines compute it with
  that one pivot rule: :func:`psd_factor`, the in-order pivoted Cholesky of
  G, and :func:`_root_echelon`, the in-order Gram-Schmidt of a root m with
  G = m* m, whose squared residuals are the pivots without squaring m's
  conditioning.
"""

from __future__ import annotations

import math
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
    """Numerical tolerance configuration; no module but this one reads its fields.

    :param abs_tol: absolute tolerance of :meth:`close`. Its decisions, as
        (gap, scale) in Frobenius norms: Hermitian (||h - h*||, ||h||), PSD
        (-lambda_min(h), ||h||), isometry and unitarity (||v* v - I||, ||v||),
        trace preservation and unitality (||sum K_i* K_i - I||, ||I||), span
        (projection residual of G, ||G||); and at scale 1 dropped Kraus
        operators, certificate residuals, coefficient traces, a correlation
        diagonal's distance from 1 and the worked example's residuals.
    :param rel_rank_tol: relative threshold for rank decisions, on singular
        values, eigenvalues and echelon pivots.
    """

    abs_tol: float = 1e-9
    rel_rank_tol: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_rank_tol"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")

    def close(self, gap: float, scale: float = 1.0) -> bool:
        """``gap <= abs_tol * max(1, scale) < inf`` as a Python bool: a NaN gap or
        an infinite bound, from an overflowed scale, is never close."""
        return bool(gap <= self.abs_tol * max(1.0, scale) < math.inf)


DEFAULT_TOL = Tolerance()

_PANEL = 64


def frob(a: np.ndarray) -> float:
    """Frobenius norm as a plain float. Where the squares of the entries overflow
    (near 1e154), the moduli are divided by the largest one and it is multiplied back."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if math.isinf(norm):
        mod = np.abs(a)
        top = float(mod.max())
        if math.isfinite(top):
            norm = top * float(np.linalg.norm(mod / top))
    return norm


def _stack(mats, shape: tuple[int | None, ...], what: str) -> np.ndarray:
    """A family of equally shaped arrays as one C-contiguous complex (count, *shape) array.

    ``shape`` gives the element shape; a None entry takes that size from the
    family itself. An empty family needs a fully given shape. Raises
    DimensionMismatch for a ragged or empty family and a wrong element shape.
    """
    try:
        arr = np.ascontiguousarray(mats, dtype=complex)
    except ValueError:
        raise DimensionMismatch(f"{what} must share one shape") from None
    if arr.shape == (0,):  # an empty sequence carries no element shape
        arr = arr.reshape(0, *(n or 0 for n in shape))
    if arr.ndim != len(shape) + 1 or any(
        n is not None and n != got for n, got in zip(shape, arr.shape[1:])
    ):
        raise DimensionMismatch(f"{what}: element shape {arr.shape[1:]}, expected {shape}")
    if len(arr) == 0 and None in shape:
        raise DimensionMismatch(f"{what}: need at least one")
    return arr


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def _require_hermitian(h: np.ndarray, tol: Tolerance) -> float:
    """``||h||_F``; raises NotHermitian unless ``||h - h*||_F`` is close to 0 at that scale."""
    with np.errstate(over="ignore"):  # an overflowing difference is an infinite gap
        gap = frob(h - h.conj().T)
    norm = frob(h)
    if not tol.close(gap, norm):
        raise NotHermitian(f"matrix deviates from Hermitian by {gap:.3e} at norm {norm:.3e}")
    return norm


def psd_factor(p: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The echelon factor b (rank x n) of a PSD matrix, ``p = b* @ b``.

    The rank is the number of pivots the echelon factor keeps, so b has full
    row rank; the eigenvalues only decide whether ``p`` is PSD.

    Raises NotHermitian if ``p`` is not Hermitian within tolerance, NotPSD
    unless minus its smallest eigenvalue is close to 0 at scale ``||p||_F``,
    and NoConvergence if the eigenvalue solver fails.
    """
    p = _as_square(p)
    norm = _require_hermitian(p, tol)
    try:
        w = np.linalg.eigvalsh(p)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    if w.size and not tol.close(-w[0], norm):
        raise NotPSD(f"smallest eigenvalue {w[0]:.3e} below {-tol.abs_tol * max(1.0, norm):.3e}")
    return _echelon_factor(p, tol)


def spectral_rank(values: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Count of |values| above ``rel_rank_tol`` times the largest |value|.

    On the eigenvalues of a Hermitian matrix, whose moduli are its singular
    values, this is the rank on singular values without a second
    decomposition. Raises NoConvergence unless every value is finite: no cut
    relative to an infinite or NaN largest value counts anything.
    """
    a = np.abs(np.asarray(values))
    if a.size == 0:
        return 0
    if not np.isfinite(a).all():
        raise NoConvergence("spectrum is not finite")
    top = a.max()
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(a > tol.rel_rank_tol * top))


def _echelon_factor(g: np.ndarray, tol: Tolerance, rank: int | None = None) -> np.ndarray:
    """The echelon factor R (rank x n) of a PSD matrix g = R* R; see the module docstring.

    With ``rank`` None every pivot above the cut is kept. A given ``rank``
    means g is a projector of that rank, decided by the caller from a
    spectrum: a count of kept pivots off the rank is decided again by
    :func:`_root_echelon` with g as its own root (g = g* g), whose pivots err
    by rounding where the Cholesky's err by rounding over the smallest kept
    pivot, and another count still raises NoConvergence; then R <- U^-1 R with
    R R* = U U*, U upper triangular, restores the orthonormality that small
    pivots cost and keeps the echelon form.
    """
    n = len(g)
    if rank == 0:
        return np.zeros((0, n), dtype=g.dtype)
    cut = tol.rel_rank_tol * g.diagonal().real.max(initial=0.0)
    r = np.zeros((n, n), dtype=g.dtype)
    kept = 0
    for start in range(0, n, _PANEL):
        first, panel = kept, slice(start, start + _PANEL)
        rows = g[panel, start:].copy()
        if first:
            rows -= r[:first, panel].conj().T @ r[:first, start:]
        width = len(rows)
        # the panel's square block is updated per kept row, a row's tail once it is kept
        for i, row in enumerate(rows):
            if row[i].real > cut:
                j, root = start + i, math.sqrt(row[i].real)
                if start + width < n:
                    row[width:] -= r[first:kept, j].conj() @ r[first:kept, start + width :]
                r[kept, j:] = row[i:] / root
                r[kept, j] = root
                x = r[kept, j + 1 : start + width]
                rows[i + 1 :, i + 1 : width] -= np.multiply.outer(x.conj(), x)
                kept += 1
    if rank is None:
        return r[:kept]
    if kept != rank:
        r = _root_echelon(g, tol)
        kept = len(r)
    if kept != rank:
        raise NoConvergence(f"echelon factor keeps {kept} pivots, expected rank {rank}")
    r = r[:rank]
    u = np.linalg.cholesky((r @ r.conj().T)[::-1, ::-1])[::-1, ::-1]
    for stop in range(rank, 0, -_PANEL):  # r <- u^-1 r, one panel of rows at a time
        block = slice(max(stop - _PANEL, 0), stop)
        r[block] = np.linalg.solve(u[block, block], r[block] - u[block, stop:] @ r[stop:])
    return r


def _root_echelon(m: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The echelon factor R (rank x n) of m* m from the in-order Gram-Schmidt of m's columns.

    Column j is kept when its squared residual, its pivot, exceeds
    ``rel_rank_tol`` times m's largest squared column norm, the largest
    diagonal entry of m* m. R = W* m for the orthonormal residuals W, each
    row's entries before its pivot, zero in exact arithmetic, set to zero and
    its pivot made real. Factoring the root keeps m's conditioning, where the
    Cholesky of m* m squares it.
    """
    cut = tol.rel_rank_tol * (m.real**2 + m.imag**2).sum(axis=0).max(initial=0.0)
    w = np.zeros((m.shape[1], m.shape[0]), dtype=m.dtype)
    pivots = []
    for j, x in enumerate(m.T):
        if pivots:
            done = w[: len(pivots)]
            dual = done.conj()
            x = x - done.T @ (dual @ x)
            x -= done.T @ (dual @ x)  # the second pass restores the orthogonality the first loses
        pivot = np.vdot(x, x).real
        if pivot > cut:
            w[len(pivots)] = x / math.sqrt(pivot)
            pivots.append(j)
    r = w[: len(pivots)].conj() @ m
    for t, j in enumerate(pivots):
        r[t, :j] = 0.0
        r[t, j] = r[t, j].real
    return r


def complete_isometry(v: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Complete an isometry ``v`` (N x c, v* v = I_c) to an N x N unitary.

    The added columns are R* for the orthonormal echelon factor R of
    I - v v*: in exact arithmetic, the Gram-Schmidt of the standard basis
    vectors against range(v), taken in index order and skipping dependents.
    The first c columns of the result equal ``v``.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2 or v.shape[0] < v.shape[1]:
        raise NotIsometry(f"shape {v.shape} cannot be an isometry")
    n, c = v.shape
    defect = frob(v.conj().T @ v - np.eye(c))
    if not tol.close(defect, frob(v)):
        raise NotIsometry(f"columns deviate from orthonormal by {defect:.3e}")
    rest = _echelon_factor(np.eye(n) - v @ v.conj().T, tol, n - c)
    return np.hstack([v, rest.conj().T])
