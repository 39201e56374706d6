"""Dense complex linear algebra with an explicit, overridable tolerance policy.

Conventions used throughout the package:

- Every tolerance decision is :meth:`Tolerance.close`, every rank decision
  :func:`spectral_rank` on a spectrum or the echelon pivot cut.
- Every factor and basis the package prints is the echelon factor R of a PSD
  matrix G = R* R: row t is zero before its pivot column, where it is real and
  positive, the columns are taken in index order, and a column is skipped when
  its residual against the kept columns is at or below the cut. This factor is
  unique, so it moves only by rounding when G does. One routine computes it,
  :func:`_root_echelon`, the in-order Gram-Schmidt of a root m with G = m* m,
  so G's squared conditioning never enters. Its cut has two scales:

  - located: where a spectrum has decided the rank (the kernel, the
    isometry completion, :func:`psd_factor`), the root has one row per rank
    and the pivots only locate the kept columns; a column is kept when its
    residual norm exceeds ``rel_rank_tol`` times m's largest column norm,
    the scale of the singular values that decided the rank;
  - decided: otherwise (the blocks of a certificate) the pivots decide the
    rank; a column is kept when its squared residual, its pivot, exceeds
    ``rel_rank_tol`` times G's largest diagonal entry, the scale of G's
    eigenvalues.
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
        values, eigenvalues and echelon residuals.
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


def _kron_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_i x_i (x) y_i of a (c, m, n) and a (c, a, b) stack, an (m a) x (n b) matrix:
    one (m n x c)(c x a b) product of the flattened stacks, entries x_mn y_ab,
    reordered to rows (m, a) and columns (n, b). Empty stacks give the zero matrix."""
    (c, m, n), (a, b) = x.shape, y.shape[1:]
    terms = x.reshape(c, m * n).T @ y.reshape(c, a * b)
    return terms.reshape(m, n, a, b).transpose(0, 2, 1, 3).reshape(m * a, n * b)


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def _require_hermitian(h: np.ndarray, tol: Tolerance) -> float:
    """``||h||_F``; raises NotHermitian unless ``||h - h*||_F`` is close to 0 at that scale."""
    with np.errstate(over="ignore"):  # an overflowing difference is an infinite gap
        diff = h - h.conj().T
        gap, norm = math.sqrt(np.vdot(diff, diff).real), math.sqrt(np.vdot(h, h).real)
        if math.isinf(gap) or math.isinf(norm):  # squares beyond the float range
            gap, norm = frob(diff), frob(h)
    if not tol.close(gap, norm):
        raise NotHermitian(f"matrix deviates from Hermitian by {gap:.3e} at norm {norm:.3e}")
    return norm


def psd_factor(p: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The echelon factor b (rank x n) of a PSD matrix, ``p = b* @ b`` but for dropped eigenvalues.

    The PSD flag and the rank come from one eigendecomposition, as in
    :func:`~chanfact.lmi.lmi_membership`: the rank is the :func:`spectral_rank`
    of the eigenvalues, a tolerated negative one counting as zero, and b is
    the echelon factor of the root sqrt(w) V* of the kept eigenpairs, so b
    has full row rank.

    Raises NotHermitian if ``p`` is not Hermitian within tolerance, NotPSD
    unless minus its smallest eigenvalue is close to 0 at scale ``||p||_F``,
    and NoConvergence if the eigenvalue solver fails.
    """
    p = _as_square(p)
    norm = _require_hermitian(p, tol)
    try:
        w, v = np.linalg.eigh(p)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    if w.size and not tol.close(-w[0], norm):
        raise NotPSD(f"smallest eigenvalue {w[0]:.3e} below {-tol.abs_tol * max(1.0, norm):.3e}")
    rank = spectral_rank(np.maximum(w, 0.0), tol)
    kept = slice(len(w) - rank, None)
    return _root_echelon((v[:, kept] * np.sqrt(w[kept])).conj().T, tol, rank)


def spectral_rank(values: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Count of |values| above ``rel_rank_tol`` times the largest |value|.

    On the eigenvalues of a Hermitian matrix, whose moduli are its singular
    values, this is the rank on singular values without a second
    decomposition. Raises NoConvergence unless every value is finite: no cut
    relative to an infinite or NaN largest value counts anything.
    """
    a = np.abs(values)
    if a.size == 0:
        return 0
    top = np.maximum.reduce(a)  # NaN if any value is
    if not math.isfinite(top):
        raise NoConvergence("spectrum is not finite")
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(a > tol.rel_rank_tol * top))


def _root_echelon(m: np.ndarray, tol: Tolerance, rank: int | None = None) -> np.ndarray:
    """The echelon factor R (rank x n) of m* m from the in-order Gram-Schmidt of m's columns.

    Column j is kept when its residual against the kept columns is above the
    cut of the module docstring: located when ``rank`` is given, which must
    then be the count kept (NoConvergence otherwise), decided when it is None.
    The columns go one panel at a time: two products project a panel on the
    directions kept before it, then each column is projected on those kept
    inside the panel. A projection is repeated only where it removed more
    than half of a squared norm ("twice is enough"). R holds the projection
    coefficients, zero before each row's real positive pivot; once the kept
    directions span m's rows, the rest of R is one product.
    """
    rows, n = m.shape
    norms = np.add.reduce((m.conj() * m).real).tolist()
    scale = tol.rel_rank_tol if rank is None else tol.rel_rank_tol**2
    cut = scale * max(norms, default=0.0)
    size = min(rows, n)
    w = np.empty((size, rows), dtype=m.dtype)  # the kept directions, one per row
    r = np.zeros((size, n), dtype=m.dtype)
    kept = stop = 0
    while stop < n and kept < rows:
        start, stop = stop, min(stop + _PANEL, n)
        panel = m[:, start:stop].T.copy()  # one column of m per row
        coeffs = r[:, start:stop]
        norm = norms[start:stop]
        if kept:
            coeffs[:kept] = (w[:kept] @ panel.conj().T).conj()
            panel -= coeffs[:kept].T @ w[:kept]
            left = (panel.conj() * panel).real.sum(axis=1)
            again = np.flatnonzero(left < 0.5 * np.array(norm))
            if len(again):
                more = (w[:kept] @ panel[again].conj().T).conj()
                panel[again] -= more.T @ w[:kept]
                coeffs[:kept, again] += more
            norm = left.tolist()
        first = kept
        for i, x in enumerate(panel):
            if kept > first:
                c = w[first:kept].dot(x.conj()).conj()
                x -= c.dot(w[first:kept])
                coeffs[first:kept, i] = c
            pivot = np.vdot(x, x).real
            if pivot < 0.5 * norm[i]:
                c = w[:kept].dot(x.conj()).conj()
                x -= c.dot(w[:kept])
                coeffs[:kept, i] += c
                pivot = np.vdot(x, x).real
            if pivot > cut:
                root = math.sqrt(pivot)
                np.divide(x, root, out=w[kept])
                coeffs[kept, i] = root
                kept += 1
                if kept == rows:  # the kept directions span m's rows
                    stop = start + i + 1
                    break
    if stop < n:
        r[:, stop:] = w.dot(m[:, stop:].conj()).conj()
    if rank is not None and kept != rank:
        raise NoConvergence(f"echelon factor keeps {kept} pivots, expected rank {rank}")
    return r[:kept]


def complete_isometry(v: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Complete an isometry ``v`` (N x c, v* v = I_c) to an N x N unitary.

    The added columns are R* for the orthonormal echelon factor R of
    I - v v*, factored from its root, the complement rows of v's complete QR:
    in exact arithmetic, the Gram-Schmidt of the standard basis vectors
    against range(v), taken in index order and skipping dependents. The
    first c columns of the result equal ``v``.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2 or v.shape[0] < v.shape[1]:
        raise NotIsometry(f"shape {v.shape} cannot be an isometry")
    n, c = v.shape
    defect = frob(v.conj().T @ v - np.eye(c))
    if not tol.close(defect, frob(v)):
        raise NotIsometry(f"columns deviate from orthonormal by {defect:.3e}")
    q = np.linalg.qr(v, mode="complete")[0]
    rest = _root_echelon(q[:, c:].conj().T, tol, n - c)
    return np.hstack([v, rest.conj().T])
