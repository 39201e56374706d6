"""Linear matrix inequality built from the complement adjoint kernel.

For a trace-preserving channel with p Kraus operators the system carries
Hermitian p x p matrices Z_1..Z_d spanning that kernel. A point is a family
of Hermitian k x k matrices A_1..A_d, and the pencil

    L_Z(A) = I_p (x) I_k + sum_i Z_i (x) A_i

is PSD exactly when the point lies in the level-k solution set. Solutions of
rank at most k factor into blocks that certify factorization by M_k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import KrausChannel
from .complement import selfadjoint_kernel_basis
from .errors import (
    DependentBasis,
    DimensionMismatch,
    NotInSpan,
    NotInSpectrahedron,
    NotPSD,
    RankTooHigh,
)
from .linalg import DEFAULT_TOL, Tolerance, _stack, eigh, frob, spectral_rank
from .linalg import _echelon_factor, _factor_from_eigh, _factor_rank, _psd_floor, _require_hermitian


@dataclass
class LmiSystem:
    """Pencil data: p and a Hermitian, real-linearly independent d x p x p basis z
    (see point_from_blocks)."""

    p: int
    z: np.ndarray
    source: KrausChannel | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.z = _stack(self.z, (self.p, self.p), "basis elements")

    @property
    def d(self) -> int:
        return len(self.z)


@dataclass
class LmiPoint:
    """d Hermitian k x k coefficient matrices, stored as one complex d x k x k array."""

    k: int
    a: np.ndarray

    def __post_init__(self) -> None:
        self.a = _stack(self.a, (self.k, self.k), "point entries")


@dataclass(frozen=True)
class LmiMembership:
    psd: bool
    rank: int
    traces: tuple[float, ...]


def build_lmi(k: KrausChannel, tol: Tolerance = DEFAULT_TOL) -> LmiSystem:
    """System whose basis is the self-adjoint kernel of the complement adjoint."""
    return LmiSystem(k.num_kraus, selfadjoint_kernel_basis(k, tol), source=k)


def lmi_eval(s: LmiSystem, point: LmiPoint) -> np.ndarray:
    """Evaluate the pencil I (x) I + sum_i Z_i (x) A_i at a point."""
    if len(point.a) != s.d:
        raise DimensionMismatch(f"point has {len(point.a)} coefficients, system needs {s.d}")
    p, k = s.p, point.k
    if not s.d:
        return np.eye(p * k, dtype=complex)
    # (p^2 x k^2) entries Z_ab A_xy summed over i, reordered to rows (a, x), columns (b, y)
    terms = s.z.reshape(s.d, p * p).T @ point.a.reshape(s.d, k * k)
    out = terms.reshape(p, p, k, k).transpose(0, 2, 1, 3).reshape(p * k, p * k)
    out += np.eye(p * k)
    return out


def lmi_membership(s: LmiSystem, point: LmiPoint, tol: Tolerance = DEFAULT_TOL) -> LmiMembership:
    """PSD flag, numerical rank, and coefficient traces of the pencil value."""
    value = lmi_eval(s, point)
    w = np.linalg.eigvalsh(value)
    psd = bool(w[0] >= _psd_floor(value, tol))
    # a PSD value's rank is the factor's; a tolerated negative eigenvalue adds nothing
    rank = _factor_rank(w, tol) if psd else spectral_rank(w, tol)
    traces = tuple(np.trace(point.a, axis1=1, axis2=2).real.tolist())
    return LmiMembership(psd, rank, traces)


def extract_blocks(
    s: LmiSystem, point: LmiPoint, tol: Tolerance = DEFAULT_TOL
) -> list[np.ndarray]:
    """Factor L_Z(A) = V* V with V of k rows and return its k x k column blocks.

    The blocks reproduce the pencil value through sum_ij E_ij (x) V_i* V_j.
    Raises NotHermitian or NotPSD for a non-Hermitian or infeasible pencil
    value and RankTooHigh when its rank is above k. Its eigenvalues give the
    PSD flag and the rank; the rows of V are its echelon factor (see
    :mod:`chanfact.linalg`), padded with zero rows to k.
    """
    value = lmi_eval(s, point)
    _require_hermitian(value, tol)
    w = np.linalg.eigvalsh(value)
    if w[0] < _psd_floor(value, tol):
        raise NotPSD("pencil value is not positive semidefinite")
    k = point.k
    rank = _factor_rank(w, tol)
    if rank > k:
        raise RankTooHigh(f"pencil value has rank {rank} > {k}")
    v = np.zeros((k, s.p * k), dtype=complex)
    v[:rank] = _echelon_factor(value, rank, tol)
    return [v[:, i * k : (i + 1) * k] for i in range(s.p)]


def point_from_blocks(
    s: LmiSystem, blocks: list[np.ndarray], tol: Tolerance = DEFAULT_TOL
) -> LmiPoint:
    """Recover the point whose pencil value is the Gram matrix of the blocks.

    Solves the least-squares problem G - I (x) I = sum_i Z_i (x) A_i over the
    system basis and raises NotInSpan when the residual is above tolerance.
    Raises DependentBasis when the real Gram matrix of the basis is rank
    deficient, since the coefficients are then not unique.
    """
    if len(blocks) != s.p:
        raise DimensionMismatch(f"expected {s.p} blocks, got {len(blocks)}")
    k = len(blocks[0])
    v = _stack(blocks, (k, k), "blocks").transpose(1, 0, 2).reshape(k, s.p * k)
    g = v.conj().T @ v
    a = np.zeros((0, k, k))
    if s.d:
        flat = s.z.reshape(s.d, s.p * s.p)
        gzz = (flat.conj() @ flat.T).real
        rank = spectral_rank(np.linalg.eigvalsh(gzz), tol)
        if rank < s.d:
            raise DependentBasis(f"basis Gram matrix has rank {rank} < d={s.d}")
        resid = (g - np.eye(s.p * k)).reshape(s.p, k, s.p, k)
        contracted = flat.conj() @ resid.transpose(0, 2, 1, 3).reshape(s.p * s.p, k * k)
        coeff = np.linalg.solve(gzz, contracted).reshape(s.d, k, k)
        a = (coeff + coeff.conj().transpose(0, 2, 1)) / 2.0
    point = LmiPoint(k, a)
    rebuilt = lmi_eval(s, point)
    if frob(g - rebuilt) > tol.abs_tol * max(1.0, frob(g)):
        raise NotInSpan(f"projection residual {frob(g - rebuilt):.3e}")
    return point


def face_channel(
    k: KrausChannel,
    x: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    system: LmiSystem | None = None,
) -> KrausChannel:
    """Channel on the face selected by a scalar solution vector x.

    With Q* Q = I_p + sum_i x_i Z_i the new Kraus operators are
    sum_j q_mj K_j; numerically zero results are dropped. Raises
    NotInSpectrahedron when the scalar pencil value is not PSD.
    """
    s = system if system is not None else build_lmi(k, tol)
    x = np.asarray(x, dtype=float).reshape(-1, 1, 1)
    value = lmi_eval(s, LmiPoint(1, x))
    w, vecs = eigh(value, tol)
    if w[-1] < _psd_floor(value, tol):
        raise NotInSpectrahedron(f"scalar pencil has eigenvalue {w[-1]:.3e}")
    q = _factor_from_eigh(w, vecs, tol)
    ops = np.einsum("mj,jab->mab", q, k.operators)
    ops = ops[np.linalg.norm(ops, axis=(1, 2)) > tol.abs_tol]
    if not len(ops):
        raise NotInSpectrahedron("face selection produced an empty Kraus family")
    return KrausChannel(ops)
