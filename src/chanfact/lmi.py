"""Linear matrix inequality built from the complement adjoint kernel.

For a trace-preserving channel with p Kraus operators the system carries
Hermitian p x p matrices Z_1..Z_d spanning that kernel. A point is a tuple
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
from .linalg import DEFAULT_TOL, Tolerance, _factor_from_eigh, eigh, frob, rank_tol, spectral_rank


@dataclass
class LmiSystem:
    """Pencil data: p and a Hermitian, real-linearly independent basis (see point_from_blocks)."""

    p: int
    z: tuple[np.ndarray, ...]
    source: KrausChannel | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        zs = tuple(np.asarray(zi, dtype=complex) for zi in self.z)
        for zi in zs:
            if zi.shape != (self.p, self.p):
                raise DimensionMismatch(f"basis element has shape {zi.shape}, expected {(self.p, self.p)}")
        self.z = zs

    @property
    def d(self) -> int:
        return len(self.z)


@dataclass
class LmiPoint:
    """A tuple of d Hermitian k x k coefficient matrices."""

    k: int
    a: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        mats = tuple(np.asarray(ai, dtype=complex) for ai in self.a)
        for ai in mats:
            if ai.shape != (self.k, self.k):
                raise DimensionMismatch(f"point entry has shape {ai.shape}, expected {(self.k, self.k)}")
        self.a = mats


@dataclass(frozen=True)
class LmiMembership:
    psd: bool
    rank: int
    traces: tuple[float, ...]


def build_lmi(k: KrausChannel, tol: Tolerance = DEFAULT_TOL) -> LmiSystem:
    """System whose basis is the self-adjoint kernel of the complement adjoint."""
    basis = selfadjoint_kernel_basis(k, tol)
    return LmiSystem(k.num_kraus, tuple(basis), source=k)


def lmi_eval(s: LmiSystem, point: LmiPoint) -> np.ndarray:
    """Evaluate the pencil I (x) I + sum_i Z_i (x) A_i at a point."""
    if len(point.a) != s.d:
        raise DimensionMismatch(f"point has {len(point.a)} coefficients, system needs {s.d}")
    p, k = s.p, point.k
    if not s.d:
        return np.eye(p * k, dtype=complex)
    # (p^2 x k^2) entries Z_ab A_xy summed over i, reordered to rows (a, x), columns (b, y)
    terms = np.array(s.z).reshape(s.d, p * p).T @ np.array(point.a).reshape(s.d, k * k)
    out = terms.reshape(p, p, k, k).transpose(0, 2, 1, 3).reshape(p * k, p * k)
    out += np.eye(p * k)
    return out


def lmi_membership(s: LmiSystem, point: LmiPoint, tol: Tolerance = DEFAULT_TOL) -> LmiMembership:
    """PSD flag, numerical rank, and coefficient traces of the pencil value."""
    value = lmi_eval(s, point)
    w = np.linalg.eigvalsh(value)
    psd = bool(w[0] >= -tol.abs_tol * max(1.0, frob(value)))
    traces = tuple(float(np.trace(ai).real) for ai in point.a)
    return LmiMembership(psd, spectral_rank(w, tol), traces)


def extract_blocks(
    s: LmiSystem, point: LmiPoint, tol: Tolerance = DEFAULT_TOL
) -> list[np.ndarray]:
    """Factor L_Z(A) = V* V with V of k rows and return its k x k column blocks.

    The blocks reproduce the pencil value through sum_ij E_ij (x) V_i* V_j.
    Raises NotPSD for infeasible points and RankTooHigh when the pencil value
    has rank above k. The PSD flag, the rank and the factor all come from one
    eigendecomposition of the pencil value.
    """
    value = lmi_eval(s, point)
    w, q = eigh(value, tol)
    if w[-1] < -tol.abs_tol * max(1.0, frob(value)):
        raise NotPSD("pencil value is not positive semidefinite")
    k = point.k
    rank = spectral_rank(w, tol)
    if rank > k:
        raise RankTooHigh(f"pencil value has rank {rank} > {k}")
    b = _factor_from_eigh(w, q, tol)
    v = np.zeros((k, s.p * k), dtype=complex)
    v[: b.shape[0], :] = b
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
    mats = [np.asarray(b, dtype=complex) for b in blocks]
    k = mats[0].shape[0]
    for b in mats:
        if b.shape != (k, k):
            raise DimensionMismatch("blocks must be square and equally sized")
    v = np.column_stack(mats).reshape(k, s.p * k)
    g = v.conj().T @ v
    a = []
    if s.d:
        flat = np.stack(s.z).reshape(s.d, s.p * s.p)
        gzz = (flat.conj() @ flat.T).real
        rank = rank_tol(gzz, tol)
        if rank < s.d:
            raise DependentBasis(f"basis Gram matrix has rank {rank} < d={s.d}")
        resid = (g - np.eye(s.p * k)).reshape(s.p, k, s.p, k)
        contracted = flat.conj() @ resid.transpose(0, 2, 1, 3).reshape(s.p * s.p, k * k)
        coeff = np.linalg.solve(gzz, contracted).reshape(s.d, k, k)
        a = list((coeff + coeff.conj().transpose(0, 2, 1)) / 2.0)
    point = LmiPoint(k, tuple(a))
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
    value = lmi_eval(s, LmiPoint(1, tuple(x)))
    w, vecs = eigh(value, tol)
    if w[-1] < -tol.abs_tol * max(1.0, frob(value)):
        raise NotInSpectrahedron(f"scalar pencil has eigenvalue {w[-1]:.3e}")
    q = _factor_from_eigh(w, vecs, tol)
    ops = [op for op in np.einsum("mj,jab->mab", q, np.array(k.operators)) if frob(op) > tol.abs_tol]
    if not ops:
        raise NotInSpectrahedron("face selection produced an empty Kraus family")
    return KrausChannel(tuple(ops))
