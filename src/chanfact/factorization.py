"""Factorization certificates over finite direct sums of matrix algebras.

A certificate for a channel with Kraus operators {K_i}_{i=1..p} over the
algebra N = (+)_k (M_{i_k}, q_k) holds one block V_i^(k) per Kraus index and
factor, one p x i_k x i_k stack per factor. It is valid when the V_i are
orthonormal in the normalized tracial state tau((+)_k A_k) =
sum_k q_k Tr(A_k)/i_k and U = sum_i K_i (x) V_i is unitary factor by factor;
equivalently, sum_ij x_ij V_j* V_i = Tr(X) I for every X in the range of the
complementary channel. Verification reads both off one product U_f* U_f per
factor.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    KrausChannel,
    _dilation_blocks,
    convex_combine_channels,
)
from .errors import CertificateInvalid, DimensionMismatch, TraceNotZero
from .linalg import DEFAULT_TOL, Tolerance, _kron_sum, _root_echelon, _stack, frob
from .lmi import LmiPoint, LmiSystem, extract_blocks, lmi_membership

WEIGHT_SUM_TOL = 1e-12


@dataclass
class FactorAlgebra:
    """A direct sum (+)_k M_{i_k} with tracial weights q_k summing to 1."""

    factors: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise DimensionMismatch("algebra needs at least one factor")
        factors = []
        for f, (d, q) in enumerate(self.factors):
            try:
                d = operator.index(d)
            except TypeError:
                raise DimensionMismatch(f"factor {f}: dimension {d!r} is not an integer") from None
            q = float(q)
            if d < 1:
                raise DimensionMismatch(f"factor {f}: dimension must be positive, got {d}")
            if not np.isfinite(q) or q <= 0.0:
                raise ValueError(f"factor {f}: weight must be positive and finite, got {q!r}")
            factors.append((d, q))
        total = sum(q for _, q in factors)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"factor weights sum to {total!r}, expected 1")
        self.factors = tuple(factors)

    @property
    def num_factors(self) -> int:
        return len(self.factors)


@dataclass(init=False)
class FactorizationCertificate:
    """Blocks V_i^(f) of a factor algebra, ``blocks[f]`` one C-contiguous complex
    p x d_f x d_f stack per factor. The constructor takes them per Kraus index,
    ``elements[i][f]`` = V_i^(f) as in the JSON schema, or as one p x m x d x d
    array that it slices per factor; :attr:`elements` is the per-index layout
    again, as views of the stacks."""

    algebra: FactorAlgebra
    blocks: tuple[np.ndarray, ...] = field(repr=False)

    def __init__(self, algebra: FactorAlgebra, elements) -> None:
        array = isinstance(elements, np.ndarray) and elements.ndim == 4  # p x m x d x d
        for i, element in enumerate(elements[:1] if array else elements):  # an array's axis once
            if len(element) != algebra.num_factors:
                raise DimensionMismatch(f"element {i}: {len(element)} blocks, not one per factor")
        if not len(elements):
            raise DimensionMismatch("certificate needs at least one element")
        self.algebra = algebra
        families = elements.swapaxes(0, 1) if array else zip(*elements)
        self.blocks = tuple(
            _stack(family, (d, d), f"factor {f} blocks")
            for f, ((d, _), family) in enumerate(zip(algebra.factors, families))
        )

    @property
    def elements(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Per Kraus index i, the blocks (V_i^(1), ..., V_i^(m)): views of :attr:`blocks`."""
        return tuple(zip(*self.blocks))

    @property
    def num_elements(self) -> int:
        return len(self.blocks[0])


@dataclass(frozen=True)
class CertificateReport:
    orthonormality_residual: float
    complement_residual: float
    unitarity_residual: float
    passed: bool


def verify_certificate(
    k: KrausChannel, cert: FactorizationCertificate, tol: Tolerance = DEFAULT_TOL
) -> CertificateReport:
    """Check orthonormality, the complement-range identity, and unitarity.

    Per factor f, U_f = sum_i K_i (x) V_i is the ``_kron_sum`` of the Kraus
    operators and the stack ``cert.blocks[f]``. Block (b, c) of U_f* U_f is
    sum_ij (K_i* K_j)_bc V_i* V_j, the complement identity's left-hand side at
    X = Phi^c(E_cb), whose trace is (sum_i K_i* K_i)_bc. The complement
    residual is the largest Frobenius norm over (b, c, f) of that block minus
    its trace times I; the unitarity residual is the Frobenius norm of
    U_f* U_f - I over all factors together; the inner products tau(V_i* V_j)
    are weighted traces Tr(V_i* V_j). The three residuals are reported
    unconditionally; ``passed`` is true when all of them are close to 0.
    """
    n = k.dim_in
    if k.dim_out != n:
        raise DimensionMismatch("factorization certificates require square channels")
    p = k.num_kraus
    if cert.num_elements != p:
        raise DimensionMismatch(
            f"certificate has {cert.num_elements} elements for {p} Kraus operators"
        )
    column = k.operators.reshape(p * n, n)
    defect = column.conj().T @ column

    inner = np.zeros((p, p), dtype=complex)
    compl = unit_sq = 0.0
    for (d, q), v in zip(cert.algebra.factors, cert.blocks):
        flat = v.reshape(p, d * d)
        inner += (q / d) * (flat.conj() @ flat.T)
        u = _kron_sum(k.operators, v)
        gram = u.conj().T @ u
        r = gram.reshape(n, d, n, d) - defect[:, None, :, None] * np.eye(d)[:, None, :]
        compl = max(compl, math.sqrt((r.real**2 + r.imag**2).sum(axis=(1, 3)).max()))
        unit_sq += frob(gram - np.eye(n * d)) ** 2
    orth = float(np.abs(inner - np.eye(p)).max())
    unit = float(np.sqrt(unit_sq))
    return CertificateReport(orth, compl, unit, tol.close(max(orth, compl, unit)))


def certificate_from_point(
    k: KrausChannel, s: LmiSystem, point: LmiPoint, tol: Tolerance = DEFAULT_TOL
) -> FactorizationCertificate:
    """Single-factor M_k certificate from a traceless rank-at-most-k solution.

    The extracted blocks already satisfy tau_k(V_i* V_j) = delta_ij because
    the pencil's diagonal blocks have trace k when the coefficient traces
    vanish; they are used as-is.
    """
    blocks = extract_blocks(s, point, tol)
    trace_norm = max((abs(float(np.trace(ai).real)) for ai in point.a), default=0.0)
    if not tol.close(trace_norm):
        raise TraceNotZero(f"coefficient traces reach {trace_norm:.3e}")
    algebra = FactorAlgebra(((point.k, 1.0),))
    return FactorizationCertificate(algebra, blocks[:, None])


def combine_certificates(
    k1: KrausChannel,
    cert1: FactorizationCertificate,
    k2: KrausChannel,
    cert2: FactorizationCertificate,
    t: float,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[KrausChannel, FactorizationCertificate]:
    """Certificate for t*Phi_1 + (1-t)*Phi_2 over the direct sum algebra.

    Elements are (t^-1/2 V_i) (+) 0 for the first channel and
    0 (+) ((1-t)^-1/2 W_j) for the second, with factor weights rescaled by t
    and 1-t. Both inputs must verify; t must lie strictly in (0, 1).
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"mixing weight must lie strictly in (0, 1), got {t!r}")
    for kk, cc, label in ((k1, cert1, "first"), (k2, cert2, "second")):
        if not verify_certificate(kk, cc, tol).passed:
            raise CertificateInvalid(f"{label} certificate does not verify")
    channel = convex_combine_channels(k1, k2, t)
    factors = tuple((d, t * q) for d, q in cert1.algebra.factors) + tuple(
        (d, (1.0 - t) * q) for d, q in cert2.algebra.factors
    )
    p1, p2 = cert1.num_elements, cert2.num_elements
    stacks = [np.concatenate([(1.0 / np.sqrt(t)) * v, np.zeros((p2, *v.shape[1:]))])
              for v in cert1.blocks]
    stacks += [np.concatenate([np.zeros((p1, *v.shape[1:])), (1.0 / np.sqrt(1.0 - t)) * v])
               for v in cert2.blocks]
    return channel, FactorizationCertificate(FactorAlgebra(factors), tuple(zip(*stacks)))


@dataclass(frozen=True)
class FactorComponent:
    weight: float
    channel: KrausChannel
    certificate: FactorizationCertificate
    gram: np.ndarray = field(repr=False)


def decompose_by_factors(
    k: KrausChannel, cert: FactorizationCertificate, tol: Tolerance = DEFAULT_TOL
) -> list[FactorComponent]:
    """Split a channel along the factors of its certificate's algebra.

    For factor k, Q_k is the echelon factor of the p x p Gram matrix
    (id (x) tau)(sum E_ij (x) V_i* V_j), taken from the block stack
    ``cert.blocks[k]`` itself: the in-order Gram-Schmidt of the columns
    vec(V_i) / sqrt(d_k), so Q_k keeps the blocks' conditioning, not that of
    their Gram matrix. The component channel has Kraus operators
    sum_j (Q_k)_mj K_j and a single-factor certificate whose elements V'_m
    are one least-squares solve of sum_m (Q_k)_mj V'_m = V_j: the transfer
    through the pseudoinverse of Q_k, which has full row rank, so a block whose
    residual fell below the pivot cut is still carried. The component's
    ``gram`` is Q_k* Q_k, so its Choi matrix is K gram^T K* with K holding
    vec(K_i) as columns; the weighted Gram matrices sum to I_p up to the cut
    pivots, as the weighted Choi matrices sum to the input's.
    """
    if not verify_certificate(k, cert, tol).passed:
        raise CertificateInvalid("cannot decompose along a failing certificate")
    p, n = k.num_kraus, k.dim_in
    components = []
    for f, ((d, q), blocks) in enumerate(zip(cert.algebra.factors, cert.blocks)):
        flat = blocks.reshape(p, d * d)
        qmat = _root_echelon(flat.T / math.sqrt(d), tol)
        if not len(qmat):
            raise CertificateInvalid(f"factor {f} carries no weight in the certificate")
        transfer = np.linalg.lstsq(qmat.T, flat, rcond=None)[0].reshape(-1, 1, d, d)
        sub_cert = FactorizationCertificate(FactorAlgebra(((d, 1.0),)), transfer)
        channel = KrausChannel((qmat @ k.operators.reshape(p, n * n)).reshape(-1, n, n))
        components.append(FactorComponent(q, channel, sub_cert, qmat.conj().T @ qmat))
    return components


@dataclass(frozen=True)
class CandidateReport:
    in_solution_set: bool
    rank: int
    trace_norm: float
    consistent_with_extremality: bool


@dataclass(frozen=True)
class ExtremalityReport:
    candidates: tuple[CandidateReport, ...]
    all_consistent: bool


def extremality_check(
    k: KrausChannel,
    s: LmiSystem,
    candidates: list[LmiPoint],
    tol: Tolerance = DEFAULT_TOL,
) -> ExtremalityReport:
    """Certificate-style check of the trace condition on candidate solutions.

    A candidate is consistent with extremality when it is outside the
    solution set, has rank above its level k, or has all coefficient traces
    close to 0. This is evidence over the supplied candidates only, not
    a decision procedure for extremality.
    """
    del k  # the channel fixes the system; kept for signature symmetry
    reports = []
    for point in candidates:
        mem = lmi_membership(s, point, tol)
        trace_norm = max((abs(t) for t in mem.traces), default=0.0)
        consistent = (not mem.psd) or (mem.rank > point.k) or tol.close(trace_norm)
        reports.append(CandidateReport(mem.psd, mem.rank, float(trace_norm), consistent))
    return ExtremalityReport(
        tuple(reports), all(r.consistent_with_extremality for r in reports)
    )


def hm_equation_residuals(
    a1: np.ndarray, a2: np.ndarray, a3: np.ndarray
) -> tuple[float, float, float]:
    """Residuals of the three Haagerup-Musat equations at A = A_2 + i A_3.

    Returns Frobenius norms of A*A - I - sqrt(2) A_1, A A* - I + sqrt(2) A_1,
    and A^2; a solution makes all three vanish.
    """
    a1 = np.asarray(a1, dtype=complex)
    a2 = np.asarray(a2, dtype=complex)
    a3 = np.asarray(a3, dtype=complex)
    if not (a1.shape == a2.shape == a3.shape) or a1.ndim != 2 or a1.shape[0] != a1.shape[1]:
        raise DimensionMismatch("expected three square matrices of one shape")
    a = a2 + 1j * a3
    eye = np.eye(a1.shape[0], dtype=complex)
    s2 = np.sqrt(2.0)
    r1 = frob(a.conj().T @ a - eye - s2 * a1)
    r2 = frob(a @ a.conj().T - eye + s2 * a1)
    r3 = frob(a @ a)
    return r1, r2, r3


def dilation_certificate(
    w: np.ndarray, n: int, k: int, tol: Tolerance = DEFAULT_TOL
) -> tuple[KrausChannel, FactorizationCertificate]:
    """Channel and M_k certificate read off a unitary dilation on C^n (x) C^k.

    Expanding w = sum_ab K_ab (x) sqrt(k) E_ab over the tau_k-orthonormal
    matrix units gives Kraus operators K_ab and certificate elements
    sqrt(k) E_ab directly; both lists keep the indices that
    :func:`channel_from_dilation` keeps.
    """
    keep, ops = _dilation_blocks(w, n, k, tol)
    units = np.zeros((keep.size, k * k), dtype=complex)
    units[np.arange(keep.size), keep] = np.sqrt(k)
    return KrausChannel(ops), FactorizationCertificate(
        FactorAlgebra(((k, 1.0),)), units.reshape(-1, 1, k, k)
    )
