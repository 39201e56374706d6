"""Factorization certificates over finite direct sums of matrix algebras.

A certificate for a channel with Kraus operators {K_i}_{i=1..p} over the
algebra N = (+)_k (M_{i_k}, q_k) holds one block V_i^(k) per Kraus index and
factor. It is valid when the V_i are orthonormal in the normalized tracial
state tau((+)_k A_k) = sum_k q_k Tr(A_k)/i_k and U = sum_i K_i (x) V_i is
unitary factor by factor; equivalently, sum_ij x_ij V_j* V_i = Tr(X) I for
every X in the range of the complementary channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import (
    KrausChannel,
    _dilation_blocks,
    convex_combine_channels,
)
from .complement import _kraus_products
from .errors import CertificateInvalid, DimensionMismatch, TraceNotZero
from .linalg import DEFAULT_TOL, Tolerance, _factor_from_eigh, eigh, frob
from .lmi import LmiPoint, LmiSystem, extract_blocks, lmi_membership

WEIGHT_SUM_TOL = 1e-12


@dataclass
class FactorAlgebra:
    """A direct sum (+)_k M_{i_k} with tracial weights q_k summing to 1."""

    factors: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        factors = tuple((int(d), float(q)) for d, q in self.factors)
        if not factors:
            raise DimensionMismatch("algebra needs at least one factor")
        for d, q in factors:
            if d < 1:
                raise DimensionMismatch(f"factor dimension must be positive, got {d}")
            if not np.isfinite(q) or q <= 0.0:
                raise ValueError(f"factor weight must be positive and finite, got {q!r}")
        total = sum(q for _, q in factors)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"factor weights sum to {total!r}, expected 1")
        self.factors = factors

    @property
    def num_factors(self) -> int:
        return len(self.factors)


@dataclass
class FactorizationCertificate:
    """Per-Kraus-index block elements of a factor algebra."""

    algebra: FactorAlgebra
    elements: tuple[tuple[np.ndarray, ...], ...] = field(repr=False)

    def __post_init__(self) -> None:
        rows = []
        for element in self.elements:
            blocks = tuple(np.asarray(blk, dtype=complex) for blk in element)
            if len(blocks) != self.algebra.num_factors:
                raise DimensionMismatch("each element needs one block per factor")
            for (d, _), blk in zip(self.algebra.factors, blocks):
                if blk.shape != (d, d):
                    raise DimensionMismatch(
                        f"block of shape {blk.shape} does not fit factor M_{d}"
                    )
            rows.append(blocks)
        if not rows:
            raise DimensionMismatch("certificate needs at least one element")
        self.elements = tuple(rows)

    @property
    def num_elements(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class CertificateReport:
    orthonormality_residual: float
    complement_residual: float
    unitarity_residual: float
    passed: bool


def _block_stacks(cert: FactorizationCertificate) -> list[np.ndarray]:
    """Per factor f, the blocks V_i^(f) stacked into a p x d_f x d_f array."""
    return [
        np.stack([element[f] for element in cert.elements])
        for f in range(cert.algebra.num_factors)
    ]


def _gram_tensor(v: np.ndarray) -> np.ndarray:
    """Block Gram tensor W[i, j] = V_i* V_j of stacked blocks, p x p x d x d."""
    return np.einsum("ixa,jxb->ijab", v.conj(), v)


def verify_certificate(
    k: KrausChannel, cert: FactorizationCertificate, tol: Tolerance = DEFAULT_TOL
) -> CertificateReport:
    """Check orthonormality, the complement-range identity, and unitarity.

    With A[i, j] = K_i* K_j and the block Gram tensors W_f[i, j] = V_i* V_j,
    the complement applied to E_ab has (i, j) entry A[j, i]_ba, so the
    complement residual of block (a, b) in factor f is
    sum_ij A[j, i]_ba W_f[j, i] - (sum_i A[i, i]_ba) I, and the inner
    products tau(V_i* V_j) are the weighted traces of W_f[i, j]. The complement
    residual is the largest Frobenius norm over (a, b, f); the unitarity
    residual is the Frobenius norm of U_f* U_f - I over all factors together.
    The three residuals are reported unconditionally; ``passed`` is true when
    all of them are at most ``abs_tol``.
    """
    return _verify(k, cert, tol)[0]


def _verify(k: KrausChannel, cert: FactorizationCertificate, tol: Tolerance) -> tuple:
    """The report, and per factor the p x p traces Tr(V_i* V_j) of the same Gram tensor."""
    n = k.dim_in
    if k.dim_out != n:
        raise DimensionMismatch("factorization certificates require square channels")
    p = k.num_kraus
    if cert.num_elements != p:
        raise DimensionMismatch(
            f"certificate has {cert.num_elements} elements for {p} Kraus operators"
        )
    kraus_gram = _kraus_products(k)
    defect = np.einsum("iibc->bc", kraus_gram)
    kraus_gram = kraus_gram.reshape(p * p, n * n)

    inner = np.zeros((p, p), dtype=complex)
    traces = []
    compl = 0.0
    unit_sq = 0.0
    for (d, q), v in zip(cert.algebra.factors, _block_stacks(cert)):
        w = _gram_tensor(v)
        traces.append(np.trace(w, axis1=2, axis2=3))
        inner += (q / d) * traces[-1]
        r = (kraus_gram.T @ w.reshape(p * p, d * d)).reshape(n, n, d, d)
        r -= defect[:, :, None, None] * np.eye(d)
        compl = max(compl, float(np.linalg.norm(r.reshape(n * n, d * d), axis=1).max()))
        u = np.einsum("iab,ixy->axby", k.operators, v).reshape(n * d, n * d)
        unit_sq += frob(u.conj().T @ u - np.eye(n * d)) ** 2
    orth = float(np.abs(inner - np.eye(p)).max())
    unit = float(np.sqrt(unit_sq))

    passed = max(orth, compl, unit) <= tol.abs_tol
    return CertificateReport(orth, compl, unit, bool(passed)), traces


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
    if trace_norm > tol.abs_tol:
        raise TraceNotZero(f"coefficient traces reach {trace_norm:.3e}")
    algebra = FactorAlgebra(((point.k, 1.0),))
    return FactorizationCertificate(algebra, tuple((blk,) for blk in blocks))


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
    algebra = FactorAlgebra(factors)
    zeros1 = tuple(np.zeros((d, d), dtype=complex) for d, _ in cert1.algebra.factors)
    zeros2 = tuple(np.zeros((d, d), dtype=complex) for d, _ in cert2.algebra.factors)
    s1 = 1.0 / np.sqrt(t)
    s2 = 1.0 / np.sqrt(1.0 - t)
    elements = [
        tuple(s1 * blk for blk in element) + zeros2 for element in cert1.elements
    ] + [
        zeros1 + tuple(s2 * blk for blk in element) for element in cert2.elements
    ]
    return channel, FactorizationCertificate(algebra, tuple(elements))


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

    For factor k the p x p Gram matrix Q_k* Q_k = (id (x) tau)(sum E_ij (x)
    V_i* V_j) is factored; the component channel has Kraus operators
    sum_j (Q_k)_mj K_j and a single-factor certificate with elements
    transferred through the pseudoinverse of Q_k. The weighted Gram matrices
    sum to I_p and the weighted Choi matrices sum to the input's.
    """
    report, traces = _verify(k, cert, tol)
    if not report.passed:
        raise CertificateInvalid("cannot decompose along a failing certificate")
    components = []
    for f, ((d, q), blocks) in enumerate(zip(cert.algebra.factors, _block_stacks(cert))):
        gram = traces[f] / d
        # a Gram matrix, so PSD; Q_k = sqrt(lambda) q* has pseudoinverse q / sqrt(lambda)
        w, vecs = eigh(gram, tol)
        qmat = _factor_from_eigh(w, vecs, tol)
        r = qmat.shape[0]
        if r == 0:
            raise CertificateInvalid(f"factor {f} carries no weight in the certificate")
        elements = tuple((e,) for e in np.tensordot(vecs[:, :r] / np.sqrt(w[:r]), blocks, (0, 0)))
        sub_cert = FactorizationCertificate(FactorAlgebra(((d, 1.0),)), elements)
        channel = KrausChannel(np.tensordot(qmat, k.operators, 1))
        components.append(FactorComponent(q, channel, sub_cert, gram))
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
    at most abs_tol. This is evidence over the supplied candidates only, not
    a decision procedure for extremality.
    """
    del k  # the channel fixes the system; kept for signature symmetry
    reports = []
    for point in candidates:
        mem = lmi_membership(s, point, tol)
        trace_norm = max((abs(t) for t in mem.traces), default=0.0)
        consistent = (not mem.psd) or (mem.rank > point.k) or (trace_norm <= tol.abs_tol)
        reports.append(
            CandidateReport(mem.psd, mem.rank, float(trace_norm), bool(consistent))
        )
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
    elements = tuple((unit,) for unit in units.reshape(-1, k, k))
    return KrausChannel(ops), FactorizationCertificate(FactorAlgebra(((k, 1.0),)), elements)
