"""Hypothesis properties over random inputs."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chanfact import (  # noqa: E402
    FactorAlgebra,
    FactorizationCertificate,
    GramVectors,
    KrausChannel,
    LmiPoint,
    LmiSystem,
    NotPSD,
    RankTooHigh,
    correlation_from_gram,
    apply_channel,
    channel_from_dilation,
    choi_from_kraus,
    combine_certificates,
    decompose_by_factors,
    dilation_certificate,
    extract_blocks,
    frob,
    gram_from_correlation,
    hm_derived_point,
    hm_example,
    kraus_from_choi,
    lmi_eval,
    lmi_membership,
    point_from_blocks,
    schur_channel,
    schur_channel_from_gram,
    schur_complement_adjoint_apply,
    schur_complement_apply,
    selfadjoint_kernel_basis,
    stinespring_dilation,
    validate_correlation,
    verify_certificate,
)
from chanfact.factorization import _verify  # noqa: E402
from chanfact.linalg import DEFAULT_TOL  # noqa: E402
from helpers import (  # noqa: E402
    complex_gaussian,
    haar_unitary,
    kron,
    partial_trace,
    random_hermitian,
    random_tp_channel,
    rank_tol,
    reference_factor_gram,
    reference_residuals,
    smallest_kept_pivot,
)

HM_SYSTEM = LmiSystem(3, hm_example().z)
HM_POINT = np.asarray(hm_derived_point())
SCALAR_SYSTEM = LmiSystem(2, (np.diag([1.0, -1.0]).astype(complex),))

entries = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def hermitian(draw, k):
    re = np.array(draw(st.lists(entries, min_size=k * k, max_size=k * k))).reshape(k, k)
    im = np.array(draw(st.lists(entries, min_size=k * k, max_size=k * k))).reshape(k, k)
    g = re + 1j * im
    return (g + g.conj().T) / 2.0


@st.composite
def system_and_point(draw):
    """Arbitrary Hermitian points, plus scaled unitary conjugates of the HM
    solution and scalar points, whose pencils reach rank at most k."""
    kind = draw(st.sampled_from(["generic", "hm", "scalar"]))
    if kind == "scalar":
        a = draw(st.sampled_from([-1.0, 1.0]) | entries)  # +-1: the pencil has rank 1
        return SCALAR_SYSTEM, LmiPoint(1, (np.array([[a]]),))
    k = draw(st.integers(1, 3))
    if kind == "generic":
        return HM_SYSTEM, LmiPoint(k, tuple(draw(hermitian(k)) for _ in range(3)))
    t = draw(st.just(1.0) | st.floats(0.0, 2.0))  # 1: rank 2, below it full rank, above not PSD
    u, _ = np.linalg.qr(draw(hermitian(2)) + 1j * np.eye(2))
    return HM_SYSTEM, LmiPoint(2, tuple(t * (u @ a @ u.conj().T) for a in HM_POINT))


@settings(max_examples=150, deadline=None)
@given(system_and_point())
def test_extract_blocks_decides_as_membership(case):
    system, point = case
    mem = lmi_membership(system, point)
    try:
        blocks = extract_blocks(system, point)
    except NotPSD:
        event("not PSD")
        assert not mem.psd
        return
    except RankTooHigh:
        event("rank too high")
        assert mem.psd and mem.rank > point.k
        return
    event("blocks")
    assert mem.psd and mem.rank <= point.k
    value = lmi_eval(system, point)
    p = system.p
    gram = np.block([[bi.conj().T @ bj for bj in blocks] for bi in blocks])
    assert gram.shape == value.shape == (p * point.k, p * point.k)
    assert frob(gram - value) <= 1e-9 * max(1.0, frob(value))


def li_tam_dimensions(w, channel):
    """Kernel dimension d of a Schur channel with unit Gram family w, and the
    two closed forms r^2 - dim span{w_l w_l*}, r being the Gram rank: from the
    outer products, and from the closed-form complement's images of E_ll.
    Also checks that the closed-form adjoint annihilates the kernel basis."""
    r = rank_tol(np.column_stack(w.vectors))
    outer = np.array([np.outer(v, v.conj()).ravel() for v in w.vectors])
    images = np.array([schur_complement_apply(w, np.diag(e)).ravel() for e in np.eye(w.n)])
    basis = selfadjoint_kernel_basis(channel)
    for z in basis:
        assert frob(schur_complement_adjoint_apply(w, z)) < 1e-9
    return len(basis), r * r - rank_tol(outer), r * r - rank_tol(images)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.tuples(st.just(r), st.integers(1, r * r + 2))),
       st.integers(0, 2**32 - 1))
def test_schur_kernel_dimension_is_li_tam_defect(shape, seed):
    # Li-Tam: C is an extreme correlation matrix iff the w_l w_l* are independent,
    # i.e. iff the Schur channel's complement adjoint has a trivial kernel
    r, n = shape
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    drawn = GramVectors(tuple(g / np.linalg.norm(g, axis=1, keepdims=True)))
    c = correlation_from_gram(drawn)
    assert c.rank == min(n, r)
    channel = schur_channel(c)
    d, via_outer, via_images = li_tam_dimensions(gram_from_correlation(c), channel)
    # the drawn family spans the same outer-product space up to an isometry
    outer = np.array([np.outer(v, v.conj()).ravel() for v in drawn.vectors])
    drawn_outer = c.rank**2 - rank_tol(outer)
    assert d == via_outer == via_images == drawn_outer
    assert len(selfadjoint_kernel_basis(channel)) == d
    event(f"d = {d}")


def test_hm_li_tam_defect_is_three():
    hm = hm_example()
    channel = schur_channel_from_gram(hm.w)
    assert li_tam_dimensions(hm.w, channel) == (3, 3, 3)
    assert len(selfadjoint_kernel_basis(channel)) == 3


@st.composite
def tp_channel(draw):
    """A random trace-preserving channel M_n -> M_m with p Kraus operators, n <= m,
    and the numpy rng that drew it, for further random inputs."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, m))
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_tp_channel(rng, n, p, m=m), rng


def close(a, b):
    return frob(a - b) <= 1e-9 * max(1.0, frob(b))


@settings(max_examples=60, deadline=None)
@given(tp_channel())
def test_choi_kraus_round_trip(case):
    channel, rng = case
    choi = choi_from_kraus(channel)
    recovered = kraus_from_choi(choi)
    assert recovered.num_kraus == rank_tol(choi.matrix)
    assert close(choi_from_kraus(recovered).matrix, choi.matrix)
    x = random_hermitian(rng, channel.dim_in)
    assert close(apply_channel(recovered, x), apply_channel(channel, x))


@settings(max_examples=60, deadline=None)
@given(tp_channel())
def test_stinespring_round_trip(case):
    # (id (x) Tr)(u (X (x) E_11) u*) = Phi(X), X in the top-left corner of M_m
    channel, rng = case
    n, m = channel.dim_in, channel.dim_out
    u, p = stinespring_dilation(channel)
    assert p == channel.num_kraus
    assert close(u.conj().T @ u, np.eye(m * p))
    x = np.zeros((m, m), dtype=complex)
    x[:n, :n] = random_hermitian(rng, n)
    e11 = np.zeros((p, p))
    e11[0, 0] = 1.0
    lifted = u @ kron(x, e11) @ u.conj().T
    assert close(partial_trace(lifted, (m, p), "right"), apply_channel(channel, x[:n, :n]))


@settings(max_examples=60, deadline=None)
@given(tp_channel())
def test_unitary_mixing_keeps_choi_and_kernel_dimension(case):
    # L_i = sum_j u_ij K_j is another Kraus family of the same channel
    channel, rng = case
    mixed = KrausChannel(np.tensordot(haar_unitary(rng, channel.num_kraus), channel.operators, 1))
    assert mixed.num_kraus == channel.num_kraus
    assert close(choi_from_kraus(mixed).matrix, choi_from_kraus(channel).matrix)
    d = len(selfadjoint_kernel_basis(channel))
    assert len(selfadjoint_kernel_basis(mixed)) == d
    event(f"d = {d}")


def kernel_projector(basis):
    """sum_t vec(Z_t) vec(Z_t)*: the same for every HS-orthonormal basis of one span."""
    flat = basis.reshape(len(basis), basis.shape[1] * basis.shape[2])
    return flat.T @ flat.conj()


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_kraus_mixing_acts_covariantly_on_the_kernel(n, k, seed):
    # for L_i = sum_j u_ij K_j, sum_ij y_ij L_i* L_j = sum_ab (U* Y U)_ab K_a* K_b,
    # so the kernel of the mixed family is U ker U*, for any unitary U
    rng = np.random.default_rng(seed)
    channel = channel_from_dilation(haar_unitary(rng, n * k), n, k)
    u = haar_unitary(rng, channel.num_kraus)
    mixed = KrausChannel(np.tensordot(u, channel.operators, 1))
    moved = u @ selfadjoint_kernel_basis(channel) @ u.conj().T
    got = kernel_projector(selfadjoint_kernel_basis(mixed))
    assert np.abs(got - kernel_projector(moved)).max() <= 1e-10


def near_identity_unitary(rng, p):
    """exp(iH) for a random Hermitian H of spectral norm 1e-14."""
    w, q = np.linalg.eigh(random_hermitian(rng, p))
    return (q * np.exp(1e-14j * w / np.abs(w).max())) @ q.conj().T


def mixed_dilation(rng, n, k):
    """A Haar dilation channel on M_n with its M_k certificate, and the same pair
    with the Kraus family mixed by a unitary within 1e-14 of I."""
    channel, cert = dilation_certificate(haar_unitary(rng, n * k), n, k)
    u = near_identity_unitary(rng, channel.num_kraus)
    blocks = np.array([element[0] for element in cert.elements])
    # sum_m L_m (x) W_m = sum_j K_j (x) V_j for L = u K and W = conj(u) V
    mixed_cert = FactorizationCertificate(
        cert.algebra, tuple((w,) for w in np.tensordot(u.conj(), blocks, 1))
    )
    return channel, cert, KrausChannel(np.tensordot(u, channel.operators, 1)), mixed_cert


def largest_move(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def weyl_mixture():
    """Equal-weight mixture of six Weyl unitaries X^a Z^b on C^3: its Choi
    matrix has one eigenvalue, 1/2, six times."""
    omega = np.exp(2j * np.pi / 3.0)
    x = np.roll(np.eye(3), 1, axis=0)
    z = np.diag(omega ** np.arange(3))
    pairs = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    ops = [np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b) for a, b in pairs]
    return KrausChannel(np.array(ops) / np.sqrt(6.0))


def decomposed(channel, cert):
    """Kraus operators and certificate blocks of each component, as arrays."""
    return [(c.channel.operators, np.array([e[0] for e in c.certificate.elements]))
            for c in decompose_by_factors(channel, cert)]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(0, 2**32 - 1))
def test_rounding_level_changes_move_printed_bases_by_rounding(n, seed):
    # a Haar dilation channel on M_n with k = n: p = 9 or 16; the kernel, the
    # k = 4 pencil eigenvalue k^2, the certificate's Gram matrix I, the Weyl
    # mixture's Choi matrix and the HM matrix are degenerate, so only a
    # canonical factor keeps these moves at rounding level
    rng = np.random.default_rng(seed)
    channel, cert, mixed, mixed_cert = mixed_dilation(rng, n, n)
    kernel = selfadjoint_kernel_basis(channel)
    # the echelon basis moves by rounding over its smallest kept pivot
    bound = 1e-10 / smallest_kept_pivot(kernel)
    assert largest_move(kernel, selfadjoint_kernel_basis(mixed)) < bound
    assert largest_move(stinespring_dilation(channel)[0], stinespring_dilation(mixed)[0]) < 1e-10
    for (ops, blocks), (mixed_ops, mixed_blocks) in zip(
        decomposed(channel, cert), decomposed(mixed, mixed_cert), strict=True
    ):
        assert largest_move(ops, mixed_ops) < 1e-10
        assert largest_move(blocks, mixed_blocks) < 1e-10
    weyl = weyl_mixture()
    mixed_weyl = KrausChannel(np.tensordot(near_identity_unitary(rng, 6), weyl.operators, 1))
    assert largest_move(kraus_from_choi(choi_from_kraus(weyl)).operators,
                        kraus_from_choi(choi_from_kraus(mixed_weyl)).operators) < 1e-10
    hm = hm_example().c.matrix
    noise = random_hermitian(rng, 6)
    hm_nudged = hm + 1e-15 * noise / np.abs(noise).max()
    assert largest_move(gram_from_correlation(validate_correlation(hm)).vectors,
                        gram_from_correlation(validate_correlation(hm_nudged)).vectors) < 1e-10
    if n == 4:
        system = LmiSystem(n * n, kernel)
        point = point_from_blocks(system, [element[0] for element in cert.elements])
        noise = np.array([random_hermitian(rng, n) for _ in range(system.d)])
        nudged = LmiPoint(n, point.a + 1e-15 * noise / np.abs(noise).max())
        assert largest_move(extract_blocks(system, point), extract_blocks(system, nudged)) < 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.floats(0.05, 0.95),
       st.integers(0, 2**32 - 1))
def test_decompose_of_combine_returns_the_inputs(n, k1, k2, t, seed):
    # the certificate Gram matrices are I/t (+) 0 and 0 (+) I/(1-t) up to
    # rounding, so the components are the inputs themselves, entry by entry
    rng = np.random.default_rng(seed)
    inputs = [mixed_dilation(rng, n, k)[2:] for k in (k1, k2)]
    channel, cert = combine_certificates(*inputs[0], *inputs[1], t)
    components = decompose_by_factors(channel, cert)
    assert [c.weight for c in components] == pytest.approx([t, 1 - t], abs=1e-15)
    total = sum(c.weight * c.gram for c in components)
    assert frob(total - np.eye(channel.num_kraus)) <= 1e-12
    for comp, (part, part_cert) in zip(components, inputs, strict=True):
        assert largest_move(comp.channel.operators, part.operators) <= 1e-10
        assert largest_move([e[0] for e in comp.certificate.elements],
                            [e[0] for e in part_cert.elements]) <= 1e-10


def dilation_sum(rng, n, algebra):
    """A TP channel on M_n with a valid certificate over (+)_f (M_{d_f}, q_f): the
    sum of Haar dilation pairs, Kraus operators scaled by sqrt(q_f) and blocks by
    1/sqrt(q_f), each block placed in its own factor."""
    dims = [d for d, _ in algebra.factors]
    ops, elements = [], []
    for f, (d, q) in enumerate(algebra.factors):
        channel, cert = dilation_certificate(haar_unitary(rng, n * d), n, d)
        ops.extend(np.sqrt(q) * channel.operators)
        for (v,) in cert.elements:
            blocks = [np.zeros((e, e), dtype=complex) for e in dims]
            blocks[f] = v / np.sqrt(q)
            elements.append(tuple(blocks))
    return KrausChannel(np.array(ops)), FactorizationCertificate(algebra, tuple(elements))


@st.composite
def channel_and_certificate(draw):
    """A channel on M_n with a certificate over 1-3 factors of dimensions 1-3.

    The elements are a valid dilation certificate, the same with one entry
    moved, or Gaussian blocks beside a TP channel with 1-6 Kraus operators;
    the Kraus family is scaled off trace preservation in a third of the draws.
    """
    n = draw(st.integers(2, 4))
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=len(dims),
                                     max_size=len(dims))))
    algebra = FactorAlgebra(tuple(zip(dims, weights / weights.sum())))
    kind = draw(st.sampled_from(["dilation", "moved", "gaussian"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        channel = random_tp_channel(rng, n, draw(st.integers(1, 6)))
        cert = FactorizationCertificate(algebra, tuple(
            tuple(complex_gaussian(rng, (d, d)) for d in dims) for _ in range(channel.num_kraus)
        ))
    else:
        channel, cert = dilation_sum(rng, n, algebra)
    if kind == "moved":
        elements = [list(element) for element in cert.elements]
        i, f = rng.integers(channel.num_kraus), rng.integers(len(dims))
        x, y = rng.integers(dims[f], size=2)
        elements[i][f] = elements[i][f].copy()
        elements[i][f][x, y] += draw(st.sampled_from([1e-6, 1e-3, 1.0])) * np.exp(2j * rng.random())
        cert = FactorizationCertificate(algebra, tuple(map(tuple, elements)))
    if draw(st.integers(0, 2)) == 0:
        channel = KrausChannel(draw(st.floats(0.5, 1.5)) * channel.operators)
    event(f"{kind}, {len(dims)} factor(s)")
    return channel, cert


@settings(max_examples=80, deadline=None)
@given(channel_and_certificate())
def test_verify_matches_the_loop_residuals(case):
    channel, cert = case
    report, _, traces = _verify(channel, cert, DEFAULT_TOL)
    got = (report.orthonormality_residual, report.complement_residual,
           report.unitarity_residual)
    for value, ref in zip(got, reference_residuals(channel, cert), strict=True):
        assert abs(value - ref) <= 1e-12 * max(1.0, ref)
    for f, (d, _) in enumerate(cert.algebra.factors):
        ref = d * reference_factor_gram(cert, f)
        assert np.abs(traces[f] - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


@settings(max_examples=80, deadline=None)
@given(channel_and_certificate())
def test_complement_and_unitarity_residuals_bound_each_other(case):
    # acceptance criterion 6: per factor, block (b, c) of U*U - I and the
    # complement residual block differ by (sum_i K_i* K_i - I)_bc I_d, of norm
    # at most s, which is rounding for a TP channel and bounds the scaled draws
    channel, cert = case
    n, factors = channel.dim_in, cert.algebra.factors
    report = verify_certificate(channel, cert)
    c, u = report.complement_residual, report.unitarity_residual
    column = channel.operators.reshape(-1, n)
    defect = np.abs(column.conj().T @ column - np.eye(n)).max()
    s = np.sqrt(max(d for d, _ in factors)) * defect
    rounding = 1e-12 * max(1.0, c, u, s)
    assert c <= u + s + rounding
    assert u <= n * np.sqrt(len(factors)) * (c + s) + rounding


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_that_fails(x):
    assert x < 0


def test_after_the_failure():
    pass
"""


def test_failing_property_reports_its_example(tmp_path):
    # under the repository's warning filters a failing property must print its
    # falsifying example and leave the later tests running
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), str(tmp_path / "test_failing.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "Falsifying example" in run.stdout, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
