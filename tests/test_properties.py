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
    GramVectors,
    KrausChannel,
    LmiPoint,
    LmiSystem,
    NotPSD,
    RankTooHigh,
    correlation_from_gram,
    apply_channel,
    choi_from_kraus,
    dilation_certificate,
    extract_blocks,
    frob,
    gram_from_correlation,
    hm_derived_point,
    hm_example,
    is_extreme_channel,
    kraus_from_choi,
    lmi_eval,
    lmi_membership,
    partial_trace,
    point_from_blocks,
    schur_channel,
    schur_channel_from_gram,
    schur_complement_adjoint_apply,
    schur_complement_apply,
    selfadjoint_kernel_basis,
    stinespring_dilation,
)
from helpers import haar_unitary, kron, random_hermitian, random_tp_channel, rank_tol  # noqa: E402

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
    assert is_extreme_channel(channel) == (d == 0)
    event(f"d = {d}")


def test_hm_li_tam_defect_is_three():
    hm = hm_example()
    channel = schur_channel_from_gram(hm.w)
    assert li_tam_dimensions(hm.w, channel) == (3, 3, 3)
    assert not is_extreme_channel(channel)


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


def near_identity_unitary(rng, p):
    """exp(iH) for a random Hermitian H of spectral norm 1e-14."""
    w, q = np.linalg.eigh(random_hermitian(rng, p))
    return (q * np.exp(1e-14j * w / np.abs(w).max())) @ q.conj().T


def largest_move(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(0, 2**32 - 1))
def test_rounding_level_changes_move_printed_bases_by_rounding(n, seed):
    # a Haar dilation channel on M_n with k = n: p = 9 or 16; the kernel and
    # the k = 4 pencil eigenvalue k^2 are degenerate, so only a canonical
    # basis keeps these moves at rounding level
    rng = np.random.default_rng(seed)
    channel, cert = dilation_certificate(haar_unitary(rng, n * n), n, n)
    mixed = KrausChannel(np.tensordot(near_identity_unitary(rng, n * n), channel.operators, 1))
    kernel = selfadjoint_kernel_basis(channel)
    assert largest_move(kernel, selfadjoint_kernel_basis(mixed)) < 1e-10
    assert largest_move(stinespring_dilation(channel)[0], stinespring_dilation(mixed)[0]) < 1e-10
    if n == 4:
        system = LmiSystem(n * n, kernel)
        point = point_from_blocks(system, [element[0] for element in cert.elements])
        noise = np.array([random_hermitian(rng, n) for _ in range(system.d)])
        nudged = LmiPoint(n, point.a + 1e-15 * noise / np.abs(noise).max())
        assert largest_move(extract_blocks(system, point), extract_blocks(system, nudged)) < 1e-10


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
