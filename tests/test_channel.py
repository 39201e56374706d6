import numpy as np
import pytest

from chanfact import (
    ChoiMatrix,
    DimensionMismatch,
    KrausChannel,
    NotPSD,
    NotTracePreserving,
    NotUnitary,
    Tolerance,
    apply_adjoint,
    apply_channel,
    channel_checks,
    channel_from_dilation,
    choi_from_kraus,
    convex_combine_channels,
    frob,
    kraus_from_choi,
    stinespring_dilation,
)
from helpers import (
    amplitude_damping,
    complex_gaussian,
    haar_unitary,
    kron,
    partial_trace,
    random_cp_channel,
    random_hermitian,
    random_tp_channel,
)


def dephasing():
    return KrausChannel((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))


def test_kraus_channel_validation():
    with pytest.raises(DimensionMismatch):
        KrausChannel(())
    with pytest.raises(DimensionMismatch):
        KrausChannel((np.eye(2), np.eye(3)))
    with pytest.raises(DimensionMismatch):
        ChoiMatrix(2, 2, np.eye(3))


def test_choi_of_dephasing_is_frozen():
    c = choi_from_kraus(dephasing())
    assert np.array_equal(c.matrix, np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex))


def test_choi_of_identity_channel():
    c = choi_from_kraus(KrausChannel((np.eye(2),)))
    expected = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            expected[i, j] = 1.0
    assert np.array_equal(c.matrix, expected)


def test_choi_is_psd_and_partial_trace_tp():
    rng = np.random.default_rng(10)
    k = random_tp_channel(rng, 3, 2)
    c = choi_from_kraus(k)
    w = np.linalg.eigvalsh(c.matrix)
    assert w[0] > -1e-12
    # trace preservation shows up as (id (x) Tr) C = I_n
    assert frob(partial_trace(c.matrix, (3, 3), "right") - np.eye(3)) < 1e-10


def test_apply_matches_choi_contraction():
    rng = np.random.default_rng(11)
    k = random_cp_channel(rng, 3, 2, 4)
    c = choi_from_kraus(k)
    x = complex_gaussian(rng, (3, 3))
    via_choi = partial_trace(c.matrix @ kron(x.T, np.eye(2)), (3, 2), "left")
    assert frob(apply_channel(k, x) - via_choi) < 1e-10


def test_kraus_choi_roundtrip():
    rng = np.random.default_rng(12)
    for n, m in [(2, 2), (3, 2), (2, 4)]:
        k = random_cp_channel(rng, n, m, 3)
        c = choi_from_kraus(k)
        k2 = kraus_from_choi(c)
        assert frob(choi_from_kraus(k2).matrix - c.matrix) < 1e-9 * max(1.0, frob(c.matrix))


def test_kraus_from_choi_is_minimal():
    k = KrausChannel((np.eye(2) / 2.0, np.eye(2) / 2.0, np.eye(2) * np.sqrt(0.5)))
    k2 = kraus_from_choi(choi_from_kraus(k))
    assert k2.num_kraus == 1
    assert frob(choi_from_kraus(k2).matrix - choi_from_kraus(k).matrix) < 1e-12


@pytest.mark.parametrize("g, tol", [(1.5e-9, Tolerance()), (0.15, Tolerance(rel_rank_tol=0.1))])
def test_kraus_from_choi_rank_is_the_eigenvalue_count(g, tol):
    # Choi eigenvalues 2 - g and g: g is at or below rel_rank_tol * (2 - g), so
    # one Kraus operator is kept and the Choi matrix loses that eigenvalue
    c = choi_from_kraus(amplitude_damping(g))
    k = kraus_from_choi(c, tol)
    assert k.num_kraus == 1
    assert frob(choi_from_kraus(k).matrix - c.matrix) == pytest.approx(g, rel=1e-6)


def test_kraus_from_choi_rejects_indefinite():
    with pytest.raises(NotPSD):
        kraus_from_choi(ChoiMatrix(1, 2, np.diag([1.0, -1.0])))


def test_kraus_from_choi_zero_map():
    k = kraus_from_choi(ChoiMatrix(2, 2, np.zeros((4, 4))))
    assert k.num_kraus == 1
    assert frob(k.operators[0]) == 0


def test_adjoint_duality():
    rng = np.random.default_rng(13)
    k = random_cp_channel(rng, 3, 2, 2)
    x = complex_gaussian(rng, (3, 3))
    y = complex_gaussian(rng, (2, 2))
    lhs = np.vdot(y, apply_channel(k, x))
    rhs = np.vdot(apply_adjoint(k, y), x)
    assert abs(lhs - rhs) < 1e-10


def test_channel_checks_flags():
    rng = np.random.default_rng(14)
    checks = channel_checks(dephasing())
    assert checks.trace_preserving and checks.unital and checks.completely_positive
    # amplitude damping preserves trace but is not unital
    checks = channel_checks(amplitude_damping(0.3))
    assert checks.trace_preserving and not checks.unital
    assert not channel_checks(random_cp_channel(rng, 2, 2, 2)).trace_preserving


def test_stinespring_dilation_reconstructs_channel():
    rng = np.random.default_rng(15)
    for n, p in [(2, 2), (3, 4), (3, 1)]:
        k = random_tp_channel(rng, n, p)
        u, pp = stinespring_dilation(k)
        assert pp == p
        assert frob(u.conj().T @ u - np.eye(n * p)) < 1e-9
        e11 = np.zeros((p, p), dtype=complex)
        e11[0, 0] = 1.0
        x = random_hermitian(rng, n)
        lifted = u @ kron(x, e11) @ u.conj().T
        assert frob(partial_trace(lifted, (n, p), "right") - apply_channel(k, x)) < 1e-9


def test_stinespring_dilation_rectangular_output():
    rng = np.random.default_rng(16)
    n, m, p = 2, 3, 2
    k = random_tp_channel(rng, n, p, m=m)
    u, _ = stinespring_dilation(k)
    x = random_hermitian(rng, n)
    embedded = np.zeros((m, m), dtype=complex)
    embedded[:n, :n] = x
    e11 = np.zeros((p, p), dtype=complex)
    e11[0, 0] = 1.0
    lifted = u @ kron(embedded, e11) @ u.conj().T
    assert frob(partial_trace(lifted, (m, p), "right") - apply_channel(k, x)) < 1e-9


def test_stinespring_requires_trace_preserving():
    with pytest.raises(NotTracePreserving):
        stinespring_dilation(KrausChannel((np.eye(2) * 0.5,)))


def test_stinespring_needs_the_input_to_embed_in_the_output():
    # the trace map M_3 -> M_1 is trace preserving, but M_3 has no place in M_1
    trace_map = KrausChannel(np.eye(3).reshape(3, 1, 3))
    assert channel_checks(trace_map).trace_preserving
    with pytest.raises(DimensionMismatch):
        stinespring_dilation(trace_map)


def test_channel_from_dilation_matches_twirl():
    rng = np.random.default_rng(17)
    for n, kk in [(2, 2), (3, 2), (2, 3)]:
        w = haar_unitary(rng, n * kk)
        ch = channel_from_dilation(w, n, kk)
        assert channel_checks(ch).trace_preserving
        x = random_hermitian(rng, n)
        expected = partial_trace(w @ kron(x, np.eye(kk)) @ w.conj().T, (n, kk), "right") / kk
        assert frob(apply_channel(ch, x) - expected) < 1e-9


def test_channel_from_dilation_drops_zero_blocks():
    # a system-local unitary u (x) I twirls to conjugation by u alone
    rng = np.random.default_rng(18)
    u = haar_unitary(rng, 3)
    ch = channel_from_dilation(kron(u, np.eye(2)), 3, 2)
    assert ch.num_kraus == 2
    x = random_hermitian(rng, 3)
    assert frob(apply_channel(ch, x) - u @ x @ u.conj().T) < 1e-9


def test_channel_from_dilation_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        channel_from_dilation(np.ones((4, 4)), 2, 2)
    with pytest.raises(DimensionMismatch):
        channel_from_dilation(np.eye(4), 2, 3)


def test_convex_combine_channels():
    rng = np.random.default_rng(19)
    k1 = random_tp_channel(rng, 2, 2)
    k2 = random_tp_channel(rng, 2, 3)
    t = 0.3
    mix = convex_combine_channels(k1, k2, t)
    x = random_hermitian(rng, 2)
    expected = t * apply_channel(k1, x) + (1 - t) * apply_channel(k2, x)
    assert frob(apply_channel(mix, x) - expected) < 1e-10
    for bad in (0.0, 1.0, -0.2, 1.2):
        with pytest.raises(ValueError):
            convex_combine_channels(k1, k2, bad)
