import numpy as np
import pytest

from chanfact import (
    DimensionMismatch,
    NotHermitian,
    NotIsometry,
    NoConvergence,
    NotPSD,
    Tolerance,
    complete_isometry,
    eigh,
    frob,
    partial_trace,
    psd_factor,
)
from chanfact.linalg import _echelon_factor, spectral_rank
from helpers import (
    complex_gaussian,
    kron,
    random_hermitian,
    random_isometry,
    random_psd,
    random_tp_channel,
    rank_tol,
    reference_complete_isometry,
    reference_eigh,
    unvec,
    vec,
)


def test_tolerance_rejects_bad_values():
    with pytest.raises(ValueError):
        Tolerance(abs_tol=-1.0)
    with pytest.raises(ValueError):
        Tolerance(rel_rank_tol=float("nan"))


def test_frob_is_root_sum_of_squares():
    rng = np.random.default_rng(1)
    a = complex_gaussian(rng, (3, 4))
    assert frob(a) == pytest.approx(np.sqrt((np.abs(a) ** 2).sum()))


def test_eigh_descends_and_reconstructs():
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 5)
    w, q = eigh(h)
    assert np.all(np.diff(w) <= 1e-12)
    assert frob(q.conj().T @ q - np.eye(5)) < 1e-12
    assert frob(q @ np.diag(w) @ q.conj().T - h) < 1e-10


def test_eigh_output_is_deterministic():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 4)
    w1, q1 = eigh(h)
    w2, q2 = eigh(h.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(q1, q2)
    for j in range(4):
        col = q1[:, j]
        lead = col[np.flatnonzero(np.abs(col) > 1e-9)[0]]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_eigh_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_factor_identity_is_identity():
    b = psd_factor(np.eye(3))
    assert np.array_equal(b, np.eye(3))


def test_psd_factor_rank_and_reconstruction():
    rng = np.random.default_rng(4)
    p = random_psd(rng, 6, rank=2)
    b = psd_factor(p)
    assert b.shape == (2, 6)
    assert frob(b.conj().T @ b - p) < 1e-10


def test_psd_factor_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_factor(np.diag([1.0, -1.0]))


def test_rank_tol_counts_singular_values():
    rng = np.random.default_rng(5)
    a = complex_gaussian(rng, (5, 3))
    m = a @ a.conj().T
    assert rank_tol(m) == 3
    assert rank_tol(np.zeros((4, 4))) == 0


def test_spectral_rank_of_eigenvalues_equals_rank_tol():
    rng = np.random.default_rng(6)
    for n in (1, 4, 9, 16):
        for r in range(n + 1):
            b = complex_gaussian(rng, (n, r))
            signs = rng.choice([-1.0, 1.0], r)
            for h in (b @ b.conj().T, (b * signs) @ b.conj().T, 1e-3 * (b * signs) @ b.conj().T):
                w = np.linalg.eigvalsh(h)
                assert spectral_rank(w) == rank_tol(h) == r
    assert spectral_rank(np.zeros(3)) == 0
    assert spectral_rank(np.array([])) == 0


def test_partial_trace_of_kron():
    rng = np.random.default_rng(7)
    a = complex_gaussian(rng, (2, 2))
    b = complex_gaussian(rng, (3, 3))
    m = kron(a, b)
    assert frob(partial_trace(m, (2, 3), "left") - np.trace(a) * b) < 1e-12
    assert frob(partial_trace(m, (2, 3), "right") - np.trace(b) * a) < 1e-12
    with pytest.raises(ValueError):
        partial_trace(m, (2, 3), "middle")


def test_partial_trace_identity():
    assert frob(partial_trace(np.eye(6), (2, 3), "right") - 3 * np.eye(2)) == 0


def test_vec_is_column_major():
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(vec(e12), np.array([0, 0, 1, 0], dtype=complex))


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(8)
    k = complex_gaussian(rng, (3, 2))
    assert np.array_equal(unvec(vec(k), 3, 2), k)
    with pytest.raises(DimensionMismatch):
        unvec(vec(k), 4, 2)


def test_complete_isometry_frozen_column():
    v = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    u = complete_isometry(v)
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    assert frob(u - expected) < 1e-12


def test_complete_isometry_random():
    rng = np.random.default_rng(9)
    v = random_isometry(rng, 6, 2)
    u = complete_isometry(v)
    assert np.array_equal(u[:, :2], v)
    assert frob(u.conj().T @ u - np.eye(6)) < 1e-12


def test_complete_isometry_rejects_bad_input():
    with pytest.raises(NotIsometry):
        complete_isometry(np.ones((2, 2)))
    with pytest.raises(NotIsometry):
        complete_isometry(np.ones((2, 3)))


def test_eigh_is_bitwise_equal_to_phase_loop_reference():
    rng = np.random.default_rng(71)
    mats = [random_hermitian(rng, n) for n in (1, 2, 3, 6, 9, 16) for _ in range(20)]
    mats += [random_psd(rng, 8, rank=3), np.eye(4), np.zeros((3, 3)), np.diag([0.0, 2.0, -1.0])]
    # eigenvectors whose leading entries are zero or tiny
    u = np.eye(5, dtype=complex)[:, ::-1] * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
    u[0, 1] = 1e-12
    mats.append(u @ np.diag([5.0, 4.0, 3.0, 2.0, 1.0]) @ u.conj().T)
    for tol in (Tolerance(), Tolerance(rel_rank_tol=0.6), Tolerance(rel_rank_tol=1.0)):
        for h in mats:
            w, q = eigh(h, tol)
            w_ref, q_ref = reference_eigh(h, tol)
            assert np.array_equal(w, w_ref)
            assert q.dtype == q_ref.dtype and q.tobytes() == q_ref.tobytes()


def assert_echelon(r):
    """Row t is zero before its pivot column, real and positive there, and the
    pivot columns increase."""
    pivots = [int(np.flatnonzero(row)[0]) for row in r]
    assert pivots == sorted(set(pivots))
    for row, c in zip(r, pivots):
        assert row[c].imag == 0.0 and row[c].real > 0.0
    return pivots


def test_echelon_factor_reproduces_psd_matrix():
    rng = np.random.default_rng(72)
    for n, rows in ((1, 1), (4, 2), (6, 6), (9, 3), (40, 7), (150, 100)):
        b = complex_gaussian(rng, (rows, n))
        b[:, 1 : min(3, n)] = 0.0  # zero columns must be skipped
        g = b.conj().T @ b
        rank = rank_tol(g)
        r = _echelon_factor(g, rank, Tolerance())
        assert r.shape == (rank, n)
        assert_echelon(r)
        assert frob(r.conj().T @ r - g) <= 1e-11 * frob(g)


def test_echelon_factor_of_projector_is_orthonormal():
    rng = np.random.default_rng(73)
    for n, rank in ((5, 2), (64, 30), (200, 131)):
        q = random_isometry(rng, n, rank)
        q[:3] *= 1e-4  # small leading pivots cost the Cholesky its orthonormality
        q, _ = np.linalg.qr(q)
        r = _echelon_factor(q @ q.conj().T, rank, Tolerance(), orthonormal=True)
        assert_echelon(r)
        assert np.abs(r @ r.conj().T - np.eye(rank)).max() <= 1e-13
        assert frob(r.conj().T @ r - q @ q.conj().T) <= 1e-12


def test_echelon_factor_row_count_is_the_decided_rank():
    rng = np.random.default_rng(74)
    b = complex_gaussian(rng, (3, 8))
    g = b.conj().T @ b
    for wrong in (2, 4):
        with pytest.raises(NoConvergence):
            _echelon_factor(g, wrong, Tolerance())
    assert _echelon_factor(g, 0, Tolerance()).shape == (0, 8)


def test_complete_isometry_matches_gram_schmidt_loop():
    rng = np.random.default_rng(75)
    cases = [random_isometry(rng, n, c) for n, c in ((2, 1), (6, 2), (30, 5), (144, 12))]
    for n, p in ((3, 4), (4, 4), (6, 6), (16, 16)):
        k = random_tp_channel(rng, n, p)
        cases.append(k.operators.transpose(1, 0, 2).reshape(n * p, n))
    e = np.zeros((9, 3), dtype=complex)
    e[[0, 4, 8], [0, 1, 2]] = 1.0  # columns of the identity: exact zero pivots
    cases.append(e)
    for v in cases:
        u = complete_isometry(v)
        assert np.abs(u - reference_complete_isometry(v)).max() <= 1e-12
        assert np.abs(u.conj().T @ u - np.eye(len(v))).max() <= 1e-12


def test_complete_isometry_at_large_abs_tol():
    # abs_tol bounds only the isometry test, not the completion's skip cut
    k = random_tp_channel(np.random.default_rng(1), 3, 4)
    v = k.operators.transpose(1, 0, 2).reshape(12, 3)
    u = complete_isometry(v, Tolerance(abs_tol=0.7))
    assert np.array_equal(u[:, :3], v)
    assert np.abs(u.conj().T @ u - np.eye(12)).max() <= 1e-12
