import numpy as np
import pytest

from chanfact import (
    DimensionMismatch,
    NotHermitian,
    NotIsometry,
    NotPSD,
    Tolerance,
    complete_isometry,
    eigh,
    frob,
    kernel_basis,
    kron,
    partial_trace,
    psd_factor,
    rank_tol,
    unvec,
    vec,
)
from chanfact.linalg import spectral_rank
from helpers import (
    complex_gaussian,
    random_hermitian,
    random_isometry,
    random_psd,
    reference_eigh,
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


def test_kernel_basis_spans_null_space():
    rng = np.random.default_rng(6)
    a = complex_gaussian(rng, (3, 5))
    basis = kernel_basis(a)
    assert len(basis) == 2
    for v in basis:
        assert np.linalg.norm(a @ v) < 1e-12
    gram = np.array([[np.vdot(u, v) for v in basis] for u in basis])
    assert frob(gram - np.eye(2)) < 1e-12


def test_kernel_basis_of_zero_matrix_is_full():
    basis = kernel_basis(np.zeros((2, 3)))
    assert len(basis) == 3


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
