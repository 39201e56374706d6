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
    frob,
    psd_factor,
)
from chanfact.linalg import _kron_sum, _root_echelon, spectral_rank
from helpers import (
    complex_gaussian,
    kron,
    partial_trace,
    random_isometry,
    random_psd,
    random_tp_channel,
    rank_tol,
    reference_complete_isometry,
    reference_echelon_factor,
    unvec,
    vec,
)


def test_tolerance_rejects_bad_values():
    with pytest.raises(ValueError):
        Tolerance(abs_tol=-1.0)
    with pytest.raises(ValueError):
        Tolerance(rel_rank_tol=float("nan"))


def test_close_rejects_an_infinite_bound():
    # a scale that overflowed to inf would otherwise make every gap close
    tol = Tolerance()
    assert tol.close(0.0, 1e300)
    assert not tol.close(0.0, float("inf"))
    assert not tol.close(1e300, float("inf"))


def test_frob_is_root_sum_of_squares():
    rng = np.random.default_rng(1)
    a = complex_gaussian(rng, (3, 4))
    assert frob(a) == pytest.approx(np.sqrt((np.abs(a) ** 2).sum()))


def test_psd_factor_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        psd_factor(np.array([[0.0, 1.0], [0.0, 0.0]]))


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


def test_psd_factor_rejects_indefinite_at_an_overflowing_scale():
    # the squares of 1e160 overflow; an infinite scale would tolerate any eigenvalue
    big = np.diag([1e160, -1e160])
    assert frob(big) == pytest.approx(np.sqrt(2.0) * 1e160)
    with pytest.raises(NotPSD):
        psd_factor(big)


def test_psd_factor_rejects_a_norm_beyond_the_float_range():
    # ||diag(1.5e308, -1.5e308)|| = 2.1e308 is not a float; at an infinite scale
    # the eigenvalue -1.5e308 would pass as PSD
    with pytest.raises(NotHermitian, match="at norm inf"):
        psd_factor(np.diag([1.5e308, -1.5e308]))


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


def test_spectral_rank_of_a_non_finite_spectrum_does_not_converge():
    # no threshold relative to an infinite or NaN largest value counts anything
    for values in ([1.0, np.inf], [np.nan, 1.0], [-np.inf, -1e308, 0.0]):
        with pytest.raises(NoConvergence):
            spectral_rank(np.array(values))


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


def assert_echelon(r):
    """Row t is zero before its pivot column, real and positive there, and the
    pivot columns increase."""
    pivots = [int(np.flatnonzero(row)[0]) for row in r]
    assert pivots == sorted(set(pivots))
    for row, c in zip(r, pivots):
        assert row[c].imag == 0.0 and row[c].real > 0.0
    return pivots


def test_echelon_factor_reproduces_psd_matrix():
    # 63, 64, 65 and 129 columns cross the panel edges; a root with fewer rows
    # than columns ends with the one-product finish
    rng = np.random.default_rng(72)
    cases = ((1, 1), (4, 2), (6, 6), (9, 3), (40, 7), (150, 100))
    cases += ((63, 63), (64, 30), (65, 65), (65, 80), (129, 100), (129, 129))
    for n, rows in cases:
        b = complex_gaussian(rng, (rows, n))
        b[:, 1 : min(3, n)] = 0.0  # zero columns must be skipped
        g = b.conj().T @ b
        rank = rank_tol(g)
        r = _root_echelon(b, Tolerance())
        assert r.shape == (rank, n)
        assert_echelon(r)
        assert frob(r.conj().T @ r - g) <= 1e-11 * frob(g)
        assert frob(reference_echelon_factor(g) - r) <= 1e-11 * frob(r)
        # the rank is located, not decided, when it is given
        assert frob(_root_echelon(b, Tolerance(), rank) - r) <= 1e-12 * frob(r)


def test_echelon_factor_of_projector_is_orthonormal():
    rng = np.random.default_rng(73)
    for n, rank in ((5, 2), (63, 20), (64, 30), (65, 64), (129, 100), (200, 131)):
        q = random_isometry(rng, n, rank)
        q[:3] *= 1e-4  # small leading pivots, where a Cholesky of the projector loses orthonormality
        q, _ = np.linalg.qr(q)
        r = _root_echelon(q.conj().T, Tolerance(), rank)
        assert_echelon(r)
        assert np.abs(r @ r.conj().T - np.eye(rank)).max() <= 1e-13
        assert frob(r.conj().T @ r - q @ q.conj().T) <= 1e-12


def test_echelon_factor_of_projector_with_a_tiny_pivot():
    # rows 0 and 1 of the isometry nearly agree, so pivot 1 is about 1e-8: a
    # Cholesky of the projector (reference_echelon_factor) carries rounding of
    # about 1e-8 into the later, dependent pivots, the Gram-Schmidt of its rows 1e-16
    rng = np.random.default_rng(76)
    for _ in range(10):
        q = random_isometry(rng, 40, 20)
        q[1] = q[0] + 1e-4 * complex_gaussian(rng, 20)
        q, _ = np.linalg.qr(q)
        r = _root_echelon(q.conj().T, Tolerance(), 20)
        assert assert_echelon(r)[:2] == [0, 1]
        assert np.abs(r @ r.conj().T - np.eye(20)).max() <= 1e-13
        assert frob(r.conj().T @ r - q @ q.conj().T) <= 1e-13


def test_echelon_factor_row_count_is_the_decided_rank():
    rng = np.random.default_rng(74)
    m = random_isometry(rng, 8, 3).conj().T
    for wrong in (2, 4):
        with pytest.raises(NoConvergence):
            _root_echelon(m, Tolerance(), wrong)
    assert _root_echelon(m, Tolerance(), 3).shape == (3, 8)
    assert _root_echelon(m[:0], Tolerance(), 0).shape == (0, 8)


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


@pytest.mark.parametrize("c, m, n, a, b", [(3, 2, 4, 3, 1), (1, 1, 1, 2, 2), (0, 2, 3, 4, 1)])
def test_kron_sum_matches_the_kron_loop(c, m, n, a, b):
    rng = np.random.default_rng(64)
    x, y = complex_gaussian(rng, (c, m, n)), complex_gaussian(rng, (c, a, b))
    value = _kron_sum(x, y)
    ref = sum((np.kron(xi, yi) for xi, yi in zip(x, y)), np.zeros((m * a, n * b), dtype=complex))
    assert value.shape == (m * a, n * b)
    assert frob(value - ref) <= 1e-14 * max(1.0, frob(ref))
    if not c:  # empty stacks give the zero matrix
        assert np.array_equal(value, np.zeros((m * a, n * b)))
