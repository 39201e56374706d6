import numpy as np
import pytest

from chanfact import (
    DiagonalNotOne,
    GramVectors,
    NotHermitian,
    NotPSD,
    Tolerance,
    apply_channel,
    apply_complement,
    apply_complement_adjoint,
    channel_checks,
    correlation_from_gram,
    frob,
    gram_from_correlation,
    hm_derived_point,
    hm_equation_residuals,
    hm_example,
    schur_channel,
    schur_channel_from_gram,
    schur_complement_adjoint_apply,
    schur_complement_apply,
    validate_correlation,
)
from helpers import complex_gaussian


def random_correlation(rng, n, p):
    g = complex_gaussian(rng, (p, n))
    g = g / np.linalg.norm(g, axis=0)
    return validate_correlation(g.conj().T @ g), GramVectors(tuple(g[:, i] for i in range(n)))


def test_validate_correlation_errors():
    with pytest.raises(NotHermitian):
        validate_correlation(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(DiagonalNotOne):
        validate_correlation(np.diag([1.0, 2.0]))
    with pytest.raises(NotPSD):
        validate_correlation(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_correlation_rank_is_the_gram_vector_count():
    # a tolerated negative eigenvalue -7.2e-9, above rel_rank_tol * lambda_max in
    # modulus, must not count: the rank is that of the PSD factor
    rng = np.random.default_rng(3)
    g = complex_gaussian(rng, (16, 4))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    m = g @ g.conj().T
    u = np.ones(16) / 4.0  # flat, so the diagonal moves by at most abs_tol
    u = u - g @ np.linalg.solve(g.conj().T @ g, g.conj().T @ u)
    u /= np.linalg.norm(u)
    c = validate_correlation(m - 7.2e-9 * np.outer(u, u.conj()))
    assert c.rank == gram_from_correlation(c).p == 4


@pytest.mark.parametrize("a, tol", [(1 - 1e-9, Tolerance()), (0.92, Tolerance(rel_rank_tol=0.1))])
def test_correlation_rank_is_the_eigenvalue_count(a, tol):
    # eigenvalues 1 + a and 1 - a: 1 - a is at or below rel_rank_tol * (1 + a),
    # so one Gram coordinate is kept and the Gram matrix loses that eigenvalue
    m = np.array([[1.0, a], [a, 1.0]])
    c = validate_correlation(m, tol)
    w = gram_from_correlation(c)
    assert c.rank == w.p == 1
    assert frob(w.vectors.conj() @ w.vectors.T - m) == pytest.approx(1 - a, rel=1e-6)


def test_gram_correlation_roundtrip():
    rng = np.random.default_rng(30)
    c, _ = random_correlation(rng, 5, 3)
    assert c.rank == 3
    w = gram_from_correlation(c)
    assert w.p == 3
    for v in w.vectors:
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9
    c2 = correlation_from_gram(w)
    assert frob(c2.matrix - c.matrix) < 1e-9


def test_schur_channel_is_entrywise_product():
    rng = np.random.default_rng(31)
    c, _ = random_correlation(rng, 4, 2)
    k = schur_channel(c)
    x = complex_gaussian(rng, (4, 4))
    assert frob(apply_channel(k, x) - x * c.matrix) < 1e-10
    checks = channel_checks(k)
    assert checks.trace_preserving and checks.unital


def test_schur_channel_from_gram_uses_given_family():
    rng = np.random.default_rng(32)
    c, w = random_correlation(rng, 4, 3)
    k = schur_channel_from_gram(w)
    assert k.num_kraus == 3
    x = complex_gaussian(rng, (4, 4))
    assert frob(apply_channel(k, x) - x * c.matrix) < 1e-10


def test_schur_complement_closed_forms_match_generic_route():
    rng = np.random.default_rng(33)
    _, w = random_correlation(rng, 4, 3)
    k = schur_channel_from_gram(w)
    x = complex_gaussian(rng, (4, 4))
    assert frob(schur_complement_apply(w, x) - apply_complement(k, x)) < 1e-10
    y = complex_gaussian(rng, (3, 3))
    assert frob(schur_complement_adjoint_apply(w, y) - apply_complement_adjoint(k, y)) < 1e-10


def test_hm_correlation_matrix():
    hm = hm_example()
    c = hm.c.matrix
    beta = 1.0 / np.sqrt(5.0)
    assert hm.c.rank == 3
    assert np.array_equal(np.diag(c), np.ones(6, dtype=complex))
    off = np.abs(c - np.eye(6))
    assert np.allclose(off[~np.eye(6, dtype=bool)], beta, atol=1e-15)
    w = np.linalg.eigvalsh(c)
    assert np.allclose(sorted(w), [0.0, 0.0, 0.0, 2.0, 2.0, 2.0], atol=1e-12)


def test_hm_gram_vectors_realize_the_matrix():
    hm = hm_example()
    c2 = correlation_from_gram(hm.w)
    assert frob(c2.matrix - hm.c.matrix) < 1e-12
    total = sum(np.outer(v, v.conj()) for v in hm.w.vectors)
    assert frob(total - 2.0 * np.eye(3)) < 1e-12


def test_hm_kernel_elements_are_orthogonal_and_annihilated():
    hm = hm_example()
    k = schur_channel_from_gram(hm.w)
    for i, z in enumerate(hm.z):
        assert frob(z - z.conj().T) < 1e-12
        assert abs(frob(z) - 2.0) < 1e-12
        assert frob(apply_complement_adjoint(k, z)) < 1e-12
        assert frob(schur_complement_adjoint_apply(hm.w, z)) < 1e-12
        for j in range(i):
            assert abs(np.vdot(hm.z[j], z)) < 1e-12


def test_hm_derived_point_solves_the_equations():
    a1, a2, a3 = hm_derived_point()
    for a in (a1, a2, a3):
        assert frob(a - a.conj().T) < 1e-15
        assert abs(np.trace(a)) < 1e-15
    r1, r2, r3 = hm_equation_residuals(a1, a2, a3)
    assert max(r1, r2, r3) < 1e-15
    assert frob((a2 + 1j * a3) - np.sqrt(2.0) * np.array([[0, 1], [0, 0]])) < 1e-15
