import numpy as np
import pytest

from chanfact import (
    KrausChannel,
    NotTracePreserving,
    apply_complement,
    apply_complement_adjoint,
    channel_from_dilation,
    frob,
    hm_example,
    schur_channel_from_gram,
    selfadjoint_kernel_basis,
)
from helpers import (
    complex_gaussian,
    haar_unitary,
    hermitian_coefficients,
    random_hermitian,
    random_tp_channel,
    rank_tol,
    reference_adjoint_operator_matrix,
    reference_apply_complement,
    reference_selfadjoint_kernel_basis,
    reference_svd_kernel,
    vec,
)


def dephasing():
    return KrausChannel((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))


def dilation(rng, n, k):
    return channel_from_dilation(haar_unitary(rng, n * k), n, k)


def test_complement_of_dephasing_is_dephasing():
    rng = np.random.default_rng(20)
    x = complex_gaussian(rng, (2, 2))
    out = apply_complement(dephasing(), x)
    assert frob(out - np.diag(np.diag(x))) < 1e-12


def test_complement_entries_are_product_traces():
    rng = np.random.default_rng(21)
    k = random_tp_channel(rng, 3, 2)
    x = complex_gaussian(rng, (3, 3))
    out = apply_complement(k, x)
    for a in range(2):
        for b in range(2):
            expected = np.trace(k.operators[b].conj().T @ k.operators[a] @ x)
            assert abs(out[a, b] - expected) < 1e-12


def test_complement_matches_vdot_loop_reference():
    rng = np.random.default_rng(24)
    channels = [dephasing(), random_tp_channel(rng, 3, 2), random_tp_channel(rng, 2, 5, m=3),
                random_tp_channel(rng, 4, 16), schur_channel_from_gram(hm_example().w)]
    for k in channels:
        x = complex_gaussian(rng, (k.dim_in, k.dim_in))
        ref = reference_apply_complement(k, x)
        out = apply_complement(k, x)
        assert out.shape == (k.num_kraus, k.num_kraus)
        assert frob(out - ref) <= 1e-12 * max(1.0, frob(ref))


def test_complement_adjoint_duality():
    rng = np.random.default_rng(22)
    k = random_tp_channel(rng, 3, 3)
    x = complex_gaussian(rng, (3, 3))
    y = complex_gaussian(rng, (3, 3))
    lhs = np.vdot(y, apply_complement(k, x))
    rhs = np.vdot(apply_complement_adjoint(k, y), x)
    assert abs(lhs - rhs) < 1e-10


def test_complement_data_operator_matrix():
    # layout of the kernel reference's operator matrix: row-major Y in, vec out
    rng = np.random.default_rng(23)
    k = random_tp_channel(rng, 2, 3)
    mat = reference_adjoint_operator_matrix(k)
    assert mat.shape == (4, 9)
    y = complex_gaussian(rng, (3, 3))
    via_matrix = mat @ y.ravel()
    assert np.linalg.norm(via_matrix - vec(apply_complement_adjoint(k, y))) < 1e-12


def test_selfadjoint_kernel_basis_dephasing():
    # hand-checked: the kernel is spanned by the off-diagonal Hermitian units,
    # each with its single nonzero coefficient made positive
    basis = selfadjoint_kernel_basis(dephasing())
    expected = [
        np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0),
        np.array([[0.0, 1.0j], [-1.0j, 0.0]]) / np.sqrt(2.0),
    ]
    assert len(basis) == 2
    for h, e in zip(basis, expected):
        assert frob(h - e) < 1e-15


def test_selfadjoint_kernel_basis_is_deterministic():
    b1 = selfadjoint_kernel_basis(dephasing())
    b2 = selfadjoint_kernel_basis(dephasing())
    for x, y in zip(b1, b2):
        assert np.array_equal(x, y)


def test_selfadjoint_kernel_basis_matches_greedy_reference():
    rng = np.random.default_rng(27)
    u1, u2 = haar_unitary(rng, 3), haar_unitary(rng, 3)
    cases = {
        "hm": schur_channel_from_gram(hm_example().w),
        "dephasing": dephasing(),
        "dilation p=4": dilation(rng, 2, 2),
        "dilation p=9": dilation(rng, 3, 3),
        "two-unitary mixture": KrausChannel((np.sqrt(0.5) * u1, np.sqrt(0.5) * u2)),
        "extreme": random_tp_channel(rng, 3, 2),
    }
    dims = {}
    for name, k in cases.items():
        p = k.num_kraus
        basis = selfadjoint_kernel_basis(k)
        reference = reference_selfadjoint_kernel_basis(k)
        d = len(basis)
        dims[name] = d
        assert d == len(reference), name
        assert d == p * p - rank_tol(reference_adjoint_operator_matrix(k)), name
        if d == 0:
            continue
        flat = np.array([h.ravel() for h in basis])
        ref = np.array([h.ravel() for h in reference])
        assert frob(flat.T @ flat.conj() - ref.T @ ref.conj()) < 1e-10, name
        assert frob(flat.conj() @ flat.T - np.eye(d)) < 1e-10, name
        for h in basis:
            assert frob(h - h.conj().T) == 0.0, name
            assert frob(apply_complement_adjoint(k, h)) < 1e-10, name
            c = hermitian_coefficients(h)
            assert c[np.flatnonzero(np.abs(c) > 1e-9)[0]] > 0.0, name
    assert dims["extreme"] == 0 and dims["hm"] == 3 and dims["dilation p=9"] == 72


def test_selfadjoint_kernel_basis_is_the_echelon_form_of_the_svd_kernel():
    rng = np.random.default_rng(28)
    cases = [schur_channel_from_gram(hm_example().w), dephasing()]
    cases += [dilation(rng, n, n) for n in (2, 3, 4)]
    # the index-built coordinates at their edges: p = 1 has no off-diagonal pair
    # (d = 0), p = 2 has one (d = 1)
    u1, u2 = haar_unitary(rng, 3), haar_unitary(rng, 3)
    cases += [KrausChannel((u1,)), KrausChannel((np.sqrt(0.5) * u1, np.sqrt(0.5) * u2))]
    for k in cases:
        basis = selfadjoint_kernel_basis(k)
        reference = reference_svd_kernel(k)
        assert basis.shape == reference.shape
        flat = basis.reshape(len(basis), k.num_kraus**2)
        ref = reference.reshape(len(reference), k.num_kraus**2)
        assert np.abs(flat.T @ flat.conj() - ref.T @ ref.conj()).max() <= 1e-10
        assert np.abs(flat.conj() @ flat.T - np.eye(len(basis))).max(initial=0.0) <= 1e-13
        coeffs = np.array([hermitian_coefficients(h) for h in basis])
        pivots = [int(np.flatnonzero(c)[0]) for c in coeffs]
        assert pivots == sorted(set(pivots))
        assert all(c[j] > 0.0 for c, j in zip(coeffs, pivots))


def test_kernel_basis_of_a_mixed_dilation_channel_is_annihilated():
    # seed 405, built as in test_kraus_mixing_acts_covariantly_on_the_kernel:
    # after the kernel projector's first two columns, the next two keep
    # residuals of norm 7e-6, pivots of 5e-11, which a cut on the pivots at
    # rel_rank_tol drops from the basis
    rng = np.random.default_rng(405)
    channel = channel_from_dilation(haar_unitary(rng, 8), 4, 2)
    u = haar_unitary(rng, channel.num_kraus)
    mixed = KrausChannel(np.tensordot(u, channel.operators, 1))
    basis = selfadjoint_kernel_basis(mixed)
    assert len(basis) == 3
    assert max(frob(apply_complement_adjoint(mixed, z)) for z in basis) <= 1e-12


def test_selfadjoint_kernel_basis_requires_tp():
    with pytest.raises(NotTracePreserving):
        selfadjoint_kernel_basis(KrausChannel((np.eye(2) * 0.4,)))


def test_unitary_mixing_of_kraus_conjugates_complement():
    rng = np.random.default_rng(25)
    k = random_tp_channel(rng, 3, 3)
    u = haar_unitary(rng, 3)
    mixed = KrausChannel(
        tuple(
            sum(u[i, j].conjugate() * k.operators[j] for j in range(3)) for i in range(3)
        )
    )
    x = random_hermitian(rng, 3)
    lhs = apply_complement(mixed, x)
    rhs = u.conj() @ apply_complement(k, x) @ u.T
    assert frob(lhs - rhs) < 1e-10


def test_is_extreme_channel():
    rng = np.random.default_rng(26)
    u = haar_unitary(rng, 3)
    assert len(selfadjoint_kernel_basis(KrausChannel((u,)))) == 0
    assert len(selfadjoint_kernel_basis(dephasing())) != 0
    # a generic pair of Kraus operators on M_3 keeps the four products independent
    assert len(selfadjoint_kernel_basis(random_tp_channel(rng, 3, 2))) == 0
    # mixing two unitaries repeats the identity product
    u2 = haar_unitary(rng, 3)
    mix = KrausChannel((np.sqrt(0.5) * u, np.sqrt(0.5) * u2))
    assert len(selfadjoint_kernel_basis(mix)) != 0
    with pytest.raises(NotTracePreserving):
        selfadjoint_kernel_basis(KrausChannel((u * 0.2,)))
