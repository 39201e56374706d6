import numpy as np
import pytest

from chanfact import (
    DependentBasis,
    DimensionMismatch,
    LmiPoint,
    LmiSystem,
    NoConvergence,
    NotInSpan,
    NotHermitian,
    NotInSpectrahedron,
    NotPSD,
    RankTooHigh,
    apply_channel,
    build_lmi,
    certificate_from_point,
    dilation_certificate,
    channel_checks,
    extract_blocks,
    face_channel,
    frob,
    hm_derived_point,
    hm_example,
    lmi_eval,
    lmi_membership,
    point_from_blocks,
    psd_factor,
    schur_channel_from_gram,
)
from helpers import (
    haar_unitary,
    kron,
    random_hermitian,
    random_tp_channel,
    rank_tol,
    reference_eigh_blocks,
    reference_lmi_eval,
)


def scalar_system():
    return LmiSystem(2, (np.diag([1.0, -1.0]).astype(complex),))


def hm_setup():
    hm = hm_example()
    k = schur_channel_from_gram(hm.w)
    system = LmiSystem(k.num_kraus, hm.z, source=k)
    point = LmiPoint(2, hm_derived_point())
    return k, system, point


def test_system_and_point_validation():
    with pytest.raises(DimensionMismatch):
        LmiSystem(2, (np.eye(3),))
    with pytest.raises(DimensionMismatch):
        LmiPoint(2, (np.eye(3),))
    s = scalar_system()
    with pytest.raises(DimensionMismatch):
        lmi_eval(s, LmiPoint(1, ()))


def test_build_lmi_from_channel():
    rng = np.random.default_rng(40)
    k = random_tp_channel(rng, 3, 2)
    s = build_lmi(k)
    assert s.p == 2 and s.source is k
    hm_k = schur_channel_from_gram(hm_example().w)
    assert build_lmi(hm_k).d == 3


def test_lmi_eval_at_zero_point_is_identity():
    s = scalar_system()
    point = LmiPoint(3, (np.zeros((3, 3)),))
    assert np.array_equal(lmi_eval(s, point), np.eye(6, dtype=complex))
    mem = lmi_membership(s, point)
    assert mem.psd and mem.rank == 6 and mem.traces == (0.0,)


def test_scalar_membership_boundary():
    s = scalar_system()
    inside = lmi_membership(s, LmiPoint(1, (np.array([[0.5]]),)))
    assert inside.psd and inside.rank == 2
    boundary = lmi_membership(s, LmiPoint(1, (np.array([[1.0]]),)))
    assert boundary.psd and boundary.rank == 1
    outside = lmi_membership(s, LmiPoint(1, (np.array([[1.5]]),)))
    assert not outside.psd
    assert outside.traces == (1.5,)


def test_extract_blocks_scalar_boundary():
    s = scalar_system()
    blocks = extract_blocks(s, LmiPoint(1, (np.array([[1.0]]),)))
    assert len(blocks) == 2
    value = np.array([[blocks[0][0, 0]], [blocks[1][0, 0]]])
    gram = value.conj() @ value.T
    assert frob(gram - np.diag([2.0, 0.0])) < 1e-12


def test_extract_blocks_errors():
    s = scalar_system()
    with pytest.raises(NotPSD):
        extract_blocks(s, LmiPoint(1, (np.array([[2.0]]),)))
    with pytest.raises(RankTooHigh):
        extract_blocks(s, LmiPoint(1, (np.array([[0.5]]),)))


def test_hm_membership_and_blocks():
    k, system, point = hm_setup()
    mem = lmi_membership(system, point)
    assert mem.psd and mem.rank == 2
    assert max(abs(t) for t in mem.traces) < 1e-12
    value = lmi_eval(system, point)
    w = np.linalg.eigvalsh(value)
    assert np.allclose(sorted(w), [0, 0, 0, 0, 3, 3], atol=1e-9)
    blocks = extract_blocks(system, point)
    rebuilt = np.zeros_like(value)
    for i in range(system.p):
        for j in range(system.p):
            e = np.zeros((system.p, system.p), dtype=complex)
            e[i, j] = 1.0
            rebuilt += kron(e, blocks[i].conj().T @ blocks[j])
    assert frob(rebuilt - value) < 1e-9


def dilation_solution(rng, n, k):
    """LMI system of a Haar dilation channel and its level-k point from the
    certificate blocks sqrt(k) E_ab; the pencil value has eigenvalue k^2 k times."""
    channel, cert = dilation_certificate(haar_unitary(rng, n * k), n, k)
    system = build_lmi(channel)
    return system, point_from_blocks(system, [element[0] for element in cert.elements])


def test_extract_blocks_factor_the_eigh_reference_gram():
    rng = np.random.default_rng(58)
    _, hm_system, hm_point = hm_setup()
    cases = [(hm_system, hm_point), (scalar_system(), LmiPoint(1, (np.array([[-1.0]]),)))]
    cases += [dilation_solution(rng, n, n) for n in (2, 3, 4)]
    for system, point in cases:
        v = np.hstack(extract_blocks(system, point))
        ref = np.hstack(reference_eigh_blocks(system, point))
        assert np.abs(v.conj().T @ v - ref.conj().T @ ref).max() <= 1e-10
        kept = v[np.abs(v).max(axis=1) > 0.0]
        pivots = [int(np.flatnonzero(row)[0]) for row in kept]
        assert pivots == sorted(set(pivots))
        assert all(row[j].imag == 0.0 and row[j].real > 0.0 for row, j in zip(kept, pivots))


def test_extract_blocks_are_one_stacked_view_of_v():
    rng = np.random.default_rng(59)
    _, hm_system, hm_point = hm_setup()
    for system, point in [(hm_system, hm_point), dilation_solution(rng, 3, 3)]:
        k = point.k
        blocks = extract_blocks(system, point)
        assert isinstance(blocks, np.ndarray) and blocks.shape == (system.p, k, k)
        factor = psd_factor(lmi_eval(system, point))
        v = np.zeros((k, system.p * k), dtype=complex)
        v[: len(factor)] = factor
        assert np.array_equal(np.hstack(blocks), v)
        # a view of the one k x pk factor, not p copied blocks
        assert blocks.base is not None and np.array_equal(blocks.base, v)


def test_membership_rank_equals_rank_tol_of_pencil_value():
    rng = np.random.default_rng(57)
    hm = hm_example()
    system = LmiSystem(3, hm.z)
    a1, a2, a3 = hm_derived_point()
    points = [LmiPoint(2, (a1, a2, a3))]
    for scale in (0.5, 1.0, 5.0):
        points.append(LmiPoint(2, tuple(scale * a for a in (a1, a2, a3))))
    for _ in range(5):
        points.append(LmiPoint(3, tuple(random_hermitian(rng, 3) for _ in range(3))))
    for point in points:
        mem = lmi_membership(system, point)
        assert mem.rank == rank_tol(lmi_eval(system, point))
    assert lmi_membership(system, points[0]).rank == 2


def test_tolerated_negative_eigenvalues_leave_the_rank():
    # eigenvalues 2 + 2.5e-9 (twice) and -2.5e-9 (twice): PSD within the floor
    # -1e-9 * ||L||_F, and above the relative rank cut in modulus
    s = scalar_system()
    point = LmiPoint(2, ((1.0 + 2.5e-9) * np.eye(2),))
    value = lmi_eval(s, point)
    assert np.linalg.eigvalsh(value)[0] < 0.0
    mem = lmi_membership(s, point)
    assert mem.psd and mem.rank == 2
    blocks = extract_blocks(s, point)
    assert len(blocks) == 2 and all(b.shape == (2, 2) for b in blocks)
    gram = np.block([[bi.conj().T @ bj for bj in blocks] for bi in blocks])
    assert frob(gram - value) <= 1e-8
    assert psd_factor(value).shape[0] == 2


def test_membership_at_an_overflowing_scale():
    # the pencil value at the HM point times 1e160 has lambda_min = -1e160 and
    # entries whose squares overflow
    _, system, point = hm_setup()
    mem = lmi_membership(system, LmiPoint(2, 1e160 * point.a))
    assert not mem.psd


def test_point_from_blocks_roundtrip():
    _, system, point = hm_setup()
    blocks = extract_blocks(system, point)
    recovered = point_from_blocks(system, blocks)
    assert recovered.k == 2
    for a, b in zip(recovered.a, point.a):
        assert frob(a - b) < 1e-9


def test_point_from_blocks_rejects_dependent_basis():
    z = np.diag([1.0, -1.0]).astype(complex)
    s = LmiSystem(2, (z, z))
    with pytest.raises(DependentBasis):
        point_from_blocks(s, [np.array([[1.0]]), np.array([[0.0]])])


def test_point_from_blocks_rejects_outside_span():
    s = LmiSystem(3, (np.diag([1.0, -1.0, 0.0]).astype(complex),))
    blocks = [np.array([[1.0]]), np.array([[1.0]]), np.array([[np.sqrt(2.0)]])]
    with pytest.raises(NotInSpan):
        point_from_blocks(s, blocks)
    with pytest.raises(DimensionMismatch):
        point_from_blocks(s, blocks[:2])


def test_point_from_blocks_of_an_empty_system():
    # d = 0: the pencil is I, so the blocks must have Gram matrix I
    k = 3
    unitary = haar_unitary(np.random.default_rng(62), k)
    point = point_from_blocks(LmiSystem(1, ()), [unitary])
    assert point.k == k and point.a.shape == (0, k, k)
    rng = np.random.default_rng(63)
    blocks = [rng.standard_normal((2, 2)) for _ in range(3)]
    with pytest.raises(NotInSpan):
        point_from_blocks(LmiSystem(3, ()), blocks)


def test_face_channel_identity_face():
    k, system, _ = hm_setup()
    same = face_channel(k, np.zeros(system.d), system=system)
    assert same.num_kraus == k.num_kraus
    rng = np.random.default_rng(41)
    x = random_hermitian(rng, 6)
    assert frob(apply_channel(same, x) - apply_channel(k, x)) < 1e-9


def test_face_channel_moves_along_kernel():
    k, system, _ = hm_setup()
    x = np.array([0.3, 0.0, 0.0])
    faced = face_channel(k, x, system=system)
    assert channel_checks(faced).trace_preserving
    with pytest.raises(NotInSpectrahedron):
        face_channel(k, np.array([9.0, 0.0, 0.0]), system=system)
    with pytest.raises(DimensionMismatch):
        face_channel(k, np.zeros(2), system=system)


@pytest.mark.parametrize("case", ["hm", "p9", "p16", "d0"])
def test_lmi_eval_matches_kron_reference(case):
    if case == "hm":
        _, system, point = hm_setup()
        points = [point, LmiPoint(3, tuple(random_hermitian(np.random.default_rng(58), 3)
                                           for _ in range(3)))]
    elif case == "d0":
        system = LmiSystem(3, ())
        points = [LmiPoint(1, ()), LmiPoint(4, ())]
    else:
        n = 3 if case == "p9" else 4
        rng = np.random.default_rng(59)
        system = build_lmi(random_tp_channel(rng, n, n * n))
        assert system.d == n**4 - n**2
        points = [LmiPoint(k, tuple(random_hermitian(rng, k) for _ in range(system.d)))
                  for k in (1, 2, 3)]
    for point in points:
        value = lmi_eval(system, point)
        ref = reference_lmi_eval(system, point)
        assert value.shape == ref.shape and value.dtype == complex
        assert frob(value - ref) <= 1e-13 * max(1.0, frob(ref))
    if case == "d0":
        assert np.array_equal(lmi_eval(system, points[1]), np.eye(12, dtype=complex))


def test_extract_blocks_keeps_its_error_types():
    _, system, point = hm_setup()
    with pytest.raises(NotPSD):
        extract_blocks(system, LmiPoint(2, tuple(2.0 * a for a in point.a)))
    with pytest.raises(RankTooHigh):
        extract_blocks(system, LmiPoint(2, tuple(0.5 * a for a in point.a)))
    with pytest.raises(RankTooHigh):
        extract_blocks(system, LmiPoint(1, tuple(a[:1, :1] for a in point.a)))
    # the lower triangle of diag(2 + 0.5i, -0.5i) is PSD of rank 1: the
    # Hermitian check of the factor step still rejects it
    with pytest.raises(NotHermitian):
        extract_blocks(scalar_system(), LmiPoint(1, (np.array([[1.0 + 0.5j]]),)))


def test_face_channel_keeps_its_error_types():
    k, system, _ = hm_setup()
    with pytest.raises(NotInSpectrahedron):
        face_channel(k, np.array([-9.0, 0.0, 0.0]), system=system)
    skew = LmiSystem(3, (np.triu(np.ones((3, 3)), 1).astype(complex),))
    with pytest.raises(NotHermitian):
        face_channel(k, np.array([0.1]), system=skew)


def test_face_channel_matches_loop_transfer():
    k, system, _ = hm_setup()
    x = np.array([0.3, -0.2, 0.1])
    value = np.eye(3) + sum(xi * zi for xi, zi in zip(x, system.z))
    q = psd_factor(value)
    expected = [sum(q[m, j] * k.operators[j] for j in range(3)) for m in range(q.shape[0])]
    faced = face_channel(k, x, system=system)
    assert faced.num_kraus == len(expected)
    for got, want in zip(faced.operators, expected):
        assert frob(got - want) < 1e-13


def test_membership_and_extraction_agree_at_the_rank_cut():
    # the HM point scaled by 1 - delta: the pencil value's small eigenvalues
    # cross the rank cut on this grid, and lmi-check, extract and extremality
    # must count the same rank there
    hm = hm_example()
    channel = schur_channel_from_gram(hm.w)
    s = LmiSystem(3, hm.z)
    base = np.asarray(hm_derived_point())
    disagree = []
    for delta in np.geomspace(1e-11, 1e-7, 400):
        point = LmiPoint(2, (1.0 - delta) * base)
        member = lmi_membership(s, point)
        try:
            extract_blocks(s, point)
            certificate_from_point(channel, s, point)
            factored = True
        except (NotPSD, RankTooHigh, NoConvergence):
            factored = False
        if (member.psd and member.rank <= 2) != factored:
            disagree.append(float(delta))
    assert not disagree
