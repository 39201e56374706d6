import numpy as np
import pytest

from chanfact import (
    CertificateInvalid,
    DimensionMismatch,
    FactorAlgebra,
    FactorizationCertificate,
    KrausChannel,
    LmiPoint,
    LmiSystem,
    NotPSD,
    RankTooHigh,
    Tolerance,
    TraceNotZero,
    apply_channel,
    certificate_from_point,
    choi_from_kraus,
    combine_certificates,
    decompose_by_factors,
    dilation_certificate,
    extremality_check,
    frob,
    hm_derived_point,
    hm_example,
    hm_equation_residuals,
    psd_factor,
    schur_channel_from_gram,
    verify_certificate,
)
from helpers import (
    algebra_trace,
    complex_gaussian,
    haar_unitary,
    kron,
    phase_flip_over_two_m2,
    random_hermitian,
    reference_factor_echelon,
    reference_factor_gram,
    reference_residuals,
)


def hm_setup():
    hm = hm_example()
    k = schur_channel_from_gram(hm.w)
    system = LmiSystem(k.num_kraus, hm.z, source=k)
    point = LmiPoint(2, hm_derived_point())
    return k, system, point


def test_factor_algebra_validation():
    with pytest.raises(DimensionMismatch):
        FactorAlgebra(())
    with pytest.raises(DimensionMismatch):
        FactorAlgebra(((0, 1.0),))
    with pytest.raises(ValueError):
        FactorAlgebra(((2, 0.4), (1, 0.4)))
    with pytest.raises(ValueError):
        FactorAlgebra(((2, -0.5), (1, 1.5)))
    # a fractional dimension is rejected, not truncated to 2
    with pytest.raises(DimensionMismatch):
        FactorAlgebra(((2.5, 1.0),))
    with pytest.raises(DimensionMismatch):
        FactorAlgebra(((2, 0.5), (np.float64(1.0), 0.5)))
    assert FactorAlgebra(((np.int64(2), 1.0),)).factors == ((2, 1.0),)


def test_factor_algebra_trace():
    algebra = FactorAlgebra(((2, 0.5), (1, 0.5)))
    value = algebra_trace(algebra, (np.eye(2, dtype=complex), np.array([[3.0 + 0j]])))
    assert value == pytest.approx(2.0)


def test_certificate_shape_validation():
    algebra = FactorAlgebra(((2, 1.0),))
    with pytest.raises(DimensionMismatch):
        FactorizationCertificate(algebra, ((np.eye(3),),))
    with pytest.raises(DimensionMismatch):
        FactorizationCertificate(algebra, ((np.eye(2), np.eye(2)),))
    two = FactorAlgebra(((2, 0.5), (1, 0.5)))
    with pytest.raises(DimensionMismatch):
        FactorizationCertificate(two, ((np.eye(2), np.eye(1)), (np.eye(2), np.eye(2))))
    with pytest.raises(DimensionMismatch):
        FactorizationCertificate(two, ((np.eye(2), np.eye(1)), (np.eye(2), np.ones(1))))
    with pytest.raises(DimensionMismatch):
        FactorizationCertificate(algebra, ())


def test_certificate_stores_one_stack_per_factor():
    rng = np.random.default_rng(60)
    algebra = FactorAlgebra(((2, 0.25), (3, 0.75)))
    elements = [(complex_gaussian(rng, (2, 2)), rng.standard_normal((3, 3))) for _ in range(4)]
    cert = FactorizationCertificate(algebra, elements)
    assert cert.num_elements == 4
    assert [v.shape for v in cert.blocks] == [(4, 2, 2), (4, 3, 3)]
    for f, v in enumerate(cert.blocks):
        assert v.dtype == complex and v.flags.c_contiguous
        for i in range(4):
            assert np.array_equal(v[i], elements[i][f])
            # the per-element layout is a view of the stacks, not a copy
            assert np.array_equal(cert.elements[i][f], v[i])
            assert np.shares_memory(cert.elements[i][f], v)


def test_certificate_from_an_element_array():
    # a p x m x d x d array is checked on its element axis once and stacked per factor
    rng = np.random.default_rng(61)
    elements = complex_gaussian(rng, (4, 1, 2, 2))
    cert = FactorizationCertificate(FactorAlgebra(((2, 1.0),)), elements)
    assert cert.blocks[0].flags.c_contiguous
    assert np.array_equal(cert.blocks[0], elements[:, 0])
    two = complex_gaussian(rng, (4, 2, 2, 2))
    cert = FactorizationCertificate(FactorAlgebra(((2, 0.5), (2, 0.5))), two)
    for f in range(2):
        assert cert.blocks[f].flags.c_contiguous
        assert np.array_equal(cert.blocks[f], two[:, f])
    with pytest.raises(DimensionMismatch):
        FactorizationCertificate(FactorAlgebra(((2, 1.0),)), two)
    with pytest.raises(DimensionMismatch):
        FactorizationCertificate(FactorAlgebra(((2, 0.5), (2, 0.5))), elements)
    with pytest.raises(DimensionMismatch):
        FactorizationCertificate(FactorAlgebra(((3, 1.0),)), elements)
    with pytest.raises(DimensionMismatch):
        FactorizationCertificate(FactorAlgebra(((2, 1.0),)), elements[:0])


def test_combine_stacks_are_the_zero_padded_blocks():
    rng = np.random.default_rng(61)
    k1, cert1 = dilation_certificate(haar_unitary(rng, 4), 2, 2)
    k2, cert2 = dilation_certificate(haar_unitary(rng, 6), 2, 3)
    t = 0.3
    _, cert = combine_certificates(k1, cert1, k2, cert2, t)
    p1, p2 = cert1.num_elements, cert2.num_elements
    expected = [[1.0 / np.sqrt(t) * element[0] for element in cert1.elements]
                + [np.zeros((2, 2))] * p2,
                [np.zeros((3, 3))] * p1
                + [1.0 / np.sqrt(1.0 - t) * element[0] for element in cert2.elements]]
    assert len(cert.blocks) == 2
    for got, blocks in zip(cert.blocks, expected, strict=True):
        assert got.shape == (p1 + p2, *blocks[0].shape)
        for g, b in zip(got, blocks, strict=True):
            assert np.array_equal(g, b)


def test_dilation_certificate_verifies():
    rng = np.random.default_rng(50)
    for n, kk in [(2, 2), (3, 2), (2, 3)]:
        w = haar_unitary(rng, n * kk)
        channel, cert = dilation_certificate(w, n, kk)
        report = verify_certificate(channel, cert)
        assert report.passed
        assert max(report.orthonormality_residual, report.unitarity_residual) < 1e-12


def test_dilation_certificate_elements_are_matrix_units():
    rng = np.random.default_rng(51)
    w = haar_unitary(rng, 4)
    channel, cert = dilation_certificate(w, 2, 2)
    assert channel.num_kraus == cert.num_elements
    for element in cert.elements:
        blk = element[0]
        assert np.count_nonzero(blk) == 1
        assert abs(np.abs(blk).max() - np.sqrt(2.0)) < 1e-12


@pytest.mark.parametrize("abs_tol", [1e-9, 0.8, 2.0])
def test_dilation_certificate_keeps_the_channels_blocks(abs_tol):
    # at large abs_tol every block is dropped and the channel keeps K_00
    w = haar_unitary(np.random.default_rng(3), 4)
    channel, cert = dilation_certificate(w, 2, 2, Tolerance(abs_tol=abs_tol))
    assert channel.num_kraus == cert.num_elements


def test_hm_certificate_from_point():
    k, system, point = hm_setup()
    cert = certificate_from_point(k, system, point)
    assert cert.algebra.factors == ((2, 1.0),)
    assert cert.num_elements == k.num_kraus
    report = verify_certificate(k, cert)
    assert report.passed
    assert report.unitarity_residual < 1e-8
    # the ambient unitary lives on M_6 (x) M_2
    u = sum(kron(op, element[0]) for op, element in zip(k.operators, cert.elements))
    assert u.shape == (12, 12)
    assert frob(u.conj().T @ u - np.eye(12)) < 1e-8


def test_certificate_from_point_rejections():
    k, system, point = hm_setup()
    with pytest.raises(NotPSD):
        certificate_from_point(k, system, LmiPoint(2, tuple(5.0 * a for a in point.a)))
    with pytest.raises(RankTooHigh):
        certificate_from_point(k, system, LmiPoint(2, tuple(0.5 * a for a in point.a)))
    trace_system = LmiSystem(1, (np.zeros((1, 1), dtype=complex),))
    traced_point = LmiPoint(2, (np.eye(2, dtype=complex),))
    unitary_channel = KrausChannel((np.eye(2, dtype=complex),))
    with pytest.raises(TraceNotZero):
        certificate_from_point(unitary_channel, trace_system, traced_point)


def test_verify_rejects_corrupted_certificates():
    k, system, point = hm_setup()
    cert = certificate_from_point(k, system, point)
    good = verify_certificate(k, cert)
    assert good.passed

    bumped = list(list(e) for e in cert.elements)
    bumped[0][0] = bumped[0][0] + 1e-3 * np.eye(2)
    bad = FactorizationCertificate(cert.algebra, tuple(tuple(e) for e in bumped))
    report = verify_certificate(k, bad)
    assert not report.passed
    assert report.unitarity_residual > 1e-4

    scaled = FactorizationCertificate(
        cert.algebra, tuple(tuple(1.1 * blk for blk in e) for e in cert.elements)
    )
    report = verify_certificate(k, scaled)
    assert not report.passed
    assert report.orthonormality_residual > 0.1


def test_verify_reports_swapped_elements():
    k, system, point = hm_setup()
    cert = certificate_from_point(k, system, point)
    swapped = list(cert.elements)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    report = verify_certificate(k, FactorizationCertificate(cert.algebra, tuple(swapped)))
    assert not report.passed


def test_combine_and_decompose_roundtrip():
    rng = np.random.default_rng(52)
    w1 = haar_unitary(rng, 4)
    w2 = haar_unitary(rng, 4)
    k1, cert1 = dilation_certificate(w1, 2, 2)
    k2, cert2 = dilation_certificate(w2, 2, 2)
    t = 0.4
    channel, cert = combine_certificates(k1, cert1, k2, cert2, t)
    assert verify_certificate(channel, cert).passed
    assert [d for d, _ in cert.algebra.factors] == [2, 2]
    assert [q for _, q in cert.algebra.factors] == pytest.approx([t, 1 - t])

    components = decompose_by_factors(channel, cert)
    assert [c.weight for c in components] == pytest.approx([t, 1 - t])
    for comp, original in zip(components, (k1, k2)):
        assert frob(choi_from_kraus(comp.channel).matrix - choi_from_kraus(original).matrix) < 1e-9
        assert verify_certificate(comp.channel, comp.certificate).passed
    total = sum(c.weight * c.gram for c in components)
    assert frob(total - np.eye(channel.num_kraus)) < 1e-9


def test_combine_rejects_bad_input():
    rng = np.random.default_rng(53)
    k1, cert1 = dilation_certificate(haar_unitary(rng, 4), 2, 2)
    k2, cert2 = dilation_certificate(haar_unitary(rng, 4), 2, 2)
    with pytest.raises(ValueError):
        combine_certificates(k1, cert1, k2, cert2, 0.0)
    broken = FactorizationCertificate(
        cert2.algebra, tuple(tuple(2.0 * blk for blk in e) for e in cert2.elements)
    )
    with pytest.raises(CertificateInvalid):
        combine_certificates(k1, cert1, k2, broken, 0.5)


def test_decompose_requires_verifying_certificate():
    rng = np.random.default_rng(54)
    k, cert = dilation_certificate(haar_unitary(rng, 4), 2, 2)
    broken = FactorizationCertificate(
        cert.algebra, tuple(tuple(1.5 * blk for blk in e) for e in cert.elements)
    )
    with pytest.raises(CertificateInvalid):
        decompose_by_factors(k, broken)


def test_extremality_check_consistency():
    k, system, point = hm_setup()
    shrunk = LmiPoint(2, tuple(0.5 * a for a in point.a))
    grown = LmiPoint(2, tuple(5.0 * a for a in point.a))
    report = extremality_check(k, system, [point, shrunk, grown])
    assert report.all_consistent
    solution, interior, outside = report.candidates
    assert solution.in_solution_set and solution.rank == 2
    assert solution.trace_norm < 1e-12
    assert interior.in_solution_set and interior.rank > 2
    assert not outside.in_solution_set


def test_extremality_check_flags_traceful_low_rank_solution():
    zero_system = LmiSystem(1, (np.zeros((1, 1), dtype=complex),))
    channel = KrausChannel((np.eye(2, dtype=complex),))
    candidate = LmiPoint(2, (np.eye(2, dtype=complex),))
    report = extremality_check(channel, zero_system, [candidate])
    assert not report.all_consistent
    assert report.candidates[0].in_solution_set
    assert report.candidates[0].rank == 2
    assert report.candidates[0].trace_norm == pytest.approx(2.0)


def test_hm_equation_residuals_shape_check():
    with pytest.raises(DimensionMismatch):
        hm_equation_residuals(np.eye(2), np.eye(2), np.eye(3))


def test_verified_certificate_reconstructs_channel_action():
    # tracing out the certificate factor of U (X (x) I) U* returns the channel
    k, system, point = hm_setup()
    cert = certificate_from_point(k, system, point)
    d = cert.algebra.factors[0][0]
    u = sum(kron(op, element[0]) for op, element in zip(k.operators, cert.elements))
    rng = np.random.default_rng(55)
    x = random_hermitian(rng, 6)
    lifted = u @ kron(x, np.eye(d)) @ u.conj().T
    traced = lifted.reshape(6, d, 6, d).trace(axis1=1, axis2=3) / d
    assert frob(traced - apply_channel(k, x)) < 1e-8


def reference_cases():
    rng = np.random.default_rng(56)
    dilation = dilation_certificate(haar_unitary(rng, 6), 3, 2)
    k2, cert2 = dilation_certificate(haar_unitary(rng, 4), 2, 2)
    k3, cert3 = dilation_certificate(haar_unitary(rng, 6), 2, 3)
    mixture = combine_certificates(k2, cert2, k3, cert3, 0.35)
    k, cert = dilation
    perturbed = FactorizationCertificate(
        cert.algebra,
        tuple(
            (blk + 1e-3 * complex_gaussian(rng, blk.shape),) for (blk,) in cert.elements
        ),
    )
    # unequal scales keep sum K_i* K_i away from a multiple of I
    scaled = KrausChannel(tuple((0.8 + 0.05 * i) * op for i, op in enumerate(k2.operators)))
    return {
        "dilation": dilation,
        "mixture": mixture,
        "perturbed": (k, perturbed),
        "non_tp": (scaled, cert2),
    }


@pytest.mark.parametrize("name", ["dilation", "mixture", "perturbed", "non_tp"])
def test_verify_matches_reference_loop(name):
    k, cert = reference_cases()[name]
    report = verify_certificate(k, cert)
    orth, compl, unit = reference_residuals(k, cert)
    assert report.orthonormality_residual == pytest.approx(orth, abs=1e-12)
    assert report.complement_residual == pytest.approx(compl, abs=1e-12)
    assert report.unitarity_residual == pytest.approx(unit, abs=1e-12)
    assert report.passed == (max(orth, compl, unit) <= 1e-9)
    assert report.passed == (name in ("dilation", "mixture"))


@pytest.mark.parametrize("name", ["dilation", "mixture"])
def test_decompose_grams_match_reference_loop(name):
    k, cert = reference_cases()[name]
    components = decompose_by_factors(k, cert)
    for f, comp in enumerate(components):
        assert np.abs(comp.gram - reference_factor_gram(cert, f)).max() < 1e-12


@pytest.mark.parametrize("name", ["dilation", "mixture"])
def test_decompose_transfers_match_pinv_loop(name):
    k, cert = reference_cases()[name]
    p = k.num_kraus
    for f, comp in enumerate(decompose_by_factors(k, cert)):
        qmat = psd_factor(comp.gram)
        qpinv = np.linalg.pinv(qmat)
        blocks = [element[f] for element in cert.elements]
        assert comp.channel.num_kraus == comp.certificate.num_elements == qmat.shape[0]
        for m in range(qmat.shape[0]):
            op = sum(qmat[m, j] * k.operators[j] for j in range(p))
            element = sum(qpinv[j, m] * blocks[j] for j in range(p))
            assert frob(comp.channel.operators[m] - op) <= 1e-12 * max(1.0, frob(op))
            assert frob(comp.certificate.elements[m][0] - element) <= 1e-12 * max(1.0, frob(element))


@pytest.mark.parametrize("theta", [3e-3, 2e-4, 6e-5])
def test_decompose_along_an_ill_conditioned_factor(theta):
    # relative Gram eigenvalue tan(theta / 2)^2: 2.2e-6, 1.0e-8 and 9.0e-10, the last
    # below rel_rank_tol but its pivot above it
    k, cert = phase_flip_over_two_m2(theta, np.random.default_rng(57))
    assert verify_certificate(k, cert).passed
    components = decompose_by_factors(k, cert)
    choi = sum(comp.weight * choi_from_kraus(comp.channel).matrix for comp in components)
    assert frob(choi - choi_from_kraus(k).matrix) < 1e-12
    for f, comp in enumerate(components):
        w = np.linalg.eigvalsh(comp.gram)
        assert w[0] / w[-1] == pytest.approx(np.tan(theta / 2) ** 2, rel=1e-3)
        qpinv = np.linalg.pinv(reference_factor_echelon(cert, f))
        expected = np.tensordot(qpinv, [element[f] for element in cert.elements], (0, 0))
        got = np.array([element[0] for element in comp.certificate.elements])
        assert comp.channel.num_kraus == len(got) == 2
        assert frob(got - expected) <= 1e-10 * frob(expected)
        report = verify_certificate(comp.channel, comp.certificate)
        residuals = (report.orthonormality_residual, report.complement_residual,
                     report.unitarity_residual)
        assert report.passed and max(residuals) <= 1e-10


def test_decompose_drops_a_pivot_below_the_cut():
    # at theta = 1e-5 the relative Gram eigenvalue is 2.5e-11 and the second pivot,
    # 1.8e-10 and 3.6e-11 of the largest diagonal entry, is cut: each factor keeps one
    # Kraus operator, and the least-squares transfer of the blocks still certifies it
    k, cert = phase_flip_over_two_m2(1e-5, np.random.default_rng(57))
    assert verify_certificate(k, cert).passed
    components = decompose_by_factors(k, cert)
    choi = sum(comp.weight * choi_from_kraus(comp.channel).matrix for comp in components)
    # the Choi matrices lose only the cut pivots, each below rel_rank_tol
    assert frob(choi - choi_from_kraus(k).matrix) < 1e-9
    for comp in components:
        assert comp.channel.num_kraus == comp.certificate.num_elements == 1
        assert verify_certificate(comp.channel, comp.certificate).passed


def test_decompose_grams_give_the_component_choi_matrices():
    # each component's Choi matrix is K gram^T K*, also where a pivot is cut: the
    # Gram matrices drop the cut pivot as the component channels do
    k, cert = phase_flip_over_two_m2(1e-5, np.random.default_rng(57))
    components = decompose_by_factors(k, cert)
    kmat = k.operators.transpose(0, 2, 1).reshape(k.num_kraus, -1).T  # column i is vec(K_i)
    choi = sum(comp.weight * choi_from_kraus(comp.channel).matrix for comp in components)
    gram = sum(comp.weight * comp.gram for comp in components)
    assert frob(choi - kmat @ gram.T @ kmat.conj().T) <= 1e-14
    for comp in components:
        assert frob(choi_from_kraus(comp.channel).matrix
                    - kmat @ comp.gram.T @ kmat.conj().T) <= 1e-14


def test_certificate_from_point_checks_in_order():
    # scalar pencil diag(1 + a, 1 - a) at level 1; every point has trace a != 0
    system = LmiSystem(2, (np.diag([1.0, -1.0]).astype(complex),))
    channel = KrausChannel((np.eye(2, dtype=complex) / np.sqrt(2.0),) * 2)
    for a, error in ((2.0, NotPSD), (0.5, RankTooHigh), (1.0, TraceNotZero)):
        with pytest.raises(error):
            certificate_from_point(channel, system, LmiPoint(1, (np.array([[a]]),)))
