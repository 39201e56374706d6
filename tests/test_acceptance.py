"""Acceptance suite. Each test prints one PASS/FAIL line on the real stdout."""

import time

import numpy as np

from chanfact import (
    FactorAlgebra,
    FactorizationCertificate,
    KrausChannel,
    LmiPoint,
    LmiSystem,
    Tolerance,
    apply_channel,
    apply_complement_adjoint,
    certificate_from_point,
    channel_checks,
    choi_from_kraus,
    combine_certificates,
    convex_combine_channels,
    decompose_by_factors,
    dilation_certificate,
    extremality_check,
    frob,
    hm_derived_point,
    hm_equation_residuals,
    hm_example,
    kraus_from_choi,
    lmi_eval,
    lmi_membership,
    schur_channel_from_gram,
    selfadjoint_kernel_basis,
    stinespring_dilation,
    verify_certificate,
)
from helpers import (
    complex_gaussian,
    haar_unitary,
    kron,
    partial_trace,
    random_cp_channel,
    random_hermitian,
    random_isometry,
    random_tp_channel,
)


def report(capsys, number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def hm_setup():
    hm = hm_example()
    channel = schur_channel_from_gram(hm.w)
    system = LmiSystem(3, hm.z, source=channel)
    point = LmiPoint(2, hm_derived_point())
    return hm, channel, system, point


def nilpotent_solution(rng):
    # A = sqrt(2) e^(i theta) u v* over an orthonormal pair solves all three
    # equations; A_1 = (v v* - u u*)/sqrt(2)
    g = complex_gaussian(rng, (2, 2))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    u, v = q[:, 0], q[:, 1]
    a = np.sqrt(2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * np.outer(u, v.conj())
    a1 = (np.outer(v, v.conj()) - np.outer(u, u.conj())) / np.sqrt(2.0)
    return a1, (a + a.conj().T) / 2.0, (a - a.conj().T) / 2.0j


def test_criterion_1_hm_pipeline(capsys):
    start = time.perf_counter()
    hm, channel, _, _ = hm_setup()
    ok = hm.c.rank == 3
    checks = channel_checks(channel)
    ok = ok and checks.trace_preserving and checks.unital
    basis = selfadjoint_kernel_basis(channel)
    ok = ok and len(basis) == 3
    span = annihilation = 0.0
    for z in hm.z:
        proj = sum(np.vdot(b, z).real * b for b in basis)
        span = max(span, frob(z - proj))
        annihilation = max(annihilation, frob(apply_complement_adjoint(channel, z)))
    ok = ok and span <= 1e-9 and annihilation <= 1e-12
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(
        capsys,
        1,
        ok,
        f"rank {hm.c.rank}, d={len(basis)}, span {span:.2e}, "
        f"annihilation {annihilation:.2e}, {elapsed:.3f}s",
    )


def test_criterion_2_hm_derived_certificate(capsys):
    start = time.perf_counter()
    _, channel, system, point = hm_setup()
    equations = max(hm_equation_residuals(*point.a))
    ok = equations <= 1e-12
    mem = lmi_membership(system, point)
    traces = max(abs(t) for t in mem.traces)
    ok = ok and mem.psd and mem.rank == 2 and traces <= 1e-12
    cert = certificate_from_point(channel, system, point)
    u = sum(kron(op, el[0]) for op, el in zip(channel.operators, cert.elements))
    ok = ok and u.shape == (12, 12)
    unitarity = verify_certificate(channel, cert).unitarity_residual
    ok = ok and unitarity <= 1e-8
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(
        capsys,
        2,
        ok,
        f"equations {equations:.2e}, rank {mem.rank}, traces {traces:.2e}, "
        f"unitarity {unitarity:.2e}, U {u.shape[0]}x{u.shape[1]}, {elapsed:.3f}s",
    )


def test_criterion_3_extremality_consistency(capsys):
    rng = np.random.default_rng(103)
    _, channel, system, point = hm_setup()
    candidates = []
    for _ in range(20):
        u = haar_unitary(rng, 2)
        candidates.append(LmiPoint(2, tuple(u @ a @ u.conj().T for a in point.a)))
    conj_report = extremality_check(channel, system, candidates, Tolerance(abs_tol=1e-9))
    ok = conj_report.all_consistent
    ok = ok and all(c.rank == 2 and c.trace_norm <= 1e-9 for c in conj_report.candidates)

    worst_equation = worst_trace = 0.0
    for _ in range(50):
        a1, a2, a3 = nilpotent_solution(rng)
        worst_equation = max(worst_equation, max(hm_equation_residuals(a1, a2, a3)))
        mem = lmi_membership(system, LmiPoint(2, (a1, a2, a3)))
        ok = ok and mem.psd and mem.rank <= 2
        worst_trace = max(worst_trace, max(abs(t) for t in mem.traces))
    ok = ok and worst_equation <= 1e-9 and worst_trace <= 1e-9
    report(
        capsys,
        3,
        ok,
        f"20 conjugations consistent, 50 nilpotent solutions: "
        f"equations {worst_equation:.2e}, traces {worst_trace:.2e}",
    )


def test_criterion_4_choi_roundtrip(capsys):
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(1, n * n + 1))
        c = choi_from_kraus(random_cp_channel(rng, n, n, p))
        back = choi_from_kraus(kraus_from_choi(c))
        worst = max(worst, frob(back.matrix - c.matrix) / frob(c.matrix))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    report(capsys, 4, ok, f"50 maps, worst relative residual {worst:.2e}, {elapsed:.3f}s")


def test_criterion_5_stinespring_reconstruction(capsys):
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        k = random_tp_channel(rng, n, p)
        u, _ = stinespring_dilation(k)
        e11 = np.zeros((p, p), dtype=complex)
        e11[0, 0] = 1.0
        for a in range(n):
            for b in range(n):
                x = np.zeros((n, n), dtype=complex)
                x[a, b] = 1.0
                lifted = u @ kron(x, e11) @ u.conj().T
                resid = frob(partial_trace(lifted, (n, p), "right") - apply_channel(k, x))
                worst = max(worst, resid)
    ok = worst <= 1e-9
    report(capsys, 5, ok, f"10 channels, worst basis-wise residual {worst:.2e}")


def test_criterion_6_unitarity_complement_equivalence(capsys):
    rng = np.random.default_rng(106)
    tol = Tolerance(abs_tol=1e-8)
    agreements = 0
    total = 0
    for trial in range(20):
        n = int(rng.integers(2, 4))
        kk = int(rng.integers(2, 4))
        w = haar_unitary(rng, n * kk)
        channel, cert = dilation_certificate(w, n, kk)
        report_ = verify_certificate(channel, cert, tol)
        unit_ok = report_.unitarity_residual <= tol.abs_tol
        compl_ok = report_.complement_residual <= tol.abs_tol
        total += 1
        agreements += int(unit_ok == compl_ok)
        assert unit_ok and compl_ok

        elements = [list(e) for e in cert.elements]
        mode = trial % 4
        if mode == 0:
            elements[0][0] = 1.01 * elements[0][0]
        elif mode == 1:
            elements[0][0] = elements[0][0] + 0.01 * random_hermitian(rng, kk)
        elif mode == 2:
            elements[0][0] = complex_gaussian(rng, (kk, kk))
        else:
            elements[0][0], elements[-1][0] = elements[-1][0], elements[0][0]
        bad = FactorizationCertificate(cert.algebra, tuple(tuple(e) for e in elements))
        report_ = verify_certificate(channel, bad, tol)
        unit_ok = report_.unitarity_residual <= tol.abs_tol
        compl_ok = report_.complement_residual <= tol.abs_tol
        total += 1
        agreements += int(unit_ok == compl_ok)
    ok = agreements == total == 40
    report(capsys, 6, ok, f"{agreements}/{total} boolean agreements")


def test_criterion_7_combine_decompose_roundtrip(capsys):
    _, channel, system, point = hm_setup()
    cert1 = certificate_from_point(channel, system, point)
    identity = KrausChannel((np.eye(6, dtype=complex),))
    cert2 = FactorizationCertificate(
        FactorAlgebra(((1, 1.0),)), ((np.array([[1.0 + 0j]]),),)
    )
    assert verify_certificate(identity, cert2).passed
    t = 0.3
    mixed, cert = combine_certificates(channel, cert1, identity, cert2, t)
    components = decompose_by_factors(mixed, cert)

    weights = [c.weight for c in components]
    weight_err = max(abs(weights[0] - 0.3), abs(weights[1] - 0.7))
    choi_err = max(
        frob(choi_from_kraus(components[0].channel).matrix - choi_from_kraus(channel).matrix),
        frob(choi_from_kraus(components[1].channel).matrix - choi_from_kraus(identity).matrix),
    )
    gram_total = sum(c.weight * c.gram for c in components)
    gram_err = frob(gram_total - np.eye(mixed.num_kraus))
    ok = weight_err <= 1e-10 and choi_err <= 1e-8 and gram_err <= 1e-8
    report(
        capsys,
        7,
        ok,
        f"weights off by {weight_err:.2e}, Choi off by {choi_err:.2e}, "
        f"gram sum off by {gram_err:.2e}",
    )


def test_criterion_8_extreme_channel_test(capsys):
    rng = np.random.default_rng(108)
    ok = True
    for n in (2, 3, 4):
        ok = ok and len(selfadjoint_kernel_basis(KrausChannel((haar_unitary(rng, n),)))) == 0
    _, channel, _, _ = hm_setup()
    ok = ok and len(selfadjoint_kernel_basis(channel)) != 0
    mixtures_false = True
    for t in (0.1, 0.3, 0.5, 0.7, 0.9):
        u1 = KrausChannel((haar_unitary(rng, 3),))
        u2 = KrausChannel((haar_unitary(rng, 3),))
        mixtures_false = mixtures_false and len(
            selfadjoint_kernel_basis(convex_combine_channels(u1, u2, t))
        ) != 0
    ok = ok and mixtures_false
    report(capsys, 8, ok, "unitary conjugations extreme, HM and two-unitary mixtures not")


def test_criterion_9_matrix_convexity_closure(capsys):
    rng = np.random.default_rng(109)
    violations = 0
    points = 0
    while points < 100:
        p = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        system = LmiSystem(p, tuple(random_hermitian(rng, p) for _ in range(d)))

        def solution(k):
            a = tuple(random_hermitian(rng, k) for _ in range(d))
            shift = sum(kron(zi, ai) for zi, ai in zip(system.z, a))
            low = float(np.linalg.eigvalsh(shift)[0]) if d else 0.0
            scale = 1.0 if low >= -0.5 else 0.45 / abs(low)
            return LmiPoint(k, tuple(scale * ai for ai in a))

        k1 = int(rng.integers(1, 4))
        k2 = int(rng.integers(1, 4))
        first = solution(k1)
        second = solution(k2)
        assert lmi_membership(system, first).psd
        assert lmi_membership(system, second).psd

        summed = LmiPoint(
            k1 + k2,
            tuple(
                np.block(
                    [
                        [a, np.zeros((k1, k2))],
                        [np.zeros((k2, k1)), b],
                    ]
                )
                for a, b in zip(first.a, second.a)
            ),
        )
        u = haar_unitary(rng, k1)
        rotated = LmiPoint(k1, tuple(u @ a @ u.conj().T for a in first.a))
        j = int(rng.integers(1, k1 + k2 + 1))
        big = k1 + k2
        w = random_isometry(rng, big, j) if j < big else haar_unitary(rng, big)
        compressed = LmiPoint(j, tuple(w.conj().T @ a @ w for a in summed.a))

        for closure_point in (summed, rotated, compressed):
            if not lmi_membership(system, closure_point).psd:
                violations += 1
            points += 1
            if points == 100:
                break
    ok = violations == 0
    report(capsys, 9, ok, f"{points} closure points, {violations} violations")
