"""Hypothesis properties over random inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chanfact import (  # noqa: E402
    GramVectors,
    LmiPoint,
    LmiSystem,
    NotPSD,
    RankTooHigh,
    correlation_from_gram,
    extract_blocks,
    frob,
    gram_from_correlation,
    hm_derived_point,
    hm_example,
    is_extreme_channel,
    lmi_eval,
    lmi_membership,
    rank_tol,
    schur_channel,
    schur_channel_from_gram,
    schur_complement_adjoint_apply,
    schur_complement_apply,
    selfadjoint_kernel_basis,
)

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
