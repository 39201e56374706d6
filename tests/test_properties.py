"""Hypothesis properties over random inputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chanfact import (  # noqa: E402
    LmiPoint,
    LmiSystem,
    NotPSD,
    RankTooHigh,
    extract_blocks,
    frob,
    hm_derived_point,
    hm_example,
    lmi_eval,
    lmi_membership,
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
