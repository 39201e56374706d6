"""Each matrix family is stored as one stacked complex array."""

import numpy as np
import pytest

from chanfact import DimensionMismatch, GramVectors, KrausChannel, LmiPoint, LmiSystem
from helpers import complex_gaussian

# constructor, stored field, element shape
FAMILIES = {
    "kraus": (KrausChannel, "operators", (2, 3)),
    "lmi-system": (lambda mats: LmiSystem(3, mats), "z", (3, 3)),
    "lmi-point": (lambda mats: LmiPoint(2, mats), "a", (2, 2)),
    "gram": (GramVectors, "vectors", (4,)),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("container", [tuple, list, np.array])
def test_family_is_one_complex_array(family, container):
    make, name, shape = FAMILIES[family]
    mats = [complex_gaussian(np.random.default_rng(i), shape) for i in range(3)]
    stored = getattr(make(container(mats)), name)
    assert isinstance(stored, np.ndarray) and stored.dtype == complex
    assert stored.shape == (3, *shape) and stored.flags.c_contiguous
    assert len(stored) == 3
    assert all(np.array_equal(got, want) for got, want in zip(stored, mats))
    assert np.array_equal(stored[1], mats[1])
    assert np.array_equal(np.asarray(stored), np.array(mats))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_real_family_is_stored_complex(family):
    make, name, shape = FAMILIES[family]
    stored = getattr(make((np.ones(shape),)), name)
    assert stored.dtype == complex and np.array_equal(stored, np.ones((1, *shape)))


def test_empty_pencil_families_keep_their_shape():
    assert LmiSystem(3, ()).z.shape == (0, 3, 3)
    assert LmiSystem(3, np.zeros((0, 3, 3))).z.shape == (0, 3, 3)
    assert LmiSystem(3, []).d == 0
    assert LmiPoint(2, []).a.shape == (0, 2, 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: KrausChannel((np.eye(2), np.eye(3))),
        lambda: KrausChannel((np.ones(3),)),
        lambda: KrausChannel(np.ones(3)),
        lambda: KrausChannel(()),
        lambda: KrausChannel(np.zeros((0, 2, 2))),
        lambda: LmiSystem(2, (np.eye(2), np.eye(3))),
        lambda: LmiSystem(2, (np.eye(3),)),
        lambda: LmiSystem(2, (np.ones(2),)),
        lambda: LmiSystem(2, np.zeros((0, 3, 3))),
        lambda: LmiPoint(2, (np.eye(2), np.eye(1))),
        lambda: LmiPoint(2, (np.eye(3),)),
        lambda: GramVectors((np.ones(2), np.ones(3))),
        lambda: GramVectors((np.eye(2),)),
        lambda: GramVectors(()),
    ],
    ids=[
        "kraus-ragged", "kraus-1d-operator", "kraus-1d-array", "kraus-empty",
        "kraus-empty-array", "system-ragged", "system-wrong-shape", "system-1d",
        "system-empty-wrong-shape", "point-ragged", "point-wrong-shape",
        "gram-ragged", "gram-matrix", "gram-empty",
    ],
)
def test_bad_family_raises_dimension_mismatch(build):
    with pytest.raises(DimensionMismatch):
        build()
