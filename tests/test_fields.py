"""Values derived from other fields, or fixed, are read but never passed in."""

import numpy as np
import pytest

from wavefilter import verify
from wavefilter.filters import FeatureLayout, FilterBank
from wavefilter.hankel import HankelMatrix, Spectrum
from wavefilter.lds import Trajectory
from wavefilter.online import OnlineRunResult, RegretReport
from wavefilter.verify import ToleranceProfile

_BANK = dict(phis=np.eye(2, 4), sigmas=np.ones(2), method="eigen")
_TRAJECTORY = dict(inputs=np.ones((2, 1)), outputs=np.ones((2, 1)))
_RUN = dict(
    predictions=np.zeros((2, 1)), losses=np.array([1.0, 2.0]), state=None, matrix_norms=np.zeros(2),
    comparator_losses=np.array([0.5, 0.5]), comparator_kind="best-fixed-M",
)

CASES = [
    (FilterBank, _BANK, "horizon", 4),
    (FilterBank, _BANK, "k", 2),
    (FilterBank, _BANK, "scaled_filters", np.eye(2, 4)),
    (FilterBank, _BANK, "spectrum", np.fft.rfft(np.eye(2, 4), 8)),
    (FeatureLayout, dict(n=1, k=2, m=0), "include_y", False),
    (HankelMatrix, dict(symbol=np.ones(5)), "size", 3),
    (HankelMatrix, dict(symbol=np.ones(5)), "entries", np.ones((3, 3))),
    (Spectrum, dict(sigmas=np.ones(2), phis=np.eye(3, 2)), "source_size", 3),
    (Trajectory, _TRAJECTORY, "r_x", 1.0),
    (Trajectory, _TRAJECTORY, "l_y", 1.0),
    (OnlineRunResult, _RUN, "report", RegretReport(3.0, 1.0, "best-fixed-M", horizon=2)),
]


@pytest.mark.parametrize(
    "make, kwargs, name, value", CASES, ids=[f"{c[0].__name__}.{c[2]}" for c in CASES]
)
def test_is_read_but_not_a_keyword(make, kwargs, name, value):
    assert np.array_equal(getattr(make(**kwargs), name), value)
    with pytest.raises(TypeError):
        make(**kwargs, **{name: value})


@pytest.mark.parametrize("name, constant, value", [
    ("alpha_step", "_ALPHA_STEP", 0.002),
    ("seed", "_SEED", 0),
])
def test_verify_grid_and_seed_are_fixed_not_fields(name, constant, value):
    with pytest.raises(TypeError, match=name):
        ToleranceProfile(**{name: value})
    assert getattr(verify, constant) == value
