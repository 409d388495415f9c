"""Every time series enters the package as a finite 2-D (time, coordinates) array.

Each entry below rejects a 0-D, 1-D or 3-D array and a non-finite entry
with a ``ValueError`` that names the argument; none reads a 1-D array as
one step. ``featurize_online`` names its history ``inputs`` and its last
output ``outputs``, as in its non-finite message. Every predictor applies
its (m, width) matrix to one 1-D feature row or a (T, width) stack, and
rejects a wrong width or a non-finite feature by the name ``features``.
"""

import re

import numpy as np
import pytest

from wavefilter.batch import BatchSample, fit_batch, predict_derivative, predict_pure_batch
from wavefilter.filters import (
    augment_alternating,
    augment_hint,
    build_filter_bank,
    featurize_batch,
    featurize_batch_naive,
    featurize_online,
)
from wavefilter.lds import (
    LdsParams,
    Trajectory,
    impulse_response_output,
    pendulum_simulate,
    simulate,
)
from wavefilter.online import OnlineConfig, init_state, predict, regret_vs_best_fixed
from wavefilter.relaxation import build_M_theta

T = 8
BANK = build_filter_bank(T, 2)
PARAMS = LdsParams(a=np.array([0.5]), b=np.ones((1, 1)), c=np.ones((1, 1)),
                   d=np.zeros((1, 1)), h0=np.zeros(1))
SERIES = np.linspace(-1.0, 1.0, T)[:, None]  # T steps of one coordinate
MODEL = fit_batch([BatchSample(SERIES, SERIES)], BANK)
FEATURES = np.ones((T, MODEL.matrix.shape[1]))

# entry: (call on the value under test, argument name, a valid value)
ENTRIES = {
    "Trajectory.inputs": (lambda v: Trajectory(v, SERIES), "inputs", SERIES),
    "Trajectory.outputs": (lambda v: Trajectory(SERIES, v), "outputs", SERIES),
    "BatchSample.inputs": (lambda v: BatchSample(v, SERIES), "inputs", SERIES),
    "BatchSample.targets": (lambda v: BatchSample(SERIES, v), "targets", SERIES),
    "simulate": (lambda v: simulate(PARAMS, v), "inputs", SERIES),
    "impulse_response_output": (lambda v: impulse_response_output(PARAMS, v, 1), "inputs",
                                SERIES),
    "pendulum_simulate": (lambda v: pendulum_simulate(v, 0.0, 0.0), "inputs", SERIES),
    "regret_vs_best_fixed.features": (lambda v: regret_vs_best_fixed(v, SERIES, 1.0),
                                      "features", SERIES),
    "regret_vs_best_fixed.targets": (lambda v: regret_vs_best_fixed(SERIES, v, 1.0),
                                     "targets", SERIES),
    "predict_pure_batch": (lambda v: predict_pure_batch(MODEL, v), "features", FEATURES),
    "featurize_online": (lambda v: featurize_online(v, np.zeros(1), BANK), "inputs", SERIES),
    "featurize_batch.inputs": (lambda v: featurize_batch(v, BANK), "inputs", SERIES),
    "featurize_batch.y_prev": (lambda v: featurize_batch(SERIES, BANK, v), "y_prev", SERIES),
    "featurize_batch_naive": (lambda v: featurize_batch_naive(v, BANK), "inputs", SERIES),
    "augment_alternating": (augment_alternating, "inputs", SERIES),
    "augment_hint": (lambda v: augment_hint(v, np.ones(2)), "inputs", SERIES),
}


def _with_nan(value):
    bad = np.array(value, dtype=float)
    bad.flat[bad.size // 2] = np.nan
    return bad


SERIES_CASES = {
    "0-D": lambda good: np.array(1.0),
    "1-D": lambda good: good[:, 0],
    "3-D": lambda good: good[:, :, None],
    "nan": _with_nan,
}


@pytest.mark.parametrize("case", SERIES_CASES)
@pytest.mark.parametrize("entry", ENTRIES)
def test_time_series_entry_rejects_by_name(entry, case):
    call, name, good = ENTRIES[entry]
    call(good)
    bad = SERIES_CASES[case](good)
    if case == "nan":
        message = rf"^{name} hold a non-finite value \(nan\) at step \d+, column 1"
    else:
        shape = re.escape(str(bad.shape))
        message = rf"^{name} must be 2-D \(time, coordinates\), got shape {shape}$"
    with pytest.raises(ValueError, match=message):
        call(bad)


# the two one-step vectors: (call on the vector, its name in shape and in non-finite errors)
VECTORS = {
    "featurize_online.y_prev": (lambda v: featurize_online(SERIES, v, BANK), "y_prev",
                                "outputs"),
    "augment_hint.hint": (lambda v: augment_hint(SERIES, v), "hint", "hint"),
}


@pytest.mark.parametrize("case, value", [
    ("2-D", np.ones((1, 2))),
    ("3-D", np.ones((1, 2, 1))),
    ("nan", np.array([1.0, np.nan])),
])
@pytest.mark.parametrize("entry", VECTORS)
def test_vector_entry_is_one_step_of_coordinates(entry, case, value):
    call, name, finite_name = VECTORS[entry]
    assert np.array_equal(call(np.float64(0.5)), call(np.array([0.5])))  # one coordinate
    message = f"^{finite_name} hold a non-finite" if case == "nan" else f"^{name} must be 1-D"
    with pytest.raises(ValueError, match=message):
        call(value)


def test_regret_vs_best_fixed_names_both_lengths():
    with pytest.raises(ValueError, match="^features have 5 steps, the targets 4$"):
        regret_vs_best_fixed(np.ones((5, 2)), np.ones((4, 1)), 1.0)


PREDICTORS = ["online.predict", "batch.predict_derivative", "RelaxedPredictor.predict"]


def _predictor(name):
    """The matrix of one predictor over BANK and its product on features."""
    if name == "online.predict":
        state = init_state(OnlineConfig(bank=BANK, eta=0.1), n=1, m=1, eta=0.1)
        state.matrix[:] = np.linspace(-1.0, 1.0, state.layout.width)
        return state.matrix, lambda f: predict(state, f)
    if name == "batch.predict_derivative":
        return MODEL.matrix, lambda f: predict_derivative(MODEL, f)
    relaxed = build_M_theta(PARAMS, BANK)
    return relaxed.matrix, relaxed.predict


@pytest.mark.parametrize("predictor", PREDICTORS)
def test_predictor_applies_its_matrix_to_a_row_or_a_stack(predictor):
    matrix, apply = _predictor(predictor)
    stack = np.random.default_rng(0).standard_normal((T, matrix.shape[1]))
    assert np.array_equal(apply(stack[3]), matrix @ stack[3])
    assert np.array_equal(apply(stack), stack @ matrix.T)
    square = stack[: matrix.shape[1]]  # (width, width): still rows, not columns
    assert np.array_equal(apply(square), square @ matrix.T)


@pytest.mark.parametrize("shape", [(), (T,)], ids=["row", "stack"])
@pytest.mark.parametrize("predictor", PREDICTORS)
def test_predictor_rejects_a_wrong_width_or_a_nan_by_name(predictor, shape):
    matrix, apply = _predictor(predictor)
    width = matrix.shape[1]
    with pytest.raises(ValueError, match=rf"^features have width {width + 1}, the matrix takes"):
        apply(np.ones((*shape, width + 1)))
    with pytest.raises(ValueError, match=r"^features hold a non-finite value \(nan\)"):
        apply(_with_nan(np.ones((*shape, width))))
