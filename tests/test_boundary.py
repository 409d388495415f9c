"""Every time series enters the package as a finite 2-D (time, coordinates) array.

Each entry below rejects a 0-D, 1-D or 3-D array and a non-finite entry
with a ``ValueError`` that names the argument; none reads a 1-D array as
one step. ``featurize_online`` names its history ``inputs`` and its last
output ``outputs``, as in its non-finite message. Every predictor applies
its (m, width) matrix to one 1-D feature row or a (T, width) stack, and
rejects a wrong width or a non-finite feature by the name ``features``.

Every count, horizon and step index enters through ``lds._count``: the
count table runs a float, a whole float, ``True`` and out-of-range values
through each entry, which rejects them naming the argument and its bound.
The tables at the end cover what a ``FilterBank`` is built from, the one
row and one target of ``online.update``, and the radius and noise floor.
"""

import re

import numpy as np
import pytest

from wavefilter import lds
from wavefilter.baselines import baseline_ar
from wavefilter.batch import BatchSample, fit_batch, predict_derivative, predict_pure_batch
from wavefilter.experiments import ExperimentConfig, simulate_scenario
from wavefilter.filters import (
    FeatureLayout,
    FilterBank,
    augment_alternating,
    augment_hint,
    build_filter_bank,
    featurize_batch,
    featurize_batch_naive,
    featurize_online,
)
from wavefilter.hankel import (
    build_hankel,
    full_spectrum,
    hilbert_matrix,
    mu_curve,
    spectral_tail_sum,
    top_eigenpairs,
)
from wavefilter.lds import (
    LdsParams,
    NoiseConfig,
    Trajectory,
    block_impulse_inputs,
    derivative_predictor,
    impulse_response_output,
    pendulum_simulate,
    simulate,
)
from wavefilter.ode import fitted_wave_operator, ode_filter_bank
from wavefilter.online import (
    OnlineConfig,
    init_state,
    predict,
    regret_vs_best_fixed,
    update,
)
from wavefilter.relaxation import build_M_theta
from wavefilter.verify import ToleranceProfile

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


# Every count, horizon and step index enters through lds._count: an integer
# (numpy integers included) in [least, most], else a ValueError naming it.
TRAJ = Trajectory(SERIES, SERIES)
RNG = np.random.default_rng(0)

# entry: (call on the count under test, its name, least, most or None, a valid value)
COUNTS = {
    "build_hankel": (build_hankel, "T", 1, None, T),
    "hilbert_matrix": (hilbert_matrix, "T", 1, None, T),
    "full_spectrum": (full_spectrum, "T", 1, None, T),
    "mu_curve": (lambda v: mu_curve(0.5, v), "T", 1, None, T),
    "top_eigenpairs": (lambda v: top_eigenpairs(build_hankel(T), v), "k", 1, T, 2),
    "spectral_tail_sum": (lambda v: spectral_tail_sum(full_spectrum(T), v), "k", 0, T, 2),
    "build_filter_bank.T": (lambda v: build_filter_bank(v, 2), "T", 1, None, T),
    "build_filter_bank.k": (lambda v: build_filter_bank(T, v), "k", 1, None, 2),
    "fitted_wave_operator": (fitted_wave_operator, "T", 2, None, T),
    "ode_filter_bank.k": (lambda v: ode_filter_bank(T, v), "k", 1, T, 2),
    "impulse_response_output": (lambda v: impulse_response_output(PARAMS, SERIES, v), "t", 1,
                                T, 2),
    "derivative_predictor": (lambda v: derivative_predictor(PARAMS, TRAJ, v), "t", 1, T, 2),
    "baseline_ar": (lambda v: baseline_ar(TRAJ, v), "tau", 0, None, 2),
    "simulate_scenario": (lambda v: simulate_scenario("mimo_10", v, 0, 0.1, 0.1), "T", 1, None,
                          T),
    "ToleranceProfile": (lambda v: ToleranceProfile(sizes=(T, v)), "sizes[1]", 1, None, T),
    "FeatureLayout.n": (lambda v: FeatureLayout(v, 2, 1), "n", 0, None, 1),
    "FeatureLayout.k": (lambda v: FeatureLayout(1, v, 1), "k", 1, None, 2),
    "FeatureLayout.m": (lambda v: FeatureLayout(1, 2, v), "m", 0, None, 1),
    "NoiseConfig.seed": (lambda v: NoiseConfig(seed=v), "seed", 0, None, 1),
    "ExperimentConfig.horizon": (lambda v: ExperimentConfig("siso_hard", v), "horizon", 1, None,
                                 T),
    "ExperimentConfig.k": (lambda v: ExperimentConfig("siso_hard", T, k=v), "k", 1, None, 2),
    "ExperimentConfig.seeds": (lambda v: ExperimentConfig("siso_hard", T, seeds=(0, v)),
                               "seeds[1]", 0, None, 1),
    "block_impulse_inputs.T": (lambda v: block_impulse_inputs(v, 1, RNG), "T", 0, None, T),
    "block_impulse_inputs.n": (lambda v: block_impulse_inputs(T, v, RNG), "n", 0, None, 1),
}


def _count_cases(entry):
    """(case, value, expected message) for one entry: the ones every gated count rejects."""
    _, name, least, most, good = COUNTS[entry]
    bound = f"at least {least}" if most is None else rf"in \[{least}, {most}\]"
    cases = [("float", good + 0.5, f"an integer, got {good + 0.5}"),
             ("whole-float", float(good), f"an integer, got {float(good)}"),
             ("bool", True, "an integer, got True"),
             ("below", least - 1, f"{bound}, got {least - 1}")]
    if most is not None:
        cases.append(("above", most + 1, f"{bound}, got {most + 1}"))
    return [(entry, case, value, rf"^{re.escape(name)} must be {message}$")
            for case, value, message in cases]


COUNT_CASES = [c for entry in COUNTS for c in _count_cases(entry)]


@pytest.mark.parametrize("entry, case, value, message", COUNT_CASES,
                         ids=[f"{entry}-{case}" for entry, case, _, _ in COUNT_CASES])
def test_count_entry_rejects_by_name(entry, case, value, message):
    call, _, _, _, good = COUNTS[entry]
    call(np.int64(good))  # numpy integers pass
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("call, message", [
    # a bound that comes with its reason keeps it; the gate checks only that it is an integer
    (lambda v: ode_filter_bank(v, 1), r"^method 'ode' needs a horizon T of at least 2, got T=1$"),
], ids=["ode_filter_bank"])
def test_count_with_a_reason_keeps_it(call, message):
    with pytest.raises(ValueError, match=message):
        call(1)
    for value in (2.5, True):
        with pytest.raises(ValueError, match=rf"^T must be an integer, got {value!r}$"):
            call(value)


def test_count_gate_returns_a_python_int():
    assert type(lds._count("k", np.int32(3), least=1, most=5)) is int
    assert ToleranceProfile(sizes=(np.int64(64),)).sizes == (64,)
    layout = FeatureLayout(np.int64(2), np.int64(3), np.int64(1))
    assert [type(v) for v in (layout.n, layout.k, layout.m)] == [int, int, int]


@pytest.mark.parametrize("field, phis, sigmas", [
    ("sigmas", np.eye(2, T), np.array([1.0, -1.0])),  # gave NaN scaled filters
    ("sigmas", np.eye(2, T), np.array([1.0, np.nan])),
    ("sigmas", np.eye(2, T), np.ones((2, 1))),
    ("phis", np.array([[1.0, np.nan]]), np.ones(1)),
    ("phis", np.empty((0, 0)), np.empty(0)),
    ("phis", np.empty((1, 0)), np.ones(1)),
], ids=["negative-sigma", "nan-sigma", "2-D-sigmas", "nan-phi", "no-filter", "no-step"])
def test_filter_bank_rejects_what_it_is_built_from_by_field(field, phis, sigmas):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        FilterBank(phis=phis, sigmas=sigmas, method="eigen")


def _update_state(freeze):
    config = OnlineConfig(bank=BANK, eta=0.1, freeze_y_block=freeze)
    return init_state(config, n=1, m=1, eta=0.1)


@pytest.mark.parametrize("freeze", [True, False], ids=["frozen", "free"])
@pytest.mark.parametrize("case", ["stack", "nan-target", "wide-target", "2-D-target"])
def test_update_takes_one_row_and_one_target(case, freeze):
    state = _update_state(freeze)
    width = state.layout.width
    features, target = np.ones(width), np.ones(1)
    update(state, features, target)
    update(state, features, 0.5)  # a scalar is one output
    if case == "nan-target":
        with pytest.raises(ValueError, match=r"^y_true hold a non-finite value \(nan\)"):
            update(state, features, np.array([np.nan]))
        return
    if case == "stack":
        features = np.ones((3, width))
    else:
        target = np.ones(3) if case == "wide-target" else np.ones((1, 1))
    message = (rf"^features must be a row of width {width} and y_true a target of width 1, "
               rf"got shapes {re.escape(str(features.shape))} and {re.escape(str(target.shape))}$")
    with pytest.raises(ValueError, match=message):
        update(state, features, target)


def test_update_names_a_wrong_feature_width_or_a_nan_feature():
    state = _update_state(True)
    width = state.layout.width
    with pytest.raises(ValueError, match=rf"^features have width {width + 1}, the matrix takes"):
        update(state, np.ones(width + 1), 1.0)
    with pytest.raises(ValueError, match=r"^features hold a non-finite value \(nan\)"):
        update(state, _with_nan(np.ones(width)), 1.0)


@pytest.mark.parametrize("value", [-1.0, np.nan])
def test_a_negative_or_nan_radius_or_floor_is_rejected_by_name(value):
    with pytest.raises(ValueError, match=rf"^r_m must be nonnegative, got {value!r}$"):
        regret_vs_best_fixed(SERIES, SERIES, value)
    with pytest.raises(ValueError, match=rf"^noise_floor must be nonnegative, got {value!r}$"):
        build_M_theta(PARAMS, BANK, noise_floor=value)


def test_a_zero_or_infinite_radius_stays_valid():
    assert regret_vs_best_fixed(SERIES, SERIES, 0.0) == pytest.approx(float((SERIES**2).sum()))
    assert regret_vs_best_fixed(SERIES, SERIES, np.inf) == pytest.approx(0.0, abs=1e-20)
