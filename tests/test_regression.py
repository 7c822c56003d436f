from __future__ import annotations

import random
import warnings

import pytest

from squelchsim.regression import (
    DegenerateFitError,
    ExtrapolationWarning,
    GainParameterError,
    NonInvertibleError,
    PointsParseError,
    compute_gain,
    fit_linear,
    invert,
    predict,
    read_points_csv,
)


def fit_reference_models(cpu_points, msgs_points):
    cpu = fit_linear(cpu_points, x_name="peers", y_name="cpu_percent")
    msgs = fit_linear(msgs_points, x_name="peers", y_name="messages_per_s")
    return cpu, msgs


def quiet_predict(model, x):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        return predict(model, x)


# --- fitting -------------------------------------------------------------------

def test_cpu_model_coefficients(cpu_points):
    model = fit_linear(cpu_points)
    assert model.intercept == pytest.approx(15.8754, abs=0.001)
    assert model.slope == pytest.approx(0.1177, abs=0.0001)
    assert model.r_squared > 0.96
    assert model.n_points == 7


def test_messages_model_coefficients(msgs_points):
    model = fit_linear(msgs_points)
    assert model.intercept == pytest.approx(-75.0943, abs=0.05)
    assert model.slope == pytest.approx(123.6365, abs=0.005)
    assert model.r_squared > 0.96


def test_exact_line():
    model = fit_linear([(0, 1), (1, 3), (2, 5)])
    assert model.intercept == pytest.approx(1.0, abs=1e-12)
    assert model.slope == pytest.approx(2.0, abs=1e-12)
    assert model.r_squared == 1.0


@pytest.mark.parametrize("seed", range(15))
def test_recovers_random_lines(seed):
    rng = random.Random(seed)
    a, b = rng.uniform(-50, 50), rng.uniform(-10, 10)
    xs = sorted(rng.uniform(-100, 100) for _ in range(rng.randint(2, 30)))
    if max(xs) - min(xs) < 1e-6:
        pytest.skip("degenerate draw")
    model = fit_linear([(x, a + b * x) for x in xs])
    assert model.intercept == pytest.approx(a, abs=1e-6)
    assert model.slope == pytest.approx(b, abs=1e-8)
    assert model.r_squared == 1.0


def test_two_point_closed_form():
    x0, y0, x1, y1 = 3.0, 7.0, 11.0, -5.0
    model = fit_linear([(x0, y0), (x1, y1)])
    slope = (y1 - y0) / (x1 - x0)
    assert model.slope == pytest.approx(slope, abs=1e-12)
    assert model.intercept == pytest.approx(y0 - slope * x0, abs=1e-12)
    assert model.r_squared == 1.0


def test_constant_y_has_unit_r_squared():
    model = fit_linear([(0, 4.0), (1, 4.0), (2, 4.0)])
    assert model.slope == 0.0
    assert model.r_squared == 1.0


def test_degenerate_fits():
    with pytest.raises(DegenerateFitError):
        fit_linear([(1.0, 2.0)])
    with pytest.raises(DegenerateFitError):
        fit_linear([(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)])


# --- predict / invert -------------------------------------------------------------

def test_predict_at_zero_is_intercept(cpu_points):
    model = fit_linear(cpu_points)
    assert quiet_predict(model, 0.0) == model.intercept


def test_predict_cpu_at_200_peers(cpu_points):
    model = fit_linear(cpu_points)
    assert quiet_predict(model, 200) == pytest.approx(39.41, abs=0.05)


def test_predict_messages_at_200_peers(msgs_points):
    model = fit_linear(msgs_points)
    assert quiet_predict(model, 200) == pytest.approx(24652.2, abs=1.0)


def test_predict_flags_extrapolation(cpu_points):
    model = fit_linear(cpu_points)
    with pytest.warns(ExtrapolationWarning):
        predict(model, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        predict(model, 40)  # inside the fitted range: no warning


def test_invert_messages_model(msgs_points):
    inverse = invert(fit_linear(msgs_points))
    assert inverse.slope == pytest.approx(0.008088, abs=0.0002)
    assert inverse.intercept == pytest.approx(0.6074, abs=0.001)


def test_invert_simple_and_round_trip(msgs_points):
    model = fit_linear([(0, 0), (1, 2)])
    inverse = invert(model)
    assert inverse.slope == 0.5
    assert inverse.intercept == 0.0
    m = fit_linear(msgs_points)
    mm = invert(invert(m))
    assert mm.slope == pytest.approx(m.slope, abs=1e-9)
    assert mm.intercept == pytest.approx(m.intercept, abs=1e-9)
    assert mm.x_name == m.x_name and mm.y_name == m.y_name


def test_invert_zero_slope():
    with pytest.raises(NonInvertibleError):
        invert(fit_linear([(0, 4.0), (1, 4.0)]))


@pytest.mark.parametrize("seed", range(10))
def test_predict_invert_consistency(seed):
    rng = random.Random(seed)
    pts = [(x, rng.uniform(1, 2) * x + rng.uniform(-3, 3)) for x in range(10)]
    model = fit_linear(pts)
    x = rng.uniform(-50, 50)
    back = quiet_predict(invert(model), quiet_predict(model, x))
    assert back == pytest.approx(x, rel=1e-6, abs=1e-9)


# --- gain extrapolation --------------------------------------------------------------

def test_compute_gain_reference(cpu_points, msgs_points):
    cpu, msgs = fit_reference_models(cpu_points, msgs_points)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        gain = compute_gain(cpu, msgs, 200, 0.28905)
    assert gain.baseline.peers == 200
    assert gain.baseline.messages_per_s == pytest.approx(24652, abs=1.0)
    assert gain.baseline.cpu_percent == pytest.approx(39.41, abs=0.05)
    assert gain.squelched.peers == pytest.approx(142, abs=1)
    assert gain.squelched.messages_per_s == pytest.approx(17527, abs=15)
    assert 32.55 <= gain.squelched.cpu_percent <= 32.66
    assert gain.freed_slots == pytest.approx(58, abs=1)
    assert gain.connectivity_gain_percent == pytest.approx(29.0, abs=0.5)
    assert gain.cpu_saved_percent == pytest.approx(17.3, abs=0.5)


def test_compute_gain_vanishing_fraction(cpu_points, msgs_points):
    cpu, msgs = fit_reference_models(cpu_points, msgs_points)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        gain = compute_gain(cpu, msgs, 60, 1e-9)
    assert gain.freed_slots == 0
    assert gain.cpu_saved_percent == pytest.approx(0.0, abs=1e-6)


def test_compute_gain_hand_evaluation():
    cpu = fit_linear([(0, 10.0), (10, 20.0)])   # cpu = 10 + 1.0 * peers
    msgs = fit_linear([(0, 0.0), (10, 1000.0)])  # msgs = 100 * peers
    gain = compute_gain(cpu, msgs, 10, 0.5)
    assert gain.baseline.messages_per_s == pytest.approx(1000.0)
    assert gain.baseline.cpu_percent == pytest.approx(20.0)
    assert gain.squelched.messages_per_s == pytest.approx(500.0)
    assert gain.squelched.peers == 5
    assert gain.squelched.cpu_percent == pytest.approx(15.0)
    assert gain.freed_slots == 5
    assert gain.connectivity_gain_percent == pytest.approx(50.0)
    assert gain.cpu_saved_percent == pytest.approx(25.0)


def test_compute_gain_parameter_errors(cpu_points, msgs_points):
    cpu, msgs = fit_reference_models(cpu_points, msgs_points)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(GainParameterError):
            compute_gain(cpu, msgs, 200, bad)
    for peers in (0, 10**400):  # 10**400 does not fit a float
        with pytest.raises(GainParameterError):
            compute_gain(cpu, msgs, peers, 0.5)
    # Fits a float, but the message model's prediction overflows to inf.
    with pytest.warns(ExtrapolationWarning), pytest.raises(GainParameterError):
        compute_gain(cpu, msgs, 10**308, 0.5)


# --- CSV ingestion ---------------------------------------------------------------------

def test_read_points_csv(cpu_csv_path, cpu_points):
    assert read_points_csv(cpu_csv_path.read_text()) == [
        (float(x), y) for x, y in cpu_points
    ]


def test_read_points_csv_errors():
    for row in ("1,2,3", "1,banana", "2,oops", "nan,1", "1,inf", "1e400,2"):
        with pytest.raises(PointsParseError, match="line 3"):
            read_points_csv(f"x,y\n0,1\n{row}\n")
