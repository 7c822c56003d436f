"""Linear capacity models and the gain extrapolation of the squelch policy.

Ordinary least squares over (x, y) points yields the two operating models
used throughout: mean CPU percentage versus peer count, and total messages
per second versus peer count. Inverting the message model converts a
message budget back into an equivalent peer count, which is how the freed
peer slots and the CPU saving of a squelch-enabled node are derived.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Iterable
from dataclasses import dataclass


class DegenerateFitError(ValueError):
    """Fewer than two points, no x variance to fit a slope against, or points
    too large for the fit's sums to stay finite."""


class NonInvertibleError(ValueError):
    """A zero-slope model has no inverse."""


class GainParameterError(ValueError):
    """Gain extrapolation called with out-of-range parameters."""


class PointsParseError(ValueError):
    """A malformed or non-finite row in an x,y points CSV."""


class ExtrapolationWarning(UserWarning):
    """predict() was asked for a point outside the fitted x range."""


@dataclass(frozen=True)
class LinearModel:
    intercept: float
    slope: float
    r_squared: float
    n_points: int
    x_name: str = "x"
    y_name: str = "y"
    x_min: float = float("-inf")
    x_max: float = float("inf")


@dataclass(frozen=True)
class OperatingPoint:
    peers: float
    messages_per_s: float
    cpu_percent: float


@dataclass(frozen=True)
class GainReport:
    baseline: OperatingPoint
    squelched: OperatingPoint
    cpu_saved_percent: float
    freed_slots: int
    connectivity_gain_percent: float


def fit_linear(
    points: list[tuple[float, float]],
    x_name: str = "x",
    y_name: str = "y",
) -> LinearModel:
    """Ordinary least-squares fit. r_squared is 1 - SS_res/SS_tot, defined
    as 1.0 when the y values carry no variance at all."""
    if len(points) < 2:
        raise DegenerateFitError("need at least two points")
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    n = len(points)
    x_mean = _finite_sum(xs) / n
    y_mean = _finite_sum(ys) / n
    sxx = _finite_sum((x - x_mean) ** 2 for x in xs)
    if sxx == 0.0:
        raise DegenerateFitError("all x values identical; slope is undefined")
    sxy = _finite_sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise DegenerateFitError("slope or intercept overflows floating point")
    ss_res = _finite_sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = _finite_sum((y - y_mean) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return LinearModel(
        intercept=intercept,
        slope=slope,
        r_squared=r_squared,
        n_points=n,
        x_name=x_name,
        y_name=y_name,
        x_min=min(xs),
        x_max=max(xs),
    )


def _finite_sum(values: Iterable[float]) -> float:
    """math.fsum that reports an overflowing term or total as a DegenerateFitError."""
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError):  # a float ** 2 overflow, or fsum's inf - inf
        total = math.inf
    if not math.isfinite(total):
        raise DegenerateFitError("points too large: a sum of the fit overflows floating point")
    return total


def predict(model: LinearModel, x: float) -> float:
    """Evaluate the line at x. Extrapolation is permitted but flagged."""
    if x < model.x_min or x > model.x_max:
        warnings.warn(
            f"{model.y_name} predicted at {model.x_name}={x}, outside the fitted "
            f"range [{model.x_min}, {model.x_max}]",
            ExtrapolationWarning,
            stacklevel=2,
        )
    return model.intercept + model.slope * x


def invert(model: LinearModel) -> LinearModel:
    """Swap the axes: y = a + b*x becomes x = -a/b + (1/b)*y."""
    if model.slope == 0.0:
        raise NonInvertibleError("zero slope cannot be inverted")
    lo = model.intercept + model.slope * model.x_min
    hi = model.intercept + model.slope * model.x_max
    return LinearModel(
        intercept=-model.intercept / model.slope,
        slope=1.0 / model.slope,
        r_squared=model.r_squared,
        n_points=model.n_points,
        x_name=model.y_name,
        y_name=model.x_name,
        x_min=min(lo, hi),
        x_max=max(lo, hi),
    )


def compute_gain(
    cpu_model: LinearModel,
    msgs_model: LinearModel,
    baseline_peers: int,
    saved_fraction: float,
) -> GainReport:
    """Project what a node with `baseline_peers` peers gains from the squelch policy.

    The message model gives the baseline message load; shrinking it by
    saved_fraction and mapping it back through the inverted message model
    gives the equivalent (smaller) peer count, floored because a fractional
    peer slot is unusable. CPU is evaluated at both peer counts.
    """
    if baseline_peers <= 0:
        raise GainParameterError("baseline_peers must be positive")
    if baseline_peers > sys.float_info.max:
        raise GainParameterError("baseline_peers exceeds floating-point range")
    if not 0.0 < saved_fraction < 1.0:
        raise GainParameterError("saved_fraction must lie strictly in (0, 1)")
    baseline_msgs = predict(msgs_model, baseline_peers)
    baseline_cpu = predict(cpu_model, baseline_peers)
    if not (math.isfinite(baseline_msgs) and math.isfinite(baseline_cpu)):
        raise GainParameterError("baseline_peers too large: a model prediction overflows")
    squelched_msgs = (1.0 - saved_fraction) * baseline_msgs
    # Tiny slack keeps exact-integer boundaries from flooring down through
    # float noise (a vanishing saved_fraction must free zero slots).
    peers_equivalent = math.floor(predict(invert(msgs_model), squelched_msgs) + 1e-6)
    squelched_cpu = predict(cpu_model, peers_equivalent)
    freed = baseline_peers - peers_equivalent
    return GainReport(
        baseline=OperatingPoint(baseline_peers, baseline_msgs, baseline_cpu),
        squelched=OperatingPoint(peers_equivalent, squelched_msgs, squelched_cpu),
        cpu_saved_percent=100.0 * (baseline_cpu - squelched_cpu) / baseline_cpu,
        freed_slots=freed,
        connectivity_gain_percent=100.0 * freed / baseline_peers,
    )


def read_points_csv(text: str) -> list[tuple[float, float]]:
    """Parse an `x,y` CSV with a single header line into finite points."""
    points: list[tuple[float, float]] = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise PointsParseError(f"line {lineno}: expected 'x,y', got {line!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise PointsParseError(f"line {lineno}: non-numeric point {line!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise PointsParseError(f"line {lineno}: non-finite point {line!r}")
        points.append((x, y))
    return points
