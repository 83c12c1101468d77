"""Property test of the study-config boundary: every number is finite.
Below it, every positivity guard of the library also rejects NaN."""

import math

from hypothesis import given, settings, strategies as st
import pytest

from wingbeat.config import ConfigError, StudyConfig
from wingbeat.control import YawPlant, integrate_yaw, low_pass_coefficient
from wingbeat.harness import check_trim_bracket
from wingbeat.kinematics import FourierSeries
from wingbeat.power import (
    MotorElectrical,
    WingMassModel,
    decompose,
    lift_to_power,
    shunt_current,
)
from wingbeat.presets import standard_wing
from wingbeat.wing import build_wing, scaled_to_area

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
positive = st.floats(min_value=1e-3, max_value=1e3)
fraction = st.floats(min_value=0.0, max_value=1.0)
coefficients = st.lists(finite, max_size=3)


@st.composite
def wings(draw):
    steps = draw(st.lists(st.floats(min_value=1e-3, max_value=0.05),
                          min_size=1, max_size=4))
    stations = [0.0]
    for step in steps:
        stations.append(stations[-1] + step)
    chords = draw(st.lists(st.floats(min_value=0.0, max_value=0.03),
                           min_size=len(stations), max_size=len(stations)))
    chords[-1] = max(chords[-1], 1e-3)     # keep a non-zero area
    return {
        "span_m": stations[-1],
        "root_offset_m": draw(st.floats(min_value=0.0, max_value=0.02)),
        "breakpoints": [[r, c] for r, c in zip(stations, chords)],
        "rotation_axis": {"type": "fraction", "value": draw(fraction)},
        "cutout_span_fraction": draw(st.floats(min_value=0.0,
                                               max_value=0.9)),
    }


@st.composite
def series(draw):
    a, b = draw(coefficients), draw(coefficients)
    return {"a0_deg": draw(finite), "a_deg": a, "b_deg": b}


@st.composite
def kinematics(draw):
    stroke = draw(series())
    stroke["b_deg"] = stroke["b_deg"] + [draw(positive)]  # a moving stroke
    stations = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        station = draw(series())
        station["span_fraction"] = draw(fraction)
        stations.append(station)
    return {"frequency_hz": draw(positive), "stroke": stroke,
            "rotation_stations": stations}


@st.composite
def study_docs(draw):
    axis = st.lists(finite, min_size=1, max_size=3)
    return {
        "wing": draw(wings()),
        "kinematics": draw(kinematics()),
        "environment": {"rho_kg_m3": draw(positive),
                        "nu_m2_s": draw(positive)},
        "sweep": {key: draw(axis) for key in draw(st.sets(st.sampled_from(
            ("amplitude_deg", "area_cm2", "cutout", "frequency_hz"))))},
        "solver": {
            "steps_per_cycle": draw(st.integers(36, 4000)),
            "n_elements": draw(st.integers(2, 200)),
            "pair": draw(st.booleans()),
            "vi_tol": draw(st.floats(min_value=1e-12, max_value=1.0)),
            "vi_max_iter": draw(st.integers(1, 1000)),
        },
        "output": {"directory": draw(st.text(max_size=8))},
    }


def numeric_paths(node, path=()):
    """Paths to every number (not bool) in a config document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield path
        return
    for key, child in items:
        yield from numeric_paths(child, path + (key,))


@settings(max_examples=60, deadline=None)
@given(study_docs(), st.data(),
       st.sampled_from((math.nan, math.inf, -math.inf, "1.0", True)))
def test_non_finite_number_is_a_config_error(doc, data, bad):
    path = data.draw(st.sampled_from(list(numeric_paths(doc))))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    with pytest.raises(ConfigError):
        StudyConfig.from_dict(doc)


NAN = math.nan


@pytest.mark.parametrize("call, message", [
    (lambda: standard_wing(NAN), "wing area must be positive"),
    (lambda: check_trim_bracket(NAN, 8.0, 40.0),
     "target lift must be positive"),
    (lambda: YawPlant(NAN), "yaw inertia must be positive"),
    (lambda: build_wing([(0.0, 0.02), (0.09, NAN)]),
     "chord must be non-negative at every breakpoint"),
    (lambda: build_wing([(0.0, 0.02), (0.09, 0.02)], root_offset=NAN),
     "root offset must be non-negative"),
    (lambda: build_wing([(0.0, 0.02), (NAN, 0.02)]),
     "breakpoint stations must strictly increase, got [0.0, nan]"),
    (lambda: scaled_to_area(standard_wing(25.5), NAN),
     "target area must be positive"),
    (lambda: FourierSeries(0.0, (0.0,), (1.0,), NAN),
     "frequency must be positive"),
    (lambda: low_pass_coefficient(NAN, 1e-3),
     "cutoff and sample time must be positive"),
    (lambda: integrate_yaw(0.0, 0.0, NAN),
     "time step must be positive"),
    (lambda: MotorElectrical(NAN), "motor resistance must be positive"),
    (lambda: shunt_current(5.0, 4.9, NAN),
     "shunt resistance must be positive"),
    (lambda: lift_to_power(0.1, NAN),
     "lift-to-power ratio needs positive power"),
    (lambda: WingMassModel((NAN,), (0.05,), (0.5,), (0.0,)),
     "masses must be non-negative"),
    (lambda: decompose(NAN, 1.0, MotorElectrical(1.0), 0.1, 0.1),
     "input power must be non-negative"),
], ids=["standard_wing", "check_trim_bracket", "YawPlant", "build_wing.chord",
        "build_wing.root_offset", "build_wing.station", "scaled_to_area",
        "FourierSeries", "low_pass_coefficient", "integrate_yaw",
        "MotorElectrical", "shunt_current", "lift_to_power", "WingMassModel",
        "decompose"])
def test_positivity_guards_reject_nan(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
