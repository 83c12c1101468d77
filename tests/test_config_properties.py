"""Property test of the study-config boundary: every number is finite.
Below it, every positivity guard of the library also rejects NaN, and so
does every float field of every record that checks itself."""

import dataclasses
import importlib
import math
import pkgutil

from hypothesis import given, settings, strategies as st
import pytest

import wingbeat
from wingbeat.aero import AeroEnvironment, SolverSettings
from wingbeat.config import (
    ConfigError,
    ControlSection,
    PowerSection,
    StudyConfig,
    TrimSection,
)
from wingbeat.control import (
    ControllerConfig,
    LowPassFilter,
    YawPlant,
    integrate_yaw,
    low_pass_coefficient,
)
from wingbeat.harness import check_trim_bracket
from wingbeat.kinematics import FourierSeries, WingKinematics
from wingbeat.power import (
    MotorElectrical,
    WingMassModel,
    decompose,
    lift_to_power,
    shunt_current,
)
from wingbeat.presets import beetle_kinematics, standard_wing
from wingbeat.wing import WingGeometry, scaled_to_area

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
    (lambda: YawPlant(1.0, disturbance=NAN),
     "yaw plant disturbance must be finite"),
    (lambda: WingGeometry(0.0, [(0.0, 0.02), (0.09, NAN)]),
     "chord must be non-negative at every breakpoint"),
    (lambda: dataclasses.replace(standard_wing(25.5), root_offset=NAN),
     "root offset must be non-negative"),
    (lambda: dataclasses.replace(standard_wing(25.5),
                                 pitch_axis_fraction=NAN),
     "pitch-axis chord fraction must lie in [0, 1]"),
    (lambda: WingGeometry(0.0, [(0.0, 0.02), (NAN, 0.02)]),
     "breakpoint stations must strictly increase, got [0.0, nan]"),
    (lambda: scaled_to_area(standard_wing(25.5), NAN),
     "target area must be positive"),
    (lambda: WingKinematics(FourierSeries(0.0, (0.0,), (1.0,)),
                            ((1.0, FourierSeries(1.0, (), ())),), NAN),
     "frequency must be positive"),
    (lambda: ControllerConfig(1.0, 1.0, 10.0, 1.0, ()),
     "setpoint schedule must be a non-empty sequence of finite (time, "
     "heading) pairs"),
    (lambda: ControllerConfig(1.0, 1.0, cutoff_hz=NAN),
     "filter cutoff must be positive"),
    (lambda: ControllerConfig(NAN, 1.0),
     "gains kp, kd and plant_gain must be finite"),
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
    (lambda: WingMassModel((1e-4,), (NAN,), (0.5,), (0.0,)),
     "radii and pitch offsets must be finite"),
    (lambda: decompose(NAN, 1.0, MotorElectrical(1.0), 0.1, 0.1),
     "input power must be non-negative"),
], ids=["standard_wing", "check_trim_bracket", "YawPlant",
        "YawPlant.disturbance", "WingGeometry.chord",
        "WingGeometry.root_offset", "WingGeometry.pitch_axis_fraction",
        "WingGeometry.station", "scaled_to_area", "WingKinematics",
        "ControllerConfig.setpoint_schedule", "ControllerConfig.cutoff_hz",
        "ControllerConfig.kp", "low_pass_coefficient", "integrate_yaw",
        "MotorElectrical", "shunt_current", "lift_to_power", "WingMassModel",
        "WingMassModel.radii", "decompose"])
def test_positivity_guards_reject_nan(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# Float fields that a record leaves unchecked on purpose, each with why.
UNCHECKED = {
    "FourierSeries.a0": "a constant angle offset of any value; the config "
                        "parse rejects non-finite numbers",
    "LowPassFilter.y": "the filter's running output, not a parameter; the "
                       "closed loop starts it at 0",
}
# One valid instance of each record that has a __post_init__ and a float
# field; the test below fails for a new such record missing here.
EXAMPLES = [
    AeroEnvironment(), SolverSettings(),
    FourierSeries(0.0, (0.0,), (1.0,)), beetle_kinematics(),
    LowPassFilter(0.5),
    YawPlant(1.0), ControllerConfig(4.0, 2.5), MotorElectrical(1.0),
    standard_wing(25.5), TrimSection(15.8, 8.0, 40.0), ControlSection(),
    PowerSection(7.4, 3.7, 2.0, 1.0, 4e-4),
]
MODULES = [importlib.import_module(f"wingbeat.{info.name}")
           for info in pkgutil.iter_modules(wingbeat.__path__)]
RECORDS = [cls for module in MODULES for cls in vars(module).values()
           if dataclasses.is_dataclass(cls)
           and cls.__module__ == module.__name__
           and "__post_init__" in vars(cls)
           and any(f.type is float for f in dataclasses.fields(cls))]
FLOAT_FIELDS = [(record, f.name) for record in EXAMPLES
                for f in dataclasses.fields(record) if f.type is float]


def test_every_self_checking_record_with_a_float_field_has_an_example():
    assert sorted(c.__name__ for c in RECORDS) == sorted(
        type(r).__name__ for r in EXAMPLES)


@pytest.mark.parametrize(
    "record, name", FLOAT_FIELDS,
    ids=[f"{type(r).__name__}.{name}" for r, name in FLOAT_FIELDS])
def test_a_nan_float_field_is_rejected_unless_listed(record, name):
    # A listed field must really be unchecked, so the list cannot go stale.
    key = f"{type(record).__name__}.{name}"
    if key in UNCHECKED:
        dataclasses.replace(record, **{name: NAN})
    else:
        with pytest.raises(ValueError):
            dataclasses.replace(record, **{name: NAN})
