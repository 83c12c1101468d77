"""Study configs, sweep runner, trim, cutout study, exports, and the CLI."""

from dataclasses import asdict, replace
import csv
import inspect
import itertools
import json
import math
import os
from pathlib import Path
import subprocess
import sys
import warnings
import weakref

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import wingbeat
from wingbeat import aero, cli, harness, kinematics
from wingbeat.aero import AeroEnvironment, SolverSettings, simulate_cycle
from wingbeat.config import (
    ConfigError,
    ControlSection,
    CutoutSection,
    PowerSection,
    StudyConfig,
    load_angle_samples,
)
from wingbeat.control import (
    MAX_STEPS,
    ControllerConfig,
    YawPlant,
    simulate_closed_loop,
)
from wingbeat.harness import (
    ComputeError,
    format_float,
    hover_trim,
    run_cutout_study,
    run_sweep,
)
from wingbeat.kinematics import FourierSeries, WingKinematics
from wingbeat.power import GRAM_FORCE_NEWTONS
from wingbeat.presets import beetle_kinematics, standard_wing
from wingbeat.wing import apply_inboard_cutout, scaled_to_area

from oracles import solve_point

# The 25.5 cm^2 wing at 17.3 Hz and 190 deg.
STUDY = json.loads((Path(__file__).resolve().parents[1] / "demos" / "configs"
                    / "study.json").read_text())


def read_csv(path):
    """An exported CSV as (header, rows of cells)."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def base_config_dict(**overrides):
    doc = {
        "wing": json.loads(json.dumps(STUDY["wing"])),
        "kinematics": json.loads(json.dumps(STUDY["kinematics"])),
        "environment": {"rho_kg_m3": 1.225, "nu_m2_s": 1.5e-5},
        "sweep": {},
        "solver": {"steps_per_cycle": 180, "n_elements": 10},
        "output": {"directory": "."},
    }
    doc.update(overrides)
    return doc


def test_config_defaults_axes_from_base():
    config = StudyConfig.from_dict(base_config_dict())
    assert config.amplitudes_deg == pytest.approx((190.0,), rel=1e-2)
    assert config.areas_cm2 == pytest.approx((25.5,), rel=1e-9)
    assert config.cutouts == (0.0,)
    assert config.frequencies_hz == (17.3,)


def test_sweep_cutout_axis_defaults_to_the_wings_cutout():
    doc = base_config_dict(sweep={"amplitude_deg": [190.0]})
    cut = apply_inboard_cutout(StudyConfig.from_dict(doc).wing, 0.3)
    doc["wing"]["cutout_span_fraction"] = 0.3
    config = StudyConfig.from_dict(doc)
    assert config.cutouts == (0.3,)
    (row,) = run_sweep(config)
    assert row.cutout_span_fraction == 0.3
    cycle = simulate_cycle(cut, config.kinematics.with_stroke_amplitude(
        math.radians(190.0)), config.environment, config.solver)
    assert row.mean_lift_gf == pytest.approx(
        cycle.mean_lift / GRAM_FORCE_NEWTONS, rel=1e-12)


def test_sweep_cutout_inside_the_wings_own_is_config_error():
    doc = base_config_dict(sweep={"amplitude_deg": [190.0],
                                  "cutout": [0.0, 0.3]})
    doc["wing"]["cutout_span_fraction"] = 0.3
    with pytest.raises(ConfigError, match=r"^sweep cutout 0\.0 lies inside "
                                          r"the wing's own cutout 0\.3$"):
        StudyConfig.from_dict(doc)
    doc["sweep"]["cutout"] = [0.3]
    (own,) = run_sweep(StudyConfig.from_dict(doc))
    assert own.error is None


def test_replaced_sweep_cutout_inside_the_wings_own_is_config_error():
    doc = base_config_dict(sweep={"amplitude_deg": [190.0], "cutout": [0.3]})
    doc["wing"]["cutout_span_fraction"] = 0.3
    config = StudyConfig.from_dict(doc)
    with pytest.raises(ConfigError, match=r"^sweep cutout 0\.0 lies inside "
                                          r"the wing's own cutout 0\.3$"):
        replace(config, cutouts=(0.0,))


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="wing"):
        StudyConfig.from_dict({"kinematics": {}})
    doc = base_config_dict()
    doc["wing"]["span_m"] = 0.5
    with pytest.raises(ConfigError, match="span"):
        StudyConfig.from_dict(doc)
    doc = base_config_dict(sweep={"amplitude_deg": []})
    with pytest.raises(ConfigError, match="non-empty"):
        StudyConfig.from_dict(doc)
    doc = base_config_dict()
    doc["wing"]["rotation_axis"] = {"type": "magic", "value": 1}
    with pytest.raises(ConfigError, match="rotation_axis"):
        StudyConfig.from_dict(doc)
    # The pitch axis is a chord fraction; breakpoints are not an axis form.
    doc["wing"]["rotation_axis"] = {"type": "breakpoints",
                                    "value": [[0.0, 0.001], [0.09, math.inf]]}
    with pytest.raises(ConfigError, match=r"^unknown rotation_axis type "
                                          r"'breakpoints'$"):
        StudyConfig.from_dict(doc)
    doc = base_config_dict()
    doc["kinematics"]["frequency_hz"] = -2.0
    with pytest.raises(ConfigError, match="frequency"):
        StudyConfig.from_dict(doc)


@pytest.mark.parametrize("section, key, value", [
    ("solver", "vi_max_iter", 0),
    ("solver", "vi_max_iter", 2.5),
    ("solver", "vi_tol", -1.0),
    ("solver", "vi_tol", math.nan),
    ("solver", "steps_per_cycle", math.inf),
    ("environment", "rho_kg_m3", math.nan),
    ("environment", "nu_m2_s", math.inf),
    ("kinematics", "frequency_hz", math.inf),
    ("kinematics", "frequency_hz", None),
    ("wing", "breakpoints", [[0.0, 0.005], [0.045, math.nan], [0.09, 0.01]]),
    ("wing", "span_m", math.nan),
    ("wing", "root_offset_m", math.inf),
    ("wing", "rotation_axis", {"type": "fraction", "value": math.nan}),
    ("wing", "rotation_axis", {"type": "fraction", "value": math.inf}),
    ("wing", "cutout_span_fraction", math.nan),
    ("sweep", "frequency_hz", [math.nan]),
    ("sweep", "area_cm2", [25.5, math.inf]),
    ("sweep", "amplitude_deg", [-math.inf]),
    ("sweep", "cutout", [math.nan]),
    ("kinematics", "frequency_hz", 10**400),
    ("kinematics", "frequency_hz", 5e-324),
])
def test_config_rejects_bad_solver_and_physics_values(section, key, value):
    doc = base_config_dict()
    doc[section][key] = value
    with pytest.raises(ConfigError, match=key):
        StudyConfig.from_dict(doc)


def test_config_environment_defaults_and_messages():
    doc = base_config_dict(environment={})
    assert StudyConfig.from_dict(doc).environment == AeroEnvironment()
    for env, message in (
            ({"rho_kg_m3": "x"}, "'rho_kg_m3' in 'environment' must be a "
                                 "finite number, got 'x'"),
            ({"nu_m2_s": -1.0}, "invalid environment: air density and "
                                "viscosity must be finite and positive")):
        doc = base_config_dict(environment=env)
        with pytest.raises(ConfigError) as error:
            StudyConfig.from_dict(doc)
        assert str(error.value) == message


@pytest.mark.parametrize("path, value, message", [
    pytest.param(("wing", "span_m"), math.nan,
                 "'span_m' in 'wing' must be a finite number, got nan",
                 id="span_m-nan"),
    pytest.param(("wing", "root_offset_m"), math.nan,
                 "'root_offset_m' in 'wing' must be a finite number, got nan",
                 id="root_offset_m-nan"),
    pytest.param(("wing", "breakpoints"), 5,
                 "'breakpoints' in 'wing' must be a list",
                 id="breakpoints-not-a-list"),
    pytest.param(("wing", "root_offset_m"), -1.0,
                 "invalid wing: root offset must be non-negative",
                 id="root_offset_m-negative"),
    pytest.param(("kinematics", "stroke", "a0_deg"), math.inf,
                 "'a0_deg' in 'stroke' must be a finite number, got inf",
                 id="stroke-a0_deg-inf"),
    pytest.param(("kinematics", "rotation_stations", 0, "a0_deg"), math.inf,
                 "'a0_deg' in 'rotation_stations' must be a finite number, "
                 "got inf", id="station-a0_deg-inf"),
    pytest.param(("wing", "cutout_span_fraction"), 1.0,
                 "invalid cutout: cutout span fraction must lie in [0, 1)",
                 id="cutout_span_fraction-1"),
    pytest.param(("kinematics", "rotation_stations", 0, "span_fraction"), 1.5,
                 "invalid kinematics: station span fraction must lie in "
                 "[0, 1]", id="station-span_fraction-1.5"),
])
def test_config_error_carries_one_prefix(path, value, message):
    # A value that does not parse is named bare; only a constructor's
    # rejection of parsed values carries the section's "invalid" prefix.
    doc = base_config_dict()
    *parents, key = path
    section = doc
    for name in parents:
        section = section[name]
    section[key] = value
    with pytest.raises(ConfigError) as error:
        StudyConfig.from_dict(doc)
    assert str(error.value) == message


@pytest.mark.parametrize("path, key", [
    (("solver",), "step_per_cycle"),
    (("environment",), "rho"),
    (("wing",), "chord_m"),
    (("wing", "rotation_axis"), "fraction"),
    (("kinematics",), "phase_deg"),
    (("kinematics", "stroke"), "c_deg"),
    (("kinematics", "rotation_stations", 0), "span"),
    (("sweep",), "amplitudes_deg"),
    (("output",), "dir"),
])
def test_config_rejects_unknown_key_in_section(path, key):
    doc = base_config_dict()
    section = doc
    for name in path:
        section = section[name]
    section[key] = 1.0
    with pytest.raises(ConfigError, match=f"unknown key.*{key}"):
        StudyConfig.from_dict(doc)


@pytest.mark.parametrize("section, value", [
    ("solver", []),
    ("environment", "air"),
    ("sweep", 5),
    ("output", None),
    ("wing", []),
    ("kinematics", [1.0]),
])
def test_config_rejects_section_that_is_not_an_object(section, value):
    doc = base_config_dict()
    doc[section] = value
    with pytest.raises(ConfigError, match=f"'{section}' section must be"):
        StudyConfig.from_dict(doc)


@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_config_rejects_non_boolean_pair(value):
    doc = base_config_dict()
    doc["solver"]["pair"] = value
    with pytest.raises(ConfigError, match="pair"):
        StudyConfig.from_dict(doc)


def test_config_rejects_unknown_top_level_key():
    for key in ("cutuot", "contrl", "powr"):
        with pytest.raises(ConfigError, match=f"unknown key.*'{key}'"):
            StudyConfig.from_dict(base_config_dict(**{key: {}}))


POWER = {"v_supply": 7.4, "v_system": 3.7, "r_shunt_ohm": 2.0,
         "motor_resistance_ohm": 1.0, "wing_mass_kg": 4e-4}


def test_config_parses_task_sections():
    bare = StudyConfig.from_dict(base_config_dict())
    assert bare.trim is None and bare.power is None
    assert bare.cutout == CutoutSection(span_fraction=0.25, frequency_hz=17.3)
    assert bare.control == ControlSection(
        kp=4.0, kd=2.5, cutoff_hz=10.0, plant_gain=1.0, inertia=1.0,
        disturbance=0.0, duration_s=5.0, dt_s=0.01, gyro_sigma_dps=0.0,
        gyro_bias_dps=0.0, setpoint_schedule=((0.0, 0.0),))
    # An absent control section takes the library's own defaults.
    library = ControllerConfig(kp=4.0, kd=2.5)
    loop = inspect.signature(simulate_closed_loop).parameters
    assert (bare.control.cutoff_hz, bare.control.plant_gain,
            bare.control.setpoint_schedule) == (
        library.cutoff_hz, library.plant_gain, library.setpoint_schedule)
    assert bare.control.disturbance == YawPlant(inertia=1.0).disturbance
    assert (bare.control.gyro_sigma_dps, bare.control.gyro_bias_dps) == (
        loop["gyro_sigma"].default, loop["gyro_bias"].default)
    # The run gets the records the parse checked, with a fresh plant.
    plant, controller, *grid = bare.control.loop_arguments()
    assert (plant, controller, grid) == (
        YawPlant(1.0), ControllerConfig(kp=4.0, kd=2.5), [5.0, 0.01, 0.0, 0.0])
    assert bare.control.loop_arguments()[0] is not plant
    config = StudyConfig.from_dict(base_config_dict(
        power=POWER, control={"kp": 3, "setpoint_schedule": [[0, 5]]}))
    assert config.power == PowerSection(**POWER)
    assert config.control == replace(bare.control, kp=3.0,
                                     setpoint_schedule=((0.0, 5.0),))
    with pytest.raises(ConfigError,
                       match="missing key 'wing_mass_kg' in 'power'"):
        StudyConfig.from_dict(base_config_dict(
            power={k: v for k, v in POWER.items() if k != "wing_mass_kg"}))


@pytest.mark.parametrize("directory", [None, [1, 2], 5])
def test_config_output_directory_must_be_a_string(directory):
    with pytest.raises(ConfigError, match="'directory' in 'output'"):
        StudyConfig.from_dict(base_config_dict(
            output={"directory": directory}))


def test_config_rejects_non_finite_series_coefficients():
    doc = base_config_dict()
    doc["kinematics"]["rotation_stations"][0]["a_deg"][0] = math.nan
    with pytest.raises(ConfigError, match="a_deg"):
        StudyConfig.from_dict(doc)


def test_single_point_sweep_matches_direct_call():
    config = StudyConfig.from_dict(base_config_dict())
    (row,) = run_sweep(config)
    assert row.error is None
    direct = simulate_cycle(config.wing, config.kinematics,
                            config.environment,
                            SolverSettings(steps_per_cycle=180, n_elements=10))
    assert row.mean_lift_gf == pytest.approx(
        direct.mean_lift / GRAM_FORCE_NEWTONS, rel=1e-9)
    assert row.aero_power_w == pytest.approx(direct.mean_aero_power, rel=1e-9)


def test_sweep_grid_order_and_determinism():
    doc = base_config_dict(sweep={"amplitude_deg": [120.0, 190.0],
                                  "frequency_hz": [15.0, 20.0]})
    config = StudyConfig.from_dict(doc)
    first = run_sweep(config)
    assert first == run_sweep(config)
    amps = [row.amplitude_deg for row in first]
    freqs = [row.frequency_hz for row in first]
    assert amps == [120.0, 120.0, 190.0, 190.0]
    assert freqs == [15.0, 20.0, 15.0, 20.0]


def test_sweep_holds_one_precompute_at_a_time(monkeypatch):
    # The sweep runs cutout-major: each distinct cutout's precompute is
    # built once and dropped before the next one is built, and the rows
    # still come in lexicographic axis order.
    build = aero.CyclePrecompute.build
    built = []

    def tracked(cls, wing, kin, solver):
        assert all(ref() is None for ref in built)
        precompute = build(wing, kin, solver)
        built.append(weakref.ref(precompute))
        return precompute

    monkeypatch.setattr(aero.CyclePrecompute, "build", classmethod(tracked))
    doc = base_config_dict(sweep={"amplitude_deg": [120.0, 190.0],
                                  "cutout": [0.0, 0.3, 0.0, 0.2],
                                  "frequency_hz": [15.0, 20.0]})
    config = StudyConfig.from_dict(doc)
    rows = run_sweep(config)
    assert len(built) == 3
    assert [(row.amplitude_deg, row.cutout_span_fraction, row.frequency_hz)
            for row in rows] == list(itertools.product(
                [120.0, 190.0], [0.0, 0.3, 0.0, 0.2], [15.0, 20.0]))
    assert all(row.error is None for row in rows)
    # A repeated cutout reads the same rows as its first place.
    assert rows[0] == rows[4] and rows[9] == rows[13]


@pytest.mark.parametrize("pair", [True, False])
def test_sweep_rows_match_per_point_cycles(pair):
    doc = base_config_dict(sweep={"amplitude_deg": [120.0, 190.0],
                                  "area_cm2": [20.1, 31.4],
                                  "cutout": [0.0, 0.3],
                                  "frequency_hz": [12.0, 24.0]})
    doc["solver"]["pair"] = pair
    config = StudyConfig.from_dict(doc)
    rows = run_sweep(config)
    assert len(rows) == 16
    for row in rows:
        assert row.error is None
        wing = apply_inboard_cutout(
            scaled_to_area(config.wing, row.area_cm2 * 1e-4),
            row.cutout_span_fraction)
        kin = config.kinematics.with_stroke_amplitude(
            math.radians(row.amplitude_deg)).with_frequency(row.frequency_hz)
        cycle = simulate_cycle(wing, kin, config.environment, config.solver)
        lift_gf = cycle.mean_lift / GRAM_FORCE_NEWTONS
        assert row.mean_lift_gf == pytest.approx(lift_gf, rel=1e-12)
        assert row.aero_power_w == pytest.approx(cycle.mean_aero_power,
                                                 rel=1e-12)
        assert row.lift_to_power_gf_w == pytest.approx(
            lift_gf / cycle.mean_aero_power, rel=1e-12)
        assert row.v_induced_m_s == pytest.approx(cycle.v_induced, abs=1e-12)
        assert row.reynolds == cycle.reynolds_number
        assert row.vi_iterations == cycle.vi_info.iterations
        assert row.vi_residual_m_s <= config.solver.vi_tol
        assert row.negative_thrust is cycle.vi_info.negative_thrust is False


def count_discretize(monkeypatch):
    calls = []
    real = aero.discretize

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(aero, "discretize", counting)
    return calls


def test_sweep_discretizes_once_per_cutout(monkeypatch):
    calls = count_discretize(monkeypatch)
    doc = base_config_dict(sweep={"amplitude_deg": [120.0, 190.0],
                                  "area_cm2": [20.1, 25.5, 31.4],
                                  "cutout": [0.0, 0.3],
                                  "frequency_hz": [12.0, 24.0]})
    rows = run_sweep(StudyConfig.from_dict(doc))
    assert len(rows) == 24
    assert all(row.error is None for row in rows)
    assert calls == [10] * 2


def count_calls(monkeypatch, owner, name):
    """The arguments of every call of ``owner.name`` from now on."""
    calls = []
    real = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_sweep_evaluates_loads_once_per_inflow_iterate(monkeypatch):
    # Each inflow iterate of a point is one point-evaluation of loads. The
    # points' terms come from scales formed once per axis value of each
    # cutout, and disks once per (amplitude, area) of each, with no
    # per-point fit and no per-point reynolds(wing, kin, env): a point
    # forms only its Reynolds number, its frequency ratio and its
    # PointTerms.
    calls = []
    loads = aero.CyclePrecompute.loads

    def counting(self, points, inflows, workspace):
        calls.extend(inflows)
        return loads(self, points, inflows, workspace)

    monkeypatch.setattr(aero.CyclePrecompute, "loads", counting)
    counts = {name: count_calls(monkeypatch, owner, name) for owner, name in (
        (aero, "reynolds"), (harness, "stroke_reynolds"),
        (harness, "momentum_denominator"),
        *((aero.CyclePrecompute, name) for name in (
            "fit", "point", "wing_scale", "stroke_scale",
            "frequency_ratio")))}
    doc = base_config_dict(sweep={"amplitude_deg": [120.0, 190.0],
                                  "area_cm2": [20.1, 31.4],
                                  "cutout": [0.0, 0.3],
                                  "frequency_hz": [12.0, 24.0]})
    config = StudyConfig.from_dict(doc)
    rows = run_sweep(config)
    assert all(row.error is None for row in rows)
    assert len(calls) == sum(row.vi_iterations for row in rows)
    assert counts["fit"] == counts["reynolds"] == []
    assert len(counts["stroke_reynolds"]) == len(counts["point"]) == len(
        rows) == 16
    # One wing scale per (area, cutout) and one stroke scale per
    # (amplitude, cutout); the frequency ratio is one division a point.
    assert [(self.wing.cutout, wing) for self, wing in counts[
        "wing_scale"]] == [
            (cutout, apply_inboard_cutout(
                scaled_to_area(config.wing, area * 1e-4), cutout))
            for cutout, area in itertools.product([0.0, 0.3], [20.1, 31.4])]
    stroke_scales = [(self.wing.cutout,
                      round(math.degrees(kin.stroke_amplitude), 9))
                     for self, kin in counts["stroke_scale"]]
    assert stroke_scales == list(itertools.product([0.0, 0.3],
                                                   [120.0, 190.0]))
    assert [f for _, f in counts["frequency_ratio"]] == [
        row.frequency_hz for row in rows]
    # A disk per (amplitude, area) of each cutout.
    assert len(counts["momentum_denominator"]) == 8
    assert len(set(counts["momentum_denominator"])) == 4


def two_cutout_study():
    """study.json on a 24-point grid over two cutouts."""
    doc = json.loads(json.dumps(STUDY))
    doc["sweep"] = {"amplitude_deg": [120.0, 190.0], "area_cm2": [20.1, 31.4],
                    "cutout": [0.0, 0.3], "frequency_hz": [12.0, 17.3, 24.0]}
    return doc


@pytest.mark.parametrize("doc", [STUDY, two_cutout_study()],
                         ids=["study", "two-cutouts"])
def test_sweep_rows_are_one_point_solves(monkeypatch, doc):
    # Each cutout's points go to the inflow solve in one call, every point
    # in axis order; every row is its point's own solve on the precompute
    # of its cutout.
    config = StudyConfig.from_dict(json.loads(json.dumps(doc)))
    calls = []
    solve = aero.solve_induced_velocities

    def recording(points, solver, precompute):
        calls.append(list(points))
        return solve(points, solver, precompute)

    monkeypatch.setattr(harness, "solve_induced_velocities", recording)
    rows = run_sweep(config)
    shape = config.kinematics.with_stroke_amplitude(1.0).with_frequency(1.0)
    expected = []
    for cutout in config.cutouts:
        precompute = aero.CyclePrecompute.build(
            apply_inboard_cutout(config.wing, cutout), shape, config.solver)
        expected.append([])
        for row in rows:
            if row.cutout_span_fraction != cutout:
                continue
            wing = apply_inboard_cutout(
                scaled_to_area(config.wing, row.area_cm2 * 1e-4), cutout)
            kin = config.kinematics.with_stroke_amplitude(
                math.radians(row.amplitude_deg)).with_frequency(
                    row.frequency_hz)
            # Its terms, Reynolds number and disk, as its own solve forms
            # them, field for field.
            expected[-1].append(solve_point(wing, kin, config.environment,
                                            precompute))
            alone = aero.solve_induced_velocity(
                wing, kin, config.environment, config.solver, precompute)
            assert row.error is None
            assert (row.vi_iterations, row.negative_thrust, row.reynolds) == (
                alone.iterations, alone.negative_thrust, alone.reynolds)
            assert type(row.reynolds) is float
            assert (row.mean_lift_gf, row.aero_power_w,
                    row.v_induced_m_s) == pytest.approx(
                (alone.lift / GRAM_FORCE_NEWTONS, alone.power,
                 alone.v_induced), rel=1e-14, abs=0.0)
            assert row.vi_residual_m_s == pytest.approx(alone.residual,
                                                        rel=0.0, abs=1e-14)
    assert calls == expected
    assert all(type(x) is float for points in calls for point in points
               for x in (point.reynolds, point.disk, *point.terms[:1],
                         *point.terms[2:]))


def test_study_sweep_sums_the_folded_cells(monkeypatch):
    # study.json's 18 points share one precompute of its sine stroke, whose
    # half cycle folds: each point-evaluation of a block's loads sums
    # 181 x 20 of the 720 x 20 cells. Each amplitude's kinematics are
    # formed once, besides the grid's at unit amplitude.
    builds, cells, amplitudes = [], [], []
    build = aero.CyclePrecompute.build
    loads = aero.CyclePrecompute.loads
    rescale = WingKinematics.with_stroke_amplitude

    def counting_build(cls, wing, kin, solver):
        builds.append(solver)
        return build(wing, kin, solver)

    def counting_loads(self, points, inflows, workspace):
        cells.extend([self.v_t_sq.size] * len(inflows))
        return loads(self, points, inflows, workspace)

    def counting_rescale(self, amplitude):
        amplitudes.append(amplitude)
        return rescale(self, amplitude)

    monkeypatch.setattr(aero.CyclePrecompute, "build",
                        classmethod(counting_build))
    monkeypatch.setattr(aero.CyclePrecompute, "loads", counting_loads)
    monkeypatch.setattr(WingKinematics, "with_stroke_amplitude",
                        counting_rescale)
    rows = run_sweep(StudyConfig.from_dict(json.loads(json.dumps(STUDY))))
    assert len(rows) == 18 and all(row.error is None for row in rows)
    assert len(builds) == 1
    assert cells == [3620] * 72
    assert amplitudes == [1.0, math.radians(120.0), math.radians(190.0)]


def test_sweep_samples_the_stroke_amplitude_at_most_once(monkeypatch):
    # Order-0 evaluations of a stroke series (mean angle 0, where the
    # rotation stations' is 90 deg) sample its amplitude; the cycle grid
    # needs only the stroke's rate and acceleration.
    samples = []
    evaluate = FourierSeries.eval

    def counting(self, t, frequency, order=0):
        if order == 0 and self.a0 == 0.0:
            samples.append(self)
        return evaluate(self, t, frequency, order)

    monkeypatch.setattr(FourierSeries, "eval", counting)
    config = StudyConfig.from_dict(base_config_dict(
        sweep={"amplitude_deg": [120.0, 190.0], "area_cm2": [20.1, 31.4],
               "cutout": [0.0, 0.3], "frequency_hz": [12.0, 24.0]}))
    before = len(samples)
    rows = run_sweep(config)
    assert all(row.error is None for row in rows)
    swept = len(samples)
    assert swept - before <= 1
    # The count sees the sampling of a stroke with no recorded amplitude.
    kin = config.kinematics
    WingKinematics(kin.stroke, kin.rotation_stations,
                   kin.frequency).stroke_amplitude
    assert len(samples) == swept + 1


def test_cli_import_leaves_process_pool_out():
    # A fresh interpreter: this one may have imported the pool elsewhere.
    src = os.path.dirname(os.path.dirname(os.path.abspath(wingbeat.__file__)))
    code = ("import sys, wingbeat.cli; "
            "sys.exit('concurrent.futures.process' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          timeout=60).returncode == 0


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_fewer_than_one_worker(workers):
    config = StudyConfig.from_dict(base_config_dict())
    with pytest.raises(ValueError, match="workers must be at least 1"):
        run_sweep(config, workers=workers)


def test_sweep_isolates_point_failures():
    # A zero area, and absurd ones or an absurd frequency whose cycle-mean
    # power or thrust overflows, fail their own row and no other.
    for axis, values, cause in (
            ("area_cm2", [25.5, 0.0], "target area must be positive"),
            ("area_cm2", [25.5, 1e150], "non-finite cycle-mean power inf"),
            ("area_cm2", [25.5, 1e300], "non-finite cycle-mean thrust inf"),
            ("frequency_hz", [17.3, 1e200], "non-finite cycle-mean thrust")):
        doc = base_config_dict(sweep={axis: values})
        good, bad = run_sweep(StudyConfig.from_dict(doc))
        assert good.error is None and math.isfinite(good.aero_power_w)
        assert bad.error.startswith(cause)
        assert bad.mean_lift_gf is None and bad.aero_power_w is None


def test_sweep_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a domain failure")

    monkeypatch.setattr(harness, "solve_induced_velocities", broken)
    doc = base_config_dict(sweep={"frequency_hz": [15.0, 20.0]})
    with pytest.raises(TypeError, match="not a domain failure"):
        run_sweep(StudyConfig.from_dict(doc), workers=1)


def test_sweep_raises_when_every_point_fails():
    # Input errors at every point make an input error; one compute
    # failure among them makes a compute failure.
    doc = base_config_dict(sweep={"area_cm2": [0.0, -1.0]})
    with pytest.raises(ValueError, match="^all 2 sweep points failed; "
                       "first error: target area must be positive$"):
        run_sweep(StudyConfig.from_dict(doc))
    doc = base_config_dict(sweep={"frequency_hz": [1e-3, 17.3]},
                           solver={"steps_per_cycle": 180, "n_elements": 10,
                                   "vi_max_iter": 1})
    with pytest.raises(ComputeError, match="^all 2 sweep points failed; "
                       "first error: Reynolds number "):
        run_sweep(StudyConfig.from_dict(doc))


def point_alone(config, amplitude, area, cutout, frequency):
    """A sweep point's inflow solve on objects of its own, or its error:
    its wing, its cutout's precompute, its stroke and its frequency, then
    the solve's Reynolds number, fit and coefficient range, in that
    order."""
    try:
        wing = apply_inboard_cutout(scaled_to_area(config.wing, area * 1e-4),
                                    cutout)
        shape = config.kinematics.with_stroke_amplitude(1.0).with_frequency(
            1.0)
        precompute = aero.CyclePrecompute.build(
            apply_inboard_cutout(config.wing, cutout), shape, config.solver)
        kin = config.kinematics.with_stroke_amplitude(
            math.radians(amplitude)).with_frequency(frequency)
        return aero.solve_induced_velocity(wing, kin, config.environment,
                                           config.solver, precompute)
    except (ValueError, RuntimeError) as exc:
        return exc


# Inboard chord only: cut at 0.6 the wing keeps no membrane.
INBOARD_WING = {**STUDY["wing"], "breakpoints": [
    [0.0, 0.02], [0.045, 0.0], [STUDY["wing"]["span_m"], 0.0]]}


@pytest.mark.parametrize("doc", [
    # Area 0 (wing), amplitude 0 and -5 (stroke), frequency -1 and 0
    # (frequency); a tiny amplitude whose Reynolds number underflows to 0
    # at 14 Hz (Reynolds) and whose stroke underflows to no harmonics on a
    # 1e300 cm^2 wing at 1e200 Hz (stroke fit); 1e-3 Hz below the fit and
    # 1e200 Hz at 1e300 cm^2 an infinite Reynolds number (coefficient
    # range); and compute failures of absurd loads.
    base_config_dict(sweep={"amplitude_deg": [0.0, 120.0, -5.0, 2.8e-322],
                            "area_cm2": [20.1, 0.0, 1e300],
                            "frequency_hz": [-1.0, 14.0, 0.0, 1e-3, 1e200]}),
    # A wing with no membrane outside a 0.6 cutout (Reynolds).
    base_config_dict(wing=INBOARD_WING,
                     sweep={"area_cm2": [20.1, 0.0], "cutout": [0.0, 0.6]}),
    # Every Reynolds number infinite at a viscosity of 5e-324.
    base_config_dict(environment={"rho_kg_m3": 1.225, "nu_m2_s": 5e-324},
                     sweep={"amplitude_deg": [0.0, 120.0],
                            "frequency_hz": [0.0, 17.3]}),
    # A stroke with no amplitude to rescale (build).
    base_config_dict(kinematics={**STUDY["kinematics"],
                                 "stroke": {"a0_deg": 10.0, "b_deg": [0.0]}},
                     sweep={"area_cm2": [0.0, 20.1]}),
], ids=["bad-axes", "zero-area", "infinite-reynolds", "zero-stroke"])
def test_sweep_rows_fail_as_their_points_fail_alone(doc):
    # The terms formed once per axis value keep each point's checks in the
    # order of its own solve: wing, build, stroke, frequency, Reynolds
    # number, wing fit, stroke fit and coefficient range.
    config = StudyConfig.from_dict(doc)
    grid = list(itertools.product(config.amplitudes_deg, config.areas_cm2,
                                  config.cutouts, config.frequencies_hz))
    alone = [point_alone(config, *point) for point in grid]
    if all(isinstance(result, Exception) for result in alone):
        kind = (ValueError if all(isinstance(result, ValueError)
                                  for result in alone) else ComputeError)
        with pytest.raises(kind) as error:
            run_sweep(config)
        assert str(error.value) == (f"all {len(grid)} sweep points failed; "
                                    f"first error: {alone[0]}")
        return
    rows = run_sweep(config)
    for point, row, result in zip(grid, rows, alone):
        assert tuple(vars(row).values())[:4] == point
        if isinstance(result, Exception):
            assert row.error == str(result)
            assert row.mean_lift_gf is row.reynolds is row.vi_iterations is None
        else:
            assert row.error is None
            assert (row.reynolds, row.vi_iterations) == (result.reynolds,
                                                         result.iterations)
            assert row.aero_power_w == pytest.approx(result.power, rel=1e-14,
                                                     abs=0.0)
    assert {row.error.split(" ")[0] for row in rows if row.error} >= (
        {"target", "stroke", "frequency", "degenerate", "kinematics",
         "Reynolds", "non-finite"} if len(grid) == 60 else {"Reynolds"})


def sweep_json_rows():
    """Sweep rows whose cells hold None, bools, ints and floats, and whose
    errors hold the encoder's separators, quotes, a newline and non-ASCII
    text."""
    ok = harness.SweepRow(120.0, 20.1, 0.0, 17.3, mean_lift_gf=11.25,
                          aero_power_w=3.0e-3, v_induced_m_s=0.0,
                          reynolds=1234.5678901234567,
                          lift_to_power_gf_w=None, vi_iterations=4,
                          vi_residual_m_s=1e-300, negative_thrust=True)
    return (ok, replace(ok, negative_thrust=False, mean_lift_gf=-0.0,
                        vi_iterations=0),
            harness.SweepRow(-5.0, 0.0, 0.3, 1e-3, error=(
                'a "key": "value", "list", of,\n      lines: \u00e9t\u00e9 '
                '\u2014 \U0001F41D and a \\ back-slash')))


@pytest.mark.parametrize("rows", [sweep_json_rows(), sweep_json_rows()[2:],
                                  ()], ids=["mixed", "one-failed", "none"])
def test_sweep_json_is_the_indented_dump(tmp_path, rows):
    # Rows encoded in C and spliced into the document have the bytes of
    # the indented encoder, whatever their cells.
    harness.write_sweep(tmp_path, rows, SolverSettings())
    text = (tmp_path / "sweep.json").read_text()
    metadata = json.loads(text)["metadata"]
    assert text == json.dumps(
        {"metadata": metadata, "rows": [vars(row) for row in rows]},
        indent=2, sort_keys=True, allow_nan=False) + "\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_sweep_json_refuses_a_non_finite_cell_before_writing(tmp_path,
                                                            value):
    # As a compute failure, before any file is opened. The C encoder names
    # the value from Python 3.12 on, as the indented encoder does.
    rows = sweep_json_rows()
    rows = (rows[0], replace(rows[1], aero_power_w=value), rows[2])
    with pytest.raises(ComputeError) as error:
        harness.write_sweep(tmp_path, rows, SolverSettings())
    message = (f"cannot write JSON to {tmp_path / 'sweep.json'}: Out of "
               f"range float values are not JSON compliant")
    assert str(error.value) in (message, f"{message}: {value!r}")
    assert list(tmp_path.iterdir()) == []


def test_sweep_export_round_trip(tmp_path):
    doc = base_config_dict(sweep={"frequency_hz": [15.0, 20.0]})
    config = StudyConfig.from_dict(doc)
    result = run_sweep(config)
    harness.write_sweep(tmp_path, result, config.solver)
    path = tmp_path / "sweep.csv"
    header, rows = read_csv(path)
    assert header[:4] == ["amplitude_deg", "area_cm2",
                          "cutout_span_fraction", "frequency_hz"]
    # Re-exporting the parsed table reproduces the file byte for byte.
    from wingbeat.harness import write_csv
    path2 = tmp_path / "sweep2.csv"
    write_csv(path2, header,
              [[format_float(float(c)) if c not in ("ok", "") and i < 10
                else c for i, c in enumerate(row)] for row in rows])
    assert path.read_bytes() == path2.read_bytes()

    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["metadata"]["schema_version"] == 1
    assert doc["metadata"]["solver"]["steps_per_cycle"] == 180
    assert "timestamp_utc" in doc["metadata"]
    # The JSON rows carry every field; the CSV leaves the inflow solve's
    # residual and negative-thrust flag out.
    assert [row["vi_residual_m_s"] for row in doc["rows"]] == [
        row.vi_residual_m_s for row in result]
    assert [row["negative_thrust"] for row in doc["rows"]] == [False, False]
    assert "vi_residual_m_s" not in header


def test_empty_rows_export_header_only(tmp_path):
    harness.write_sweep(tmp_path, (), SolverSettings())
    assert (tmp_path / "sweep.csv").read_text().splitlines() == [
        "amplitude_deg,area_cm2,cutout_span_fraction,frequency_hz,"
        "mean_lift_gf,aero_power_w,v_induced_m_s,reynolds,"
        "lift_to_power_gf_w,vi_iterations,status"]


def test_format_float_significant_digits():
    assert format_float(1.0) == "1"
    assert format_float(math.pi) == "3.14159265359"
    assert format_float(1.23456789012345e-7) == "1.23456789012e-07"


ENV = AeroEnvironment()


def test_hover_trim_boundary_hit():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    solver = SolverSettings(steps_per_cycle=180, n_elements=10)
    probe = simulate_cycle(wing, kin.with_frequency(12.0), ENV, solver)
    trim = hover_trim(wing, kin, ENV, probe.mean_lift, 12.0, 30.0,
                      solver=solver)
    assert trim.frequency_hz == 12.0
    assert trim.iterations == 0


def test_hover_trim_monotone_in_target():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    solver = SolverSettings(steps_per_cycle=180, n_elements=10)
    base = hover_trim(wing, kin, ENV, 15.8 * GRAM_FORCE_NEWTONS, 8.0, 30.0,
                      solver=solver)
    higher = hover_trim(wing, kin, ENV, 1.2 * 15.8 * GRAM_FORCE_NEWTONS,
                        8.0, 30.0, solver=solver)
    assert higher.frequency_hz > base.frequency_hz
    assert base.mean_lift == pytest.approx(15.8 * GRAM_FORCE_NEWTONS,
                                           rel=5.1e-3)


def test_hover_trim_requires_bracketing():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    solver = SolverSettings(steps_per_cycle=180, n_elements=10)
    disk = aero.momentum_denominator(kin.stroke_amplitude, wing.span, ENV.rho)
    for target in (1e-4, 1e4):  # below the bracket, then above it
        v_star = math.sqrt(target / disk)
        lift_lo, lift_hi = (
            simulate_cycle(wing, kin.with_frequency(f), ENV, solver,
                           induced_velocity=v_star).mean_lift
            for f in (8.0, 12.0))
        # A bound lifts below the target at Vi* exactly when its solved
        # lift does.
        for f, lift in ((8.0, lift_lo), (12.0, lift_hi)):
            solved = simulate_cycle(wing, kin.with_frequency(f), ENV, solver)
            assert (lift < target) == (solved.mean_lift < target)
        with pytest.raises(ValueError) as info:
            hover_trim(wing, kin, ENV, target, 8.0, 12.0, solver=solver)
        assert str(info.value) == (
            f"target lift {target:.4g} N not bracketed at the target's "
            f"momentum inflow {v_star:.4g} m/s: lift is {lift_lo:.4g} N at "
            f"8.0 Hz and {lift_hi:.4g} N at 12.0 Hz")


@pytest.mark.parametrize("area", [20.1, 25.5, 31.4])
@pytest.mark.parametrize("amplitude", [120.0, 190.0])
@pytest.mark.parametrize("target_gf", [12.0, 20.0])
def test_hover_trim_log_secant(area, amplitude, target_gf):
    wing = standard_wing(area)
    kin = beetle_kinematics(17.3, amplitude)
    solver = SolverSettings(steps_per_cycle=180, n_elements=10)
    target = target_gf * GRAM_FORCE_NEWTONS
    trim = hover_trim(wing, kin, ENV, target, 8.0, 40.0, solver=solver)
    # f_lo, then f_lo * sqrt(L*/L(f_lo)), then secant steps down to the
    # 1e-9 tolerance.
    assert 5 <= len(trim.probes) <= 6
    assert trim.iterations == len(trim.probes) - 1
    assert trim.probes[0][0] == 8.0
    assert trim.probes[-1] == (trim.frequency_hz, trim.mean_lift)
    assert abs(trim.mean_lift - target) < harness.TRIM_REL_TOL * target
    at_trim = kin.with_frequency(trim.frequency_hz)
    fixed = simulate_cycle(wing, at_trim, ENV, solver,
                           induced_velocity=trim.v_induced)
    assert trim.mean_lift == pytest.approx(fixed.mean_lift, rel=1e-12)
    assert trim.aero_power == pytest.approx(fixed.mean_aero_power, rel=1e-12)
    # Vi* is the solved inflow at the trim, up to the solve's tolerance.
    solved = simulate_cycle(wing, at_trim, ENV, solver)
    assert abs(solved.mean_lift - target) <= 1e-8 * target


def test_hover_trim_probes_are_single_point_loads(monkeypatch):
    # One build, then one one-point evaluation per probe at the target's
    # momentum inflow: no inflow solve and no cycle simulation.
    builds = count_calls(monkeypatch, aero.CyclePrecompute, "build")
    loads = count_calls(monkeypatch, aero.CyclePrecompute, "loads")
    for name in ("solve_induced_velocity", "solve_induced_velocities",
                 "simulate_cycle"):
        monkeypatch.setattr(aero, name, None)
        monkeypatch.setattr(harness, name, None, raising=False)
    wing, kin = standard_wing(25.5), beetle_kinematics(17.3, 190.0)
    target = 15.8 * GRAM_FORCE_NEWTONS
    trim = hover_trim(wing, kin, ENV, target, 8.0, 40.0,
                      solver=SolverSettings(steps_per_cycle=180,
                                            n_elements=10))
    disk = aero.momentum_denominator(kin.stroke_amplitude, wing.span, ENV.rho)
    assert trim.v_induced == math.sqrt(target / disk)
    assert len(builds) == 1
    assert len(loads) == len(trim.probes) > 1
    for _, points, inflows, _ in loads:
        assert len(points) == 1 and inflows == [trim.v_induced]


def test_hover_trim_discretizes_once(monkeypatch):
    calls = count_discretize(monkeypatch)
    trim = hover_trim(standard_wing(25.5), beetle_kinematics(17.3, 190.0),
                      ENV, 15.8 * GRAM_FORCE_NEWTONS, 8.0, 40.0,
                      solver=SolverSettings(steps_per_cycle=180,
                                            n_elements=10))
    assert len(trim.probes) > 1
    assert calls == [10]


def test_hover_trim_single_wing():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    solver = SolverSettings(steps_per_cycle=180, n_elements=10, pair=False)
    target = 7.9 * GRAM_FORCE_NEWTONS
    trim = hover_trim(wing, kin, ENV, target, 8.0, 40.0, solver=solver)
    # Doubling lift and target is exact, so the pair trims the same way.
    pair = hover_trim(wing, kin, ENV, 2.0 * target, 8.0, 40.0,
                      solver=replace(solver, pair=True))
    assert trim.probes == tuple((f, 0.5 * lift) for f, lift in pair.probes)
    assert trim.v_induced == pair.v_induced
    at_trim = kin.with_frequency(trim.frequency_hz)
    pair_lift = simulate_cycle(wing, at_trim, ENV, replace(solver, pair=True),
                               induced_velocity=trim.v_induced).mean_lift
    assert trim.mean_lift == pytest.approx(0.5 * pair_lift, rel=1e-12)
    single = simulate_cycle(wing, at_trim, ENV, solver).mean_lift
    assert abs(single - target) <= 1e-8 * target


def test_hover_trim_zero_stroke_raises():
    kin = beetle_kinematics(17.3, 190.0)
    frozen = WingKinematics(
        stroke=FourierSeries(0.0, (0.0,), (0.0,)),
        rotation_stations=kin.rotation_stations, frequency=17.3)
    with pytest.raises(ValueError, match="degenerate kinematics"):
        hover_trim(standard_wing(25.5), frozen, ENV, 0.1, 8.0, 40.0)


def trim_on_lift_curve(monkeypatch, lift, target, f_lo=8.0, f_hi=40.0):
    """``hover_trim`` whose probe at f lifts ``lift(f)`` in its one loads
    evaluation; returns (trim result or raised exception, probed f)."""
    probed = []

    def loads(precompute, points, inflows, workspace):
        # The point's inflow scale is f over the precompute's frequency,
        # f_lo: a power of 2 here, so f comes back exactly.
        point, = points
        probed.append(precompute.kinematics.frequency * point.s)
        return [(lift(probed[-1]), 1.0)]

    monkeypatch.setattr(aero.CyclePrecompute, "loads", loads)
    try:
        result = hover_trim(standard_wing(25.5),
                            beetle_kinematics(17.3, 190.0), ENV, target,
                            f_lo, f_hi, solver=SolverSettings(36, 2))
    except (ValueError, ComputeError) as exc:
        result = exc
    return result, probed


@pytest.mark.parametrize("target, f_lo, f_hi, message", [
    (1.0, 0.0, 40.0, "need 0 < f_lo < f_hi"),
    (1.0, 40.0, 40.0, "need 0 < f_lo < f_hi"),
    (1.0, 40.0, 8.0, "need 0 < f_lo < f_hi"),
    (1.0, math.nan, 40.0, "need 0 < f_lo < f_hi"),
    (0.0, 8.0, 40.0, "target lift must be positive"),
    (-1.0, 8.0, 40.0, "target lift must be positive"),
])
def test_hover_trim_rejects_its_inputs_before_any_probe(monkeypatch, target,
                                                       f_lo, f_hi, message):
    error, probed = trim_on_lift_curve(monkeypatch, lambda f: f, target,
                                       f_lo, f_hi)
    assert isinstance(error, ValueError) and str(error) == message
    assert probed == []


def test_hover_trim_steps_past_a_non_positive_lift(monkeypatch):
    # L = f - 10 is -2 at 8 Hz, so the next probe is at f_hi, which lifts
    # more than the target; the search then trims inside the bracket.
    trim, probed = trim_on_lift_curve(monkeypatch, lambda f: f - 10.0, 5.0)
    assert probed[:2] == [8.0, 40.0]
    assert all(8.0 < f < 40.0 for f in probed[2:])
    assert trim.probes == tuple((f, f - 10.0) for f in probed)
    assert abs(trim.mean_lift - 5.0) < 5.0 * harness.TRIM_REL_TOL


def test_hover_trim_of_a_lift_that_is_never_positive_is_not_bracketed(
        monkeypatch):
    # The lift at 8 Hz sends the search to f_hi, which does not bracket
    # the target either.
    error, probed = trim_on_lift_curve(monkeypatch, lambda f: -1.0, 1.0)
    v_star = math.sqrt(1.0 / aero.momentum_denominator(
        math.radians(190.0), standard_wing(25.5).span, ENV.rho))
    assert isinstance(error, ValueError) and str(error) == (
        f"target lift 1 N not bracketed at the target's momentum inflow "
        f"{v_star:.4g} m/s: lift is -1 N at 8.0 Hz and -1 N at 40.0 Hz")
    assert probed == [8.0, 40.0]


def test_hover_trim_steps_past_equal_lifts(monkeypatch):
    # L is 1 up to 30.5 Hz: the first two probes lift the same, both below
    # the target, so the search takes a second model step from 8 sqrt(10)
    # Hz, which would pass f_hi and stops there; six secant steps then
    # close in on 35 Hz.
    trim, probed = trim_on_lift_curve(
        monkeypatch, lambda f: max(1.0, 2.0 * (f - 30.0)), 10.0)
    assert probed[:3] == pytest.approx([8.0, 8.0 * math.sqrt(10.0), 40.0],
                                       rel=1e-15)
    assert probed[2] == 40.0
    assert len(probed) == 9
    assert trim.frequency_hz == pytest.approx(35.0, rel=1e-9)


@pytest.mark.parametrize("lift, target", [(lambda f: 1e-300 * f, 1e10),
                                          (lambda f: 1e300, 1e-30)])
def test_hover_trim_whose_lift_ratio_overflows_probes_f_hi(monkeypatch, lift,
                                                           target):
    # L*/L at 8 Hz over- or underflows, and its infinite log sends the
    # search to f_hi, which does not bracket the target.
    error, probed = trim_on_lift_curve(monkeypatch, lift, target)
    assert isinstance(error, ValueError)
    assert str(error).startswith(f"target lift {target:.4g} N not bracketed")
    assert probed == [8.0, 40.0]


def test_hover_trim_at_the_upper_bound_after_lifting_too_much_at_f_lo(
        monkeypatch):
    # A lift that falls with frequency overshoots at f_lo and meets the
    # target at f_hi, which trims there in two probes.
    trim, probed = trim_on_lift_curve(monkeypatch, lambda f: 100.0 / f, 2.5)
    assert probed == [8.0, 40.0]
    assert trim.frequency_hz == 40.0 and trim.mean_lift == 2.5
    assert trim.probes == ((8.0, 12.5), (40.0, 2.5))


def test_hover_trim_that_never_meets_the_target_is_a_compute_error(
        monkeypatch):
    # A lift that jumps from 1 to 100 at 20 Hz never comes within the
    # tolerance of 10: the search stops after TRIM_MAX_ITER probes.
    error, probed = trim_on_lift_curve(
        monkeypatch, lambda f: 1.0 if f < 20.0 else 100.0, 10.0)
    assert isinstance(error, ComputeError)
    assert str(error) == (f"hover trim did not converge within "
                          f"{harness.TRIM_MAX_ITER} probes after the first")
    assert len(probed) == harness.TRIM_MAX_ITER + 1
    assert probed[:2] == pytest.approx([8.0, 8.0 * math.sqrt(10.0)],
                                       rel=1e-15)
    assert all(8.0 < f < 40.0 for f in probed[1:])


def test_cutout_study_zero_fraction_gives_zero_deltas():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    solver = SolverSettings(steps_per_cycle=180, n_elements=10)
    study = run_cutout_study(wing, kin, ENV, cutout=0.0, frequency_hz=17.3,
                             solver=solver)
    assert study.lift_delta == 0.0
    assert study.power_delta == 0.0
    assert study.lift_to_power_delta == 0.0


def test_cutout_study_deltas_grow_with_fraction(tmp_path):
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    solver = SolverSettings(steps_per_cycle=180, n_elements=10)
    quarter = run_cutout_study(wing, kin, ENV, 0.25, 17.3, solver=solver)
    half = run_cutout_study(wing, kin, ENV, 0.5, 17.3, solver=solver)
    assert abs(half.lift_delta) > abs(quarter.lift_delta)
    assert abs(half.power_delta) > abs(quarter.power_delta)
    for study in (quarter, half):
        i, m = study.intact, study.modified
        assert study.lift_to_power_delta == (
            (m.mean_lift / m.mean_aero_power)
            / (i.mean_lift / i.mean_aero_power) - 1.0)
    harness.write_cutout(tmp_path, quarter, solver)
    header, rows = read_csv(tmp_path / "cutout_spanwise.csv")
    assert header == ["span_fraction", "lift_intact_n", "lift_modified_n",
                      "power_intact_w", "power_modified_w"]
    assert len(rows) == 10


@pytest.mark.parametrize("own_cutout", [0.1, 0.25, 0.4])
def test_cutout_study_compares_the_whole_membrane_with_the_cut_wing(
        own_cutout):
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    solver = SolverSettings(steps_per_cycle=180, n_elements=10)
    want = run_cutout_study(wing, kin, ENV, 0.25, 17.3, solver=solver)
    got = run_cutout_study(apply_inboard_cutout(wing, own_cutout), kin, ENV,
                           0.25, 17.3, solver=solver)
    assert got.intact.mean_lift == want.intact.mean_lift
    assert got.modified.mean_lift == want.modified.mean_lift
    for name in ("lift_delta", "power_delta", "lift_to_power_delta"):
        assert getattr(got, name) == getattr(want, name)
    assert got.lift_delta < 0.0


def test_cutout_study_rejects_zero_lift_or_power(monkeypatch):
    cycle = simulate_cycle(standard_wing(25.5), beetle_kinematics(17.3, 190.0),
                           ENV, SolverSettings(36, 2), induced_velocity=1.0)
    monkeypatch.setattr(harness, "simulate_cycle",
                        lambda *args: replace(cycle, mean_lift=0.0))
    with pytest.raises(ValueError,
                       match="^comparison undefined for zero lift or power$"):
        run_cutout_study(standard_wing(25.5), beetle_kinematics(17.3, 190.0),
                         ENV, 0.25, 17.3)


# ------------------------------------------------------------------------ CLI

def write_config(tmp_path, **overrides):
    doc = base_config_dict(**overrides)
    doc["output"] = {"directory": str(tmp_path / "out")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_simulate(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["--config", str(path), "simulate"]) == 0
    out = tmp_path / "out"
    assert (out / "cycle_summary.json").exists()
    assert (out / "cycle_timeseries.csv").exists()
    assert (out / "cycle_spanwise.csv").exists()
    summary = json.loads((out / "cycle_summary.json").read_text())
    assert summary["mean_lift_gf"] > 0


@pytest.mark.parametrize("pair", [True, False])
def test_cycle_summary_reports_the_solver_grid_and_pair(tmp_path, pair):
    path = write_config(tmp_path, solver={"steps_per_cycle": 180,
                                          "n_elements": 10, "pair": pair})
    assert cli.main(["--config", str(path), "simulate"]) == 0
    summary = json.loads((tmp_path / "out" / "cycle_summary.json")
                         .read_text())
    assert summary["pair"] is pair
    assert summary["steps"] == 180
    assert summary["metadata"]["solver"]["steps_per_cycle"] == 180


def test_cli_simulate_honours_solver_iteration_limit(tmp_path, capsys):
    path = write_config(tmp_path, solver={"steps_per_cycle": 180,
                                          "n_elements": 10, "vi_max_iter": 2})
    assert cli.main(["--config", str(path), "simulate"]) == 2
    assert "did not converge" in capsys.readouterr().err


def test_cli_sweep_on_wings_their_precompute_does_not_fit(tmp_path, capsys,
                                                        monkeypatch):
    # Every sweep precompute is built on the wing its points rescale, so
    # only a planted mismatch (points cut at 0.4, precompute uncut) reaches
    # the check: every row fails on input, and the CLI exits 1 with one
    # line.
    monkeypatch.setattr(harness, "scaled_to_area", lambda wing, area:
                        apply_inboard_cutout(scaled_to_area(wing, area), 0.4))
    path = write_config(tmp_path)
    assert cli.main(["--config", str(path), "sweep"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.endswith("wing is not a geometric rescaling of the "
                        "precomputed wing\n")


@pytest.mark.parametrize("section, key, value", [
    ("solver", "vi_max_iter", 0),
    ("solver", "vi_tol", -1.0),
    ("environment", "rho_kg_m3", math.nan),
])
def test_cli_bad_solver_or_physics_value_is_config_error(tmp_path, capsys,
                                                         section, key, value):
    path = write_config(tmp_path, trim={"target_lift_gf": 15.8,
                                        "f_lo_hz": 8.0, "f_hi_hz": 30.0})
    doc = json.loads(path.read_text())
    doc[section][key] = value
    path.write_text(json.dumps(doc))
    assert cli.main(["--config", str(path), "trim"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, section, key, value", [
    ("simulate", "wing", "breakpoints",
     [[0.0, 0.005], [0.045, math.nan], [0.09, 0.01]]),
    ("sweep", "sweep", "frequency_hz", [math.nan, 17.3]),
    ("sweep", "sweep", "area_cm2", [math.inf]),
    ("simulate", "solver", "step_per_cycle", 10),
    ("simulate", "environment", "rho", 1.0),
    ("simulate", "solver", "pair", "false"),
    ("simulate", "kinematics", "frequency_hz", "17.3"),
    ("simulate", "solver", "vi_max_iter", True),
    ("simulate", "solver", "n_elements", 1),
])
def test_cli_bad_section_value_is_config_error(tmp_path, capsys, command,
                                               section, key, value):
    path = write_config(tmp_path)
    doc = json.loads(path.read_text())
    doc[section][key] = value
    path.write_text(json.dumps(doc))
    assert cli.main(["--config", str(path), command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert err.count("\n") == 1


def test_cli_section_that_is_not_an_object_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, solver=[])
    assert cli.main(["--config", str(path), "simulate"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "solver" in err
    assert err.count("\n") == 1


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["--config", str(bad), "simulate"]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_deeply_nested_json_is_config_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert cli.main(["--config", str(deep), "simulate"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: invalid JSON in {deep}: maximum "
                          f"recursion depth exceeded")
    assert err.count("\n") == 1


def test_cli_missing_trim_section(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["--config", str(path), "trim"]) == 1
    assert capsys.readouterr().err == (
        "config error: the config has no 'trim' section\n")


@pytest.mark.parametrize("command, key", [("cutout-study", "cutuot"),
                                          ("control-sim", "contrl")])
def test_cli_misspelled_task_section_is_config_error(tmp_path, capsys,
                                                     command, key):
    path = write_config(tmp_path, **{key: {"span_fraction": 0.4}})
    assert cli.main(["--config", str(path), command]) == 1
    assert capsys.readouterr().err == (
        f"config error: unknown key(s) '{key}' in 'top-level' section\n")


def test_cli_null_output_directory_is_config_error(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["output"]["directory"] = None
    path.write_text(json.dumps(doc))
    assert cli.main(["--config", str(path), "simulate"]) == 1
    assert capsys.readouterr().err == (
        "config error: 'directory' in 'output' must be a string, got None\n")
    assert not (tmp_path / "None").exists()


def test_cli_trim(tmp_path):
    path = write_config(tmp_path, trim={"target_lift_gf": 15.8,
                                        "f_lo_hz": 8.0, "f_hi_hz": 30.0})
    assert cli.main(["--config", str(path), "trim"]) == 0
    doc = json.loads((tmp_path / "out" / "trim.json").read_text())
    assert 8.0 < doc["frequency_hz"] < 30.0
    assert len(doc["probes"]) == doc["iterations"] + 1
    assert doc["probes"][-1] == {"frequency_hz": doc["frequency_hz"],
                                 "lift_n": doc["mean_lift_n"]}
    config = StudyConfig.from_file(path)
    at_trim = config.kinematics.with_frequency(doc["frequency_hz"])
    fixed = simulate_cycle(config.wing, at_trim, config.environment,
                           config.solver,
                           induced_velocity=doc["v_induced_m_s"])
    assert doc["mean_lift_n"] == pytest.approx(fixed.mean_lift, rel=1e-12)
    assert doc["aero_power_w"] == pytest.approx(fixed.mean_aero_power,
                                                rel=1e-12)
    solved = simulate_cycle(config.wing, at_trim, config.environment,
                            config.solver)
    assert doc["v_induced_m_s"] == pytest.approx(solved.v_induced, abs=1e-6)
    assert doc["lift_to_power_gf_w"] == pytest.approx(
        doc["mean_lift_gf"] / fixed.mean_aero_power, rel=1e-12)


TASK_SECTIONS = {"trim": {"target_lift_gf": 15.8, "f_lo_hz": 8.0,
                          "f_hi_hz": 30.0},
                 "cutout": {"span_fraction": 0.25, "frequency_hz": 17.3},
                 "control": {"kp": 4.0, "duration_s": 0.1},
                 "power": POWER}


@pytest.mark.parametrize("command, section, key, value", [
    ("control-sim", "control", "kpp", 99),
    ("cutout-study", "cutout", "fraction", 0.3),
    ("trim", "trim", "f_hi_hz", "x"),
    ("trim", "trim", "f_hi_hz", math.inf),
    ("trim", "trim", "target_lift_gf", None),
    ("cutout-study", "cutout", "frequency_hz", math.nan),
    ("control-sim", "control", "dt_s", [0.01]),
    ("control-sim", "control", "setpoint_schedule", [[0.0, math.inf]]),
    ("control-sim", "control", "setpoint_schedule", [[0.0]]),
    ("simulate", "control", "kpp", 99),
    ("sweep", "trim", "f_hi_hz", "x"),
    ("simulate", "power", "v_suply", 7.4),
    ("simulate", "power", "wing_mass_kg", math.nan),
    ("control-sim", "power", "v_supply", None),
])
def test_cli_bad_task_section_value_is_config_error(tmp_path, capsys,
                                                    command, section, key,
                                                    value):
    path = write_config(tmp_path, **TASK_SECTIONS)
    doc = json.loads(path.read_text())
    doc[section][key] = value
    path.write_text(json.dumps(doc))
    assert cli.main(["--config", str(path), command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert f"'{key}'" in err and f"'{section}'" in err


@pytest.mark.parametrize("command, key, value, message", [
    ("simulate", "r_shunt_ohm", 0.0, "shunt resistance must be positive"),
    ("sweep", "motor_resistance_ohm", -1.0,
     "motor resistance must be positive"),
    ("trim", "v_supply", 3.0, "input power must be non-negative"),
    ("control-sim", "wing_mass_kg", -1e-4, "wing mass must be non-negative"),
])
def test_cli_bench_reading_the_budget_rejects_is_config_error(
        tmp_path, capsys, command, key, value, message):
    # A reading that the power budget would reject fails every run at the
    # parse, though no subcommand builds the budget.
    path = write_config(tmp_path, **TASK_SECTIONS)
    doc = json.loads(path.read_text())
    doc["power"][key] = value
    path.write_text(json.dumps(doc))
    assert cli.main(["--config", str(path), command]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_cli_unbracketed_trim_target_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, trim={"target_lift_gf": 500.0,
                                        "f_lo_hz": 8.0, "f_hi_hz": 12.0})
    assert cli.main(["--config", str(path), "trim"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: target lift 4.9 N not bracketed "
                          "at the target's momentum inflow ")
    assert err.count("\n") == 1


def test_cli_sweep_of_zero_area_wing_names_the_cause(tmp_path, capsys):
    zero = {"span_m": 0.09, "breakpoints": [[0.0, 0.0], [0.09, 0.0]]}
    path = write_config(tmp_path, wing=zero, sweep={"area_cm2": [25.0]})
    assert cli.main(["--config", str(path), "sweep"]) == 1
    assert capsys.readouterr().err == (
        "config error: all 1 sweep points failed; first error: "
        "cannot rescale a zero-area wing\n")


def test_cli_sweep_of_a_zero_stroke_names_the_cause(tmp_path, capsys):
    stroke = {"a0_deg": 10.0, "b_deg": [0.0]}
    path = write_config(tmp_path, sweep={"amplitude_deg": [190.0]},
                        kinematics={**STUDY["kinematics"], "stroke": stroke})
    assert cli.main(["--config", str(path), "sweep"]) == 1
    assert capsys.readouterr().err == (
        "config error: all 1 sweep points failed; first error: "
        "cannot rescale a zero-amplitude stroke\n")


def test_cli_sweep_below_the_reynolds_limit_is_config_error(tmp_path, capsys):
    # As simulate at 1e-3 Hz: every point fails on input, so the sweep
    # exits 1 and writes nothing.
    path = write_config(tmp_path, sweep={"frequency_hz": [1e-3]})
    assert cli.main(["--config", str(path), "sweep"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: all 1 sweep points failed; first "
                          "error: Reynolds number 1.1")
    assert err.count("\n") == 1
    assert list((tmp_path / "out").iterdir()) == []


def test_cli_missing_trim_key_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, trim={"target_lift_gf": 15.8,
                                        "f_hi_hz": 30.0})
    assert cli.main(["--config", str(path), "trim"]) == 1
    err = capsys.readouterr().err
    assert err == "config error: missing key 'f_lo_hz' in 'trim' section\n"


def test_cli_absurd_chord_is_one_line_compute_failure(tmp_path, capsys):
    path = write_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["wing"]["breakpoints"][1][1] = 1e300
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["--config", str(path), "simulate"]) == 2
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith("compute failure: non-finite cycle-mean thrust")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, section, key, value, cause", [
    pytest.param("simulate", "kinematics", "frequency_hz", 1e300, "thrust",
                 id="simulate-kinematics-frequency_hz"),
    pytest.param("cutout-study", "cutout", "frequency_hz", 1e300, "thrust",
                 id="cutout-study-cutout-frequency_hz"),
])
def test_cli_absurd_frequency_is_one_line_compute_failure(
        tmp_path, capsys, command, section, key, value, cause):
    path = write_absurd_config(tmp_path, section, key, value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["--config", str(path), command]) == 2
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith(f"compute failure: non-finite cycle-mean {cause}")
    assert err.count("\n") == 1


def write_absurd_config(tmp_path, section, key, value):
    doc = base_config_dict(cutout={"span_fraction": 0.25,
                                   "frequency_hz": 17.3},
                           trim={"target_lift_gf": 15.8, "f_lo_hz": 8.0,
                                 "f_hi_hz": 40.0})
    doc[section][key] = value
    doc["output"] = {"directory": str(tmp_path / "out")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("command, section, key, value", [
    pytest.param("trim", "trim", "f_lo_hz", 1e-300, id="trim-trim-f_lo_hz"),
    pytest.param("trim", "trim", "f_lo_hz", 1e-100,
                 id="trim-trim-f_lo_hz-1e-100"),
    pytest.param("simulate", "environment", "nu_m2_s", 1e300,
                 id="simulate-environment-nu_m2_s"),
    pytest.param("simulate", "kinematics", "frequency_hz", 1e-3,
                 id="simulate-kinematics-frequency_hz"),
])
def test_cli_reynolds_number_below_the_fit_is_config_error(
        tmp_path, capsys, command, section, key, value):
    path = write_absurd_config(tmp_path, section, key, value)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["--config", str(path), command]) == 1
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith("config error: Reynolds number ")
    assert err.endswith(" is not above the coefficient fit's lower limit "
                        "5.05544\n")
    assert err.count("\n") == 1
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("command, prefix", [
    ("simulate", ""), ("trim", ""), ("cutout-study", ""),
    ("sweep", "all 1 sweep points failed; first error: "),
], ids=["simulate", "trim", "cutout-study", "sweep"])
def test_cli_infinite_reynolds_number_is_config_error(tmp_path, capsys,
                                                      command, prefix):
    # A viscosity this small overflows Re to inf, outside the fit's domain.
    path = write_absurd_config(tmp_path, "environment", "nu_m2_s", 5e-324)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["--config", str(path), command]) == 1
    assert not caught
    assert capsys.readouterr().err == (
        f"config error: {prefix}Reynolds number inf is not finite\n")
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("command, chord, frequency, root_offset, code, "
                         "message", [
    pytest.param("sweep", 1e100, 17.3, 0.0125, 1,
                 "config error: all 1 sweep points failed; first error: "
                 "Reynolds number 7.6492e-57 is not above the coefficient "
                 "fit's lower limit 5.05544", id="sweep-reynolds"),
    pytest.param("trim", 1e100, 17.3, 0.0125, 1,
                 "config error: Reynolds number 3.5372e-57 is not above the "
                 "coefficient fit's lower limit 5.05544", id="trim-reynolds"),
    pytest.param("simulate", 1e170, 17.3, 0.0125, 2,
                 "compute failure: non-finite cycle-mean thrust nan at "
                 "inflow 0 m/s", id="simulate-thrust"),
    pytest.param("sweep", 1e170, 17.3, 0.0125, 2,
                 "compute failure: all 1 sweep points failed; first error: "
                 "non-finite cycle-mean thrust nan at inflow 0 m/s",
                 id="sweep-thrust"),
    pytest.param("simulate", 1e60, 1.73e101, 0.0, 2,
                 "compute failure: non-finite cycle-mean momentum inflow inf "
                 "at inflow 0 m/s", id="simulate-momentum-inflow"),
    pytest.param("trim", 1e160, 17.3, 0.0125, 2,
                 "compute failure: non-finite cycle-mean momentum inflow inf "
                 "at inflow inf m/s", id="trim-momentum-inflow"),
])
def test_cli_empty_stroke_disk_is_one_line_error(tmp_path, capsys, command,
                                                 chord, frequency,
                                                 root_offset, code, message):
    # A 1e-163 m wing sweeps a disk whose area underflows to 0: like any
    # other bad input it fails the Reynolds or the finiteness check, and
    # never reports zero lift.
    wing = {"span_m": 1e-163, "root_offset_m": root_offset,
            "breakpoints": [[0.0, chord], [1e-163, chord]]}
    path = write_config(tmp_path, wing=wing,
                        trim={"target_lift_gf": 15.8, "f_lo_hz": 8.0,
                              "f_hi_hz": 40.0})
    doc = json.loads(path.read_text())
    doc["kinematics"]["frequency_hz"] = frequency
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["--config", str(path), command]) == code
    assert not caught
    assert capsys.readouterr().err == message + "\n"
    assert list((tmp_path / "out").iterdir()) == []


def test_sweep_row_fails_below_the_reynolds_limit():
    # At 1e-3 Hz the study wing's Reynolds number is about 1.1.
    doc = base_config_dict(sweep={"frequency_hz": [1e-3, 17.3]})
    low, good = run_sweep(StudyConfig.from_dict(doc))
    assert good.error is None
    assert low.error.startswith("Reynolds number 1.1")
    assert low.error.endswith("is not above the coefficient fit's lower "
                              "limit 5.05544")
    assert low.mean_lift_gf is None


def test_cli_non_finite_sweep_row_writes_no_file(tmp_path, capsys,
                                                 monkeypatch):
    row = harness.SweepRow(190.0, 25.5, 0.0, 17.3, aero_power_w=math.inf)
    monkeypatch.setattr(cli, "run_sweep", lambda config, workers: (row,))
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "sweep"]) == 2
    assert capsys.readouterr().err.startswith(
        "compute failure: cannot write JSON to")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    path = write_config(tmp_path)
    assert cli.main(["--config", str(path), "--workers", workers,
                     "sweep"]) == 1
    assert capsys.readouterr().err == (
        f"config error: workers must be at least 1, got {workers}\n")


@pytest.mark.parametrize("flags, message", [
    (["simulate", "--steps", "144"], "unrecognized arguments: --steps 144"),
    (["--workers", "1.5", "sweep"],
     "argument --workers: invalid int value: '1.5'"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["simulate", "x\ny"], "unrecognized arguments: x\\ny"),
    (["--seed", "-1", "control-sim"], "--seed must be at least 0, got -1"),
])
def test_cli_usage_error_is_one_line_config_error(tmp_path, capsys, flags,
                                                  message):
    path = write_config(tmp_path, control={"duration_s": 0.1})
    assert cli.main(["--config", str(path)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert err.count("\n") == 1


def test_cli_missing_config_is_one_line_config_error(capsys):
    assert cli.main(["simulate"]) == 1
    assert capsys.readouterr().err == (
        "config error: the following arguments are required: --config\n")


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage: wingbeat" in capsys.readouterr().out


@pytest.mark.parametrize("amplitude_deg", [-120.0, 0.0])
def test_sweep_row_records_non_positive_amplitude(amplitude_deg):
    doc = base_config_dict(sweep={"amplitude_deg": [amplitude_deg, 190.0]})
    bad, good = run_sweep(StudyConfig.from_dict(doc))
    assert good.error is None
    assert bad.error == (f"stroke amplitude must be finite and positive, "
                         f"got {math.radians(amplitude_deg)} rad")


def test_cli_exports_inflow_diagnostics(tmp_path):
    path = write_config(tmp_path, cutout={"span_fraction": 0.25,
                                          "frequency_hz": 17.3})
    out = tmp_path / "out"
    assert cli.main(["--config", str(path), "simulate"]) == 0
    assert cli.main(["--config", str(path), "cutout-study"]) == 0
    summary = json.loads((out / "cycle_summary.json").read_text())
    cutout = json.loads((out / "cutout_summary.json").read_text())
    for loads in (summary, cutout["intact"], cutout["modified"]):
        assert 1 <= loads["vi_iterations"] <= 8
        assert 0.0 <= loads["vi_residual_m_s"] <= 1e-6
        assert loads["negative_thrust"] is False
    config = StudyConfig.from_file(path)
    info = simulate_cycle(config.wing, config.kinematics, config.environment,
                          config.solver).vi_info
    assert (summary["vi_iterations"], summary["vi_residual_m_s"]) == (
        info.iterations, info.residual)


def test_non_positive_power_gives_null_lift_to_power(tmp_path):
    # Pitch phased against a short stroke: positive lift (0.67 gf at
    # 17.3 Hz) at a negative mean aerodynamic power.
    doc = json.loads(json.dumps(STUDY))
    doc["kinematics"]["stroke"]["b_deg"] = [10.0]
    doc["kinematics"]["rotation_stations"] = [
        {"span_fraction": 1.0, "a0_deg": 75.0, "a_deg": [-73.6],
         "b_deg": [42.5]}]
    doc["sweep"].update(amplitude_deg=[20.0], frequency_hz=[17.3])
    doc["trim"] = {"target_lift_gf": 0.5, "f_lo_hz": 10.0, "f_hi_hz": 30.0}
    doc["output"] = {"directory": str(tmp_path / "out")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    for command in ("simulate", "trim", "sweep"):
        assert cli.main(["--config", str(path), command]) == 0
    out = tmp_path / "out"
    summary = json.loads((out / "cycle_summary.json").read_text())
    assert summary["mean_lift_gf"] > 0.0 > summary["mean_aero_power_w"]
    assert summary["lift_to_power_gf_w"] is None
    trim = json.loads((out / "trim.json").read_text())
    assert trim["aero_power_w"] < 0.0
    assert trim["lift_to_power_gf_w"] is None
    rows = json.loads((out / "sweep.json").read_text())["rows"]
    assert len(rows) == 3
    for row in rows:
        assert row["aero_power_w"] < 0.0
        assert row["lift_to_power_gf_w"] is row["error"] is None
    header, cells = read_csv(out / "sweep.csv")
    ratio = header.index("lift_to_power_gf_w")
    assert [(row[ratio], row[-1]) for row in cells] == [("", "ok")] * 3


def test_json_outputs_differ_between_runs_only_in_the_stamp(tmp_path):
    path = write_config(tmp_path, **TASK_SECTIONS)
    samples = write_samples(tmp_path, [(0.01 * k, k) for k in range(12)])
    solver = asdict(StudyConfig.from_file(path).solver)
    runs = []
    for out in (tmp_path / "first", tmp_path / "second"):
        for command in (["simulate"], ["sweep"], ["trim"], ["cutout-study"],
                        ["fit-kinematics", "--harmonics", "1",
                         str(samples)]):
            assert cli.main(["--config", str(path), "--out", str(out)]
                            + command) == 0
        runs.append({p.name: json.loads(p.read_text())
                     for p in out.glob("*.json")})
    first, second = runs
    assert sorted(first) == ["cutout_summary.json", "cycle_summary.json",
                             "fit.json", "sweep.json", "trim.json"]
    for name, doc in first.items():
        assert doc["metadata"]["solver"] == solver
        for run in (doc, second[name]):
            del run["metadata"]["timestamp_utc"]
        assert doc == second[name]


def test_cli_cutout_study(tmp_path):
    path = write_config(tmp_path, cutout={"span_fraction": 0.25,
                                          "frequency_hz": 17.3})
    assert cli.main(["--config", str(path), "cutout-study"]) == 0
    doc = json.loads((tmp_path / "out" / "cutout_summary.json").read_text())
    assert doc["lift_delta"] < 0


def test_cli_control_sim_seed(tmp_path):
    path = write_config(tmp_path, control={"kp": 4.0, "kd": 2.5,
                                           "duration_s": 1.0, "dt_s": 0.01,
                                           "gyro_sigma_dps": 2.0,
                                           "setpoint_schedule": [[0.0, 20.0]]})
    assert cli.main(["--config", str(path), "--seed", "7", "control-sim"]) == 0
    first = (tmp_path / "out" / "control_trace.csv").read_bytes()
    assert cli.main(["--config", str(path), "--seed", "7", "control-sim"]) == 0
    assert (tmp_path / "out" / "control_trace.csv").read_bytes() == first
    assert cli.main(["--config", str(path), "--seed", "8", "control-sim"]) == 0
    assert (tmp_path / "out" / "control_trace.csv").read_bytes() != first


@pytest.mark.parametrize("inertia", [0.0, -1.0])
def test_cli_control_sim_rejects_a_non_positive_inertia(tmp_path, capsys,
                                                        inertia):
    path = write_config(tmp_path, control={"inertia": inertia})
    assert cli.main(["--config", str(path), "control-sim"]) == 1
    assert capsys.readouterr().err == (
        "config error: yaw inertia must be positive\n")


@pytest.mark.parametrize("command", ["simulate", "control-sim"])
def test_cli_negative_gyro_noise_is_config_error(tmp_path, capsys, command):
    path = write_config(tmp_path, control={"gyro_sigma_dps": -2.0})
    assert cli.main(["--config", str(path), command]) == 1
    assert capsys.readouterr().err == (
        "config error: gyro sigma must be at least 0, got -2.0\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, code", [("simulate", 0), ("trim", 1)])
def test_cli_module_exits_with_the_code_of_main(tmp_path, command, code):
    # As `python -m wingbeat.cli`: the config has no trim section.
    path = write_config(tmp_path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(wingbeat.__file__)))
    run = subprocess.run([sys.executable, "-m", "wingbeat.cli", "--config",
                          str(path), command], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert run.returncode == code
    if code:
        assert run.stderr == "config error: the config has no 'trim' section\n"
    else:
        assert run.stdout.startswith("simulate: lift ")


def test_cli_fit_kinematics(tmp_path):
    path = write_config(tmp_path)
    f, b1 = 17.3, 40.0
    t = np.linspace(0.0, 1.0 / f, 120, endpoint=False)
    angle = b1 * np.sin(2 * math.pi * f * t)
    samples = tmp_path / "samples.csv"
    with open(samples, "w") as fh:
        fh.write("t_s,angle_deg\n")
        for tk, ak in zip(t, angle):
            fh.write(f"{tk:.9f},{ak:.9f}\n")
    assert cli.main(["--config", str(path), "fit-kinematics",
                     str(samples)]) == 0
    doc = json.loads((tmp_path / "out" / "fit.json").read_text())
    assert doc["b_deg"][0] == pytest.approx(b1, abs=1e-6)
    assert doc["rms_residual_deg"] < 1e-6


def test_cli_io_error_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    path = write_config(tmp_path)
    code = cli.main(["--config", str(path), "--out", str(blocker / "sub"),
                     "simulate"])
    assert code == 3
    assert "I/O error" in capsys.readouterr().err


@pytest.mark.parametrize("command, name, kind", [
    ("simulate", "cycle_summary.json", "JSON"),
    ("sweep", "sweep.csv", "CSV"),
])
def test_cli_output_file_that_is_a_directory_is_io_error(tmp_path, capsys,
                                                         command, name,
                                                         kind):
    path = write_config(tmp_path)
    target = tmp_path / "out" / name
    target.mkdir(parents=True)
    assert cli.main(["--config", str(path), command]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"I/O error: cannot write {kind} to {target}: ")
    assert err.count("\n") == 1


def test_write_cycle_of_a_fixed_inflow_has_null_inflow_diagnostics(tmp_path):
    solver = SolverSettings(steps_per_cycle=180, n_elements=10)
    result = simulate_cycle(standard_wing(25.5),
                            beetle_kinematics(17.3, 190.0), ENV, solver,
                            induced_velocity=1.5)
    harness.write_cycle(tmp_path, result, solver)
    summary = json.loads((tmp_path / "cycle_summary.json").read_text())
    assert summary["v_induced_m_s"] == 1.5
    assert [summary[key] for key in ("vi_iterations", "vi_residual_m_s",
                                     "negative_thrust")] == [None] * 3


def test_load_angle_samples_validates_columns(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,angle\n0,1\n")
    with pytest.raises(ConfigError, match="t_s"):
        load_angle_samples(bad)


def test_cli_compute_failure_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, solver={"steps_per_cycle": 180,
                                          "n_elements": 10, "vi_max_iter": 1})
    assert cli.main(["--config", str(path), "sweep"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "compute failure: all 1 sweep points failed; first error: "
        "induced-velocity solve did not converge after 1 thrust evaluations ")
    assert err.count("\n") == 1


def test_cli_fit_with_too_few_samples_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path)
    samples = tmp_path / "short.csv"
    samples.write_text("t_s,angle_deg\n0.0,1.0\n0.01,2.0\n")
    assert cli.main(["--config", str(path), "fit-kinematics",
                     str(samples)]) == 1
    assert "config error" in capsys.readouterr().err


def reference_float_table(path, header, table):
    """The float-table CSV as csv.writer writes canonically formatted
    cells, one row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in np.asarray(table).tolist():
            writer.writerow([format(v, ".12g") for v in row])


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                  2.2250738585072014e-308, 1e300, -1e300, 1.0, math.pi,
                  1.23456789012345e-7, 123456789012345.0, 0.1]


@pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 2100])
def test_write_float_table_matches_csv_writer(tmp_path, rows):
    rng = np.random.default_rng(rows)
    cells = rng.standard_normal((3, rows)) * 10.0 ** rng.integers(
        -320, 300, (3, rows))
    cells.flat[:len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[:cells.size]
    cells[2, ::7] = rng.permutation(cells[2, ::7])
    assert_table_matches_reference(tmp_path, ("a", "b_n", "c_w"), cells.T)


def assert_table_matches_reference(tmp_path, header, table):
    harness.write_float_table(tmp_path / "fast.csv", header, table)
    reference_float_table(tmp_path / "ref.csv", header, table)
    assert (tmp_path / "fast.csv").read_bytes() == (
        tmp_path / "ref.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda width: st.lists(
    st.lists(st.floats(1e-6, 1e14) | st.floats(-1e14, -1e-6),
             min_size=width, max_size=width), min_size=1, max_size=40)))
def test_write_float_table_matches_csv_writer_in_fixed_notation(
        tmp_path_factory, rows):
    cells = np.array(rows)
    assert_table_matches_reference(tmp_path_factory.mktemp("table"),
                                   [f"c{i}" for i in range(cells.shape[1])],
                                   cells)


def _neighbours(value, steps=3):
    """``value`` and its ``steps`` nearest floats on each side."""
    below = above = value
    cells = [value]
    for _ in range(steps):
        below = np.nextafter(below, -np.inf)
        above = np.nextafter(above, np.inf)
        cells += [float(below), float(above)]
    return cells


EDGE_CELLS = {
    "zeros": [0.0, -0.0],
    "subnormals": [5e-324, 2.225073858507201e-308, 1e-310],
    "non_finite": [math.inf, -math.inf, math.nan],
    **{f"1e{p}": _neighbours(float(f"1e{p}")) for p in range(-5, 13)},
    "rounds_across_1e-4": [9.99999999999995e-5, 9.99999999999949e-5],
    "rounds_to_1e12": [999999999999.5, 999999999999.4999],
    "exact_ties": [12345678901.25, 1234567890.125, 123456789012.5,
                   100000000000.5, 2.5, 0.5],
    # 12 digits N on the edges of their 4-digit groups, at exponents e.
    "digit_group_edges": [
        float(f"{n}e{e - 11}") for e in (-4, -1, 0, 5, 11)
        for n in (10**11 + 9999, 10**11 + 10**4, 10**11 + 99999999,
                  10**11 + 10**8, 999999990000, 999999999999)],
}


@pytest.mark.parametrize("cells", EDGE_CELLS.values(), ids=EDGE_CELLS)
def test_write_float_table_matches_csv_writer_on_edge_cells(tmp_path, cells):
    cells = np.array(cells)
    assert_table_matches_reference(tmp_path, ("x", "minus_x"),
                                   np.column_stack((cells, -cells)))


# One row, and one block of rows less one, exactly and plus one, at the
# widths of a column, the control trace (5) and the cycle timeseries (10).
@pytest.mark.parametrize("rows, width", [
    (harness.TABLE_CHUNK_CELLS // width + extra, width)
    for width in (1, 5, 10) for extra in (-1, 0, 1)] + [(1, 1), (1, 10)])
def test_write_float_table_chunks_rows_of_mixed_cells(tmp_path, rows, width):
    rng = np.random.default_rng(rows * width)
    cells = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(
        -7, 14, (rows, width))
    # The first row mixes fallback cells with fixed-notation ones.
    mixed = [0.0, 1.5, math.nan, -123.456, 1e-7, 2e13, -math.inf, 0.25,
             -0.0, 7.0]
    cells[0] = mixed[:width]
    assert_table_matches_reference(
        tmp_path, [f"c{i}" for i in range(width)], cells)


@pytest.mark.parametrize("header", [("a",), ("a", "b", "c"), ()])
def test_write_float_table_rejects_a_header_of_another_width(tmp_path, header):
    # An empty header goes with a table of no columns: no table to write.
    path = tmp_path / "t.csv"
    table = np.zeros((3, 2 if header else 0))
    message = (f"float table header has {len(header)} names for 2 columns"
               if header else "float table has no columns")
    with pytest.raises(ValueError, match=f"^{message}$"):
        harness.write_float_table(path, header, table)
    assert not path.exists()


@pytest.mark.parametrize("table, message", [
    (np.zeros(3), "float table must be 2-D, got 1-D"),
    (np.zeros((3, 0)), "float table has no columns"),
], ids=["1-D", "no columns"])
def test_write_float_table_rejects_a_table_of_another_shape(tmp_path, table,
                                                            message):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=f"^{message}$"):
        harness.write_float_table(path, (), table)
    assert not path.exists()


def test_write_float_table_wraps_os_errors(tmp_path):
    with pytest.raises(OSError, match="cannot write CSV"):
        harness.write_float_table(tmp_path / "missing" / "t.csv", ("x",),
                                  np.zeros((3, 1)))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_rejects_non_finite_numbers(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(ComputeError, match="cannot write JSON"):
        harness.write_json(path, {"rows": [{"x": 1.0}, {"x": value}]},
                           SolverSettings())
    assert not path.exists()


def write_samples(tmp_path, lines):
    samples = tmp_path / "samples.csv"
    samples.write_text("t_s,angle_deg\n" + "".join(
        f"{t},{a}\n" for t, a in lines))
    return samples


@pytest.mark.parametrize("t, angle", [
    ("0.02", "x"), ("0.02", ""), ("y", "3.0"), ("0.02", "inf"),
    ("nan", "3.0"), ("0.02", "-1e999"),
])
def test_cli_fit_rejects_a_bad_sample_cell(tmp_path, capsys, t, angle):
    path = write_config(tmp_path)
    samples = write_samples(tmp_path, [(0.0, 1.0), (0.01, 2.0), (t, angle)]
                            + [(0.01 * k, 1.0) for k in range(3, 12)])
    assert cli.main(["--config", str(path), "fit-kinematics",
                     str(samples)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert "data row 3" in err
    assert not (tmp_path / "out" / "fit.json").exists()


def test_cli_fit_rejects_a_ragged_sample_row_in_one_line(tmp_path, capsys):
    path = write_config(tmp_path)
    samples = write_samples(tmp_path, [(0.01 * k, k) for k in range(12)])
    samples.write_text(samples.read_text() + "0.12,1.0,7.0\n")
    assert cli.main(["--config", str(path), "fit-kinematics",
                     str(samples)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert "Line #14" in err


@pytest.mark.parametrize("text", ["", "\n\n  \n"], ids=["0 bytes", "blank"])
def test_cli_fit_rejects_an_empty_samples_file_in_one_line(tmp_path, capsys,
                                                           text):
    path = write_config(tmp_path)
    samples = tmp_path / "samples.csv"
    samples.write_text(text)
    assert cli.main(["--config", str(path), "fit-kinematics",
                     str(samples)]) == 1
    assert capsys.readouterr().err == (
        f"config error: {samples} is empty: it must have a header row with "
        f"columns t_s, angle_deg\n")


def test_cli_names_the_inputs_of_a_filter_coefficient_that_rounds_to_0(
        tmp_path, capsys):
    path = write_config(tmp_path, control={"dt_s": 1e-300,
                                           "duration_s": 1e-300})
    assert cli.main(["--config", str(path), "control-sim"]) == 1
    assert capsys.readouterr().err == (
        "config error: filter coefficient 1 - exp(-2 pi cutoff_hz dt_s) "
        "rounds to 0 at cutoff_hz 10.0 and dt_s 1e-300\n")


def test_cli_fit_rejects_negative_harmonics(tmp_path, capsys):
    path = write_config(tmp_path)
    samples = write_samples(tmp_path, [(0.01 * k, k) for k in range(12)])
    assert cli.main(["--config", str(path), "fit-kinematics",
                     "--harmonics", "-1", str(samples)]) == 1
    assert capsys.readouterr().err == (
        "config error: --harmonics must be at least 0, got -1\n")
    # Zero harmonics is a mean-only fit.
    assert cli.main(["--config", str(path), "fit-kinematics",
                     "--harmonics", "0", str(samples)]) == 0
    doc = json.loads((tmp_path / "out" / "fit.json").read_text())
    assert doc["a_deg"] == doc["b_deg"] == []
    assert doc["a0_deg"] == pytest.approx(5.5, rel=1e-12)


def test_cli_non_finite_fit_is_one_line_compute_failure(tmp_path, capsys):
    path = write_config(tmp_path)
    samples = write_samples(tmp_path, [(0.01 * k, (-1) ** k * 1e308)
                                       for k in range(12)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["--config", str(path), "fit-kinematics",
                         "--harmonics", "1", str(samples)]) == 2
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith("compute failure: cannot write JSON")
    assert err.count("\n") == 1
    assert not (tmp_path / "out" / "fit.json").exists()


def test_grid_cap_applies_to_config_flag_and_api(tmp_path, capsys):
    over = aero.MAX_GRID_CELLS // 20 + 1
    with pytest.raises(ValueError, match="grid cells"):
        SolverSettings(steps_per_cycle=over, n_elements=20)
    with pytest.raises(ConfigError, match="grid cells"):
        StudyConfig.from_dict(base_config_dict(
            solver={"steps_per_cycle": 36,
                    "n_elements": aero.MAX_GRID_CELLS // 36 + 1}))
    for steps in (aero.MAX_GRID_CELLS // 10 + 1, 1000000000000):
        path = write_config(tmp_path, solver={"steps_per_cycle": steps,
                                              "n_elements": 10})
        assert cli.main(["--config", str(path), "simulate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and "grid cells" in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("duration_s", [(MAX_STEPS + 1) * 0.01, 1e9])
def test_cli_control_step_cap_is_config_error(tmp_path, capsys, duration_s):
    path = write_config(tmp_path, control={"duration_s": duration_s,
                                           "dt_s": 0.01})
    assert cli.main(["--config", str(path), "control-sim"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert f"limit of {MAX_STEPS}" in err


def test_cli_sweep_point_cap_is_config_error(tmp_path, capsys, monkeypatch):
    # 1500 * 1000 * 1 * 1000 points from 3501 axis values; the config
    # parse rejects them, so no point is ever formed.
    monkeypatch.setattr(cli, "run_sweep", None)
    sweep = {"amplitude_deg": [100.0 + 0.01 * k for k in range(1500)],
             "area_cm2": [20.0 + 0.01 * k for k in range(1000)],
             "frequency_hz": [10.0 + 0.01 * k for k in range(1000)]}
    points = 1500 * 1000 * 1000
    assert points > harness.MAX_SWEEP_POINTS
    path = write_config(tmp_path, sweep=sweep)
    assert cli.main(["--config", str(path), "sweep"]) == 1
    err = capsys.readouterr().err
    assert err == (f"config error: sweep grid of 1500 * 1000 * 1 * 1000 = "
                   f"{points} points exceeds the limit of "
                   f"{harness.MAX_SWEEP_POINTS} points\n")
    # A replaced config is checked too; the limit itself passes.
    config = StudyConfig.from_dict(base_config_dict(
        sweep={"amplitude_deg": [120.0, 190.0]}))
    n = harness.MAX_SWEEP_POINTS // 2
    assert replace(config, frequencies_hz=(17.3,) * n).frequencies_hz
    with pytest.raises(ConfigError, match=rf"2 \* 1 \* 1 \* {n + 1} = "
                                          rf"{2 * n + 2} points"):
        replace(config, frequencies_hz=(17.3,) * (n + 1))


def test_cli_fit_cell_cap_is_config_error(tmp_path, capsys, monkeypatch):
    # 11 samples and just enough harmonics to pass the cap: the fit
    # refuses before np.outer allocates its design.
    def never(*args):
        raise AssertionError("the design matrix was allocated")

    monkeypatch.setattr(np, "outer", never)
    path = write_config(tmp_path)
    samples = write_samples(tmp_path, [(0.001 * k, k) for k in range(11)])
    harmonics = kinematics.MAX_FIT_CELLS // 22 + 1
    cells = 11 * (2 * harmonics + 1)
    assert cells > kinematics.MAX_FIT_CELLS
    assert cli.main(["--config", str(path), "fit-kinematics", "--harmonics",
                     str(harmonics), str(samples)]) == 1
    assert capsys.readouterr().err == (
        f"config error: fit design matrix of 11 samples * "
        f"{2 * harmonics + 1} coefficients exceeds the limit of "
        f"{kinematics.MAX_FIT_CELLS} cells\n")
    assert not (tmp_path / "out" / "fit.json").exists()
