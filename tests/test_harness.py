"""Study configs, sweep runner, trim, cutout study, exports, and the CLI."""

from dataclasses import asdict, replace
import csv
import json
import math
import os
from pathlib import Path
import subprocess
import sys
import warnings

import numpy as np
import pytest

import wingbeat
from wingbeat import aero, cli, harness
from wingbeat.aero import AeroEnvironment, SolverSettings, simulate_cycle
from wingbeat.config import ConfigError, StudyConfig, load_angle_samples
from wingbeat.control import MAX_STEPS
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


def test_sweep_row_fails_a_cutout_inside_the_wings_own():
    doc = base_config_dict(sweep={"amplitude_deg": [190.0],
                                  "cutout": [0.0, 0.3]})
    doc["wing"]["cutout_span_fraction"] = 0.3
    inside, own = run_sweep(StudyConfig.from_dict(doc))
    assert inside.error == ("sweep cutout 0.0 lies inside the wing's own "
                            "cutout 0.3")
    assert inside.mean_lift_gf is None
    assert own.error is None


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
            ({"nu_m2_s": -1.0}, "air density and viscosity must be finite "
                                "and positive")):
        doc = base_config_dict(environment=env)
        with pytest.raises(ConfigError) as error:
            StudyConfig.from_dict(doc)
        assert str(error.value) == f"invalid environment: {message}"


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
    assert bare.cutout == {"span_fraction": 0.25, "frequency_hz": 17.3}
    assert bare.control["setpoint_schedule"] == ((0.0, 0.0),)
    config = StudyConfig.from_dict(base_config_dict(
        power=POWER, control={"kp": 3, "setpoint_schedule": [[0, 5]]}))
    assert config.power == POWER
    assert config.control == {**bare.control, "kp": 3.0,
                              "setpoint_schedule": ((0.0, 5.0),)}
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


def count_fits(monkeypatch):
    """The wings passed to every ``CyclePrecompute.fit`` from now on."""
    calls = []
    fit = aero.CyclePrecompute.fit

    def counting(self, wing, kin):
        calls.append(wing)
        return fit(self, wing, kin)

    monkeypatch.setattr(aero.CyclePrecompute, "fit", counting)
    return calls


def test_sweep_evaluates_loads_once_per_inflow_iterate(monkeypatch):
    calls = []
    loads = aero.CyclePrecompute.loads

    def counting(self, scales, v, re, rho):
        calls.append(v)
        return loads(self, scales, v, re, rho)

    monkeypatch.setattr(aero.CyclePrecompute, "loads", counting)
    fits = count_fits(monkeypatch)
    doc = base_config_dict(sweep={"amplitude_deg": [120.0, 190.0],
                                  "area_cm2": [20.1, 31.4],
                                  "cutout": [0.0, 0.3],
                                  "frequency_hz": [12.0, 24.0]})
    rows = run_sweep(StudyConfig.from_dict(doc))
    assert all(row.error is None for row in rows)
    assert len(calls) == sum(row.vi_iterations for row in rows)
    assert len(fits) == len(rows) == 16


def test_sweep_samples_the_stroke_amplitude_at_most_once(monkeypatch):
    # Order-0 evaluations of a stroke series (mean angle 0, where the
    # rotation stations' is 90 deg) sample its amplitude; the cycle grid
    # needs only the stroke's rate and acceleration.
    samples = []
    evaluate = FourierSeries.eval

    def counting(self, t, order=0):
        if order == 0 and self.a0 == 0.0:
            samples.append(self)
        return evaluate(self, t, order)

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
    WingKinematics(kin.stroke, kin.rotation_stations).stroke_amplitude
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

    monkeypatch.setattr(harness, "solve_induced_velocity", broken)
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
    lift_lo, lift_hi = (
        simulate_cycle(wing, kin.with_frequency(f), ENV, solver).mean_lift
        for f in (8.0, 12.0))
    for target in (1e-4, 1e4):  # below the bracket, then above it
        with pytest.raises(ValueError) as info:
            hover_trim(wing, kin, ENV, target, 8.0, 12.0, solver=solver)
        assert str(info.value) == (
            f"target lift {target:.4g} N not bracketed: lift is "
            f"{lift_lo:.4g} N at 8.0 Hz and {lift_hi:.4g} N at 12.0 Hz")


@pytest.mark.parametrize("area", [20.1, 25.5, 31.4])
@pytest.mark.parametrize("amplitude", [120.0, 190.0])
@pytest.mark.parametrize("target_gf", [12.0, 20.0])
def test_hover_trim_log_secant(area, amplitude, target_gf):
    wing = standard_wing(area)
    kin = beetle_kinematics(17.3, amplitude)
    solver = SolverSettings(steps_per_cycle=180, n_elements=10)
    target = target_gf * GRAM_FORCE_NEWTONS
    trim = hover_trim(wing, kin, ENV, target, 8.0, 40.0, solver=solver)
    # f_lo, then f_lo * sqrt(L*/L(f_lo)), then one secant step. The far
    # corner trims at 33 Hz, where the secant through 8 Hz misses the
    # 1e-4 tolerance by 8e-6 and takes one more step.
    far_corner = (area, amplitude, target_gf) == (20.1, 120.0, 20.0)
    assert len(trim.probes) == (4 if far_corner else 3)
    assert trim.iterations == len(trim.probes) - 1
    assert trim.probes[0][0] == 8.0
    assert trim.probes[-1][:2] == (trim.frequency_hz, trim.mean_lift)
    assert all(n >= 1 for _, _, n in trim.probes)
    cycle = simulate_cycle(wing, kin.with_frequency(trim.frequency_hz), ENV,
                           solver)
    assert trim.mean_lift == pytest.approx(cycle.mean_lift, rel=1e-12)
    assert abs(cycle.mean_lift - target) <= 1e-4 * target


def test_hover_trim_probes_are_inflow_solves(monkeypatch):
    calls = []
    solve = harness.solve_induced_velocity
    monkeypatch.setattr(harness, "solve_induced_velocity",
                        lambda *a, **k: calls.append(a[1].frequency)
                        or solve(*a, **k))
    monkeypatch.setattr(harness, "simulate_cycle", None)
    fits = count_fits(monkeypatch)
    trim = hover_trim(standard_wing(25.5), beetle_kinematics(17.3, 190.0),
                      ENV, 15.8 * GRAM_FORCE_NEWTONS, 8.0, 40.0,
                      solver=SolverSettings(steps_per_cycle=180,
                                            n_elements=10))
    assert calls == [f for f, _, _ in trim.probes]
    assert len(calls) == len(fits) == 3


def test_hover_trim_discretizes_once(monkeypatch):
    calls = count_discretize(monkeypatch)
    trim = hover_trim(standard_wing(25.5), beetle_kinematics(17.3, 190.0),
                      ENV, 15.8 * GRAM_FORCE_NEWTONS, 8.0, 40.0,
                      solver=SolverSettings(steps_per_cycle=180,
                                            n_elements=10))
    assert len(trim.probes) == 3
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
    assert trim.probes == tuple((f, 0.5 * lift, n)
                                for f, lift, n in pair.probes)
    at_trim = kin.with_frequency(trim.frequency_hz)
    pair_lift = harness.solve_induced_velocity(
        wing, at_trim, ENV, replace(solver, pair=True)).lift
    assert trim.mean_lift == pytest.approx(0.5 * pair_lift, rel=1e-12)
    single = simulate_cycle(wing, at_trim, ENV, solver).mean_lift
    assert abs(single - target) <= 1e-4 * target


def test_hover_trim_zero_stroke_raises():
    kin = beetle_kinematics(17.3, 190.0)
    frozen = WingKinematics(
        stroke=FourierSeries(0.0, (0.0,), (0.0,), 17.3),
        rotation_stations=kin.rotation_stations)
    with pytest.raises(ValueError, match="degenerate kinematics"):
        hover_trim(standard_wing(25.5), frozen, ENV, 0.1, 8.0, 40.0)


def test_cutout_study_zero_fraction_gives_zero_deltas():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    solver = SolverSettings(steps_per_cycle=180, n_elements=10)
    study = run_cutout_study(wing, kin, ENV, cutout=0.0, frequency_hz=17.3,
                             solver=solver)
    assert study.comparison.lift_delta == 0.0
    assert study.comparison.power_delta == 0.0
    assert study.comparison.lift_to_power_delta == 0.0


def test_cutout_study_deltas_grow_with_fraction(tmp_path):
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    solver = SolverSettings(steps_per_cycle=180, n_elements=10)
    quarter = run_cutout_study(wing, kin, ENV, 0.25, 17.3, solver=solver)
    half = run_cutout_study(wing, kin, ENV, 0.5, 17.3, solver=solver)
    assert abs(half.comparison.lift_delta) > abs(quarter.comparison.lift_delta)
    assert abs(half.comparison.power_delta) > abs(quarter.comparison.power_delta)
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
    assert got.comparison == want.comparison
    assert got.comparison.lift_delta < 0.0


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
                                 "lift_n": doc["mean_lift_n"],
                                 "vi_evaluations": 4}
    config = StudyConfig.from_file(path)
    cycle = simulate_cycle(
        config.wing, config.kinematics.with_frequency(doc["frequency_hz"]),
        config.environment, config.solver)
    assert doc["aero_power_w"] == pytest.approx(cycle.mean_aero_power,
                                                rel=1e-12)
    assert doc["lift_to_power_gf_w"] == pytest.approx(
        doc["mean_lift_gf"] / cycle.mean_aero_power, rel=1e-12)


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


def test_cli_unbracketed_trim_target_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, trim={"target_lift_gf": 500.0,
                                        "f_lo_hz": 8.0, "f_hi_hz": 12.0})
    assert cli.main(["--config", str(path), "trim"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: target lift 4.9 N not bracketed: ")
    assert err.count("\n") == 1


def test_cli_sweep_of_zero_area_wing_names_the_cause(tmp_path, capsys):
    zero = {"span_m": 0.09, "breakpoints": [[0.0, 0.0], [0.09, 0.0]]}
    path = write_config(tmp_path, wing=zero, sweep={"area_cm2": [25.0]})
    assert cli.main(["--config", str(path), "sweep"]) == 1
    assert capsys.readouterr().err == (
        "config error: all 1 sweep points failed; first error: "
        "cannot rescale a zero-area wing\n")


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


def reference_float_table(path, header, columns):
    """The float-table CSV as csv.writer writes canonically formatted
    cells, one row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*(np.asarray(c).tolist() for c in columns)):
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
    header = ("a", "b_n", "c_w")
    harness.write_float_table(tmp_path / "fast.csv", header, tuple(cells))
    reference_float_table(tmp_path / "ref.csv", header, cells)
    assert (tmp_path / "fast.csv").read_bytes() == (
        tmp_path / "ref.csv").read_bytes()


def test_write_float_table_wraps_os_errors(tmp_path):
    with pytest.raises(OSError, match="cannot write CSV"):
        harness.write_float_table(tmp_path / "missing" / "t.csv", ("x",),
                                  (np.zeros(3),))


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
