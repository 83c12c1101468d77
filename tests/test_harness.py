"""Study configs, sweep runner, trim, cutout study, exports, and the CLI."""

import json
import math
import os

import numpy as np
import pytest

from wingbeat import cli, harness
from wingbeat.aero import AeroEnvironment, SolverSettings, simulate_cycle
from wingbeat.config import (
    ConfigError,
    StudyConfig,
    kinematics_to_config,
    load_angle_samples,
    wing_to_config,
)
from wingbeat.harness import (
    ComputeError,
    format_float,
    hover_trim,
    load_csv,
    run_cutout_study,
    run_sweep,
)
from wingbeat.power import GRAM_FORCE_NEWTONS
from wingbeat.presets import beetle_kinematics, standard_wing


def base_config_dict(**overrides):
    doc = {
        "wing": wing_to_config(standard_wing(25.5)),
        "kinematics": kinematics_to_config(beetle_kinematics(17.3, 190.0)),
        "environment": {"rho_kg_m3": 1.225, "nu_m2_s": 1.5e-5},
        "sweep": {},
        "solver": {"steps_per_cycle": 180, "n_elements": 10},
        "output": {"directory": "."},
    }
    doc.update(overrides)
    return doc


def test_config_round_trip():
    config = StudyConfig.from_dict(base_config_dict())
    again = StudyConfig.from_dict(config.to_dict())
    assert again == config
    assert again.to_dict() == config.to_dict()


def test_config_defaults_axes_from_base():
    config = StudyConfig.from_dict(base_config_dict())
    assert config.amplitudes_deg == pytest.approx((190.0,), rel=1e-2)
    assert config.areas_cm2 == pytest.approx((25.5,), rel=1e-9)
    assert config.cutouts == (0.0,)
    assert config.frequencies_hz == (17.3,)


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
    ("wing", "rotation_axis", {"type": "breakpoints",
                               "value": [[0.0, 0.001], [0.09, math.inf]]}),
    ("wing", "cutout_span_fraction", math.nan),
    ("sweep", "frequency_hz", [math.nan]),
    ("sweep", "area_cm2", [25.5, math.inf]),
    ("sweep", "amplitude_deg", [-math.inf]),
    ("sweep", "cutout", [math.nan]),
])
def test_config_rejects_bad_solver_and_physics_values(section, key, value):
    doc = base_config_dict()
    doc[section][key] = value
    with pytest.raises(ConfigError, match=key):
        StudyConfig.from_dict(doc)


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


def test_config_keeps_unknown_top_level_sections():
    section = {"v_supply": 7.4, "anything": [1, "two"]}
    config = StudyConfig.from_dict(base_config_dict(power=section))
    assert config.extra_section("power") == section
    assert config.to_dict()["power"] == section


def test_config_rejects_non_finite_series_coefficients():
    doc = base_config_dict()
    doc["kinematics"]["rotation_stations"][0]["a_deg"][0] = math.nan
    with pytest.raises(ConfigError, match="a_deg"):
        StudyConfig.from_dict(doc)


def test_single_point_sweep_matches_direct_call():
    config = StudyConfig.from_dict(base_config_dict())
    result = run_sweep(config)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.error is None
    direct = simulate_cycle(config.wing, config.kinematics,
                            config.environment,
                            SolverSettings(steps_per_cycle=180, n_elements=10))
    assert row.mean_lift_gf == pytest.approx(
        direct.mean_lift / GRAM_FORCE_NEWTONS, rel=1e-9)
    assert row.aero_power_w == pytest.approx(direct.mean_aero_power, rel=1e-9)


def test_sweep_grid_order_and_determinism(tmp_path):
    doc = base_config_dict(sweep={"amplitude_deg": [120.0, 190.0],
                                  "frequency_hz": [15.0, 20.0]})
    config = StudyConfig.from_dict(doc)
    serial = run_sweep(config, workers=1)
    parallel = run_sweep(config, workers=4)
    p1, p2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    serial.to_csv(p1)
    parallel.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    amps = [row.amplitude_deg for row in serial.rows]
    freqs = [row.frequency_hz for row in serial.rows]
    assert amps == [120.0, 120.0, 190.0, 190.0]
    assert freqs == [15.0, 20.0, 15.0, 20.0]


def test_sweep_isolates_point_failures():
    doc = base_config_dict(sweep={"area_cm2": [25.5, 0.0]})
    result = run_sweep(StudyConfig.from_dict(doc))
    assert len(result.rows) == 2
    assert result.rows[0].error is None
    assert result.rows[1].error is not None
    assert result.rows[1].mean_lift_gf is None


def test_sweep_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a domain failure")

    monkeypatch.setattr(harness, "simulate_cycle", broken)
    doc = base_config_dict(sweep={"frequency_hz": [15.0, 20.0]})
    with pytest.raises(TypeError, match="not a domain failure"):
        run_sweep(StudyConfig.from_dict(doc), workers=1)


def test_sweep_raises_when_every_point_fails():
    doc = base_config_dict(sweep={"area_cm2": [0.0, -1.0]})
    with pytest.raises(ComputeError):
        run_sweep(StudyConfig.from_dict(doc))


def test_sweep_export_round_trip(tmp_path):
    doc = base_config_dict(sweep={"frequency_hz": [15.0, 20.0]})
    result = run_sweep(StudyConfig.from_dict(doc))
    path = tmp_path / "sweep.csv"
    result.to_csv(path)
    header, rows = load_csv(path)
    assert header[:4] == ("amplitude_deg", "area_cm2",
                          "cutout_span_fraction", "frequency_hz")
    # Re-exporting the parsed table reproduces the file byte for byte.
    from wingbeat.harness import write_csv
    path2 = tmp_path / "sweep2.csv"
    write_csv(path2, header,
              [[format_float(float(c)) if c not in ("ok", "") and i < 10
                else c for i, c in enumerate(row)] for row in rows])
    assert path.read_bytes() == path2.read_bytes()

    json_path = tmp_path / "sweep.json"
    result.to_json(json_path)
    doc = json.loads(json_path.read_text())
    assert doc["metadata"]["schema_version"] == 1
    assert doc["metadata"]["solver"]["steps_per_cycle"] == 180
    assert "timestamp_utc" in doc["metadata"]
    assert len(doc["rows"]) == 2


def test_empty_rows_export_header_only(tmp_path):
    from wingbeat.harness import SweepResult, SweepRow, write_csv
    result = SweepResult(rows=(), metadata={})
    path = tmp_path / "empty.csv"
    result.to_csv(path)
    assert path.read_text().splitlines() == [",".join(SweepRow.CSV_FIELDS)]


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
    with pytest.raises(ValueError, match="bracket"):
        hover_trim(wing, kin, ENV, 1e4, 8.0, 12.0)


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
    path = tmp_path / "spanwise.csv"
    quarter.to_csv(path)
    header, rows = load_csv(path)
    assert header == ("span_fraction", "lift_intact_n", "lift_modified_n",
                      "power_intact_w", "power_modified_w")
    assert len(rows) == 10


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


def test_cli_simulate_honours_solver_iteration_limit(tmp_path, capsys):
    path = write_config(tmp_path, solver={"steps_per_cycle": 180,
                                          "n_elements": 10, "vi_max_iter": 2})
    assert cli.main(["--config", str(path), "simulate"]) == 2
    assert "did not converge" in capsys.readouterr().err


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
    assert "trim" in capsys.readouterr().err


def test_cli_trim(tmp_path):
    path = write_config(tmp_path, trim={"target_lift_gf": 15.8,
                                        "f_lo_hz": 8.0, "f_hi_hz": 30.0})
    assert cli.main(["--config", str(path), "trim"]) == 0
    doc = json.loads((tmp_path / "out" / "trim.json").read_text())
    assert 8.0 < doc["frequency_hz"] < 30.0


def test_cli_sweep_with_steps_override(tmp_path):
    path = write_config(tmp_path, sweep={"frequency_hz": [15.0, 20.0]})
    assert cli.main(["--config", str(path), "--steps", "144",
                     "sweep"]) == 0
    doc = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert doc["metadata"]["solver"]["steps_per_cycle"] == 144


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
    path = write_config(tmp_path, sweep={"area_cm2": [0.0]})
    assert cli.main(["--config", str(path), "sweep"]) == 2
    assert "compute failure" in capsys.readouterr().err


def test_cli_fit_with_too_few_samples_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path)
    samples = tmp_path / "short.csv"
    samples.write_text("t_s,angle_deg\n0.0,1.0\n0.01,2.0\n")
    assert cli.main(["--config", str(path), "fit-kinematics",
                     str(samples)]) == 1
    assert "config error" in capsys.readouterr().err
