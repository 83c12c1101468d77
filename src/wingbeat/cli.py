"""Command-line front end for the batch studies.

Subcommands: fit-kinematics, simulate, sweep, trim, cutout-study,
control-sim. Every subcommand reads a JSON study config (--config) and
writes its outputs under --out. Exit codes: 0 success, 1 config error,
2 compute failure, 3 I/O error.
"""

import argparse
from dataclasses import replace
import math
import os
import sys

import numpy as np

from .config import ConfigError, StudyConfig, load_angle_samples
from .control import ControllerConfig, YawPlant, simulate_closed_loop
from .harness import (
    ComputeError,
    cycle_summary_dict,
    cycle_timeseries_rows,
    hover_trim,
    run_cutout_study,
    run_metadata,
    run_sweep,
    spanwise_rows,
    write_float_table,
    write_json,
)
from .kinematics import fit_fourier
from .power import GRAM_FORCE_NEWTONS
from .aero import simulate_cycle

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COMPUTE = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # A usage error, of a subcommand too, is a one-line config error;
        # a stray argument may hold a line break.
        raise ConfigError(message.replace("\n", "\\n"))


def build_parser():
    parser = _Parser(
        prog="wingbeat",
        description="Flapping-wing design studies: simulate, sweep, trim, "
                    "cutout comparison, kinematics fitting, yaw-control demo.")
    parser.add_argument("--config", required=True, help="study config (JSON)")
    parser.add_argument("--out", default=None,
                        help="output directory (default: config output.directory)")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility (at least 1); no "
                             "effect, the sweep runs in one process")
    parser.add_argument("--steps", type=int, default=None,
                        help="override solver steps per cycle")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed (control-sim gyro noise only)")

    sub = parser.add_subparsers(dest="command", required=True)
    fit = sub.add_parser("fit-kinematics",
                         help="least-squares Fourier fit of angle samples")
    fit.add_argument("samples", help="CSV with columns t_s, angle_deg")
    fit.add_argument("--harmonics", type=int, default=5,
                     help="harmonics to fit (at least 0; 0 fits the mean)")

    sub.add_parser("simulate", help="one flapping cycle at the base config")
    sub.add_parser("sweep", help="full amplitude/area/cutout/frequency grid")
    sub.add_parser("trim",
                   help="flapping frequency that lifts the 'trim' target")
    sub.add_parser("cutout-study",
                   help="intact vs inboard-cutout wings at fixed frequency")
    sub.add_parser("control-sim", help="closed-loop yaw stabilization trace")
    return parser


def _prepare(args):
    config = StudyConfig.from_file(args.config)
    if args.steps is not None:
        config = replace(config, solver=replace(config.solver,
                                                steps_per_cycle=args.steps))
    out_dir = args.out if args.out is not None else config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    return config, out_dir


def cmd_fit_kinematics(args, config, out_dir):
    if args.harmonics < 0:
        raise ConfigError(
            f"--harmonics must be at least 0, got {args.harmonics}")
    t, angle = load_angle_samples(args.samples)
    # Absurd but finite samples may overflow; the non-finite fit then
    # fails as a compute error when fit.json is written.
    with np.errstate(all="ignore"):
        series, rms = fit_fourier(t, angle, config.kinematics.frequency,
                                  n_harmonics=args.harmonics)
    payload = {
        "metadata": run_metadata(config.solver),
        "frequency_hz": series.frequency,
        "a0_deg": math.degrees(series.a0),
        "a_deg": [math.degrees(x) for x in series.a],
        "b_deg": [math.degrees(x) for x in series.b],
        "rms_residual_deg": math.degrees(rms),
        "n_samples": int(t.size),
    }
    write_json(os.path.join(out_dir, "fit.json"), payload)
    print(f"fit: {args.harmonics} harmonics, RMS residual "
          f"{math.degrees(rms):.6g} deg -> {out_dir}/fit.json")


def cmd_simulate(args, config, out_dir):
    result = simulate_cycle(config.wing, config.kinematics,
                            config.environment, config.solver)
    summary = {"metadata": run_metadata(config.solver)}
    summary.update(cycle_summary_dict(result))
    write_json(os.path.join(out_dir, "cycle_summary.json"), summary)
    write_float_table(os.path.join(out_dir, "cycle_timeseries.csv"),
                      *cycle_timeseries_rows(result))
    write_float_table(os.path.join(out_dir, "cycle_spanwise.csv"),
                      *spanwise_rows(result))
    print(f"simulate: lift {result.mean_lift / GRAM_FORCE_NEWTONS:.4g} gf, "
          f"aero power {result.mean_aero_power:.4g} W, "
          f"Vi {result.v_induced:.4g} m/s -> {out_dir}")


def cmd_sweep(args, config, out_dir):
    result = run_sweep(config, workers=args.workers)
    result.to_csv(os.path.join(out_dir, "sweep.csv"))
    result.to_json(os.path.join(out_dir, "sweep.json"))
    failed = sum(1 for row in result.rows if row.error is not None)
    print(f"sweep: {len(result.rows)} points ({failed} failed) -> "
          f"{out_dir}/sweep.csv")


def cmd_trim(args, config, out_dir):
    section = config.task_section(
        "trim", {}, required=("target_lift_gf", "f_lo_hz", "f_hi_hz"))
    target_gf = section["target_lift_gf"]
    trim = hover_trim(config.wing, config.kinematics, config.environment,
                      target_gf * GRAM_FORCE_NEWTONS, section["f_lo_hz"],
                      section["f_hi_hz"], solver=config.solver)
    payload = {"metadata": run_metadata(config.solver)}
    payload.update(trim.as_dict())
    write_json(os.path.join(out_dir, "trim.json"), payload)
    print(f"trim: {trim.frequency_hz:.4g} Hz for {target_gf:.4g} gf "
          f"-> {out_dir}/trim.json")


def cmd_cutout_study(args, config, out_dir):
    section = config.task_section(
        "cutout", {"span_fraction": 0.25, "frequency_hz": 17.3})
    study = run_cutout_study(
        config.wing, config.kinematics, config.environment,
        cutout=section["span_fraction"],
        frequency_hz=section["frequency_hz"], solver=config.solver)
    study.to_csv(os.path.join(out_dir, "cutout_spanwise.csv"))
    study.to_json(os.path.join(out_dir, "cutout_summary.json"))
    c = study.comparison
    print(f"cutout-study: lift {100 * c.lift_delta:+.2f}%, aero power "
          f"{100 * c.power_delta:+.2f}%, lift-to-power "
          f"{100 * c.lift_to_power_delta:+.2f}% -> {out_dir}")


CONTROL_DEFAULTS = {
    "kp": 4.0, "kd": 2.5, "cutoff_hz": 10.0, "plant_gain": 1.0,
    "inertia": 1.0, "disturbance": 0.0, "duration_s": 5.0, "dt_s": 0.01,
    "gyro_sigma_dps": 0.0, "gyro_bias_dps": 0.0,
    "setpoint_schedule": [[0.0, 0.0]],
}


def cmd_control_sim(args, config, out_dir):
    if args.seed < 0:
        raise ConfigError(f"--seed must be at least 0, got {args.seed}")
    section = config.task_section("control", CONTROL_DEFAULTS)
    schedule = tuple(map(tuple, section["setpoint_schedule"]))
    if not schedule or any(len(pair) != 2 for pair in schedule):
        raise ConfigError("'setpoint_schedule' in 'control' must be a "
                          "non-empty list of [time_s, heading_deg] pairs")
    controller = ControllerConfig(
        kp=section["kp"], kd=section["kd"], cutoff_hz=section["cutoff_hz"],
        plant_gain=section["plant_gain"], setpoint_schedule=schedule)
    plant = YawPlant(inertia=section["inertia"],
                     disturbance=section["disturbance"])
    trace = simulate_closed_loop(
        plant, controller, duration=section["duration_s"],
        dt=section["dt_s"], gyro_sigma=section["gyro_sigma_dps"],
        gyro_bias=section["gyro_bias_dps"], seed=args.seed)
    path = os.path.join(out_dir, "control_trace.csv")
    trace.to_csv(path)
    print(f"control-sim: {trace.t.size} steps, final heading "
          f"{trace.psi_true[-1]:.3f} deg -> {path}")


COMMANDS = {
    "fit-kinematics": cmd_fit_kinematics,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "trim": cmd_trim,
    "cutout-study": cmd_cutout_study,
    "control-sim": cmd_control_sim,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        config, out_dir = _prepare(args)
        COMMANDS[args.command](args, config, out_dir)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ComputeError, RuntimeError) as exc:
        print(f"compute failure: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
