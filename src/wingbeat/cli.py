"""Command-line front end for the batch studies.

Subcommands: fit-kinematics, simulate, sweep, trim, cutout-study,
control-sim. Every subcommand reads a JSON study config (--config),
computes, and hands its result to one writer of :mod:`wingbeat.harness`,
which writes the outputs under --out. Exit codes: 0 success, 1 config
error, 2 compute failure, 3 I/O error.
"""

import argparse
import functools
import math
import os
import sys

import numpy as np

from .config import ConfigError, StudyConfig, load_angle_samples
from .control import simulate_closed_loop
from .harness import (
    hover_trim,
    run_cutout_study,
    run_sweep,
    write_control,
    write_cutout,
    write_cycle,
    write_fit,
    write_sweep,
    write_trim,
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


@functools.cache
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
    sub.add_parser("trim", help="flapping frequency that lifts the 'trim' "
                   "target")
    sub.add_parser("cutout-study", help="intact vs inboard-cutout wings at "
                   "fixed frequency")
    sub.add_parser("control-sim", help="closed-loop yaw stabilization trace")
    return parser


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
    write_fit(out_dir, (series, rms, t.size), config.kinematics.frequency,
              config.solver)
    print(f"fit: {args.harmonics} harmonics, RMS residual "
          f"{math.degrees(rms):.6g} deg -> {out_dir}")


def cmd_simulate(args, config, out_dir):
    result = simulate_cycle(config.wing, config.kinematics,
                            config.environment, config.solver)
    write_cycle(out_dir, result, config.solver)
    print(f"simulate: lift {result.mean_lift / GRAM_FORCE_NEWTONS:.4g} gf, "
          f"aero power {result.mean_aero_power:.4g} W, "
          f"Vi {result.v_induced:.4g} m/s -> {out_dir}")


def cmd_sweep(args, config, out_dir):
    rows = run_sweep(config, workers=args.workers)
    write_sweep(out_dir, rows, config.solver)
    failed = sum(1 for row in rows if row.error is not None)
    print(f"sweep: {len(rows)} points ({failed} failed) -> {out_dir}")


def cmd_trim(args, config, out_dir):
    section = config.trim
    if section is None:
        raise ConfigError("the config has no 'trim' section")
    trim = hover_trim(config.wing, config.kinematics, config.environment,
                      section.target_lift_gf * GRAM_FORCE_NEWTONS,
                      section.f_lo_hz, section.f_hi_hz, solver=config.solver)
    write_trim(out_dir, trim, config.solver)
    print(f"trim: {trim.frequency_hz:.4g} Hz for "
          f"{section.target_lift_gf:.4g} gf -> {out_dir}")


def cmd_cutout_study(args, config, out_dir):
    study = run_cutout_study(
        config.wing, config.kinematics, config.environment,
        cutout=config.cutout.span_fraction,
        frequency_hz=config.cutout.frequency_hz, solver=config.solver)
    write_cutout(out_dir, study, config.solver)
    print(f"cutout-study: lift {100 * study.lift_delta:+.2f}%, aero power "
          f"{100 * study.power_delta:+.2f}%, lift-to-power "
          f"{100 * study.lift_to_power_delta:+.2f}% -> {out_dir}")


def cmd_control_sim(args, config, out_dir):
    if args.seed < 0:
        raise ConfigError(f"--seed must be at least 0, got {args.seed}")
    trace = simulate_closed_loop(*config.control.loop_arguments(), args.seed)
    write_control(out_dir, trace)
    print(f"control-sim: {trace.t.size} steps, final heading "
          f"{trace.psi_true[-1]:.3f} deg -> {out_dir}")


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        config = StudyConfig.from_file(args.config)
        out_dir = args.out if args.out is not None else config.output_dir
        os.makedirs(out_dir, exist_ok=True)
        # The handler is looked up per call; the cached parser holds none.
        run = globals()["cmd_" + args.command.replace("-", "_")]
        run(args, config, out_dir)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"compute failure: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
