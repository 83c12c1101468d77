"""Batch studies and the writers of every output file.

Every study passes one :class:`~wingbeat.aero.SolverSettings` to the
aero solvers and returns plain values. One writer per subcommand
(``write_cycle``, ``write_sweep``, ...) owns its file names, headers and
payload keys. Float tables go through :func:`write_float_table`, which
formats each chunk of rows with one ``%.12g`` format string; only the
sweep table, whose status cell may hold a comma, goes through the
quoting :func:`write_csv`. :func:`write_json` stamps each JSON file's
``metadata``, and refuses a non-finite number as a compute failure;
each writer writes its JSON first, so a refused result leaves no file.
Lift-to-power is null wherever the aerodynamic power is not positive.

A sweep runs in one process, in grid order. Its points share one
:class:`~wingbeat.aero.CyclePrecompute` per cutout, which their wing
areas, amplitudes and frequencies rescale, and one wing per (area,
cutout), which gives their Reynolds number and stroke disk. A point is
one inflow solve, which returns the point's lift and power, with no
force pass. A point's ``ValueError`` or ``RuntimeError`` is recorded in
its row and never aborts the grid; a grid whose every point failed
raises a ``ValueError`` if every failure was one, else a
:class:`ComputeError`. Hover trim likewise probes with inflow solves on
one precompute.
"""

from dataclasses import asdict, dataclass, fields, replace
import csv
import datetime
import functools
import itertools
import json
import math
import os

import numpy as np

from . import __version__
from .aero import (
    CyclePrecompute,
    SolverSettings,
    compare_wings,
    reynolds,
    simulate_cycle,
    solve_induced_velocity,
)
from .power import GRAM_FORCE_NEWTONS, lift_to_power
from .wing import apply_inboard_cutout, scaled_to_area

SCHEMA_VERSION = 1


class ComputeError(RuntimeError):
    """Raised when a computation yields no usable result: every point of
    a batch failed, or a result to be exported is not finite."""


FLOAT_FORMAT = ".12g"


def format_float(value):
    """Canonical 12-significant-digit float formatting for exports."""
    return format(float(value), FLOAT_FORMAT)


def write_float_table(path, header, columns):
    """Write equal-length float arrays as CSV columns under ``header``.

    Every cell reads as :func:`format_float` formats it. Rows are
    formatted 1024 at a time, each with one ``%``-format string, and
    written as one string per chunk, so that no copy of the whole table
    is ever held in memory.
    """
    row = ",".join(["%" + FLOAT_FORMAT] * len(columns)) + "\n"
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, len(columns[0]), 1024):
                fh.write("".join([row % cells for cells in zip(
                    *(c[start:start + 1024].tolist() for c in columns))]))
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def write_csv(path, header, rows):
    """Write rows of (already formatted) cells with a fixed dialect.

    Only the sweep table goes through here: its status cell may hold a
    comma, which the CSV dialect quotes.
    """
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def write_json(path, payload, solver):
    """Write ``payload`` as strict JSON under a ``metadata`` block: schema
    and program versions, ``solver`` and the time of writing (UTC). A
    non-finite number raises :class:`ComputeError` before the file is
    opened."""
    metadata = {
        "schema_version": SCHEMA_VERSION,
        "solver_version": __version__,
        "solver": asdict(solver),
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    }
    try:
        text = json.dumps({"metadata": metadata, **payload}, indent=2,
                          sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ComputeError(f"cannot write JSON to {path}: {exc}") from exc
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise OSError(f"cannot write JSON to {path}: {exc}") from exc


def _lift_to_power_or_none(lift, power):
    """Lift-to-power (gf/W), or None when the power is not positive."""
    return lift_to_power(lift, power) if power > 0.0 else None


def _inflow_diagnostics(info):
    """The inflow solve's evaluations, final residual (m/s) and
    negative-thrust flag; None each when the inflow was given."""
    if info is None:
        return dict.fromkeys(("vi_iterations", "vi_residual_m_s",
                              "negative_thrust"))
    return {"vi_iterations": info.iterations,
            "vi_residual_m_s": info.residual,
            "negative_thrust": info.negative_thrust}


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a design sweep; failed points carry ``error``.

    The fields through ``vi_iterations`` are the columns of ``sweep.csv``.
    """

    amplitude_deg: float
    area_cm2: float
    cutout_span_fraction: float
    frequency_hz: float
    mean_lift_gf: float | None = None
    aero_power_w: float | None = None
    v_induced_m_s: float | None = None
    reynolds: float | None = None
    lift_to_power_gf_w: float | None = None
    vi_iterations: int | None = None
    vi_residual_m_s: float | None = None
    negative_thrust: bool | None = None
    error: str | None = None


def run_sweep(config, workers=1):
    """The :class:`SweepRow` of every point of the study's sweep grid, as
    a tuple in lexicographic axis order.

    ``workers`` is validated (at least 1) but has no effect: the sweep
    runs in one process. If every point failed, it raises: a
    ``ValueError`` if every failure was one, else :class:`ComputeError`.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    solver, env = config.solver, config.environment

    @functools.cache
    def wing_of(area, cutout):
        return apply_inboard_cutout(scaled_to_area(config.wing, area * 1e-4),
                                    cutout)

    @functools.cache
    def precompute_of(cutout):
        # The grid is built at unit stroke amplitude (rad) and 1 Hz, so
        # that no sweep value enters the terms every point rescales.
        shape = (config.kinematics.with_stroke_amplitude(1.0)
                 .with_frequency(1.0))
        return CyclePrecompute.build(apply_inboard_cutout(config.wing, cutout),
                                     shape, solver)

    rows, errors = [], []
    # Absurd but finite inputs may overflow on the way; the inflow solve's
    # finiteness check reports that as one error per point.
    with np.errstate(all="ignore"):
        for point in itertools.product(config.amplitudes_deg, config.areas_cm2,
                                       config.cutouts, config.frequencies_hz):
            amplitude, area, cutout, frequency = point
            try:
                if cutout < config.wing.cutout:
                    raise ValueError(f"sweep cutout {cutout} lies inside the "
                                     f"wing's own cutout {config.wing.cutout}")
                wing = wing_of(area, cutout)
                precompute = precompute_of(cutout)
                kin = config.kinematics.with_stroke_amplitude(
                    math.radians(amplitude)).with_frequency(frequency)
                info = solve_induced_velocity(wing, kin, env, solver,
                                              precompute=precompute)
                row = SweepRow(
                    *point, mean_lift_gf=info.lift / GRAM_FORCE_NEWTONS,
                    aero_power_w=info.power, v_induced_m_s=info.v_induced,
                    reynolds=reynolds(wing, kin, env),
                    lift_to_power_gf_w=_lift_to_power_or_none(info.lift,
                                                              info.power),
                    **_inflow_diagnostics(info))
            except (ValueError, RuntimeError) as exc:  # record, never abort
                errors.append(exc)
                row = SweepRow(*point, error=str(exc))
            rows.append(row)
    if rows and len(errors) == len(rows):
        message = (f"all {len(rows)} sweep points failed; first error: "
                   f"{errors[0]}")
        if all(isinstance(exc, ValueError) for exc in errors):
            raise ValueError(message)
        raise ComputeError(message)
    return tuple(rows)


@dataclass(frozen=True)
class TrimResult:
    """Trimmed frequency, lift and aerodynamic power (W), with every lift
    probe in probe order.

    ``probes`` holds (frequency_hz, lift_n, vi_evaluations) per probe.
    """

    frequency_hz: float
    mean_lift: float
    target_lift: float
    probes: tuple
    aero_power: float

    @property
    def iterations(self):
        """Probes after the first."""
        return len(self.probes) - 1


# Hover trim stops within this relative lift error of the target, and
# gives up after this many probes after the first.
TRIM_REL_TOL = 1e-4
TRIM_MAX_ITER = 60


def hover_trim(wing, kin, env, target_lift, f_lo, f_hi,
               solver=SolverSettings()):
    """Flapping frequency in [f_lo, f_hi] whose cycle-mean lift hits a target.

    The kinematics are time-rescaled at each probe frequency, and a probe
    is one inflow solve on a cycle precompute shared by all probes, whose
    lift at the solved inflow is the one ``simulate_cycle`` reports.
    Lift grows almost exactly as f^2, so the search is a secant in
    (ln f, ln L): from ``f_lo`` it steps to f_lo * sqrt(L* / L(f_lo)),
    then through the two latest probes. A step that would leave the
    bracket, or a lift <= 0, falls back to the geometric mean of the
    bracket; ``f_hi`` is probed only when a step would reach it. The
    search stops at the first probe within ``TRIM_REL_TOL`` of the target
    (N, for the configured single/pair setting), which the lifts at the
    two bounds must bracket.
    """
    if not 0.0 < f_lo < f_hi:
        raise ValueError("need 0 < f_lo < f_hi")
    if target_lift <= 0.0:
        raise ValueError("target lift must be positive")

    probes = []
    last = None
    # Every probe rescales one grid, built at the first probe's frequency.
    precompute = CyclePrecompute.build(wing, kin.with_frequency(f_lo), solver)

    def lift_at(f):
        nonlocal last
        last = solve_induced_velocity(wing, kin.with_frequency(f), env,
                                      solver, precompute=precompute)
        probes.append((f, last.lift, last.iterations))
        return last.lift

    def trimmed(f, lift):
        if abs(lift - target_lift) < TRIM_REL_TOL * target_lift:
            return TrimResult(f, lift, target_lift, tuple(probes),
                              last.power)
        return None

    def not_bracketed(lift_lo, lift_hi):
        return ValueError(
            f"target lift {target_lift:.4g} N not bracketed: lift is "
            f"{lift_lo:.4g} N at {f_lo} Hz and {lift_hi:.4g} N at {f_hi} Hz")

    def log_secant(f0, lift0, f1, lift1):
        """ln f where the line through two probes in (ln f, ln L) meets L*."""
        if lift0 <= 0.0 or lift1 <= 0.0:
            return math.nan
        rise = math.log(lift1 / lift0)
        if rise == 0.0:
            return math.nan
        return math.log(f1) + (math.log(target_lift / lift1)
                               * math.log(f1 / f0) / rise)

    lift_lo = lift_at(f_lo)
    if result := trimmed(f_lo, lift_lo):
        return result
    if lift_lo > target_lift:
        lift_hi = lift_at(f_hi)
        if result := trimmed(f_hi, lift_hi):
            return result
        raise not_bracketed(lift_lo, lift_hi)

    # The lift is below the target at lo, and above it at hi once probed.
    lo, hi, hi_probed = f_lo, f_hi, False
    f, lift = f_lo, lift_lo
    x_next = (math.log(f_lo) + 0.5 * math.log(target_lift / lift_lo)
              if lift_lo > 0.0 else math.nan)
    for _ in range(TRIM_MAX_ITER):
        if not hi_probed and x_next >= math.log(f_hi):
            f_next = f_hi
        elif math.log(lo) < x_next < math.log(hi):
            f_next = math.exp(x_next)
        else:
            f_next = math.sqrt(lo * hi)
        lift_next = lift_at(f_next)
        if result := trimmed(f_next, lift_next):
            return result
        if lift_next > target_lift:
            hi, hi_probed = f_next, True
        elif f_next == f_hi:
            raise not_bracketed(lift_lo, lift_next)
        else:
            lo = f_next
        x_next = log_secant(f, lift, f_next, lift_next)
        f, lift = f_next, lift_next
    raise ComputeError(
        f"hover trim did not converge within {TRIM_MAX_ITER} probes after "
        f"the first")


@dataclass(frozen=True)
class CutoutStudy:
    """Intact-versus-modified comparison at identical kinematics."""

    cutout: float
    frequency_hz: float
    intact: object
    modified: object
    comparison: object


def run_cutout_study(wing, kin, env, cutout, frequency_hz,
                     solver=SolverSettings()):
    """Simulate the intact and inboard-cutout wings at the same kinematics.

    The intact wing is ``wing`` with its whole membrane, whatever cutout
    ``wing`` has; the modified wing is the intact one cut at ``cutout``.
    """
    kin = kin.with_frequency(frequency_hz)
    whole = replace(wing, cutout=0.0)
    intact = simulate_cycle(whole, kin, env, solver)
    modified = simulate_cycle(apply_inboard_cutout(whole, cutout), kin, env,
                              solver)
    return CutoutStudy(cutout=cutout, frequency_hz=frequency_hz,
                       intact=intact, modified=modified,
                       comparison=compare_wings(intact, modified))


def write_cycle(out_dir, result, solver):
    """``cycle_summary.json``, ``cycle_timeseries.csv`` and
    ``cycle_spanwise.csv`` of one cycle result."""
    write_json(os.path.join(out_dir, "cycle_summary.json"), {
        "mean_lift_n": result.mean_lift,
        "mean_lift_gf": result.mean_lift / GRAM_FORCE_NEWTONS,
        "mean_aero_power_w": result.mean_aero_power,
        "lift_to_power_gf_w": _lift_to_power_or_none(result.mean_lift,
                                                     result.mean_aero_power),
        "v_induced_m_s": result.v_induced,
        "reynolds": result.reynolds_number,
        "frequency_hz": result.frequency,
        "pair": solver.pair,
        "steps": solver.steps_per_cycle,
        **_inflow_diagnostics(result.vi_info),
    }, solver)
    ts, f = result.time_series, result.time_series.forces
    write_float_table(
        os.path.join(out_dir, "cycle_timeseries.csv"),
        ("t_s", "eta_translational_n", "eta_added_mass_n",
         "eta_rotational_n", "eta_total_n", "zeta_translational_n",
         "zeta_added_mass_n", "zeta_rotational_n", "zeta_total_n",
         "aero_power_w"),
        (ts.t, f.translational_eta, f.added_mass_eta, f.rotational_eta,
         f.total_eta, f.translational_zeta, f.added_mass_zeta,
         f.rotational_zeta, f.total_zeta, ts.power))
    write_float_table(os.path.join(out_dir, "cycle_spanwise.csv"),
                      ("span_fraction", "mean_lift_n", "mean_power_w"),
                      (result.span_fractions, result.spanwise_lift,
                       result.spanwise_power))


def write_sweep(out_dir, rows, solver):
    """``sweep.csv``, the plot table, and ``sweep.json`` with every field
    of every :class:`SweepRow`."""
    columns = [f.name for f in fields(SweepRow)]
    columns = columns[:columns.index("vi_iterations") + 1]
    cells = []
    for row in rows:
        *values, iterations = [getattr(row, name) for name in columns]
        cells.append(["" if v is None else format_float(v) for v in values]
                     + ["" if iterations is None else str(iterations),
                        "ok" if row.error is None else f"error: {row.error}"])
    write_json(os.path.join(out_dir, "sweep.json"),
               {"rows": [vars(row) for row in rows]}, solver)
    write_csv(os.path.join(out_dir, "sweep.csv"), columns + ["status"], cells)


def write_trim(out_dir, trim, solver):
    """``trim.json``: the trimmed point and every probe of the search."""
    write_json(os.path.join(out_dir, "trim.json"), {
        "frequency_hz": trim.frequency_hz,
        "mean_lift_n": trim.mean_lift,
        "mean_lift_gf": trim.mean_lift / GRAM_FORCE_NEWTONS,
        "aero_power_w": trim.aero_power,
        "lift_to_power_gf_w": _lift_to_power_or_none(trim.mean_lift,
                                                     trim.aero_power),
        "target_lift_n": trim.target_lift,
        "iterations": trim.iterations,
        "probes": [{"frequency_hz": f, "lift_n": lift, "vi_evaluations": n}
                   for f, lift, n in trim.probes],
    }, solver)


def write_cutout(out_dir, study, solver):
    """``cutout_spanwise.csv`` and ``cutout_summary.json`` of a
    :class:`CutoutStudy`."""
    intact, modified = study.intact, study.modified

    def loads(result):
        return {"mean_lift_gf": result.mean_lift / GRAM_FORCE_NEWTONS,
                "aero_power_w": result.mean_aero_power,
                "v_induced_m_s": result.v_induced,
                **_inflow_diagnostics(result.vi_info)}

    write_json(os.path.join(out_dir, "cutout_summary.json"), {
        "cutout_span_fraction": study.cutout,
        "frequency_hz": study.frequency_hz,
        "intact": loads(intact),
        "modified": loads(modified),
        "lift_delta": study.comparison.lift_delta,
        "power_delta": study.comparison.power_delta,
        "lift_to_power_delta": study.comparison.lift_to_power_delta,
    }, solver)
    write_float_table(
        os.path.join(out_dir, "cutout_spanwise.csv"),
        ("span_fraction", "lift_intact_n", "lift_modified_n",
         "power_intact_w", "power_modified_w"),
        (intact.span_fractions, intact.spanwise_lift, modified.spanwise_lift,
         intact.spanwise_power, modified.spanwise_power))


def write_control(out_dir, trace):
    """``control_trace.csv`` of a closed-loop trace: no JSON, no solver."""
    write_float_table(os.path.join(out_dir, "control_trace.csv"),
                      ("t_s", "psi_true_deg", "psi_est_deg", "omega_dps",
                       "control_output"),
                      (trace.t, trace.psi_true, trace.psi_est, trace.omega,
                       trace.control_output))


def write_fit(out_dir, fit, solver):
    """``fit.json`` of a Fourier fit, given as (series, RMS residual in
    rad, number of samples)."""
    series, rms, n_samples = fit
    write_json(os.path.join(out_dir, "fit.json"), {
        "frequency_hz": series.frequency,
        "a0_deg": math.degrees(series.a0),
        "a_deg": [math.degrees(x) for x in series.a],
        "b_deg": [math.degrees(x) for x in series.b],
        "rms_residual_deg": math.degrees(rms),
        "n_samples": n_samples,
    }, solver)
