"""Batch studies: design-space sweeps, hover trim, and the cutout comparison.

Every study passes one :class:`~wingbeat.aero.SolverSettings` to
``simulate_cycle`` and writes its tables through :func:`write_csv`.
Sweep points are independent; the runner farms them out, with the parsed
study, to a process pool and merges rows back in grid order, so serial and
parallel runs emit byte-identical tables. A point's ``ValueError`` or
``RuntimeError`` is recorded in its row and never aborts the grid.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
import csv
import datetime
import json
import math

import numpy as np

from . import __version__
from .aero import SolverSettings, compare_wings, simulate_cycle
from .power import GRAM_FORCE_NEWTONS, lift_to_power
from .wing import apply_inboard_cutout, scaled_to_area

SCHEMA_VERSION = 1


class ComputeError(RuntimeError):
    """Raised when a batch produces no usable result at all."""


FLOAT_FORMAT = ".12g"


def format_float(value):
    """Canonical 12-significant-digit float formatting for exports."""
    return format(float(value), FLOAT_FORMAT)


def float_table_rows(columns):
    """Rows of canonically formatted cells from equal-length float arrays.

    Yields the rows, converting 1024 at a time to Python floats, so that no
    copy of the whole table is ever held in memory.
    """
    for start in range(0, len(columns[0]), 1024):
        for row in zip(*(c[start:start + 1024].tolist() for c in columns)):
            yield [format(v, FLOAT_FORMAT) for v in row]


def write_csv(path, header, rows):
    """Write rows of (already formatted) cells with a fixed dialect."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def write_json(path, payload):
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write JSON to {path}: {exc}") from exc


def run_metadata(solver):
    return {
        "schema_version": SCHEMA_VERSION,
        "solver_version": __version__,
        "solver": asdict(solver),
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    }


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a design sweep; failed points carry ``error``."""

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
    error: str | None = None

    CSV_FIELDS = ("amplitude_deg", "area_cm2", "cutout_span_fraction",
                  "frequency_hz", "mean_lift_gf", "aero_power_w",
                  "v_induced_m_s", "reynolds", "lift_to_power_gf_w",
                  "vi_iterations", "status")

    def csv_cells(self):
        *values, iterations, error = self.as_dict().values()
        cells = ["" if v is None else format_float(v) for v in values]
        cells.append("" if iterations is None else str(iterations))
        cells.append("ok" if error is None else f"error: {error}")
        return cells

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    metadata: dict

    def to_csv(self, path):
        write_csv(path, SweepRow.CSV_FIELDS,
                  [row.csv_cells() for row in self.rows])

    def to_json(self, path):
        write_json(path, {"metadata": self.metadata,
                          "rows": [row.as_dict() for row in self.rows]})


def _evaluate_point(args):
    config, amplitude, area, cutout, frequency = args
    point = SweepRow(amplitude, area, cutout, frequency)
    try:
        wing = apply_inboard_cutout(scaled_to_area(config.wing, area * 1e-4),
                                    cutout)
        kin = config.kinematics.with_stroke_amplitude(
            math.radians(amplitude)).with_frequency(frequency)
        result = simulate_cycle(wing, kin, config.environment, config.solver)
        return replace(
            point,
            mean_lift_gf=result.mean_lift / GRAM_FORCE_NEWTONS,
            aero_power_w=result.mean_aero_power,
            v_induced_m_s=result.v_induced,
            reynolds=result.reynolds_number,
            lift_to_power_gf_w=lift_to_power(result.mean_lift,
                                             result.mean_aero_power),
            vi_iterations=result.vi_info.iterations)
    except (ValueError, RuntimeError) as exc:  # record, never abort
        return replace(point, error=str(exc))


def sweep_grid(config):
    """Grid points in deterministic lexicographic axis order."""
    return [(a, s, c, f)
            for a in config.amplitudes_deg
            for s in config.areas_cm2
            for c in config.cutouts
            for f in config.frequencies_hz]


def run_sweep(config, workers=1):
    """Evaluate every grid point of the study's sweep axes.

    Identical configs produce identical row tables regardless of
    ``workers``. Raises :class:`ComputeError` only if every point failed.
    """
    jobs = [(config, *point) for point in sweep_grid(config)]
    if workers <= 1 or len(jobs) <= 1:
        rows = [_evaluate_point(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_evaluate_point, jobs))
    if rows and all(row.error is not None for row in rows):
        raise ComputeError(
            f"all {len(rows)} sweep points failed; first error: {rows[0].error}")
    return SweepResult(rows=tuple(rows), metadata=run_metadata(config.solver))


@dataclass(frozen=True)
class TrimResult:
    frequency_hz: float
    mean_lift: float
    target_lift: float
    iterations: int

    def as_dict(self):
        return {"frequency_hz": self.frequency_hz,
                "mean_lift_n": self.mean_lift,
                "mean_lift_gf": self.mean_lift / GRAM_FORCE_NEWTONS,
                "target_lift_n": self.target_lift,
                "iterations": self.iterations}


def hover_trim(wing, kin, env, target_lift, f_lo, f_hi,
               solver=SolverSettings(), rel_tol=0.005, max_iter=60):
    """Bisect the flapping frequency until cycle-mean lift hits a target.

    The kinematics are time-rescaled at each probe frequency. The target
    (N, for the configured single/pair setting) must be bracketed by the
    lift at the two frequency bounds.
    """
    if not 0.0 < f_lo < f_hi:
        raise ValueError("need 0 < f_lo < f_hi")
    if target_lift <= 0.0:
        raise ValueError("target lift must be positive")

    def lift_at(f):
        return simulate_cycle(wing, kin.with_frequency(f), env,
                              solver).mean_lift

    tol = rel_tol * target_lift
    lift_lo, lift_hi = lift_at(f_lo), lift_at(f_hi)
    if abs(lift_lo - target_lift) < tol:
        return TrimResult(f_lo, lift_lo, target_lift, 0)
    if abs(lift_hi - target_lift) < tol:
        return TrimResult(f_hi, lift_hi, target_lift, 0)
    if not (lift_lo < target_lift < lift_hi):
        raise ValueError(
            f"target lift {target_lift:.4g} N not bracketed: lift is "
            f"{lift_lo:.4g} N at {f_lo} Hz and {lift_hi:.4g} N at {f_hi} Hz")

    lo, hi = f_lo, f_hi
    for iteration in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        lift_mid = lift_at(mid)
        if abs(lift_mid - target_lift) < tol:
            return TrimResult(mid, lift_mid, target_lift, iteration)
        if lift_mid < target_lift:
            lo = mid
        else:
            hi = mid
    raise ComputeError(
        f"hover trim did not converge within {max_iter} bisection steps")


@dataclass(frozen=True)
class CutoutStudy:
    """Intact-versus-modified comparison at identical kinematics."""

    cutout: float
    frequency_hz: float
    intact: object
    modified: object
    comparison: object
    metadata: dict

    SPANWISE_FIELDS = ("span_fraction", "lift_intact_n", "lift_modified_n",
                       "power_intact_w", "power_modified_w")

    def to_csv(self, path):
        write_csv(path, self.SPANWISE_FIELDS, float_table_rows((
            self.intact.span_fractions,
            self.intact.spanwise_lift, self.modified.spanwise_lift,
            self.intact.spanwise_power, self.modified.spanwise_power)))

    def summary(self):
        def loads(result):
            return {"mean_lift_gf": result.mean_lift / GRAM_FORCE_NEWTONS,
                    "aero_power_w": result.mean_aero_power,
                    "v_induced_m_s": result.v_induced}

        return {
            "metadata": self.metadata,
            "cutout_span_fraction": self.cutout,
            "frequency_hz": self.frequency_hz,
            "intact": loads(self.intact),
            "modified": loads(self.modified),
            "lift_delta": self.comparison.lift_delta,
            "power_delta": self.comparison.power_delta,
            "lift_to_power_delta": self.comparison.lift_to_power_delta,
        }

    def to_json(self, path):
        write_json(path, self.summary())


def run_cutout_study(wing, kin, env, cutout=0.25, frequency_hz=17.3,
                     solver=SolverSettings()):
    """Simulate the intact and inboard-cutout wings at the same kinematics."""
    kin = kin.with_frequency(frequency_hz)
    intact = simulate_cycle(wing, kin, env, solver)
    modified = simulate_cycle(apply_inboard_cutout(wing, cutout), kin, env,
                              solver)
    return CutoutStudy(cutout=cutout, frequency_hz=frequency_hz,
                       intact=intact, modified=modified,
                       comparison=compare_wings(intact, modified),
                       metadata=run_metadata(solver))


def cycle_summary_dict(result):
    return {
        "mean_lift_n": result.mean_lift,
        "mean_lift_gf": result.mean_lift / GRAM_FORCE_NEWTONS,
        "mean_aero_power_w": result.mean_aero_power,
        "lift_to_power_gf_w": lift_to_power(result.mean_lift,
                                            result.mean_aero_power)
        if result.mean_aero_power > 0 else None,
        "v_induced_m_s": result.v_induced,
        "reynolds": result.reynolds_number,
        "frequency_hz": result.frequency,
        "pair": result.pair,
        "steps": result.steps,
    }


def cycle_timeseries_rows(result):
    ts = result.time_series
    header = ("t_s", "eta_translational_n", "eta_added_mass_n",
              "eta_rotational_n", "eta_total_n", "zeta_translational_n",
              "zeta_added_mass_n", "zeta_rotational_n", "zeta_total_n",
              "aero_power_w")
    f = ts.forces
    return header, float_table_rows((
        ts.t, f.translational_eta, f.added_mass_eta, f.rotational_eta,
        f.total_eta, f.translational_zeta, f.added_mass_zeta,
        f.rotational_zeta, f.total_zeta, ts.power))


def spanwise_rows(result):
    header = ("span_fraction", "mean_lift_n", "mean_power_w")
    return header, float_table_rows((result.span_fractions,
                                     result.spanwise_lift,
                                     result.spanwise_power))


def load_csv(path):
    """Read back an exported CSV as (header, rows-of-strings)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        return header, [tuple(row) for row in reader]
