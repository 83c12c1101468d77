"""Batch studies: design-space sweeps, hover trim, and the cutout comparison.

Every study passes one :class:`~wingbeat.aero.SolverSettings` to the
aero solvers and writes its tables through :func:`write_csv`.

Sweep points that share (area, cutout) share one wing, one
discretization and one :class:`~wingbeat.aero.CyclePrecompute`, which
their amplitudes and frequencies rescale. A point is one inflow solve
and the power at its root, with no force pass. The runner farms the
(area, cutout) groups out, with the parsed study, to a process pool of at
most one worker per group and puts the rows back in grid order, so serial
and parallel runs emit byte-identical tables. A point's ``ValueError`` or
``RuntimeError`` is recorded in its row and never aborts the grid. Hover
trim likewise probes with inflow solves on one precompute.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
import csv
import datetime
import json
import math

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
from .wing import apply_inboard_cutout, discretize, scaled_to_area

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


def _evaluate_point(row, config, wing, precompute):
    """One grid point from its group's wing and precompute: one inflow
    solve and the power at its root, no force pass."""
    solver, env = config.solver, config.environment
    try:
        kin = config.kinematics.with_stroke_amplitude(
            math.radians(row.amplitude_deg)).with_frequency(row.frequency_hz)
        re = reynolds(wing, kin, env)
        info = solve_induced_velocity(wing, kin, env, solver,
                                      reynolds_number=re,
                                      precompute=precompute)
        share = 1.0 if solver.pair else 0.5
        lift = share * info.thrust
        power = share * precompute.power(kin, info.v_induced, re)
        return replace(
            row,
            mean_lift_gf=lift / GRAM_FORCE_NEWTONS,
            aero_power_w=power,
            v_induced_m_s=info.v_induced,
            reynolds=re,
            lift_to_power_gf_w=lift_to_power(lift, power),
            vi_iterations=info.iterations)
    except (ValueError, RuntimeError) as exc:  # record, never abort
        return replace(row, error=str(exc))


def _evaluate_group(args):
    """Rows of the points that share one (area, cutout): one wing, one
    discretization and one cycle precompute serve them all."""
    config, area, cutout, points = args
    rows = [SweepRow(amplitude, area, cutout, frequency)
            for amplitude, frequency in points]
    # Absurd but finite inputs may overflow on the way; the inflow solve's
    # finiteness check reports that as one error per point.
    with np.errstate(all="ignore"):
        try:
            wing = apply_inboard_cutout(
                scaled_to_area(config.wing, area * 1e-4), cutout)
            # The grid is built at unit stroke amplitude (rad) and 1 Hz, so
            # that no sweep value enters the terms every point rescales.
            shape = (config.kinematics.with_stroke_amplitude(1.0)
                     .with_frequency(1.0))
            precompute = CyclePrecompute.build(
                discretize(wing, config.solver.n_elements), shape,
                config.environment, config.solver.steps_per_cycle)
        except (ValueError, RuntimeError) as exc:  # record, never abort
            return [replace(row, error=str(exc)) for row in rows]
        return [_evaluate_point(row, config, wing, precompute)
                for row in rows]


def sweep_grid(config):
    """Grid points in deterministic lexicographic axis order."""
    return [(a, s, c, f)
            for a in config.amplitudes_deg
            for s in config.areas_cm2
            for c in config.cutouts
            for f in config.frequencies_hz]


def run_sweep(config, workers=1):
    """Evaluate every grid point of the study's sweep axes.

    Points are evaluated in (area, cutout) groups, on at most ``workers``
    processes and never more than there are groups; rows come back in
    grid order, so identical configs produce identical row tables
    regardless of ``workers``. Raises :class:`ComputeError` only if every
    point failed.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    grid = sweep_grid(config)
    groups = {}   # (area, cutout) -> grid indices, in grid order
    for index, (_, area, cutout, _) in enumerate(grid):
        groups.setdefault((area, cutout), []).append(index)
    jobs = [(config, area, cutout,
             tuple((grid[i][0], grid[i][3]) for i in indices))
            for (area, cutout), indices in groups.items()]
    workers = min(workers, len(jobs))
    if workers <= 1:
        results = [_evaluate_group(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_evaluate_group, jobs))
    rows = [None] * len(grid)
    for indices, group_rows in zip(groups.values(), results):
        for index, row in zip(indices, group_rows):
            rows[index] = row
    if rows and all(row.error is not None for row in rows):
        raise ComputeError(
            f"all {len(rows)} sweep points failed; first error: {rows[0].error}")
    return SweepResult(rows=tuple(rows), metadata=run_metadata(config.solver))


@dataclass(frozen=True)
class TrimResult:
    """Trimmed frequency and lift, with every lift probe in probe order.

    ``probes`` holds (frequency_hz, lift_n, vi_evaluations) per probe.
    """

    frequency_hz: float
    mean_lift: float
    target_lift: float
    probes: tuple

    @property
    def iterations(self):
        """Probes after the first."""
        return len(self.probes) - 1

    def as_dict(self):
        return {"frequency_hz": self.frequency_hz,
                "mean_lift_n": self.mean_lift,
                "mean_lift_gf": self.mean_lift / GRAM_FORCE_NEWTONS,
                "target_lift_n": self.target_lift,
                "iterations": self.iterations,
                "probes": [{"frequency_hz": f, "lift_n": lift,
                            "vi_evaluations": n}
                           for f, lift, n in self.probes]}


def hover_trim(wing, kin, env, target_lift, f_lo, f_hi,
               solver=SolverSettings(), rel_tol=1e-4, max_iter=60):
    """Flapping frequency in [f_lo, f_hi] whose cycle-mean lift hits a target.

    The kinematics are time-rescaled at each probe frequency, and a probe
    is one inflow solve on a cycle precompute shared by all probes: its
    lift is the cycle-mean thrust at the solved inflow (halved for a
    single wing), as ``simulate_cycle`` reports it.
    Lift grows almost exactly as f^2, so the search is a secant in
    (ln f, ln L): from ``f_lo`` it steps to f_lo * sqrt(L* / L(f_lo)),
    then through the two latest probes. A step that would leave the
    bracket, or a lift <= 0, falls back to the geometric mean of the
    bracket; ``f_hi`` is probed only when a step would reach it. The
    search stops at the first probe within ``rel_tol`` of the target
    (N, for the configured single/pair setting), which the lifts at the
    two bounds must bracket.
    """
    if not 0.0 < f_lo < f_hi:
        raise ValueError("need 0 < f_lo < f_hi")
    if target_lift <= 0.0:
        raise ValueError("target lift must be positive")

    probes = []
    # Every probe rescales one grid, built at the first probe's frequency.
    precompute = CyclePrecompute.build(
        discretize(wing, solver.n_elements), kin.with_frequency(f_lo), env,
        solver.steps_per_cycle)

    def lift_at(f):
        # Reynolds first: a zero stroke raises here, where the inflow solve
        # alone would return zero thrust for its degenerate disk.
        kin_f = kin.with_frequency(f)
        info = solve_induced_velocity(
            wing, kin_f, env, solver,
            reynolds_number=reynolds(wing, kin_f, env), precompute=precompute)
        lift = info.thrust if solver.pair else 0.5 * info.thrust
        probes.append((f, lift, info.iterations))
        return lift

    def trimmed(f, lift):
        if abs(lift - target_lift) < rel_tol * target_lift:
            return TrimResult(f, lift, target_lift, tuple(probes))
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
    for _ in range(max_iter):
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
        f"hover trim did not converge within {max_iter} probes after the "
        f"first")


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
                    "v_induced_m_s": result.v_induced,
                    **_inflow_diagnostics(result)}

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


def _inflow_diagnostics(result):
    """The inflow solve's evaluations, final residual (m/s) and
    negative-thrust flag; None each when the inflow was given."""
    info = result.vi_info
    if info is None:
        return dict.fromkeys(("vi_iterations", "vi_residual_m_s",
                              "negative_thrust"))
    return {"vi_iterations": info.iterations,
            "vi_residual_m_s": info.residual,
            "negative_thrust": info.negative_thrust}


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
        **_inflow_diagnostics(result),
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
