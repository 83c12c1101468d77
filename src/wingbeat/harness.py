"""Batch studies and the writers of every output file.

Every study passes one :class:`~wingbeat.aero.SolverSettings` to the
aero solvers and returns plain values. One writer per subcommand
(``write_cycle``, ``write_sweep``, ...) owns its file names, headers and
payload keys. Float tables go through :func:`write_float_table`, which
takes one 2-D array (the control trace's own table, with no copy) and
builds each block of its rows with array operations: the digits of a cell
come from numpy, and a cell outside [1e-4, 1e12) or near a rounding tie
is formatted by ``%.12g`` itself, so every cell has the bytes ``%.12g``
gives it. Only the sweep table, whose status cell may hold a comma, goes
through the quoting :func:`write_csv`. :func:`write_json` stamps each
JSON file's ``metadata``, and refuses a non-finite number as a compute
failure; each writer writes its JSON first, so a refused result leaves
no file. The rows of ``sweep.json`` go through the C encoder one at a
time and are spliced into the indented document, with the bytes of
``json.dumps(indent=2)``. Lift-to-power is null wherever the aerodynamic
power is not positive.

A sweep runs in one process, in grid order. Its points share one
:class:`~wingbeat.aero.CyclePrecompute` per cutout, which their wing
areas, amplitudes and frequencies rescale. Per cutout each term is
formed once per axis value: the wing and its scale once per area, the
stroke and its scale once per amplitude, and the momentum denominator
once per (amplitude, area). A point forms only its Reynolds number, its
frequency ratio and its :class:`~wingbeat.aero.PointTerms`, with the
checks of its own solve in their order, and is one inflow solve, which
returns the point's lift, power and Reynolds number, with no force pass;
a cutout's points go in axis order to one lockstep solve
(:func:`~wingbeat.aero.solve_induced_velocities`), which sizes its own
blocks. A point's ``ValueError`` or ``RuntimeError`` is recorded in its
row and never aborts the grid; a grid whose every point failed raises a
``ValueError`` if every failure was one, else a :class:`ComputeError`.
Hover trim likewise probes with inflow solves on one precompute. Until a
probe lifts more than the target, the next is at f sqrt(L* / L) capped
at the upper bound, which follows any lift <= 0.
A cutout study forms its own lift, power and lift-to-power deltas.
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
    SolvePoint,
    SolverSettings,
    momentum_denominator,
    secant_steps,
    simulate_cycle,
    solve_induced_velocities,
    solve_induced_velocity,
    stroke_reynolds,
)
from .power import GRAM_FORCE_NEWTONS, lift_to_power
from .wing import apply_inboard_cutout, scaled_to_area

SCHEMA_VERSION = 1


class ComputeError(RuntimeError):
    """Raised when a computation yields no usable result: every point of
    a batch failed, or a result to be exported is not finite."""


# The cell tables below build exactly this format.
FLOAT_FORMAT = ".12g"
# Cells of a float table formatted and written at a time, in blocks of
# whole rows: 1 024 rows of the 5-column control trace and 512 of the
# 10-column cycle timeseries. A block's largest working array, 32 bytes a
# cell, is then 164 kB. On a 60 000-step control trace, write_control took
# 26.4-27.1 ms at 512-row blocks, 24.6-26.8 ms at 1 024 and 38.5-38.9 ms
# at 2 048, and the formatting alone 23.7-25.0, 21.1-21.6 and 34.7-34.9 ms
# (best of 15, the sizes interleaved, in each of 3 processes; 2-core x86
# VM, Python 3.11, numpy 2.4).
TABLE_CHUNK_CELLS = 5120


def format_float(value):
    """Canonical 12-significant-digit float formatting for exports."""
    return format(float(value), FLOAT_FORMAT)


def _fixed_cell_tables():
    """Read-only lookup tables of the fixed-notation cells of
    :func:`_format_rows`.

    A cell is 32 bytes, read as four little-endian uint64 words: byte 0
    holds the sign, bytes 1-5 "0." and the zeros of a negative exponent,
    and digit i sits at byte 8 + 2i, followed by a byte for the point
    (after the last integer digit) or, after digit 11, the separator.
    Unused bytes are NUL. Returns ``digits``, with ``digits[g]`` the
    4-digit group ``g`` at the even bytes of a word; ``kept0`` to
    ``kept2``, with ``keptj[g]`` the digits of a number up to its last
    non-zero one when that lies in its group ``j`` (0 when ``g`` is 0);
    ``mask``, with ``mask[k]`` the bytes of the first ``k`` digits; and
    ``frame``, with ``frame[q]`` the sign, prefix and point at
    ``q = ((e + 4) * 13 + k) * 2 + negative`` for decimal exponent ``e``
    and ``k`` digits kept.
    """
    # Indexed by the four digits of a group g: its ASCII bytes, and the
    # place (1-4) of its last non-zero digit.
    digits = np.zeros((10,) * 4 + (8,), np.uint8)
    last = np.zeros((10,) * 4, np.uint8)
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for i in range(4):
        digits[..., 2 * i] = ascii_digits.reshape((10,) + (1,) * (3 - i))
        last[(slice(None),) * i + (slice(1, None),)] = i + 1
    kept = tuple(last.ravel() + np.uint8(4 * j) for j in range(3))
    for k in kept:
        k[0] = 0
    mask = np.zeros((13, 32), np.uint8)
    mask[:, 8::2] = np.where(np.arange(12) < np.arange(13)[:, None], 0xFF, 0)
    frame = np.zeros((16, 13, 2, 32), np.uint8)  # [e + 4, k, negative, byte]
    frame[:, :, 1, 0] = ord("-")
    frame[:4, :, :, 1:3] = list(b"0.")
    for z in range(3):  # "0.0" from e = -2, "0.00" from -3, "0.000" at -4
        frame[:3 - z, :, :, 3 + z] = ord("0")
    for e in range(11):  # a point only while a fraction digit is kept
        frame[e + 4, e + 2:, :, 9 + 2 * e] = ord(".")
    tables = (digits.reshape(-1, 8).view("<u8").ravel(), *kept,
              mask.view("<u8"), frame.reshape(-1, 32).view("<u8"))
    for table in tables:
        table.flags.writeable = False
    return tables


# Built at import, before a run allocates its large arrays: built during
# a run, these long-lived tables can pin the heap above those arrays.
_DIGITS, _KEPT0, _KEPT1, _KEPT2, _MASK, _FRAME = _fixed_cell_tables()
_POW10 = np.array([float(10 ** k) for k in range(16)])


def _format_rows(cells):
    """A 2-D float64 array as CSV rows of ``%.12g`` cells, in bytes.

    A cell that ``%.12g`` writes in fixed notation, with its 12 rounded
    digits N in [1e11, 1e12) and decimal exponent e in -4..11, is built
    from y = |x| 10^(11 - e), which is formed with one rounding: y < 2^40,
    so that error is under 2^-14. When y is in [1e11, 1e12 - 0.5) and more
    than 2^-11 from a tie, rint(y) is N, whatever exponent log10 gave.
    Every other cell (zero, non-finite, |x| outside [1e-4, 1e12) or near a
    tie) is formatted by ``%`` itself.
    """
    magnitude = np.abs(cells)
    with np.errstate(divide="ignore", invalid="ignore"):
        # fmax and fmin take a NaN exponent to -4.
        e = np.fmin(np.fmax(np.floor(np.log10(magnitude)), -4.0), 11.0)
        e = e.astype(np.intp)
        y = magnitude * _POW10.take(11 - e)
        n = np.rint(y)
        fast = ((y >= 1e11) & (y < 1e12 - 0.5)
                & (np.abs(y - n) < 0.5 - 2.0 ** -11))
    n = np.where(fast, n, 1e11)
    # Exact groups of the integer n < 2^40: the rounded n * 1e-4 lies within
    # ~1e-8 of n / 10^4, whose fraction is a multiple of 1e-4, and not below
    # it when that is an integer (float 1e-4 exceeds 10^-4); every product
    # and difference is an integer below 2^53.
    high = np.floor(n * 1e-4)
    g0 = np.floor(high * 1e-4)
    g1 = (high - g0 * 1e4).astype(np.intp)
    g2 = (n - high * 1e4).astype(np.intp)
    g0 = g0.astype(np.intp)
    k = np.maximum(np.maximum(e + 1, _KEPT0.take(g0)),
                   np.maximum(_KEPT1.take(g1), _KEPT2.take(g2)))
    words = np.take(_MASK, k, axis=0)
    words[..., 1] &= _DIGITS.take(g0)
    words[..., 2] &= _DIGITS.take(g1)
    words[..., 3] &= _DIGITS.take(g2)
    words |= np.take(_FRAME, ((e + 4) * 13 + k) * 2 + np.signbit(cells),
                     axis=0)
    text = words.view(np.uint8)
    text[:, :-1, 31] = ord(",")
    text[:, -1, 31] = ord("\n")
    slow = np.flatnonzero(~fast)
    if slow.size:
        fallback = b"".join([format_float(v).encode().ljust(31, b"\0")
                             for v in cells.ravel()[slow].tolist()])
        text.reshape(-1, 32)[slow, :31] = np.frombuffer(
            fallback, np.uint8).reshape(-1, 31)
    return text.tobytes().translate(None, b"\0")


def write_float_table(path, header, table):
    """Write the 2-D float array ``table`` as CSV rows under ``header``.

    Every cell reads as :func:`format_float` formats it, byte for byte.
    A C-ordered float64 ``table`` is not copied: each block of its rows,
    ``TABLE_CHUNK_CELLS`` cells at most, is a view of it, formatted by
    array operations in :func:`_format_rows` and written as one bytes
    string, so that the text of the whole table is never held in memory.
    A table that is not 2-D, has no columns, or a header of another width
    raise a ``ValueError`` before the file is opened.
    """
    table = np.ascontiguousarray(table, dtype=float)
    if table.ndim != 2:
        raise ValueError(f"float table must be 2-D, got {table.ndim}-D")
    if not table.shape[1]:
        raise ValueError("float table has no columns")
    if len(header) != table.shape[1]:
        raise ValueError(f"float table header has {len(header)} names for "
                         f"{table.shape[1]} columns")
    rows = max(1, TABLE_CHUNK_CELLS // table.shape[1])
    try:
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            for start in range(0, len(table), rows):
                fh.write(_format_rows(table[start:start + rows]))
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


# A flat dict as the C encoder writes it with the item separator of a row
# of sweep.json, where json.dumps(indent=2) puts each item on its own line,
# 6 spaces in.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False,
                                separators=(",\n      ", ": "))


def write_json(path, payload, solver, rows=()):
    """Write ``payload`` as strict JSON under a ``metadata`` block: schema
    and program versions, ``solver`` and the time of writing (UTC). A
    non-finite number raises :class:`ComputeError` before the file is
    opened.

    ``rows``, non-empty flat dicts, fill the empty list that ends a payload
    such as ``{"rows": []}``: each is encoded in C and spliced into the
    indented document, with the bytes ``json.dumps(indent=2)`` gives it.
    """
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
        if rows:
            text = "".join((text.removesuffix("[]\n}"), "[\n    {\n      ",
                            "\n    },\n    {\n      ".join(
                                _ROW_ENCODER.encode(row)[1:-1]
                                for row in rows), "\n    }\n  ]\n}"))
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


# Upper limit on a sweep's points, the product of its four axes. A point
# takes ~0.08 ms to solve and write (1 000-point study.json sweeps, best of
# 5, 2-core x86 VM) and writing sweep.json peaks at ~2.1 kB a point
# (tracemalloc), so the limit is ~8 s and ~210 MB.
MAX_SWEEP_POINTS = 100_000


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
    precompute = None
    # Each term once per axis value: functools.cache keeps a value, not an
    # error, which a failing value raises again at each of its points. A
    # scale is one of the current cutout's precompute, so the cutout is
    # part of its key.

    @functools.cache
    def wing_of(area, cutout):
        return apply_inboard_cutout(scaled_to_area(config.wing, area * 1e-4),
                                    cutout)

    @functools.cache
    def stroke_of(amplitude):
        return config.kinematics.with_stroke_amplitude(math.radians(amplitude))

    @functools.cache
    def frequency_of(frequency):  # checked as the kinematics check it
        return config.kinematics.with_frequency(frequency).frequency

    @functools.cache
    def wing_scale(area, cutout):
        return precompute.wing_scale(wing_of(area, cutout))

    @functools.cache
    def stroke_scale(amplitude, cutout):
        return precompute.stroke_scale(stroke_of(amplitude))

    @functools.cache
    def disk_of(amplitude, area, cutout):
        return momentum_denominator(stroke_of(amplitude).stroke_amplitude,
                                    wing_of(area, cutout).span, env.rho)

    axes = (config.amplitudes_deg, config.areas_cm2, config.cutouts,
            config.frequencies_hz)
    # Cutout-major, so that one precompute is alive at a time: the points
    # of each distinct cutout, with their places in axis order.
    by_cutout = {}
    for index, point in enumerate(itertools.product(*axes)):
        by_cutout.setdefault(point[2], []).append((index, point))
    rows, errors = [None] * math.prod(map(len, axes)), {}

    def record(index, point, exc):  # a point's error, which never aborts
        errors[index] = exc
        rows[index] = SweepRow(*point, error=str(exc))

    # Absurd but finite inputs may overflow on the way; the inflow solve's
    # finiteness check reports that as one error per point.
    with np.errstate(all="ignore"):
        for cutout, points in by_cutout.items():
            precompute, solvable = None, []  # the previous cutout's, dropped
            for index, point in points:
                amplitude, area, _, frequency = point
                # The checks of a point's own solve, in its order: wing,
                # build, stroke, frequency, Reynolds number, wing fit,
                # stroke fit and coefficient range.
                try:
                    wing = wing_of(area, cutout)
                    if precompute is None:
                        # The grid is built at unit stroke amplitude (rad)
                        # and 1 Hz, so that no sweep value enters the terms
                        # every point rescales.
                        shape = (config.kinematics.with_stroke_amplitude(1.0)
                                 .with_frequency(1.0))
                        precompute = CyclePrecompute.build(
                            apply_inboard_cutout(config.wing, cutout), shape,
                            solver)
                    phi = stroke_of(amplitude).stroke_amplitude
                    f = frequency_of(frequency)
                    re = stroke_reynolds(wing, phi, f, env.nu)
                    k = wing_scale(area, cutout)
                    scales = (stroke_scale(amplitude, cutout),
                              precompute.frequency_ratio(f), k)
                    terms = precompute.point(scales, re, env.rho)
                except (ValueError, RuntimeError) as exc:
                    record(index, point, exc)
                    continue
                solvable.append((index, point, SolvePoint(
                    terms, re, disk_of(amplitude, area, cutout))))
            if not solvable:  # every point failed, maybe before a build
                continue
            results = solve_induced_velocities(
                [prepared for _, _, prepared in solvable], solver, precompute)
            for (index, point, _), info in zip(solvable, results):
                if isinstance(info, Exception):
                    record(index, point, info)
                    continue
                rows[index] = SweepRow(
                    *point, mean_lift_gf=info.lift / GRAM_FORCE_NEWTONS,
                    aero_power_w=info.power, v_induced_m_s=info.v_induced,
                    reynolds=info.reynolds,
                    lift_to_power_gf_w=_lift_to_power_or_none(info.lift,
                                                              info.power),
                    **_inflow_diagnostics(info))
    if rows and len(errors) == len(rows):
        message = (f"all {len(rows)} sweep points failed; first error: "
                   f"{errors[0]}")
        if all(isinstance(exc, ValueError) for exc in errors.values()):
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


def check_trim_bracket(target_lift, f_lo, f_hi):
    """Raise ValueError unless 0 < f_lo < f_hi and target_lift > 0."""
    if not 0.0 < f_lo < f_hi:
        raise ValueError("need 0 < f_lo < f_hi")
    if not target_lift > 0.0:
        raise ValueError("target lift must be positive")


def hover_trim(wing, kin, env, target_lift, f_lo, f_hi,
               solver=SolverSettings()):
    """Flapping frequency in [f_lo, f_hi] whose cycle-mean lift hits a target.

    The kinematics are time-rescaled at each probe frequency, and a probe
    is one inflow solve on a cycle precompute shared by all probes, whose
    lift at the solved inflow is the one ``simulate_cycle`` reports.
    Lift grows almost exactly as f^2, so the search is
    :func:`~wingbeat.aero.secant_steps` on ln(L* / L) over ln f, with
    slope 2, from ``f_lo`` up to ``f_hi``: until a probe lifts more than
    the target, the next is at f sqrt(L* / L) capped at ``f_hi``, so one
    that lifts <= 0 is followed by ``f_hi``. It stops at the first probe
    within ``TRIM_REL_TOL`` of the target (N, for the configured
    single/pair setting), which the lifts at the two bounds must bracket.
    """
    check_trim_bracket(target_lift, f_lo, f_hi)
    probes = []
    # Every probe rescales one grid, built at the first probe's frequency.
    precompute = CyclePrecompute.build(wing, kin.with_frequency(f_lo), solver)
    # The bounds are probed at f_lo and f_hi exactly, not at exp(ln f).
    x_hi = math.log(f_hi)
    search = secant_steps(math.log(f_lo), 2.0, x_hi)
    next(search)
    f = f_lo
    for _ in range(TRIM_MAX_ITER + 1):
        probe = solve_induced_velocity(wing, kin.with_frequency(f), env,
                                       solver, precompute=precompute)
        probes.append((f, probe.lift, probe.iterations))
        if abs(probe.lift - target_lift) < TRIM_REL_TOL * target_lift:
            return TrimResult(f, probe.lift, target_lift, tuple(probes),
                              probe.power)
        ratio = target_lift / probe.lift if probe.lift > 0.0 else math.inf
        residual = math.log(ratio) if ratio > 0.0 else -math.inf
        try:
            x = search.send(residual)
        except StopIteration:
            raise ValueError(
                f"target lift {target_lift:.4g} N not bracketed: lift is "
                f"{probes[0][1]:.4g} N at {f_lo} Hz and {probe.lift:.4g} N "
                f"at {f_hi} Hz") from None
        f = f_hi if x == x_hi else math.exp(x)
    raise ComputeError(
        f"hover trim did not converge within {TRIM_MAX_ITER} probes after "
        f"the first")


@dataclass(frozen=True)
class CutoutStudy:
    """Intact-versus-modified cycle results at identical kinematics, with
    the relative changes from intact to modified of the lift, the
    aerodynamic power and their ratio."""

    cutout: float
    frequency_hz: float
    intact: object
    modified: object
    lift_delta: float
    power_delta: float
    lift_to_power_delta: float


def run_cutout_study(wing, kin, env, cutout, frequency_hz,
                     solver=SolverSettings()):
    """Simulate the intact and inboard-cutout wings at the same kinematics.

    The intact wing is ``wing`` with its whole membrane, whatever cutout
    ``wing`` has; the modified wing is the intact one cut at ``cutout``.
    Raise ``ValueError`` if the intact lift or either power is zero.
    """
    kin = kin.with_frequency(frequency_hz)
    whole = replace(wing, cutout=0.0)
    intact = simulate_cycle(whole, kin, env, solver)
    modified = simulate_cycle(apply_inboard_cutout(whole, cutout), kin, env,
                              solver)
    lift, power = intact.mean_lift, intact.mean_aero_power
    lift_cut, power_cut = modified.mean_lift, modified.mean_aero_power
    if lift == 0.0 or power == 0.0 or power_cut == 0.0:
        raise ValueError("comparison undefined for zero lift or power")
    return CutoutStudy(cutout=cutout, frequency_hz=frequency_hz,
                       intact=intact, modified=modified,
                       lift_delta=lift_cut / lift - 1.0,
                       power_delta=power_cut / power - 1.0,
                       lift_to_power_delta=(lift_cut / power_cut)
                       / (lift / power) - 1.0)


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
    f = result.history
    write_float_table(
        os.path.join(out_dir, "cycle_timeseries.csv"),
        ("t_s", "eta_translational_n", "eta_added_mass_n",
         "eta_rotational_n", "eta_total_n", "zeta_translational_n",
         "zeta_added_mass_n", "zeta_rotational_n", "zeta_total_n",
         "aero_power_w"),
        np.column_stack((result.t, f.translational_eta, f.added_mass_eta,
                         f.rotational_eta, f.total_eta, f.translational_zeta,
                         f.added_mass_zeta, f.rotational_zeta, f.total_zeta,
                         result.power_history)))
    write_float_table(os.path.join(out_dir, "cycle_spanwise.csv"),
                      ("span_fraction", "mean_lift_n", "mean_power_w"),
                      np.column_stack((result.span_fractions,
                                       result.spanwise_lift,
                                       result.spanwise_power)))


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
    write_json(os.path.join(out_dir, "sweep.json"), {"rows": []}, solver,
               rows=[vars(row) for row in rows])
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
        "lift_delta": study.lift_delta,
        "power_delta": study.power_delta,
        "lift_to_power_delta": study.lift_to_power_delta,
    }, solver)
    write_float_table(
        os.path.join(out_dir, "cutout_spanwise.csv"),
        ("span_fraction", "lift_intact_n", "lift_modified_n",
         "power_intact_w", "power_modified_w"),
        np.column_stack((intact.span_fractions, intact.spanwise_lift,
                         modified.spanwise_lift, intact.spanwise_power,
                         modified.spanwise_power)))


def write_control(out_dir, trace):
    """``control_trace.csv`` of a closed-loop trace, written from its
    table with no copy: no JSON, no solver."""
    write_float_table(os.path.join(out_dir, "control_trace.csv"),
                      ("t_s", "psi_true_deg", "psi_est_deg", "omega_dps",
                       "control_output"), trace.table)


def write_fit(out_dir, fit, frequency, solver):
    """``fit.json`` of a Fourier fit at ``frequency`` (Hz), given as
    (series, RMS residual in rad, number of samples)."""
    series, rms, n_samples = fit
    write_json(os.path.join(out_dir, "fit.json"), {
        "frequency_hz": frequency,
        "a0_deg": math.degrees(series.a0),
        "a_deg": [math.degrees(x) for x in series.a],
        "b_deg": [math.degrees(x) for x in series.b],
        "rms_residual_deg": math.degrees(rms),
        "n_samples": n_samples,
    }, solver)
