"""Study-configuration schema: parsing and validation.

A study config is a JSON document with top-level keys ``wing``,
``kinematics``, ``environment``, ``sweep``, ``solver``, and ``output``,
plus the optional task sections ``trim``, ``cutout``, ``control`` and
``power``, each parsed into its record (:class:`TrimSection`, ...); any
other top-level key is rejected. Parsing is strict: a non-object
section, an unknown key in a section, a number that is not a finite
JSON number, an inconsistent value, or a task value that its run would
reject raises :class:`ConfigError` before any compute starts.
"""

from dataclasses import MISSING, dataclass, fields
import inspect
import json
import math
import warnings

import numpy as np

from .aero import AeroEnvironment, SolverSettings
from .control import (ControllerConfig, YawPlant, closed_loop_grid,
                      simulate_closed_loop)
from .harness import MAX_SWEEP_POINTS, check_trim_bracket
from .kinematics import FourierSeries, WingKinematics
from .power import MotorElectrical, shunt_current
from .wing import WingGeometry, apply_inboard_cutout

_LOOP_DEFAULTS = inspect.signature(simulate_closed_loop).parameters


class ConfigError(ValueError):
    """Invalid or inconsistent study configuration."""


def _require(mapping, key, section):
    if key not in mapping:
        raise ConfigError(f"missing key '{key}' in '{section}' section")
    return mapping[key]


def _section(value, section, keys):
    """``value`` if it is a mapping whose keys all lie in ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(f"'{section}' section must be a JSON object")
    unknown = ", ".join(map(repr, sorted(set(value) - set(keys))))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in '{section}' section")
    return value


def _finite(value, key, section):
    """``value`` as a float; rejects anything but a finite JSON number
    (a numeric string or a boolean too)."""
    number = math.nan
    if not isinstance(value, (str, bool)):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    if not math.isfinite(number):
        raise ConfigError(
            f"'{key}' in '{section}' must be a finite number, got {value!r}")
    return number


def _integer(value, key, section):
    """``value`` as an int; rejects non-integral and non-finite values."""
    number = _finite(value, key, section)
    if number != int(number):
        raise ConfigError(
            f"'{key}' in '{section}' must be an integer, got {value!r}")
    return int(number)


def _boolean(value, key, section):
    if not isinstance(value, bool):
        raise ConfigError(
            f"'{key}' in '{section}' must be true or false, got {value!r}")
    return value


def _list(value, key, section):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"'{key}' in '{section}' must be a list")
    return value


def _numbers(value, key, section):
    """``value`` as a list of finite floats."""
    return [_finite(x, key, section) for x in _list(value, key, section)]


def _points(value, key, section):
    """``value`` as a list of lists of finite floats."""
    return [_numbers(p, key, section) for p in _list(value, key, section)]


def wing_from_config(cfg):
    """Build a wing from its config mapping.

    Keys: ``span_m``, ``root_offset_m``, ``breakpoints`` ([[station_m,
    chord_m], ...] from the wing root), ``rotation_axis`` ({"type":
    "fraction", "value": chord fraction}; any other type is rejected),
    ``cutout_span_fraction``. ``span_m`` must agree with the last
    breakpoint station, which is the wing's span.
    """
    _section(cfg, "wing", ("span_m", "root_offset_m", "breakpoints",
                           "rotation_axis", "cutout_span_fraction"))
    span = _finite(_require(cfg, "span_m", "wing"), "span_m", "wing")
    breakpoints = _points(_require(cfg, "breakpoints", "wing"),
                          "breakpoints", "wing")
    axis_cfg = _section(cfg.get("rotation_axis", {}), "rotation_axis",
                        ("type", "value"))
    axis_type = axis_cfg.get("type", "fraction")
    if axis_type != "fraction":
        raise ConfigError(f"unknown rotation_axis type '{axis_type}'")
    axis = axis_cfg.get("value", WingGeometry.pitch_axis_fraction)
    pitch_axis = _finite(axis, "rotation_axis", "wing")
    root_offset = _finite(cfg.get("root_offset_m", 0.0), "root_offset_m",
                          "wing")

    try:
        wing = WingGeometry(root_offset, breakpoints, pitch_axis)
    except ValueError as exc:
        raise ConfigError(f"invalid wing: {exc}") from exc

    if not math.isclose(wing.span, span, rel_tol=1e-6):
        raise ConfigError(
            f"span_m = {span} disagrees with the breakpoint extent {wing.span}")
    cutout = _finite(cfg.get("cutout_span_fraction", 0.0),
                     "cutout_span_fraction", "wing")
    try:
        wing = apply_inboard_cutout(wing, cutout)
    except ValueError as exc:
        raise ConfigError(f"invalid cutout: {exc}") from exc
    with np.errstate(all="ignore"):  # an overflow is reported here
        if not math.isfinite(wing.area * 1e4):
            raise ConfigError("invalid wing: its membrane area overflows")
    return wing


def _series_from_config(cfg, section):
    a = [math.radians(x) for x in _numbers(cfg.get("a_deg", []), "a_deg",
                                           section)]
    b = [math.radians(x) for x in _numbers(cfg.get("b_deg", []), "b_deg",
                                           section)]
    n = max(len(a), len(b))
    a += [0.0] * (n - len(a))
    b += [0.0] * (n - len(b))
    a0 = math.radians(_finite(cfg.get("a0_deg", 0.0), "a0_deg", section))
    return FourierSeries(a0=a0, a=tuple(a), b=tuple(b))


def kinematics_from_config(cfg):
    """Build kinematics from its config mapping.

    Keys: ``frequency_hz``, ``stroke`` ({a0_deg, a_deg[], b_deg[]}),
    ``rotation_stations`` ([{span_fraction, a0_deg, a_deg[], b_deg[]}]).
    """
    _section(cfg, "kinematics", ("frequency_hz", "stroke",
                                 "rotation_stations"))
    frequency = _finite(_require(cfg, "frequency_hz", "kinematics"),
                        "frequency_hz", "kinematics")
    # Parsing samples the stroke over one period, which must be finite.
    if not (frequency > 0.0 and math.isfinite(1.0 / frequency)):
        raise ConfigError(f"frequency_hz must be positive with a finite "
                          f"period, got {frequency!r}")
    stroke = _series_from_config(
        _section(_require(cfg, "stroke", "kinematics"), "stroke",
                 ("a0_deg", "a_deg", "b_deg")), "stroke")
    stations = []
    for st in _list(_require(cfg, "rotation_stations", "kinematics"),
                    "rotation_stations", "kinematics"):
        _section(st, "rotation_stations",
                 ("span_fraction", "a0_deg", "a_deg", "b_deg"))
        stations.append((_finite(_require(st, "span_fraction",
                                          "rotation_stations"),
                                 "span_fraction", "rotation_stations"),
                         _series_from_config(st, "rotation_stations")))
    # A series evaluates its highest harmonic n at 2 pi n f rad/s.
    n = max(len(series.a) for series in (stroke, *(s for _, s in stations)))
    if not math.isfinite(2.0 * math.pi * n * frequency):
        raise ConfigError(f"frequency_hz {frequency!r} overflows 2 pi n f "
                          f"at harmonic n = {n}")
    try:
        return WingKinematics(stroke=stroke, rotation_stations=tuple(stations),
                              frequency=frequency)
    except ValueError as exc:
        raise ConfigError(f"invalid kinematics: {exc}") from exc


def _schedule(value, key, section):
    """``value`` as a non-empty tuple of (time_s, heading_deg) pairs."""
    pairs = tuple(map(tuple, _points(value, key, section)))
    if not pairs or any(len(pair) != 2 for pair in pairs):
        raise ConfigError(f"'{key}' in '{section}' must be a non-empty list "
                          f"of [time_s, heading_deg] pairs")
    return pairs


def _dataclass_from_config(cls, doc, section, names=None):
    """``cls`` from section ``section`` of ``doc``, each key of ``names``
    (default: the field names) parsed by its field's type; a field with no
    default is required, and an absent section with one is None."""
    field = {f.name: f for f in fields(cls)}
    names = names or dict(zip(field, field))
    required = [key for key in names if field[names[key]].default is MISSING]
    if section not in doc and required:
        return None
    cfg = _section(doc.get(section, {}), section, names)
    parse = {bool: _boolean, int: _integer, float: _finite, tuple: _schedule}
    values = {names[key]: parse[field[names[key]].type](value, key, section)
              for key, value in cfg.items()}
    for key in required:
        _require(cfg, key, section)
    try:
        return cls(**values)
    except ValueError as exc:  # a task record's error reads as its run's
        own = cls.__module__ == __name__
        raise ConfigError(exc if own else f"invalid {section}: {exc}") from exc


@dataclass(frozen=True)
class TrimSection:
    """Hover-trim target lift (gf) and frequency bracket (Hz)."""

    target_lift_gf: float
    f_lo_hz: float
    f_hi_hz: float

    def __post_init__(self):
        check_trim_bracket(self.target_lift_gf, self.f_lo_hz, self.f_hi_hz)


@dataclass(frozen=True)
class CutoutSection:
    """Span fraction and frequency (Hz) of the cutout study."""

    span_fraction: float = 0.25
    frequency_hz: float = 17.3


@dataclass(frozen=True)
class ControlSection:
    """Closed-loop yaw run; times in s, gyro noise and bias in deg/s."""

    kp: float = 4.0
    kd: float = 2.5
    cutoff_hz: float = ControllerConfig.cutoff_hz
    plant_gain: float = ControllerConfig.plant_gain
    inertia: float = 1.0
    disturbance: float = YawPlant.disturbance
    duration_s: float = 5.0
    dt_s: float = 0.01
    gyro_sigma_dps: float = _LOOP_DEFAULTS["gyro_sigma"].default
    gyro_bias_dps: float = _LOOP_DEFAULTS["gyro_bias"].default
    setpoint_schedule: tuple = ControllerConfig.setpoint_schedule

    def __post_init__(self):
        closed_loop_grid(self.cutoff_hz, self.duration_s, self.dt_s,
                         self.gyro_sigma_dps, self.gyro_bias_dps)
        self.loop_arguments()

    def loop_arguments(self):
        """The run's :func:`simulate_closed_loop` arguments but the seed."""
        return (YawPlant(self.inertia, disturbance=self.disturbance),
                ControllerConfig(self.kp, self.kd, self.cutoff_hz,
                                 self.plant_gain, self.setpoint_schedule),
                self.duration_s, self.dt_s, self.gyro_sigma_dps,
                self.gyro_bias_dps)


@dataclass(frozen=True)
class PowerSection:
    """Bench readings (V, ohm, kg) checked as the power budget checks them."""

    v_supply: float
    v_system: float
    r_shunt_ohm: float
    motor_resistance_ohm: float
    wing_mass_kg: float

    def __post_init__(self):
        amps = shunt_current(self.v_supply, self.v_system, self.r_shunt_ohm)
        MotorElectrical(self.motor_resistance_ohm)
        if not self.v_system * amps >= 0.0:
            raise ValueError("input power must be non-negative")
        if not self.wing_mass_kg >= 0.0:
            raise ValueError("wing mass must be non-negative")


@dataclass(frozen=True)
class StudyConfig:
    """Parsed study: base wing/kinematics/environment plus sweep axes.

    Sweep axes hold the grid of stroke amplitudes (deg), wing areas
    (cm^2, geometric rescale of the base wing), inboard cutout fractions,
    and flapping frequencies (Hz). Missing axes default to the base
    configuration's single value. Each task section is its record, or
    None where an absent section has a required key.
    """

    wing: WingGeometry
    kinematics: WingKinematics
    environment: AeroEnvironment
    amplitudes_deg: tuple
    areas_cm2: tuple
    cutouts: tuple
    frequencies_hz: tuple
    trim: TrimSection | None
    cutout: CutoutSection
    control: ControlSection
    power: PowerSection | None
    solver: SolverSettings = SolverSettings()
    output_dir: str = "."

    def __post_init__(self):
        # Checks against the base wing and kinematics, by the runs' guards,
        # on a config from ``from_dict`` or ``dataclasses.replace`` alike.
        sizes = [len(axis) for axis in (self.amplitudes_deg, self.areas_cm2,
                                        self.cutouts, self.frequencies_hz)]
        if math.prod(sizes) > MAX_SWEEP_POINTS:
            raise ConfigError(
                f"sweep grid of {' * '.join(map(str, sizes))} = "
                f"{math.prod(sizes)} points exceeds the limit of "
                f"{MAX_SWEEP_POINTS} points")
        try:
            self.kinematics.with_frequency(self.cutout.frequency_hz)
            apply_inboard_cutout(self.wing, self.cutout.span_fraction)
            for value in self.cutouts:
                if value < self.wing.cutout:
                    raise ValueError(f"sweep cutout {value} lies inside the "
                                     f"wing's own cutout {self.wing.cutout}")
                apply_inboard_cutout(self.wing, value)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_dict(cls, doc):
        _section(doc, "top-level", ("wing", "kinematics", "environment",
                                    "sweep", "solver", "output", "trim",
                                    "cutout", "control", "power"))
        wing = wing_from_config(_require(doc, "wing", "top-level"))
        kin = kinematics_from_config(_require(doc, "kinematics", "top-level"))
        env = _dataclass_from_config(AeroEnvironment, doc, "environment",
                                     {"rho_kg_m3": "rho", "nu_m2_s": "nu"})
        solver = _dataclass_from_config(SolverSettings, doc, "solver")
        output = _section(doc.get("output", {}), "output", ("directory",))
        output_dir = output.get("directory", ".")
        if not isinstance(output_dir, str):
            raise ConfigError(f"'directory' in 'output' must be a string, "
                              f"got {output_dir!r}")

        sweep = _section(doc.get("sweep", {}), "sweep",
                         ("amplitude_deg", "area_cm2", "cutout",
                          "frequency_hz"))
        def axis(key, default):
            values = _numbers(sweep.get(key, [default]), key, "sweep")
            if not values:
                raise ConfigError(f"sweep axis '{key}' must be non-empty")
            return tuple(values)

        amplitudes = axis("amplitude_deg",
                          math.degrees(kin.stroke_amplitude))
        areas = axis("area_cm2", wing.area * 1e4)
        cutouts = axis("cutout", wing.cutout)
        frequencies = axis("frequency_hz", kin.frequency)

        return cls(wing=wing, kinematics=kin, environment=env,
                   amplitudes_deg=amplitudes, areas_cm2=areas,
                   cutouts=cutouts, frequencies_hz=frequencies,
                   trim=_dataclass_from_config(TrimSection, doc, "trim"),
                   cutout=_dataclass_from_config(CutoutSection, doc,
                                                 "cutout"),
                   control=_dataclass_from_config(ControlSection, doc,
                                                  "control"),
                   power=_dataclass_from_config(PowerSection, doc, "power"),
                   solver=solver, output_dir=output_dir)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(doc)


def load_angle_samples(path):
    """Read fitting samples from a CSV with columns ``t_s``, ``angle_deg``.

    Returns (t, angle_rad) arrays. A ``t_s`` or ``angle_deg`` cell that is
    empty, not a number, or not finite raises :class:`ConfigError` naming
    its data row (1 is the first row after the header), and so does a
    row with the wrong number of cells or a file of blank lines only.
    """
    with warnings.catch_warnings():
        # genfromtxt warns on a file of no non-blank line and then fails
        # with an IndexError; as an error, the warning stops it first.
        warnings.filterwarnings("error", "genfromtxt: Empty input file",
                                UserWarning)
        try:
            data = np.genfromtxt(path, delimiter=",", names=True)
        except ValueError as exc:   # a multi-line report of ragged rows
            raise ConfigError(
                f"{path}: {' '.join(str(exc).split())}") from exc
        except UserWarning as exc:
            raise ConfigError(f"{path} is empty: it must have a header row "
                              f"with columns t_s, angle_deg") from exc
    if data.dtype.names is None or \
            not {"t_s", "angle_deg"} <= set(data.dtype.names):
        raise ConfigError(f"{path} must have columns t_s, angle_deg")
    t = np.atleast_1d(data["t_s"]).astype(float)
    angle_deg = np.atleast_1d(data["angle_deg"]).astype(float)
    bad = np.flatnonzero(~(np.isfinite(t) & np.isfinite(angle_deg)))
    if bad.size:
        raise ConfigError(
            f"{path}: data row {bad[0] + 1} needs finite numbers in t_s "
            f"and angle_deg")
    return t, np.radians(angle_deg)
