"""Study-configuration schema: parsing and validation.

A study config is a JSON document with top-level keys ``wing``,
``kinematics``, ``environment``, ``sweep``, ``solver``, and ``output``,
plus the optional task sections of :data:`TASK_SECTIONS` (``trim``,
``cutout``, ``control``, ``power``); any other top-level key is
rejected. Parsing is strict: a non-object section, an unknown key in a
section, a number that is not a finite JSON number, or an inconsistent
value raises :class:`ConfigError` before any compute starts.
"""

from dataclasses import dataclass, fields
import json
import math

import numpy as np

from .aero import AeroEnvironment, SolverSettings
from .kinematics import FourierSeries, WingKinematics
from .wing import WingGeometry, apply_inboard_cutout, build_wing


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
        wing = build_wing(breakpoints, root_offset=root_offset,
                          pitch_axis=pitch_axis)
    except ValueError as exc:
        raise ConfigError(f"invalid wing: {exc}") from exc

    if not math.isclose(wing.span, span, rel_tol=1e-6):
        raise ConfigError(
            f"span_m = {span} disagrees with the breakpoint extent {wing.span}")
    cutout = _finite(cfg.get("cutout_span_fraction", 0.0),
                     "cutout_span_fraction", "wing")
    try:
        return apply_inboard_cutout(wing, cutout)
    except ValueError as exc:
        raise ConfigError(f"invalid cutout: {exc}") from exc


def _series_from_config(cfg, frequency, section):
    a = [math.radians(x) for x in _numbers(cfg.get("a_deg", []), "a_deg",
                                           section)]
    b = [math.radians(x) for x in _numbers(cfg.get("b_deg", []), "b_deg",
                                           section)]
    n = max(len(a), len(b))
    a += [0.0] * (n - len(a))
    b += [0.0] * (n - len(b))
    a0 = math.radians(_finite(cfg.get("a0_deg", 0.0), "a0_deg", section))
    return FourierSeries(a0=a0, a=tuple(a), b=tuple(b), frequency=frequency)


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
                 ("a0_deg", "a_deg", "b_deg")), frequency, "stroke")
    stations = []
    for st in _list(_require(cfg, "rotation_stations", "kinematics"),
                    "rotation_stations", "kinematics"):
        _section(st, "rotation_stations",
                 ("span_fraction", "a0_deg", "a_deg", "b_deg"))
        stations.append((_finite(_require(st, "span_fraction",
                                          "rotation_stations"),
                                 "span_fraction", "rotation_stations"),
                         _series_from_config(st, frequency,
                                             "rotation_stations")))
    try:
        return WingKinematics(stroke=stroke, rotation_stations=tuple(stations))
    except ValueError as exc:
        raise ConfigError(f"invalid kinematics: {exc}") from exc


def _dataclass_from_config(cls, cfg, section, names):
    """``cls`` from config section ``cfg``: each key of ``names`` present
    sets the field it maps to, parsed by that field's type; the other
    fields keep their defaults."""
    parsers = {f.name: {bool: _boolean, int: _integer, float: _finite}[f.type]
               for f in fields(cls)}
    values = {names[key]: parsers[names[key]](value, key, section)
              for key, value in _section(cfg, section, names).items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid {section}: {exc}") from exc


# Task sections: every key each may hold, with its default, or REQUIRED
# where the key must be present. An absent section takes the defaults,
# or is None when it has a required key. A value is a finite number, or
# a list of [time_s, heading_deg] pairs where the default is a tuple.
REQUIRED = object()
TASK_SECTIONS = {
    "trim": {"target_lift_gf": REQUIRED, "f_lo_hz": REQUIRED,
             "f_hi_hz": REQUIRED},
    "cutout": {"span_fraction": 0.25, "frequency_hz": 17.3},
    "control": {"kp": 4.0, "kd": 2.5, "cutoff_hz": 10.0, "plant_gain": 1.0,
                "inertia": 1.0, "disturbance": 0.0, "duration_s": 5.0,
                "dt_s": 0.01, "gyro_sigma_dps": 0.0, "gyro_bias_dps": 0.0,
                "setpoint_schedule": ((0.0, 0.0),)},
    "power": {"v_supply": REQUIRED, "v_system": REQUIRED,
              "r_shunt_ohm": REQUIRED, "motor_resistance_ohm": REQUIRED,
              "wing_mass_kg": REQUIRED},
}


def _schedule(value, key, section):
    """``value`` as a non-empty tuple of (time_s, heading_deg) pairs."""
    pairs = tuple(map(tuple, _points(value, key, section)))
    if not pairs or any(len(pair) != 2 for pair in pairs):
        raise ConfigError(f"'{key}' in '{section}' must be a non-empty list "
                          f"of [time_s, heading_deg] pairs")
    return pairs


def _task_section(doc, name):
    """Values of task section ``name`` of ``doc`` by key, defaults filled
    in, or None if the section is absent and has a required key."""
    table = TASK_SECTIONS[name]
    if name not in doc and REQUIRED in table.values():
        return None
    cfg = _section(doc.get(name, {}), name, table)
    values = {}
    for key, default in table.items():
        if key in cfg or default is REQUIRED:
            parse = _schedule if isinstance(default, tuple) else _finite
            values[key] = parse(_require(cfg, key, name), key, name)
        else:
            values[key] = default
    return values


@dataclass(frozen=True)
class StudyConfig:
    """Parsed study: base wing/kinematics/environment plus sweep axes.

    Sweep axes hold the grid of stroke amplitudes (deg), wing areas
    (cm^2, geometric rescale of the base wing), inboard cutout fractions,
    and flapping frequencies (Hz). Missing axes default to the base
    configuration's single value. The task sections hold their values by
    key (see :data:`TASK_SECTIONS`).
    """

    wing: WingGeometry
    kinematics: WingKinematics
    environment: AeroEnvironment
    amplitudes_deg: tuple
    areas_cm2: tuple
    cutouts: tuple
    frequencies_hz: tuple
    trim: dict | None
    cutout: dict
    control: dict
    power: dict | None
    solver: SolverSettings = SolverSettings()
    output_dir: str = "."

    @classmethod
    def from_dict(cls, doc):
        _section(doc, "top-level", ("wing", "kinematics", "environment",
                                    "sweep", "solver", "output",
                                    *TASK_SECTIONS))
        wing = wing_from_config(_require(doc, "wing", "top-level"))
        kin = kinematics_from_config(_require(doc, "kinematics", "top-level"))
        env = _dataclass_from_config(AeroEnvironment,
                                     doc.get("environment", {}), "environment",
                                     {"rho_kg_m3": "rho", "nu_m2_s": "nu"})
        solver = _dataclass_from_config(
            SolverSettings, doc.get("solver", {}), "solver",
            {f.name: f.name for f in fields(SolverSettings)})
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
                   **{name: _task_section(doc, name)
                      for name in TASK_SECTIONS},
                   solver=solver, output_dir=output_dir)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(doc)


def load_angle_samples(path):
    """Read fitting samples from a CSV with columns ``t_s``, ``angle_deg``.

    Returns (t, angle_rad) arrays. A ``t_s`` or ``angle_deg`` cell that is
    empty, not a number, or not finite raises :class:`ConfigError` naming
    its data row (1 is the first row after the header), and so does a
    row with the wrong number of cells.
    """
    try:
        data = np.genfromtxt(path, delimiter=",", names=True)
    except ValueError as exc:   # a multi-line report of ragged rows
        raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from exc
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
