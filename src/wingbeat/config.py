"""Study-configuration schema: parsing, validation, and serialization.

A study config is a JSON document with top-level keys ``wing``,
``kinematics``, ``environment``, ``sweep``, ``solver``, and ``output``,
plus optional task sections (``trim``, ``cutout``, ``control``) consumed
by the matching CLI subcommands (any other top-level key is kept as one).
Parsing is strict: a non-object section, an unknown key in a section, a
non-finite number or an inconsistent value raises :class:`ConfigError`
before any compute starts, and a parsed config serializes back to an
equal document.
"""

from dataclasses import asdict, dataclass, fields
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
    """``value`` as a float; rejects non-numeric and non-finite values."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
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
    "fraction"|"breakpoints", "value": ...}), ``cutout_span_fraction``.
    ``span_m`` must agree with the breakpoint extent.
    """
    _section(cfg, "wing", ("span_m", "root_offset_m", "breakpoints",
                           "rotation_axis", "cutout_span_fraction"))
    span = _finite(_require(cfg, "span_m", "wing"), "span_m", "wing")
    breakpoints = _points(_require(cfg, "breakpoints", "wing"),
                          "breakpoints", "wing")
    axis_cfg = _section(cfg.get("rotation_axis", {}), "rotation_axis",
                        ("type", "value"))
    axis_type = axis_cfg.get("type", "fraction")
    if axis_type == "fraction":
        pitch_axis = _finite(axis_cfg.get("value", 0.25), "rotation_axis",
                             "wing")
    elif axis_type == "breakpoints":
        pitch_axis = _points(_require(axis_cfg, "value", "rotation_axis"),
                             "rotation_axis", "wing")
    else:
        raise ConfigError(f"unknown rotation_axis type '{axis_type}'")

    try:
        wing = build_wing(breakpoints,
                          root_offset=_finite(cfg.get("root_offset_m", 0.0),
                                              "root_offset_m", "wing"),
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


def wing_to_config(wing):
    if wing.pitch_axis_breakpoints is not None:
        axis = {"type": "breakpoints",
                "value": [list(p) for p in wing.pitch_axis_breakpoints]}
    else:
        axis = {"type": "fraction", "value": wing.pitch_axis_fraction}
    return {
        "span_m": wing.span,
        "root_offset_m": wing.root_offset,
        "breakpoints": [list(p) for p in wing.chord_breakpoints],
        "rotation_axis": axis,
        "cutout_span_fraction": wing.cutout,
    }


def _series_from_config(cfg, frequency, section):
    a = [math.radians(x) for x in _numbers(cfg.get("a_deg", []), "a_deg",
                                           section)]
    b = [math.radians(x) for x in _numbers(cfg.get("b_deg", []), "b_deg",
                                           section)]
    n = max(len(a), len(b))
    a += [0.0] * (n - len(a))
    b += [0.0] * (n - len(b))
    try:
        return FourierSeries(a0=math.radians(_finite(cfg.get("a0_deg", 0.0),
                                                     "a0_deg", section)),
                             a=tuple(a), b=tuple(b), frequency=frequency)
    except ValueError as exc:
        raise ConfigError(f"invalid series in '{section}': {exc}") from exc


def _degrees(angle):
    """``angle`` in degrees, one ulp off if that makes it parse back exactly."""
    deg = math.degrees(angle)
    for near in (deg, math.nextafter(deg, math.inf),
                 math.nextafter(deg, -math.inf)):
        if math.radians(near) == angle:
            return near
    return deg


def _series_to_config(series):
    return {
        "a0_deg": _degrees(series.a0),
        "a_deg": [_degrees(x) for x in series.a],
        "b_deg": [_degrees(x) for x in series.b],
    }


def kinematics_from_config(cfg):
    """Build kinematics from its config mapping.

    Keys: ``frequency_hz``, ``stroke`` ({a0_deg, a_deg[], b_deg[]}),
    ``rotation_stations`` ([{span_fraction, a0_deg, a_deg[], b_deg[]}]).
    """
    _section(cfg, "kinematics", ("frequency_hz", "stroke",
                                 "rotation_stations"))
    frequency = _finite(_require(cfg, "frequency_hz", "kinematics"),
                        "frequency_hz", "kinematics")
    if frequency <= 0.0:
        raise ConfigError("frequency_hz must be positive")
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


def kinematics_to_config(kin):
    stations = []
    for frac, series in kin.rotation_stations:
        entry = {"span_fraction": frac}
        entry.update(_series_to_config(series))
        stations.append(entry)
    return {
        "frequency_hz": kin.frequency,
        "stroke": _series_to_config(kin.stroke),
        "rotation_stations": stations,
    }


def environment_from_config(cfg):
    _section(cfg, "environment", ("rho_kg_m3", "nu_m2_s"))
    try:
        return AeroEnvironment(
            rho=_finite(cfg.get("rho_kg_m3", 1.225), "rho_kg_m3", "environment"),
            nu=_finite(cfg.get("nu_m2_s", 1.5e-5), "nu_m2_s", "environment"))
    except ValueError as exc:
        raise ConfigError(f"invalid environment: {exc}") from exc


def environment_to_config(env):
    return {"rho_kg_m3": env.rho, "nu_m2_s": env.nu}


def solver_from_config(cfg):
    """:class:`SolverSettings` with the section's keys set, else defaults."""
    parsers = {f.name: {bool: _boolean, int: _integer, float: _finite}[f.type]
               for f in fields(SolverSettings)}
    values = {key: parsers[key](value, key, "solver")
              for key, value in _section(cfg, "solver", parsers).items()}
    try:
        return SolverSettings(**values)
    except ValueError as exc:
        raise ConfigError(f"invalid solver: {exc}") from exc


@dataclass(frozen=True)
class StudyConfig:
    """Parsed study: base wing/kinematics/environment plus sweep axes.

    Sweep axes hold the grid of stroke amplitudes (deg), wing areas
    (cm^2, geometric rescale of the base wing), inboard cutout fractions,
    and flapping frequencies (Hz). Missing axes default to the base
    configuration's single value.
    """

    wing: WingGeometry
    kinematics: WingKinematics
    environment: AeroEnvironment
    amplitudes_deg: tuple
    areas_cm2: tuple
    cutouts: tuple
    frequencies_hz: tuple
    solver: SolverSettings = SolverSettings()
    output_dir: str = "."
    extra: tuple = ()

    @classmethod
    def from_dict(cls, doc):
        wing = wing_from_config(_require(doc, "wing", "top-level"))
        kin = kinematics_from_config(_require(doc, "kinematics", "top-level"))
        env = environment_from_config(doc.get("environment", {}))
        solver = solver_from_config(doc.get("solver", {}))
        output = _section(doc.get("output", {}), "output", ("directory",))

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

        known = {"wing", "kinematics", "environment", "sweep", "solver",
                 "output"}
        extra = tuple(sorted((k, json.dumps(v, sort_keys=True))
                             for k, v in doc.items() if k not in known))
        return cls(wing=wing, kinematics=kin, environment=env,
                   amplitudes_deg=amplitudes, areas_cm2=areas,
                   cutouts=cutouts, frequencies_hz=frequencies,
                   solver=solver,
                   output_dir=str(output.get("directory", ".")),
                   extra=extra)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config root must be a JSON object in {path}")
        return cls.from_dict(doc)

    def to_dict(self):
        doc = {
            "wing": wing_to_config(self.wing),
            "kinematics": kinematics_to_config(self.kinematics),
            "environment": environment_to_config(self.environment),
            "sweep": {
                "amplitude_deg": list(self.amplitudes_deg),
                "area_cm2": list(self.areas_cm2),
                "cutout": list(self.cutouts),
                "frequency_hz": list(self.frequencies_hz),
            },
            "solver": asdict(self.solver),
            "output": {"directory": self.output_dir},
        }
        for key, payload in self.extra:
            doc[key] = json.loads(payload)
        return doc

    def extra_section(self, key):
        for k, payload in self.extra:
            if k == key:
                return json.loads(payload)
        return None

    def task_section(self, name, defaults, required=()):
        """Values of task section ``name``, parsed as strictly as the rest.

        The section may hold only the keys of ``required``, which must be
        present, and of ``defaults``, which fill in the missing ones. Each
        value must be a finite number, or a list of lists of them where
        the default is a list.
        """
        cfg = self.extra_section(name)
        cfg = _section({} if cfg is None else cfg, name,
                       (*required, *defaults))
        for key in required:
            _require(cfg, key, name)
        return {key: (_points if isinstance(defaults.get(key), list)
                      else _finite)(value, key, name)
                for key, value in {**defaults, **cfg}.items()}


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
