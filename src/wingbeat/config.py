"""Study-configuration schema: parsing, validation, and serialization.

A study config is a JSON document with top-level keys ``wing``,
``kinematics``, ``environment``, ``sweep``, ``solver``, and ``output``,
plus optional task sections (``trim``, ``cutout``, ``control``) consumed
by the matching CLI subcommands. Parsing is strict: unknown or
inconsistent values raise :class:`ConfigError` before any compute starts,
and a parsed config serializes back to an equivalent document.
"""

from dataclasses import dataclass
import json
import math
import numbers

import numpy as np

from .aero import AeroEnvironment
from .kinematics import FourierSeries, WingKinematics
from .wing import WingGeometry, apply_inboard_cutout, build_wing


class ConfigError(ValueError):
    """Invalid or inconsistent study configuration."""


def _require(mapping, key, section):
    if key not in mapping:
        raise ConfigError(f"missing key '{key}' in '{section}' section")
    return mapping[key]


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


def wing_from_config(cfg):
    """Build a wing from its config mapping.

    Keys: ``span_m``, ``root_offset_m``, ``breakpoints`` ([[station_m,
    chord_m], ...] from the wing root), ``rotation_axis`` ({"type":
    "fraction"|"breakpoints", "value": ...}), ``cutout_span_fraction``.
    ``span_m`` must agree with the breakpoint extent.
    """
    span = float(_require(cfg, "span_m", "wing"))
    breakpoints = _require(cfg, "breakpoints", "wing")
    axis_cfg = cfg.get("rotation_axis", {"type": "fraction", "value": 0.25})
    axis_type = axis_cfg.get("type", "fraction")
    if axis_type == "fraction":
        pitch_axis = float(axis_cfg.get("value", 0.25))
    elif axis_type == "breakpoints":
        pitch_axis = [(float(r), float(l)) for r, l in axis_cfg["value"]]
    else:
        raise ConfigError(f"unknown rotation_axis type '{axis_type}'")

    try:
        wing = build_wing(breakpoints,
                          root_offset=float(cfg.get("root_offset_m", 0.0)),
                          pitch_axis=pitch_axis)
    except ValueError as exc:
        raise ConfigError(f"invalid wing: {exc}") from exc

    if not math.isclose(wing.span, span, rel_tol=1e-6):
        raise ConfigError(
            f"span_m = {span} disagrees with the breakpoint extent {wing.span}")
    cutout = float(cfg.get("cutout_span_fraction", 0.0))
    try:
        return apply_inboard_cutout(wing, cutout)
    except ValueError as exc:
        raise ConfigError(f"invalid cutout: {exc}") from exc


def wing_to_config(wing):
    cutout = wing.removed_spans[0][1] if wing.removed_spans else 0.0
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
        "cutout_span_fraction": cutout,
    }


def _series_from_config(cfg, frequency, section):
    a = [math.radians(_finite(x, "a_deg", section))
         for x in cfg.get("a_deg", [])]
    b = [math.radians(_finite(x, "b_deg", section))
         for x in cfg.get("b_deg", [])]
    n = max(len(a), len(b))
    a += [0.0] * (n - len(a))
    b += [0.0] * (n - len(b))
    try:
        return FourierSeries(a0=math.radians(_finite(cfg.get("a0_deg", 0.0),
                                                     "a0_deg", section)),
                             a=tuple(a), b=tuple(b), frequency=frequency)
    except ValueError as exc:
        raise ConfigError(f"invalid series in '{section}': {exc}") from exc


def _series_to_config(series):
    return {
        "a0_deg": math.degrees(series.a0),
        "a_deg": [math.degrees(x) for x in series.a],
        "b_deg": [math.degrees(x) for x in series.b],
    }


def kinematics_from_config(cfg):
    """Build kinematics from its config mapping.

    Keys: ``frequency_hz``, ``stroke`` ({a0_deg, a_deg[], b_deg[]}),
    ``rotation_stations`` ([{span_fraction, a0_deg, a_deg[], b_deg[]}]).
    """
    frequency = _finite(_require(cfg, "frequency_hz", "kinematics"),
                        "frequency_hz", "kinematics")
    if frequency <= 0.0:
        raise ConfigError("frequency_hz must be positive")
    stroke = _series_from_config(_require(cfg, "stroke", "kinematics"),
                                 frequency, "stroke")
    stations = []
    for st in _require(cfg, "rotation_stations", "kinematics"):
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
    try:
        return AeroEnvironment(
            rho=_finite(cfg.get("rho_kg_m3", 1.225), "rho_kg_m3", "environment"),
            nu=_finite(cfg.get("nu_m2_s", 1.5e-5), "nu_m2_s", "environment"))
    except ValueError as exc:
        raise ConfigError(f"invalid environment: {exc}") from exc


def environment_to_config(env):
    return {"rho_kg_m3": env.rho, "nu_m2_s": env.nu}


@dataclass(frozen=True)
class SolverSettings:
    steps_per_cycle: int = 720
    n_elements: int = 20
    pair: bool = True
    vi_tol: float = 1e-6
    vi_max_iter: int = 100

    def __post_init__(self):
        if self.steps_per_cycle < 36:
            raise ConfigError("steps_per_cycle must be at least 36")
        if self.n_elements < 2:
            raise ConfigError("n_elements must be at least 2")
        if not (math.isfinite(self.vi_tol) and self.vi_tol > 0.0):
            raise ConfigError(
                f"vi_tol must be a finite positive number, got {self.vi_tol}")
        if not (isinstance(self.vi_max_iter, numbers.Integral)
                and self.vi_max_iter >= 1):
            raise ConfigError(
                f"vi_max_iter must be an integer of at least 1, "
                f"got {self.vi_max_iter!r}")

    @classmethod
    def from_config(cls, cfg):
        return cls(steps_per_cycle=_integer(cfg.get("steps_per_cycle", 720),
                                            "steps_per_cycle", "solver"),
                   n_elements=_integer(cfg.get("n_elements", 20),
                                       "n_elements", "solver"),
                   pair=bool(cfg.get("pair", True)),
                   vi_tol=_finite(cfg.get("vi_tol", 1e-6), "vi_tol", "solver"),
                   vi_max_iter=_integer(cfg.get("vi_max_iter", 100),
                                        "vi_max_iter", "solver"))

    def to_config(self):
        return {"steps_per_cycle": self.steps_per_cycle,
                "n_elements": self.n_elements,
                "pair": self.pair,
                "vi_tol": self.vi_tol,
                "vi_max_iter": self.vi_max_iter}


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
        for key in ("wing", "kinematics"):
            if key not in doc:
                raise ConfigError(f"missing top-level '{key}' section")
        wing = wing_from_config(doc["wing"])
        kin = kinematics_from_config(doc["kinematics"])
        env = environment_from_config(doc.get("environment", {}))
        solver = SolverSettings.from_config(doc.get("solver", {}))

        sweep = doc.get("sweep", {})
        def axis(key, default):
            values = sweep.get(key, [default])
            if not values:
                raise ConfigError(f"sweep axis '{key}' must be non-empty")
            return tuple(float(v) for v in values)

        amplitudes = axis("amplitude_deg",
                          math.degrees(kin.stroke_amplitude))
        areas = axis("area_cm2", wing.area * 1e4)
        cutouts = axis("cutout", 0.0)
        frequencies = axis("frequency_hz", kin.frequency)

        known = {"wing", "kinematics", "environment", "sweep", "solver",
                 "output"}
        extra = tuple(sorted((k, json.dumps(v, sort_keys=True))
                             for k, v in doc.items() if k not in known))
        return cls(wing=wing, kinematics=kin, environment=env,
                   amplitudes_deg=amplitudes, areas_cm2=areas,
                   cutouts=cutouts, frequencies_hz=frequencies,
                   solver=solver,
                   output_dir=str(doc.get("output", {}).get("directory", ".")),
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
            "solver": self.solver.to_config(),
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


def load_angle_samples(path):
    """Read fitting samples from a CSV with columns ``t_s``, ``angle_deg``.

    Returns (t, angle_rad) arrays.
    """
    data = np.genfromtxt(path, delimiter=",", names=True)
    if data.dtype.names is None or \
            not {"t_s", "angle_deg"} <= set(data.dtype.names):
        raise ConfigError(f"{path} must have columns t_s, angle_deg")
    t = np.atleast_1d(data["t_s"]).astype(float)
    angle = np.radians(np.atleast_1d(data["angle_deg"]).astype(float))
    return t, angle
