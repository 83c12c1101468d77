"""Property test of the CLI contract on mutated study configs and flags.

Every run of ``cli.main`` must return an exit code in {0, 1, 2, 3} with
nothing escaping, write at most one line to stderr, and leave only
strict JSON behind; a compute failure (exit 2) leaves no file at all. A
config with a misspelled top-level key exits 1, and so does a run that
passes ``--steps``, a flag the CLI does not have. A config that parses
fails no subcommand on a range rule of its values. The mutations never
enlarge the sweep grid, and the values they insert either keep the cycle
grid and the control run small or exceed the parse-time caps, so no run
asks for much memory or time.
"""

import contextlib
import io
import json
import math
from pathlib import Path
import tempfile

from hypothesis import example, given, settings, strategies as st

from wingbeat import cli
from wingbeat.config import StudyConfig

STUDY = json.loads((Path(__file__).resolve().parents[1] / "demos" / "configs"
                    / "study.json").read_text())
# Extreme finite or negative numbers, and values of other types.
VALUES = (-1e300, -(2**62), -1.0, -0.0, 0.0, 1e-300, 0.5, 3, 1e300, 2**62,
          10**400, True, None, "x", [], {})
COMMANDS = ("fit-kinematics", "simulate", "sweep", "trim", "cutout-study",
            "control-sim")
FLAG_VALUES = {
    "--workers": ("1", "2", "0", "-3", "1.5", "abc"),
    "--steps": ("36", "72", "0", "-1", "1.5", "abc", "1000000000000"),
    "--seed": ("0", "7", "-1", "2.5", "abc"),
    "--harmonics": ("0", "3", "-1", "1.5", "abc"),
}


def _paths(node, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


PATHS = tuple(_paths(STUDY))


def _mutated(path, value, drop, study=STUDY):
    """A copy of a study config with one position dropped or replaced."""
    doc = json.loads(json.dumps(study))
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@st.composite
def invocations(draw):
    doc = _mutated(draw(st.sampled_from(PATHS)), draw(st.sampled_from(VALUES)),
                   drop=draw(st.booleans()))
    # A misspelled top-level key (its last two letters swapped) is unknown.
    renamed = isinstance(doc, dict) and bool(doc) and draw(st.booleans())
    if renamed:
        key = draw(st.sampled_from(sorted(doc)))
        doc[key[:-2] + key[-1] + key[-2]] = doc.pop(key)
    flags = []
    for flag in ("--workers", "--steps", "--seed"):
        if draw(st.booleans()):
            flags += [flag, draw(st.sampled_from(FLAG_VALUES[flag]))]
    command = draw(st.sampled_from(COMMANDS + ("bogus", None)))
    tail = [] if command is None else [command]
    if command == "fit-kinematics":
        if draw(st.booleans()):
            tail.append("SAMPLES")
        if draw(st.booleans()):
            tail += ["--harmonics",
                     draw(st.sampled_from(FLAG_VALUES["--harmonics"]))]
    return doc, flags, draw(st.booleans()), tail, renamed


@settings(max_examples=150, deadline=None)
@given(invocations())
# Absurd areas and frequencies whose thrust or power overflows, a trim
# bracket that starts near zero frequency, a sweep whose every point lies
# below the Reynolds limit, a base frequency whose period overflows, a
# span whose square overflows, a wing whose area overflows, and a base
# frequency whose angular frequency overflows; random draws, which change
# one position by at most 1e300, miss them.
@example((_mutated(("sweep", "area_cm2", 1), 1e300, False), [], True,
          ["sweep"], False))
@example((_mutated(("sweep", "area_cm2", 1), 1e150, False), [], True,
          ["sweep"], False))
@example((_mutated(("sweep", "frequency_hz", 1), 1e200, False), [], True,
          ["sweep"], False))
@example((_mutated(("trim", "f_lo_hz"), 1e-300, False), [], True,
          ["trim"], False))
@example((_mutated(("sweep", "frequency_hz"), [1e-3], False), [], True,
          ["sweep"], False))
@example((_mutated(("kinematics", "frequency_hz"), 5e-324, False), [], True,
          ["control-sim"], False))
@example((_mutated(("wing", "span_m"), 1e155, False, _mutated(
    ("wing", "breakpoints"), [[0, 0.01], [1e155, 0.01]], False)), [], True,
    ["simulate"], False))
@example((_mutated(("wing", "span_m"), 1e155, False, _mutated(
    ("wing", "breakpoints"), [[0, 1e155], [1e155, 1e155]], False)), [], True,
    ["simulate"], False))
@example((_mutated(("kinematics", "frequency_hz"), 5e307, False), [], True,
          ["control-sim"], False))
def test_cli_keeps_its_contract(invocation):
    doc, flags, with_config, tail, renamed = invocation
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config, samples = tmp / "study.json", tmp / "samples.csv"
        out = tmp / "out"
        config.write_text(json.dumps(doc))
        samples.write_text("t_s,angle_deg\n" + "".join(
            f"{t},{60.0 * math.sin(2.0 * math.pi * 17.3 * t)}\n"
            for t in (i / 400.0 for i in range(24))))
        argv = (["--config", str(config)] if with_config else []) \
            + ["--out", str(out)] + flags \
            + [str(samples) if arg == "SAMPLES" else arg for arg in tail]
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            raise AssertionError(f"{exc!r} escaped cli.main") from exc
        assert code in (0, 1, 2, 3)
        if renamed or "--steps" in flags:
            assert code == 1
        stderr = err.getvalue()
        assert stderr.count("\n") <= 1
        assert not stderr or stderr.endswith("\n")
        written = list(out.iterdir()) if out.is_dir() else []
        if code == 2:
            assert not written
        for path in written:
            if path.suffix == ".json":
                json.loads(path.read_text(), parse_constant=_reject_constant)


# study.json on a coarse cycle grid, so that each subcommand runs fast.
SMALL = {**STUDY, "solver": {**STUDY["solver"], "steps_per_cycle": 72,
                             "n_elements": 4}}


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


NUMBERS = tuple(path for path in _paths(SMALL)
                if type(_at(SMALL, path)) in (int, float))
# The messages of the range rules on task and sweep values, each of which
# a run checks too; a config that parses breaks none of them.
RANGE_RULES = ("need 0 < f_lo < f_hi", "target lift must be positive",
               "cutout span fraction must lie in",
               "frequency must be positive", "cutoff and sample time",
               "filter coefficient", "duration and time step",
               "duration / time step", "yaw inertia",
               "lies inside the wing's own cutout", "gyro sigma")
# Leaf values of study.json that break a range rule which, before the
# parse checked them, only the subcommand reading the value enforced;
# and a negative gyro noise sigma, which nothing rejected.
RANGE_CASES = {
    ("trim", "target_lift_gf"): (-1.0, 0.0),
    ("trim", "f_lo_hz"): (-1.0, 0.0, 1e6),
    ("trim", "f_hi_hz"): (-1.0, 0.0),
    ("cutout", "span_fraction"): (-1.0, 1e6),
    ("cutout", "frequency_hz"): (-1.0, 0.0),
    ("control", "cutoff_hz"): (-1.0, 0.0),
    ("control", "dt_s"): (-1.0, 0.0, 1e6),
    ("control", "duration_s"): (-1.0, 0.0, 1e6),
    ("control", "inertia"): (-1.0, 0.0),
    ("control", "gyro_sigma_dps"): (-1.0,),
    ("sweep", "cutout", 0): (-1.0, 1e6),
}


def _with_range_cases(test):
    for path, values in RANGE_CASES.items():
        for value in values:
            test = example(path, value)(test)
    return test


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(NUMBERS),
       st.sampled_from((-1.0, 0.0, 1e-300, 0.5, 1e6)))
@_with_range_cases
def test_a_config_that_parses_runs(path, value):
    doc = _mutated(path, value, False, SMALL)
    try:
        StudyConfig.from_dict(doc)
        message = None
    except ValueError as exc:
        message = str(exc)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "study.json"
        config.write_text(json.dumps(doc))
        for command in ("simulate", "sweep", "trim", "cutout-study",
                        "control-sim"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main(["--config", str(config), "--out",
                                 str(Path(tmp) / command), command])
            stderr = err.getvalue()
            if message is not None:
                assert (code, stderr) == (1, f"config error: {message}\n")
            elif code == 1:
                assert not any(rule in stderr for rule in RANGE_RULES), \
                    (command, stderr)
