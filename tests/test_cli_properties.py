"""Property test of the CLI contract on mutated study configs and flags.

Every run of ``cli.main`` must return an exit code in {0, 1, 2, 3} with
nothing escaping, write at most one line to stderr, and leave only
strict JSON behind. A config with a misspelled top-level key exits 1,
and so does a run that passes ``--steps``, a flag the CLI does not
have. The mutations never enlarge the sweep grid, and the values they
insert either keep the cycle grid and the control run small or exceed
the parse-time caps, so no run asks for much memory or time.
"""

import contextlib
import io
import json
import math
from pathlib import Path
import tempfile

from hypothesis import given, settings, strategies as st

from wingbeat import cli

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


def _mutated(path, value, drop):
    """A copy of the study config with one position dropped or replaced."""
    doc = json.loads(json.dumps(STUDY))
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
        for path in out.glob("*.json") if out.is_dir() else ():
            json.loads(path.read_text(), parse_constant=_reject_constant)
