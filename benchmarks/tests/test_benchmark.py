"""Tests of the benchmark itself: inputs, metric names and output checks.

    python3 -m pytest benchmarks/tests -q
"""

import json
from pathlib import Path
import subprocess
import sys

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import generate  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS, Run  # noqa: E402


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("workload", sorted(generate.WORKLOAD_DOCS))
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    generate.generate(workload, 3, tmp_path / "a")
    generate.generate(workload, 3, tmp_path / "b")
    generate.generate(workload, 4, tmp_path / "c")
    a = _files(tmp_path / "a")
    assert a == _files(tmp_path / "b")
    assert a != _files(tmp_path / "c")
    assert a["why.txt"].decode().strip() == generate.WHY[workload]


def test_declared_metrics_match_the_emitted_ones():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} \
        == bench.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for w in declared["workloads"]:
        assert w["why"] == generate.WHY[w["name"]]


@pytest.mark.parametrize("trace, names", [(0, bench.END_TO_END),
                                          (1, bench.PER_LAYER)])
def test_run_emits_every_declared_metric(trace, names):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "control",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=170)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_run_refuses_a_tree_without_the_program(tmp_path):
    copy = tmp_path / "benchmarks"
    copy.mkdir()
    for name in ("run.py", "generate.py"):
        (copy / name).write_bytes((BENCH / name).read_bytes())
    out = subprocess.run([sys.executable, str(copy / "run.py"), "--workload",
                          "cycle", "--seed", "1", "--seconds", "1"],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def _one_op(name, tmp_path, seed=1):
    paths = generate.generate(name, seed, tmp_path / "inputs")
    load = WORKLOADS[name](paths[:1], str(tmp_path / "out"), seed)
    run = Run(load)
    run.op(load.designs[0])
    return run


def _corrupt(run, filename, edit):
    files = run.reference[0]
    doc = json.loads(files[filename])
    edit(doc)
    files[filename] = json.dumps(doc, sort_keys=True).encode()


def test_clean_outputs_pass(tmp_path):
    run = _one_op("cycle", tmp_path)
    assert run.check() == (1, 0, [])


def test_perturbed_inflow_counts_as_failed(tmp_path):
    run = _one_op("cycle", tmp_path)
    _corrupt(run, "cycle_summary.json",
             lambda doc: doc.update(v_induced_m_s=doc["v_induced_m_s"] + 1e-4))
    attempted, failed, messages = run.check()
    assert (attempted, failed) == (1, 1)
    assert any("Vi residual" in m for m in messages)


def test_mistrimmed_frequency_counts_as_failed(tmp_path):
    run = _one_op("trim", tmp_path)
    _corrupt(run, "trim.json",
             lambda doc: doc.update(frequency_hz=doc["frequency_hz"] * 1.02))
    attempted, failed, messages = run.check()
    assert (attempted, failed) == (1, 1)
    assert any("misses the target" in m for m in messages)


def test_output_differing_from_the_first_op_counts_as_failed(tmp_path):
    run = _one_op("control", tmp_path)
    run.reference[0]["control_trace.csv"] += b"0,0,0,0,0\n"
    run.op(run.load.designs[0])
    attempted, failed, messages = run.check()
    assert (attempted, failed) == (2, 2)
    assert any("differs from its first op" in m for m in messages)
