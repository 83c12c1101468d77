"""Benchmark of the wingbeat CLI on seeded workloads.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from a checkout: the program is imported from ``src/`` beside this
directory. Inputs are generated from ``--seed`` into a work directory
under the checkout (removed at exit), and the CLI is driven in-process,
closed loop, one client: an op starts when the previous one has ended.

``--trace 0`` times ops for ``--seconds`` and reports the end-to-end
metrics. ``--trace 1`` runs a fixed list of ops untraced and then traced,
and reports per-layer self times and counts, the tracing overhead, and
the rows of ROADMAP's baseline table. Both check every output (see
``workloads.py``) and print, as the last stdout line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The line before it
records the machine, the thread settings and details of the run.

Exit code 0 when a result was printed; 2 when the program's sources are
missing.
"""

import os

# One BLAS/OpenMP thread in this process and every process it starts
# (sweep pool workers, set-up interpreters): 2 pool workers on 2 cores
# must not each fan out to OpenBLAS's 64 threads. Set before numpy loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time

import numpy

from generate import WORKLOAD_DOCS, generate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 7
# probe_seconds() on an unloaded 2-core Xeon VM at 2 GHz (Python 3.11,
# numpy 2.4): the speed that calibrated times are expressed at.
PROBE_S = 0.006
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import wingbeat.cli, wingbeat.config; "
              "wingbeat.config.StudyConfig.from_file(sys.argv[2])")

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
}

LAYER_SELF = tuple(f"{layer}.self_ms" for layer in (
    "config", "wing", "kinematics", "aero", "power", "control", "harness",
    "cli"))
PER_LAYER = {
    **{name: "ms" for name in LAYER_SELF},
    "config.parse_ms": "ms",
    "config.parse_calls_per_point": "count",
    "wing.discretize_ms": "ms",
    "wing.discretize_calls": "count",
    "kinematics.series_eval_ms": "ms",
    "kinematics.series_evals_per_cycle": "count",
    "aero.simulate_cycle_ms": "ms",
    "aero.solve_induced_velocity_ms": "ms",
    "aero.solve_induced_velocity_self_ms": "ms",
    "aero.thrust_evals_per_cycle": "count",
    "aero.element_forces_ms": "ms",
    "aero.element_forces_calls": "count",
    "aero.aero_coefficients_ms": "ms",
    "aero.element_acceleration_ms": "ms",
    "aero.fixed_inflow_cycle_ms": "ms",
    "aero.vi_residual_max": "m/s",
    "harness.cycle_solves_per_trim": "count",
    "harness.hover_trim_ms": "ms",
    "harness.run_sweep_ms": "ms",
    "harness.sweep_serial_ms": "ms",
    "harness.pool_speedup": "ratio",
    "harness.pool_startup_ms": "ms",
    "harness.export_ms": "ms",
    "harness.export_bytes": "bytes",
    "harness.trim_rel_err_max": "ratio",
    "power.inertial_power_ms": "ms",
    "control.loop_ms": "ms",
    "control.steps": "count",
    "control.trace_csv_ms": "ms",
    "trace.overhead_frac": "ratio",
    "baseline.cycle_solved_ms": "ms",
    "baseline.cycle_solved_evals": "count",
    "baseline.cycle_fixed_ms": "ms",
    "baseline.element_forces_ms": "ms",
    "baseline.aero_coefficients_ms": "ms",
    "baseline.element_acceleration_ms": "ms",
    "baseline.hover_trim_ms": "ms",
    "baseline.hover_trim_solves": "count",
    "baseline.run_sweep_w1_ms": "ms",
    "baseline.run_sweep_w2_ms": "ms",
    "baseline.pool_spinup_ms": "ms",
    "baseline.from_dict_x18_ms": "ms",
}

CYCLE = "aero.simulate_cycle"
SOLVE_VI = "aero.solve_induced_velocity"
TRIM = "harness.hover_trim"
SWEEP = "harness.run_sweep"
PARSE = "config.StudyConfig.from_dict"
SERIES = ("kinematics.FourierSeries.eval",
          "kinematics.WingKinematics.station_weights")
# Writers and row formatters of the CSV/JSON exports.
EXPORT_SPANS = ("harness.write_csv", "harness.write_json",
                "harness.run_metadata", "harness.cycle_summary_dict",
                "harness.cycle_timeseries_rows", "harness.spanwise_rows",
                "harness.SweepRow.csv_cells", "harness.SweepRow.as_dict",
                "harness.SweepResult.to_csv", "harness.SweepResult.to_json",
                "harness.TrimResult.as_dict", "control.ControlTrace.to_csv")


def machine():
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _probe_once():
    best = float("inf")
    grid = numpy.linspace(0.0, 1.0, 720 * 20).reshape(720, 20)
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(20000):
            acc += math.sin(i * 1e-3)
        for _ in range(20):
            numpy.sin(2.0 * grid) * numpy.cos(grid) + grid * grid
        best = min(best, time.perf_counter() - start)
    return best


def probe_seconds(processes=1):
    """Time of a fixed kernel that does not use wingbeat: the fastest of
    three runs of a pure-Python float loop plus numpy arithmetic on a
    720 x 20 grid, the mix the workloads spend their time in.

    With ``processes`` > 1 the kernel runs in that many forked processes
    at once, as an op with that many workers loads the machine, and the
    mean of their times is returned.
    """
    if processes == 1:
        return _probe_once()
    read_end, write_end = os.pipe()
    pids = []
    for _ in range(processes):
        pid = os.fork()
        if pid == 0:
            os.close(read_end)
            os.write(write_end, struct.pack("d", _probe_once()))
            os._exit(0)
        pids.append(pid)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        data = pipe.read()
    for pid in pids:
        os.waitpid(pid, 0)
    return statistics.mean(struct.unpack(f"{processes}d", data))


def calibrated(timed, processes=1):
    """Run ``timed`` (returns wall seconds) between two probes and rescale
    its time to the machine speed at which the probe takes PROBE_S.

    On a shared host the speed drifts by up to 2x over seconds to minutes
    with other tenants' load; the probes on either side measure the speed
    the op ran at.
    """
    before = probe_seconds(processes)
    seconds = timed()
    after = probe_seconds(processes)
    return seconds * PROBE_S / (0.5 * (before + after))


def setup_once(config_path):
    """Wall time of a fresh interpreter importing wingbeat.cli and parsing
    the workload's config."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, config_path],
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def peak_rss_mb(who):
    """Peak RSS (MB) of this process, or of its largest waited-for child."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def tail(times):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return None
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n}


def timed_run(load, seconds):
    from workloads import Run

    run = Run(load)
    designs = load.designs
    run.op(designs[0], record=False)     # warm-up, also the first reference
    # Before any set-up interpreter exists, the only children are sweep
    # pool workers.
    pool_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    # Set-ups are spread over the run, between ops, like the ops themselves.
    def setup():
        return setup_once(designs[0].config_path)

    setups, times = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        design = designs[len(times) % len(designs)]
        times.append(calibrated(lambda: run.op(design), load.workers))
        due = SETUP_REPEATS * (time.perf_counter() - start) / seconds
        if len(setups) < min(due, SETUP_REPEATS):
            setups.append(calibrated(setup))
    rss = peak_rss_mb(resource.RUSAGE_SELF) + pool_rss
    while len(setups) < SETUP_REPEATS:
        setups.append(calibrated(setup))
    attempted, failed, messages = run.check()
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(times),
        "peak_rss_mb": rss,
    }
    details = {"ops": len(run.times),
               "wall_op_s_p50": statistics.median(run.times),
               "wall_op_s_tail": tail(run.times),
               "op_s_tail": tail(times),
               "items_per_s": run.items / sum(run.times),
               "failed_frac": failed / attempted}
    return attempted, failed, messages, metrics, details


def traced_run(load):
    from baseline import measure, pool_spinup_ms
    from tracing import Tracer
    from workloads import Run, Sweep

    run = Run(load)
    sweep = isinstance(load, Sweep)
    # A sweep's pool workers trace into their own memory, which is lost:
    # the per-layer numbers come from the same grid run with one worker.
    ops = ([(load.designs[0], load.run_serial)] if sweep
           else [(design, None) for design in load.designs])
    counts = {"vi_iterations": 0, "control_steps": 0}

    def on_solve(args, kwargs, result, seconds):
        counts["vi_iterations"] += result.iterations

    def on_control(args, kwargs, result, seconds):
        counts["control_steps"] += len(result.t)

    tr = Tracer(scopes=(CYCLE, TRIM, SWEEP),
                hooks={SOLVE_VI: on_solve,
                       "control.simulate_closed_loop": on_control})
    run.op(load.designs[0], record=False)

    def traced_op(design, fn):
        with tr:
            return run.op(design, fn)

    # Each op untraced and then traced, both calibrated, so that drift in
    # the machine's speed cancels out of the overhead.
    plain = traced = 0.0
    exported = 0
    for design, fn in ops:
        plain += calibrated(lambda: run.op(design, fn))
        before = run.export_bytes
        traced += calibrated(lambda: traced_op(design, fn))
        exported += run.export_bytes - before
    n_ops = len(ops)
    n_points = load.items(load.designs[0]) if sweep else 0

    m = {name: 1e3 * tr.layer_self_s(name.split(".")[0]) / n_ops
         for name in LAYER_SELF}
    cycles = tr.calls(CYCLE)
    solves = tr.calls(SOLVE_VI)
    trims = tr.calls(TRIM)
    m.update({
        "config.parse_ms": tr.per_call_ms(PARSE),
        "config.parse_calls_per_point":
            tr.calls_within(SWEEP, PARSE) / n_points if n_points else 0.0,
        "wing.discretize_ms": tr.per_call_ms("wing.discretize"),
        "wing.discretize_calls": tr.calls("wing.discretize") / n_ops,
        "kinematics.series_eval_ms":
            1e3 * sum(tr.total_within(CYCLE, s) for s in SERIES) / cycles
            if cycles else 0.0,
        "kinematics.series_evals_per_cycle":
            sum(tr.calls_within(CYCLE, s) for s in SERIES) / cycles
            if cycles else 0.0,
        "aero.simulate_cycle_ms": tr.per_call_ms(CYCLE),
        "aero.solve_induced_velocity_ms": tr.per_call_ms(SOLVE_VI),
        "aero.solve_induced_velocity_self_ms": tr.self_per_call_ms(SOLVE_VI),
        "aero.thrust_evals_per_cycle":
            counts["vi_iterations"] / solves if solves else 0.0,
        "aero.element_forces_ms": tr.per_call_ms("aero.element_forces"),
        "aero.element_forces_calls": tr.calls("aero.element_forces") / n_ops,
        "aero.aero_coefficients_ms": tr.per_call_ms("aero.aero_coefficients"),
        "aero.element_acceleration_ms":
            tr.per_call_ms("aero.element_acceleration"),
        "harness.cycle_solves_per_trim":
            tr.calls_within(TRIM, CYCLE) / trims if trims else 0.0,
        "harness.hover_trim_ms": tr.per_call_ms(TRIM),
        "harness.sweep_serial_ms": tr.per_call_ms(SWEEP) if sweep else 0.0,
        "harness.export_ms": 1e3 * sum(
            tr.stats[s].self_time for s in EXPORT_SPANS
            if s in tr.stats) / n_ops,
        "harness.export_bytes": exported / n_ops,
        "power.inertial_power_ms": tr.per_call_ms("power.inertial_power"),
        "control.loop_ms": tr.per_call_ms("control.simulate_closed_loop"),
        "control.steps": counts["control_steps"] / n_ops,
        "control.trace_csv_ms": tr.per_call_ms("control.ControlTrace.to_csv"),
        "trace.overhead_frac": traced / plain - 1.0,
    })

    m["harness.run_sweep_ms"] = m["harness.pool_speedup"] = 0.0
    m["harness.pool_startup_ms"] = 0.0
    if sweep:
        with Tracer() as pool_tr:
            run.op(load.designs[0])
        m["harness.run_sweep_ms"] = pool_tr.per_call_ms(SWEEP)
        m["harness.pool_speedup"] = (m["harness.sweep_serial_ms"]
                                     / m["harness.run_sweep_ms"])
        m["harness.pool_startup_ms"] = pool_spinup_ms(n_points,
                                                      workers=load.workers)

    fixed = []

    def on_cycle(args, kwargs, result, seconds):
        if kwargs.get("induced_velocity") is not None:
            fixed.append(seconds)

    with Tracer(hooks={CYCLE: on_cycle}):
        attempted, failed, messages = run.check()
    m["aero.fixed_inflow_cycle_ms"] = (1e3 * statistics.mean(fixed)
                                       if fixed else 0.0)
    m["aero.vi_residual_max"] = max(load.vi_residuals, default=0.0)
    m["harness.trim_rel_err_max"] = max(load.trim_errors, default=0.0)
    m.update(measure())
    details = {"ops": attempted, "failed_frac": failed / attempted}
    return attempted, failed, messages, m, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_DOCS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wingbeat", "cli.py")):
        print(f"error: wingbeat sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import wingbeat
    if not os.path.abspath(wingbeat.__file__).startswith(SRC + os.sep):
        print(f"error: imported wingbeat from {wingbeat.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    work_root = os.path.join(ROOT, ".bench_work")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        paths = generate(args.workload, args.seed,
                         os.path.join(work, "inputs", args.workload))
        load = WORKLOADS[args.workload](paths, os.path.join(work, "out"),
                                        args.seed)
        if args.trace:
            outcome = traced_run(load)
            units = PER_LAYER
        else:
            outcome = timed_run(load, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    attempted, failed, messages, metrics, details = outcome
    for message in messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    details.update(workload=args.workload, seed=args.seed,
                   machine=machine(), failures=len(messages))
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
