"""The four benchmark workloads: one op each, and checks on its outputs.

An op is one in-process call of ``wingbeat.cli.main`` on a generated
config (plus, for ``cycle``, the design's power budget). Every op's
outputs are compared byte for byte with the first op of the same design
(JSON with ``metadata.timestamp_utc`` removed, since the program stamps
wall time). The first op's outputs are then checked against physics, not
against the path the solver took:

* the inflow residual |sqrt(max(T, 0) / (2 rho Phi R^2)) - Vi|, with T
  re-evaluated by a fixed-inflow ``simulate_cycle`` at the exported Vi;
* hover trim: lift re-simulated at the returned frequency against the
  target;
* bookkeeping: timeseries and spanwise exports against the summary, the
  power budget's closure, a sweep CSV identical to a serial run's, a
  finite control trace on the requested time grid.

The checks only use the generated configs' solver settings, which are
the program's defaults (720 steps, 20 elements, pair, Vi tolerance 1e-6).
"""

import contextlib
import csv
import io
import itertools
import json
import math
import os
import time

import numpy as np

from wingbeat import aero, cli, config, power, wing as wing_layer

# A Vi residual above the configured fixed-point tolerance (1e-6 m/s)
# means the exported inflow does not satisfy momentum balance.
VI_RESIDUAL_TOL = 1e-6 * (1.0 + 1e-6)
# hover_trim's lift tolerance.
TRIM_REL_TOL = 0.005 * (1.0 + 1e-9)
# Export round trips go through 12 significant digits.
EXPORT_REL_TOL = 1e-9


def run_cli(argv):
    """Run the CLI in-process; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def snapshot(directory):
    """Output files of an op, JSON without the wall-clock timestamp."""
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            data = fh.read()
        if name.endswith(".json"):
            doc = json.loads(data)
            if isinstance(doc, dict):
                doc.get("metadata", {}).pop("timestamp_utc", None)
            data = json.dumps(doc, sort_keys=True).encode()
        files[name] = data
    return files


def output_bytes(directory):
    return sum(os.path.getsize(os.path.join(directory, name))
               for name in os.listdir(directory))


def vi_residual(wing, kin, env, amplitude_deg, vi):
    """Momentum-balance residual (m/s) of an inflow value.

    The pair's mean thrust at the fixed inflow ``vi`` must give back
    ``vi`` through the actuator disk of area Phi R^2, with Phi the
    configured stroke amplitude.
    """
    thrust = aero.simulate_cycle(wing, kin, env, induced_velocity=vi).mean_lift
    disk = math.radians(amplitude_deg) * wing.span**2
    return abs(math.sqrt(max(thrust, 0.0) / (2.0 * env.rho * disk)) - vi)


def _close(a, b, rel=EXPORT_REL_TOL):
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-15)


def _csv_columns(data):
    reader = csv.reader(io.StringIO(data.decode()))
    header = next(reader)
    rows = np.array([[float(v) for v in row] for row in reader])
    return header, rows


def _amplitude_deg(design):
    """Peak-to-peak stroke of a generated single-harmonic stroke."""
    return 2.0 * abs(design.doc["kinematics"]["stroke"]["b_deg"][0])


class Design:
    """One generated config and the directory its op writes to."""

    def __init__(self, index, config_path, out_dir):
        self.index = index
        self.config_path = config_path
        self.out_dir = out_dir
        with open(config_path) as fh:
            self.doc = json.load(fh)
        self.study = config.StudyConfig.from_file(config_path)


class Workload:
    name = ""
    command = ()
    workers = 1     # processes an op keeps busy

    def __init__(self, config_paths, out_root, seed):
        self.seed = seed
        self.designs = [Design(i, path, os.path.join(out_root, f"design-{i}"))
                        for i, path in enumerate(config_paths)]
        self.vi_residuals = []
        self.trim_errors = []

    def argv(self, design, *flags):
        return ["--config", design.config_path, "--out", design.out_dir,
                *flags, *self.command]

    def clear(self, design):
        if os.path.isdir(design.out_dir):
            for name in os.listdir(design.out_dir):
                os.remove(os.path.join(design.out_dir, name))

    def run_op(self, design):
        """The timed op. Returns (exit code, stderr)."""
        return run_cli(self.argv(design))

    def items(self, design):
        """Units of work in one op, for items_per_s."""
        return 1

    def prepare_check(self):
        """Untimed work the checks need beyond the op outputs."""

    def check(self, design, files):
        """Failure messages for one design's op outputs (empty if ok)."""
        raise NotImplementedError

    def _check_vi(self, label, wing, kin, env, amplitude_deg, vi):
        residual = vi_residual(wing, kin, env, amplitude_deg, vi)
        self.vi_residuals.append(residual)
        if not residual <= VI_RESIDUAL_TOL:
            return [f"{label}: Vi residual {residual:.3e} m/s exceeds "
                    f"{VI_RESIDUAL_TOL:.3e}"]
        return []


class Sweep(Workload):
    name = "sweep"
    command = ("sweep",)
    workers = 2

    def __init__(self, *args):
        super().__init__(*args)
        self.serial_csv = None

    def run_op(self, design):
        return run_cli(self.argv(design, "--workers", str(self.workers)))

    def run_serial(self, design):
        """The same grid with one worker; its CSV is the reference."""
        code, err = run_cli(self.argv(design, "--workers", "1"))
        if code == 0:
            with open(os.path.join(design.out_dir, "sweep.csv"), "rb") as fh:
                self.serial_csv = fh.read()
        return code, err

    def prepare_check(self):
        if self.serial_csv is None:
            code, err = self.run_serial(self.designs[0])
            if code != 0:
                self.serial_csv = f"serial sweep exit {code}: {err}".encode()

    def grid(self, design):
        axes = design.doc["sweep"]
        return list(itertools.product(axes["amplitude_deg"], axes["area_cm2"],
                                      axes["cutout"], axes["frequency_hz"]))

    def items(self, design):
        return len(self.grid(design))

    def check(self, design, files):
        failures = []
        if files.get("sweep.csv") != self.serial_csv:
            failures.append("sweep.csv differs between --workers 2 and 1")
        rows = json.loads(files["sweep.json"])["rows"]
        points = [(r["amplitude_deg"], r["area_cm2"],
                   r["cutout_span_fraction"], r["frequency_hz"]) for r in rows]
        if points != self.grid(design):
            failures.append("sweep rows do not match the configured grid")
        study = design.study
        for row in rows:
            label = (f"point amp {row['amplitude_deg']} area "
                     f"{row['area_cm2']} cutout {row['cutout_span_fraction']}"
                     f" f {row['frequency_hz']}")
            if row["error"] is not None:
                failures.append(f"{label}: error row: {row['error']}")
                continue
            wing = wing_layer.apply_inboard_cutout(
                wing_layer.scaled_to_area(study.wing, row["area_cm2"] * 1e-4),
                row["cutout_span_fraction"])
            kin = study.kinematics.with_stroke_amplitude(
                math.radians(row["amplitude_deg"])).with_frequency(
                    row["frequency_hz"])
            failures += self._check_vi(label, wing, kin, study.environment,
                                       row["amplitude_deg"],
                                       row["v_induced_m_s"])
        return failures


class Trim(Workload):
    name = "trim"
    command = ("trim",)

    def check(self, design, files):
        result = json.loads(files["trim.json"])
        section = design.doc["trim"]
        f_trim = result["frequency_hz"]
        label = f"design {design.index}"
        if not section["f_lo_hz"] <= f_trim <= section["f_hi_hz"]:
            return [f"{label}: trimmed frequency {f_trim} Hz outside the "
                    f"bracket"]
        study = design.study
        kin = study.kinematics.with_frequency(f_trim)
        cycle = aero.simulate_cycle(study.wing, kin, study.environment)
        target = section["target_lift_gf"] * power.GRAM_FORCE_NEWTONS
        error = abs(cycle.mean_lift - target) / target
        self.trim_errors.append(error)
        failures = []
        if not error <= TRIM_REL_TOL:
            failures.append(f"{label}: lift at {f_trim} Hz misses the target "
                            f"by {error:.3e} (relative)")
        return failures + self._check_vi(label, study.wing, kin,
                                         study.environment,
                                         _amplitude_deg(design),
                                         cycle.v_induced)


class Cycle(Workload):
    name = "cycle"
    command = ("simulate",)

    def run_op(self, design):
        code, err = run_cli(self.argv(design))
        if code != 0:
            return code, err
        # The design's power budget, as demos/07_power_budget.py builds it.
        bench = design.doc["power"]
        with open(os.path.join(design.out_dir, "cycle_summary.json")) as fh:
            p_aero = json.load(fh)["mean_aero_power_w"]
        mass = power.WingMassModel.from_wing(design.study.wing,
                                             total_mass=bench["wing_mass_kg"])
        inertial = power.inertial_power(mass, design.study.kinematics)
        current = power.shunt_current(bench["v_supply"], bench["v_system"],
                                      bench["r_shunt_ohm"])
        budget = power.decompose(
            bench["v_system"] * current, current,
            power.MotorElectrical(resistance=bench["motor_resistance_ohm"]),
            p_aero=p_aero, p_inertial=inertial.rectified_mean)
        with open(os.path.join(design.out_dir, "power_budget.json"), "w") as fh:
            fh.write(budget.to_json(indent=2, sort_keys=True) + "\n")
        return 0, ""

    def check(self, design, files):
        label = f"design {design.index}"
        study = design.study
        summary = json.loads(files["cycle_summary.json"])
        lift = summary["mean_lift_n"]
        p_aero = summary["mean_aero_power_w"]
        failures = self._check_vi(label, study.wing, study.kinematics,
                                  study.environment, _amplitude_deg(design),
                                  summary["v_induced_m_s"])

        header, ts = _csv_columns(files["cycle_timeseries.csv"])
        if ts.shape[0] != design.doc["solver"]["steps_per_cycle"] \
                or not np.all(np.isfinite(ts)):
            failures.append(f"{label}: timeseries has {ts.shape[0]} rows or "
                            f"non-finite values")
        elif not (_close(np.mean(ts[:, header.index("zeta_total_n")]), lift)
                  and _close(np.mean(ts[:, header.index("aero_power_w")]),
                             p_aero)):
            failures.append(f"{label}: timeseries means disagree with the "
                            f"summary")

        header, span = _csv_columns(files["cycle_spanwise.csv"])
        if span.shape[0] != design.doc["solver"]["n_elements"] or not (
                _close(np.sum(span[:, header.index("mean_lift_n")]), lift)
                and _close(np.sum(span[:, header.index("mean_power_w")]),
                           p_aero)):
            failures.append(f"{label}: spanwise loads do not sum to the "
                            f"summary")

        terms = json.loads(files["power_budget.json"])["terms"]
        parts = (terms["p_loss_w"] + terms["p_mechanism_w"]
                 + terms["p_aero_w"] + terms["p_inertial_w"])
        if not (all(math.isfinite(v) for v in terms.values())
                and math.isclose(parts, terms["p_in_w"], rel_tol=1e-12)
                and terms["p_aero_w"] == p_aero
                and terms["p_inertial_w"] >= 0.0):
            failures.append(f"{label}: power budget does not close: {terms}")
        return failures


class Control(Workload):
    name = "control"
    command = ("control-sim",)

    def run_op(self, design):
        return run_cli(self.argv(design, "--seed", str(self.seed)))

    def steps(self, design):
        section = design.doc["control"]
        return int(round(section["duration_s"] / section["dt_s"]))

    def items(self, design):
        return self.steps(design)

    def check(self, design, files):
        header, trace = _csv_columns(files["control_trace.csv"])
        n = self.steps(design)
        dt = design.doc["control"]["dt_s"]
        label = f"control trace (seed {self.seed})"
        if header != ["t_s", "psi_true_deg", "psi_est_deg", "omega_dps",
                      "control_output"]:
            return [f"{label}: unexpected header {header}"]
        if trace.shape[0] != n or not np.all(np.isfinite(trace)):
            return [f"{label}: {trace.shape[0]} rows (want {n}) or "
                    f"non-finite values"]
        if not np.allclose(trace[:, 0], np.arange(n) * dt, rtol=0.0,
                           atol=1e-9):
            return [f"{label}: time column is not the {dt} s grid"]
        return []


WORKLOADS = {cls.name: cls for cls in (Sweep, Trim, Cycle, Control)}


class Run:
    """Ops of one workload with their outcomes."""

    def __init__(self, load):
        self.load = load
        self.reference = {}     # design index -> first op's output files
        self.outcomes = []      # (design index, failure message or None)
        self.times = []
        self.items = 0
        self.export_bytes = 0

    def op(self, design, fn=None, record=True):
        """Run one op (``fn``, default the workload's op) on ``design``;
        returns its wall time. ``record=False`` leaves it out of the
        timings but still checks it."""
        self.load.clear(design)
        start = time.perf_counter()
        code, err = (fn or self.load.run_op)(design)
        elapsed = time.perf_counter() - start
        failure = None
        if code != 0:
            failure = f"design {design.index}: exit {code}: {err.strip()}"
        else:
            self.export_bytes += output_bytes(design.out_dir)
            files = snapshot(design.out_dir)
            first = self.reference.setdefault(design.index, files)
            if files != first:
                failure = (f"design {design.index}: output differs from its "
                           f"first op")
        if record:
            self.times.append(elapsed)
            self.items += self.load.items(design)
        self.outcomes.append((design.index, failure))
        return elapsed

    def check(self):
        """Physics checks on each design's first output; returns
        (attempted, failed, failure messages)."""
        self.load.prepare_check()
        bad = {}
        for index, files in self.reference.items():
            design = self.load.designs[index]
            try:
                failures = self.load.check(design, files)
            except (KeyError, IndexError, ValueError) as exc:
                failures = [f"design {index}: malformed output: {exc!r}"]
            if failures:
                bad[index] = failures
        messages = [m for _, m in self.outcomes if m]
        messages += [m for failures in bad.values() for m in failures]
        failed = sum(1 for index, m in self.outcomes if m or index in bad)
        return len(self.outcomes), failed, messages

