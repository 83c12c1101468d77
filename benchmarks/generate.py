"""Seeded input generator for the wingbeat benchmark.

Each workload gets its own input directory holding one study config per
design (``design-<i>.json``) and a ``why.txt`` that records why the
workload exists. The program under test only ever sees these files; the
benchmark's outputs go to a separate directory, so a config can never be
overwritten by a same-named output (``sweep``/``trim`` write
``sweep.json``/``trim.json`` into ``--out``).

The base wing and kinematics are the standard 25.5 cm^2 tapered wing with
the beetle preset at 17.3 Hz and 190 deg, written out literally so that
the inputs do not depend on the program's own serializers.

Usage: python3 benchmarks/generate.py --workload sweep --seed 3 --dir DIR
"""

import argparse
import copy
import json
import math
import os
import random

# Standard 25.5 cm^2 wing at aspect ratio 3.2 and the beetle kinematics.
BASE_AREA_CM2 = 25.5
BASE_WING = {
    "span_m": 0.0903327183251,
    "root_offset_m": 0.0125,
    "breakpoints": [[0.0, 0.00560575379677],
                    [0.0225831795813, 0.0192197273032],
                    [0.0451663591625, 0.0400410985484],
                    [0.0722661746601, 0.0380390436209],
                    [0.0903327183251, 0.0220226042016]],
    "rotation_axis": {"type": "fraction", "value": 0.25},
    "cutout_span_fraction": 0.0,
}
BASE_KINEMATICS = {
    "frequency_hz": 17.3,
    "stroke": {"a0_deg": 0.0, "a_deg": [0.0], "b_deg": [95.0]},
    "rotation_stations": [
        {"span_fraction": 0.25, "a0_deg": 90.0, "a_deg": [-10.0],
         "b_deg": [-0.0]},
        {"span_fraction": 1.0, "a0_deg": 90.0, "a_deg": [-42.4264068712],
         "b_deg": [-42.4264068712]},
    ],
}
SOLVER = {"steps_per_cycle": 720, "n_elements": 20, "pair": True,
          "vi_tol": 1e-06, "vi_max_iter": 100}

# Ranges of the hover design study.
AMPLITUDE_DEG = (120.0, 190.0)
AREA_CM2 = (20.1, 31.4)
CUTOUT = (0.1, 0.3)
FREQUENCY_HZ = (12.0, 24.0)
TARGET_GF = (12.0, 20.0)
TRIM_BRACKET_HZ = (8.0, 40.0)

# Designs per run: several per run so that one run's median does not hang
# on a single design's bisection luck or inflow iteration count.
TRIM_DESIGNS = 16
CYCLE_DESIGNS = 8
# Sweep grid shape (amplitudes, areas, cutouts, frequencies): 72 points,
# fixed so that the work per op does not depend on the seed.
SWEEP_SHAPE = (3, 3, 2, 4)

WHY = {
    "sweep": "study batch throughput: a 72-point grid through the 2-worker "
             "pool, half the points on the masked-wing path",
    "trim": "chain of dependent cycle solves per hover trim, no pool and "
            "almost no export",
    "cycle": "latency of one interactive cycle evaluation with full "
             "timeseries/spanwise export and a power budget",
    "control": "long closed-loop yaw trace: per-step Python loop and row "
               "CSV writer, no aerodynamics at all",
}


def _uniform(rng, bounds, digits=3):
    return round(rng.uniform(*bounds), digits)


def _sorted_axis(rng, bounds, n, digits=3):
    # Distinct values; the sweep grid must not repeat a point.
    values = set()
    while len(values) < n:
        values.add(_uniform(rng, bounds, digits))
    return sorted(values)


def design_doc(area_cm2=BASE_AREA_CM2, amplitude_deg=190.0,
               frequency_hz=17.3, cutout=0.0):
    """Study config of one design: the base wing rescaled geometrically to
    ``area_cm2`` at fixed aspect ratio (every length, the root offset too),
    with the stroke amplitude, frequency and inboard cutout set."""
    k = math.sqrt(area_cm2 / BASE_AREA_CM2)
    wing = copy.deepcopy(BASE_WING)
    wing["span_m"] *= k
    wing["root_offset_m"] *= k
    wing["breakpoints"] = [[k * r, k * c] for r, c in wing["breakpoints"]]
    wing["cutout_span_fraction"] = cutout
    kin = copy.deepcopy(BASE_KINEMATICS)
    kin["frequency_hz"] = frequency_hz
    kin["stroke"]["b_deg"] = [amplitude_deg / 2.0]
    return {"wing": wing, "kinematics": kin,
            "environment": {"rho_kg_m3": 1.225, "nu_m2_s": 1.5e-05},
            "solver": dict(SOLVER), "output": {"directory": "out"}}


def study_doc():
    """The 18-point study of ROADMAP's baseline table (study.json)."""
    doc = design_doc()
    doc["sweep"] = {"amplitude_deg": [120.0, 190.0],
                    "area_cm2": [20.1, 25.5, 31.4],
                    "cutout": [0.0], "frequency_hz": [14.0, 17.3, 20.0]}
    return doc


def _sweep(rng):
    n_amp, n_area, n_cut, n_freq = SWEEP_SHAPE
    doc = design_doc()
    doc["sweep"] = {
        "amplitude_deg": _sorted_axis(rng, AMPLITUDE_DEG, n_amp, 2),
        "area_cm2": _sorted_axis(rng, AREA_CM2, n_area, 2),
        "cutout": [0.0] + _sorted_axis(rng, CUTOUT, n_cut - 1),
        "frequency_hz": _sorted_axis(rng, FREQUENCY_HZ, n_freq),
    }
    return [doc]


def _trim(rng):
    docs = []
    for _ in range(TRIM_DESIGNS):
        doc = design_doc(area_cm2=_uniform(rng, AREA_CM2, 2),
                         amplitude_deg=_uniform(rng, AMPLITUDE_DEG, 2))
        doc["trim"] = {"target_lift_gf": _uniform(rng, TARGET_GF),
                       "f_lo_hz": TRIM_BRACKET_HZ[0],
                       "f_hi_hz": TRIM_BRACKET_HZ[1]}
        docs.append(doc)
    return docs


def _cycle(rng):
    docs = []
    for i in range(CYCLE_DESIGNS):
        doc = design_doc(area_cm2=_uniform(rng, AREA_CM2, 2),
                         amplitude_deg=_uniform(rng, AMPLITUDE_DEG, 2),
                         frequency_hz=_uniform(rng, FREQUENCY_HZ),
                         cutout=_uniform(rng, CUTOUT) if i % 2 else 0.0)
        # Bench electrical readings and wing mass for the power budget.
        doc["power"] = {"v_supply": _uniform(rng, (7.0, 7.6)),
                        "v_system": _uniform(rng, (3.6, 3.8)),
                        "r_shunt_ohm": 2.0,
                        "motor_resistance_ohm": _uniform(rng, (0.8, 1.2)),
                        "wing_mass_kg": _uniform(rng, (0.3e-3, 0.5e-3), 6)}
        docs.append(doc)
    return docs


def _control(rng):
    doc = design_doc()
    doc["control"] = {
        "kp": 4.0, "kd": 2.5, "cutoff_hz": 10.0,
        "dt_s": 0.001, "duration_s": 60.0,
        "inertia": 1.0, "plant_gain": 1.0,
        "gyro_sigma_dps": _uniform(rng, (1.0, 3.0)),
        "gyro_bias_dps": _uniform(rng, (-0.5, 0.5)),
        "setpoint_schedule": [[0.0, 0.0],
                              [_uniform(rng, (0.5, 5.0)),
                               _uniform(rng, (-45.0, 45.0))],
                              [_uniform(rng, (20.0, 40.0)),
                               _uniform(rng, (-45.0, 45.0))]],
    }
    return [doc]


WORKLOAD_DOCS = {"sweep": _sweep, "trim": _trim, "cycle": _cycle,
            "control": _control}


def generate(workload, seed, directory):
    """Write the workload's configs for ``seed`` into ``directory``.

    Returns the config paths in design order. The same seed always gives
    the same bytes.
    """
    rng = random.Random(f"wingbeat-benchmark/{workload}/{seed}")
    docs = WORKLOAD_DOCS[workload](rng)
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "why.txt"), "w") as fh:
        fh.write(WHY[workload] + "\n")
    paths = []
    for i, doc in enumerate(docs):
        path = os.path.join(directory, f"design-{i}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_DOCS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    for path in generate(args.workload, args.seed, args.dir):
        print(path)


if __name__ == "__main__":
    main()
