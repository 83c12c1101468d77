"""The rows of ROADMAP's "Measured baseline" table, as per-layer numbers.

Fixed inputs, independent of the seed: the standard 25.5 cm^2 wing with
the beetle preset at 17.3 Hz and 190 deg, 720 steps x 20 elements, and
the 18-point study of ``demos/configs/study.json`` (rebuilt by
``generate.study_doc``). Times are the best of a few repeats, in ms.
"""

from concurrent.futures import ProcessPoolExecutor
import time

from wingbeat import aero, config, harness, power, presets

from generate import study_doc
from tracing import Tracer


def _best_ms(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def pool_spinup_ms(tasks, workers=2, repeats=3):
    """Start a process pool the way run_sweep does and map trivial tasks."""
    def spin():
        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(abs, range(tasks)))
    return _best_ms(spin, repeats)


def measure():
    wing = presets.standard_wing(25.5)
    kin = presets.beetle_kinematics(frequency_hz=17.3, amplitude_deg=190.0)
    env = aero.AeroEnvironment()
    rows = {}

    solved = aero.simulate_cycle(wing, kin, env)
    rows["baseline.cycle_solved_ms"] = _best_ms(
        lambda: aero.simulate_cycle(wing, kin, env), 3)
    rows["baseline.cycle_solved_evals"] = solved.vi_info.iterations
    vi = solved.v_induced
    rows["baseline.cycle_fixed_ms"] = _best_ms(
        lambda: aero.simulate_cycle(wing, kin, env, induced_velocity=vi), 5)

    # The force pass's own arguments, taken from a fixed-inflow cycle.
    captured = []
    with Tracer(hooks={"aero.element_forces":
                       lambda args, kwargs, result, s:
                       captured.append((args, kwargs))}):
        aero.simulate_cycle(wing, kin, env, induced_velocity=vi)
    args, kwargs = captured[-1]
    state, re = args[0], args[2]
    alpha = state.alpha_effective
    rows["baseline.element_forces_ms"] = _best_ms(
        lambda: aero.element_forces(*args, **kwargs), 20)
    rows["baseline.aero_coefficients_ms"] = _best_ms(
        lambda: aero.aero_coefficients(alpha, re), 20)
    rows["baseline.element_acceleration_ms"] = _best_ms(
        lambda: aero.element_acceleration(state), 20)

    target = 15.8 * power.GRAM_FORCE_NEWTONS
    rows["baseline.hover_trim_ms"] = _best_ms(
        lambda: harness.hover_trim(wing, kin, env, target, 12.0, 24.0), 1)
    with Tracer(scopes={"harness.hover_trim"}) as tracer:
        harness.hover_trim(wing, kin, env, target, 12.0, 24.0)
    rows["baseline.hover_trim_solves"] = tracer.calls_within(
        "harness.hover_trim", "aero.simulate_cycle")

    doc = study_doc()
    study = config.StudyConfig.from_dict(doc)
    rows["baseline.run_sweep_w1_ms"] = _best_ms(
        lambda: harness.run_sweep(study, workers=1), 1)
    rows["baseline.run_sweep_w2_ms"] = _best_ms(
        lambda: harness.run_sweep(study, workers=2), 1)
    rows["baseline.pool_spinup_ms"] = pool_spinup_ms(18)
    rows["baseline.from_dict_x18_ms"] = _best_ms(
        lambda: [config.StudyConfig.from_dict(doc) for _ in range(18)], 3)
    return rows
