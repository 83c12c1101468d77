"""Yaw loop: filter, heading integration, PD law, closed-loop behaviour."""

import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from oracles import reference_setpoint
from wingbeat import control, harness
from wingbeat.control import (
    MAX_STEPS,
    ControllerConfig,
    LowPassFilter,
    YawPlant,
    integrate_yaw,
    low_pass_coefficient,
    simulate_closed_loop,
    yaw_control_output,
)
from wingbeat.harness import write_control


def test_low_pass_coefficient_range():
    beta = low_pass_coefficient(10.0, 0.01)
    assert 0.0 < beta <= 1.0
    assert beta == pytest.approx(1.0 - math.exp(-2 * math.pi * 0.1), rel=1e-12)
    with pytest.raises(ValueError):
        low_pass_coefficient(0.0, 0.01)
    with pytest.raises(ValueError):
        low_pass_coefficient(10.0, 0.0)


def test_filter_settles_to_constant_input():
    dt, cutoff = 0.01, 10.0
    lpf = LowPassFilter(low_pass_coefficient(cutoff, dt))
    tau = 1.0 / (2 * math.pi * cutoff)
    steps = int(round(5 * tau / dt)) + 1
    for _ in range(steps):
        y = lpf.update(3.0)
    assert abs(y - 3.0) < 0.01 * 3.0


def test_unit_coefficient_is_passthrough():
    lpf = LowPassFilter(1.0)
    for x in (0.4, -2.0, 11.0):
        assert lpf.update(x) == x


def test_filter_reduces_noise_variance():
    rng = np.random.default_rng(0)
    noise = rng.normal(0.0, 1.0, 100000)
    lpf = LowPassFilter(low_pass_coefficient(10.0, 0.01))
    out = np.array([lpf.update(x) for x in noise])
    assert np.var(out) < np.var(noise)


def test_filter_coefficient_validation():
    with pytest.raises(ValueError):
        LowPassFilter(0.0)
    with pytest.raises(ValueError):
        LowPassFilter(1.5)


def test_integrate_constant_rate():
    psi = 0.0
    for _ in range(100):
        psi = integrate_yaw(psi, 10.0, 0.01)
    assert abs(psi - 10.0) < 1e-12
    assert integrate_yaw(5.0, 0.0, 0.01) == 5.0
    with pytest.raises(ValueError):
        integrate_yaw(0.0, 1.0, 0.0)


def test_integrate_sinusoidal_rate_over_period():
    # Full-period Euler sum of a sinusoid on a uniform grid cancels.
    f, dt = 2.0, 0.001
    n = int(round(1.0 / f / dt))
    psi = 0.0
    for k in range(n):
        psi = integrate_yaw(psi, 30.0 * math.sin(2 * math.pi * f * k * dt), dt)
    assert abs(psi) < 1e-9
    # Half period against the analytic integral, first-order accurate.
    psi = 0.0
    for k in range(n // 2):
        psi = integrate_yaw(psi, 30.0 * math.sin(2 * math.pi * f * k * dt), dt)
    analytic = 30.0 / (2 * math.pi * f) * 2.0
    assert psi == pytest.approx(analytic, rel=5e-3)


def test_control_output_hand_case():
    assert yaw_control_output(1.0, 0.1, 30.0, 10.0, 0.0, 5.0) == 19.5
    assert yaw_control_output(1.0, 0.1, 0.0, 0.0, 0.0, 0.0) == 0.0
    assert yaw_control_output(0.0, 0.0, 30.0, -10.0, 5.0, 40.0) == 0.0


def test_control_output_is_affine():
    base = yaw_control_output(2.0, 0.5, 20.0, 0.0, 0.0, 5.0)
    doubled = yaw_control_output(2.0, 0.5, 40.0, 0.0, 0.0, 10.0)
    assert doubled == pytest.approx(2 * base, rel=1e-12)


def test_step_response_converges():
    config = ControllerConfig(kp=4.0, kd=2.5,
                              setpoint_schedule=((0.0, 30.0),))
    plant = YawPlant(inertia=1.0)
    trace = simulate_closed_loop(plant, config, duration=8.0, dt=0.01)
    assert abs(trace.psi_true[-1] - 30.0) < 0.01 * 30.0
    assert abs(trace.psi_est[-1] - 30.0) < 0.01 * 30.0


def test_open_loop_drift_with_initial_rate():
    config = ControllerConfig(kp=0.0, kd=0.0)
    plant = YawPlant(inertia=1.0, omega=5.0)
    trace = simulate_closed_loop(plant, config, duration=2.0, dt=0.01)
    assert np.allclose(trace.psi_true, 5.0 * trace.t, atol=1e-9)
    assert np.allclose(trace.control_output, 0.0)


def test_gyro_bias_drifts_heading_estimate():
    # Gyro-only heading: a constant rate bias integrates into a linear
    # estimate drift while the true heading stays put.
    bias = 2.0
    config = ControllerConfig(kp=0.0, kd=0.0)
    plant = YawPlant(inertia=1.0)
    trace = simulate_closed_loop(plant, config, duration=10.0, dt=0.01,
                                 gyro_bias=bias)
    assert np.allclose(trace.psi_true, 0.0, atol=1e-12)
    tail = slice(trace.t.size // 2, None)
    slope = np.polyfit(trace.t[tail], trace.psi_est[tail], 1)[0]
    assert slope == pytest.approx(bias, rel=1e-3)


def test_noise_seeded_reproducibility():
    config = ControllerConfig(kp=4.0, kd=2.5, setpoint_schedule=((0.0, 10.0),))
    kwargs = dict(duration=2.0, dt=0.01, gyro_sigma=5.0, seed=42)
    a = simulate_closed_loop(YawPlant(inertia=1.0), config, **kwargs)
    b = simulate_closed_loop(YawPlant(inertia=1.0), config, **kwargs)
    assert np.array_equal(a.psi_true, b.psi_true)
    assert np.array_equal(a.control_output, b.control_output)
    c = simulate_closed_loop(YawPlant(inertia=1.0), config,
                             duration=2.0, dt=0.01, gyro_sigma=5.0, seed=43)
    assert not np.array_equal(a.psi_est, c.psi_est)


def test_setpoint_schedule_steps():
    config = ControllerConfig(kp=4.0, kd=2.5,
                              setpoint_schedule=((0.0, 0.0), (2.0, 25.0)))
    assert config.setpoint_at(1.9) == 0.0
    assert config.setpoint_at(2.0) == 25.0
    plant = YawPlant(inertia=1.0)
    trace = simulate_closed_loop(plant, config, duration=10.0, dt=0.01)
    assert abs(trace.psi_true[-1] - 25.0) < 0.25


SETPOINT_TIMES = st.one_of(
    st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0]),
    st.floats(-10.0, 10.0))
SCHEDULE_ENTRIES = st.lists(
    st.tuples(SETPOINT_TIMES, st.floats(-180.0, 180.0)), min_size=1,
    max_size=6)


@settings(max_examples=200, deadline=None)
@given(schedule=SCHEDULE_ENTRIES, data=st.data())
def test_setpoint_lookup_equals_the_reference_loop(schedule, data):
    # Unsorted and repeated entry times, +-0.0 and negative times; the
    # times looked up lie before the first entry, on every entry time and
    # after the last.
    config = ControllerConfig(kp=1.0, kd=1.0,
                              setpoint_schedule=tuple(schedule))
    entry_times = [t_k for t_k, _ in schedule]
    probes = st.one_of(
        st.sampled_from(entry_times + [min(entry_times) - 1.0,
                                       max(entry_times) + 1.0,
                                       -math.inf, math.inf, -0.0, 0.0]),
        SETPOINT_TIMES)
    times = data.draw(st.lists(probes, min_size=1, max_size=12))
    want = np.array([reference_setpoint(schedule, t) for t in times])
    assert config.setpoint_at(np.array(times)).tobytes() == want.tobytes()
    scalars = [config.setpoint_at(t) for t in times]
    assert all(type(v) is float for v in scalars)
    assert np.array(scalars).tobytes() == want.tobytes()


def test_a_nan_setpoint_time_is_rejected():
    # A NaN time is no time of the schedule: the loop would answer entry
    # 0 and a sorted lookup the last entry.
    config = ControllerConfig(kp=4.0, kd=2.5,
                              setpoint_schedule=((0.0, 0.0), (2.0, 30.0)))
    with pytest.raises(ValueError, match="setpoint time must not be NaN, "
                                         "got nan"):
        config.setpoint_at(math.nan)
    with pytest.raises(ValueError, match="setpoint time must not be NaN"):
        config.setpoint_at(np.array([1.0, math.nan, 3.0]))
    assert (config.setpoint_at(math.inf),
            config.setpoint_at(-math.inf)) == (30.0, 0.0)


def test_divergence_raises_with_step_index():
    # Undamped high-gain loop under explicit Euler grows without bound;
    # the plant needs an initial rate for the gyro-only loop to engage.
    config = ControllerConfig(kp=1e6, kd=0.0)
    plant = YawPlant(inertia=1.0, omega=1.0)
    with pytest.raises(RuntimeError, match="step"):
        simulate_closed_loop(plant, config, duration=60.0, dt=0.1)


def test_trace_csv_format(tmp_path):
    config = ControllerConfig(kp=4.0, kd=2.5)
    trace = simulate_closed_loop(YawPlant(inertia=1.0), config,
                                 duration=0.05, dt=0.01)
    write_control(tmp_path, trace)
    lines = (tmp_path / "control_trace.csv").read_text().splitlines()
    assert lines[0] == "t_s,psi_true_deg,psi_est_deg,omega_dps,control_output"
    assert len(lines) == 1 + trace.t.size


def test_trace_columns_are_views_of_its_table():
    trace = simulate_closed_loop(YawPlant(inertia=1.0),
                                 ControllerConfig(kp=4.0, kd=2.5),
                                 duration=0.05, dt=0.01)
    assert trace.table.shape == (5, 5) and trace.table.flags.c_contiguous
    trace.omega[2] = 123.0
    assert trace.table[2, 3] == 123.0
    for j, name in enumerate(("t", "psi_true", "psi_est", "omega",
                              "control_output")):
        assert np.shares_memory(getattr(trace, name), trace.table[:, j])
    with pytest.raises(ValueError, match="5 columns"):
        control.ControlTrace(np.zeros((3, 4)))


def test_write_control_formats_row_blocks_of_the_table(tmp_path,
                                                       monkeypatch):
    # Every block the writer formats is the next rows of the trace's own
    # table, with no copy in between.
    format_rows, blocks = harness._format_rows, []

    def record(cells):
        blocks.append(cells)
        return format_rows(cells)

    monkeypatch.setattr(harness, "_format_rows", record)
    trace = simulate_closed_loop(YawPlant(inertia=1.0),
                                 ControllerConfig(kp=4.0, kd=2.5),
                                 duration=2.5, dt=0.001)
    write_control(tmp_path, trace)
    table, rows = trace.table, harness.TABLE_CHUNK_CELLS // 5
    start = 0
    for block in blocks:
        assert np.shares_memory(block, table) and block.flags.c_contiguous
        assert 0 < len(block) <= rows
        offset = (block.__array_interface__["data"][0]
                  - table.__array_interface__["data"][0])
        assert offset == start * table.strides[0]
        start += len(block)
    assert start == len(table) and len(blocks) == -(-len(table) // rows)


@pytest.mark.parametrize("duration, dt", [(0.1, 1e300), (1e300, 1e-300)])
def test_duration_must_span_finitely_many_steps(duration, dt):
    config = ControllerConfig(kp=4.0, kd=2.5)
    with pytest.raises(ValueError, match="time step"):
        simulate_closed_loop(YawPlant(inertia=1.0), config, duration=duration,
                             dt=dt)


def replay_closed_loop(plant, config, duration, dt, gyro_sigma=0.0,
                       gyro_bias=0.0, seed=0):
    """The closed loop one step at a time through the public per-step law,
    with one scalar noise draw per step: t, psi_true, psi_est, omega and
    control output as the rows of one array."""
    n = int(round(duration / dt))
    rng = np.random.default_rng(seed)
    lpf = LowPassFilter(low_pass_coefficient(config.cutoff_hz, dt))
    out = np.empty((5, n))
    out[0] = np.arange(n) * dt
    setpoints = config.setpoint_at(out[0]).tolist()
    estimate = 0.0
    for k in range(n):
        measured = plant.omega + gyro_bias
        if gyro_sigma > 0.0:
            measured += rng.normal(0.0, gyro_sigma)
        rate_filtered = lpf.update(measured)
        estimate = integrate_yaw(estimate, rate_filtered, dt)
        command = yaw_control_output(config.kp, config.kd, setpoints[k],
                                     estimate, 0.0, rate_filtered)
        out[1:, k] = plant.psi, estimate, plant.omega, command
        plant.step(config.plant_gain * command, dt)
        if not (math.isfinite(plant.psi) and math.isfinite(plant.omega)):
            raise RuntimeError(f"closed-loop state diverged at step {k}")
    return out


SCHEDULES = {
    "sorted": ((0.0, 0.0), (0.4, 30.0), (1.9, -12.5)),
    # An entry earlier than the one before it stays active once reached;
    # the first entry rules until the first time is reached.
    "unsorted": ((0.25, 7.0), (1.3, -20.0), (0.6, 40.0), (2.2, 10.0),
                 (2.2, -3.0)),
    "late start": ((1.1, 15.0),),
}


def assert_trace_matches_replay(fast_plant, slow_plant, trace, want, rel):
    """Each column, and the final plant state, within ``rel`` of the
    column's largest magnitude."""
    got = (trace.t, trace.psi_true, trace.psi_est, trace.omega,
           trace.control_output)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= rel * np.max(np.abs(w))
    assert abs(fast_plant.psi - slow_plant.psi) <= rel * np.max(
        np.abs(want[1]))
    assert abs(fast_plant.omega - slow_plant.omega) <= rel * np.max(
        np.abs(want[3]))


@pytest.mark.parametrize("schedule", SCHEDULES.values(), ids=SCHEDULES)
@pytest.mark.parametrize("gyro_sigma", [0.0, 3.0])
def test_fast_loop_equals_step_by_step_replay(schedule, gyro_sigma):
    # Two full chunks of the fast loop and a partial one of 452 steps, so
    # the check crosses two chunk boundaries. The scan sums in another
    # order than the replay, so the two agree to rounding (they differed
    # by at most 2.8e-14 of a column's scale).
    steps = 2 * control.CHUNK_STEPS + 452
    config = ControllerConfig(kp=4.0, kd=2.5, cutoff_hz=12.0,
                              plant_gain=1.3, setpoint_schedule=schedule)
    kwargs = dict(duration=steps * 0.001, dt=0.001, gyro_sigma=gyro_sigma,
                  gyro_bias=0.2, seed=17)
    fast_plant = YawPlant(inertia=0.8, omega=2.0, disturbance=-0.4)
    slow_plant = YawPlant(inertia=0.8, omega=2.0, disturbance=-0.4)
    trace = simulate_closed_loop(fast_plant, config, **kwargs)
    want = replay_closed_loop(slow_plant, config, **kwargs)
    assert trace.t.size == steps
    assert_trace_matches_replay(fast_plant, slow_plant, trace, want, 1e-12)


def test_step_by_step_path_equals_replay_bit_for_bit(monkeypatch):
    # With the scan made to report a non-finite value, the run is redone
    # one step at a time over two full chunks and a partial one, and its
    # trace and final state are the replay's to the bit.
    monkeypatch.setattr(control, "_scan_closed_loop", lambda *args: None)
    config = ControllerConfig(kp=4.0, kd=2.5, cutoff_hz=12.0,
                              plant_gain=1.3,
                              setpoint_schedule=SCHEDULES["unsorted"])
    kwargs = dict(duration=(2 * control.CHUNK_STEPS + 452) * 0.001,
                  dt=0.001, gyro_sigma=3.0, gyro_bias=0.2, seed=17)
    fast_plant = YawPlant(inertia=0.8, omega=2.0, disturbance=-0.4)
    slow_plant = YawPlant(inertia=0.8, omega=2.0, disturbance=-0.4)
    trace = simulate_closed_loop(fast_plant, config, **kwargs)
    want = replay_closed_loop(slow_plant, config, **kwargs)
    assert trace.table.tobytes() == np.ascontiguousarray(want.T).tobytes()
    assert (fast_plant.psi, fast_plant.omega) == (slow_plant.psi,
                                                  slow_plant.omega)


def test_lightly_damped_long_run_matches_replay():
    # 60 000 steps of a loop that rings for seconds: the scan's rounding
    # builds up to about 1.2e-12 of a column's scale.
    config = ControllerConfig(kp=4.0, kd=0.05,
                              setpoint_schedule=((0.0, 0.0), (1.0, 20.0)))
    kwargs = dict(duration=60.0, dt=0.001, gyro_sigma=2.0, seed=5)
    fast_plant = YawPlant(inertia=1.0, omega=1.0)
    slow_plant = YawPlant(inertia=1.0, omega=1.0)
    trace = simulate_closed_loop(fast_plant, config, **kwargs)
    want = replay_closed_loop(slow_plant, config, **kwargs)
    assert_trace_matches_replay(fast_plant, slow_plant, trace, want, 1e-10)


def test_exploding_gains_at_rest_keep_an_exact_zero_trace():
    # The step matrix's powers overflow, and the scan would form inf * 0
    # = nan from the zero state; the per-step path keeps the exact zeros.
    config = ControllerConfig(kp=1e6, kd=0.0)
    plant = YawPlant(inertia=1.0)
    trace = simulate_closed_loop(plant, config, duration=60.0, dt=0.1)
    for column in (trace.psi_true, trace.psi_est, trace.omega,
                   trace.control_output):
        assert column.size == 600 and not np.any(column)
    assert (plant.psi, plant.omega) == (0.0, 0.0)


def double_kp_law(monkeypatch):
    """Swap in a PD law with kp doubled; returns the list of its calls."""
    law, calls = control.yaw_control_output, []

    def doubled(kp, *rest):
        calls.append(kp)
        return law(2.0 * kp, *rest)

    monkeypatch.setattr(control, "yaw_control_output", doubled)
    return calls


def test_the_scan_runs_the_public_pd_law(monkeypatch):
    # An edit to yaw_control_output reaches the step matrix and the
    # command read-out: doubling kp in the law is doubling it in config.
    kwargs = dict(duration=2.5, dt=0.001, gyro_sigma=3.0, gyro_bias=0.2,
                  seed=17)
    schedule = SCHEDULES["unsorted"]
    plain_plant = YawPlant(inertia=0.8, omega=2.0, disturbance=-0.4)
    plain = simulate_closed_loop(
        plain_plant, ControllerConfig(kp=4.0, kd=2.5, cutoff_hz=12.0,
                                      setpoint_schedule=schedule), **kwargs)
    double_kp_law(monkeypatch)
    patched_plant = YawPlant(inertia=0.8, omega=2.0, disturbance=-0.4)
    patched = simulate_closed_loop(
        patched_plant, ControllerConfig(kp=2.0, kd=2.5, cutoff_hz=12.0,
                                        setpoint_schedule=schedule), **kwargs)
    for name in ("psi_true", "psi_est", "omega", "control_output"):
        assert getattr(patched, name).tobytes() == \
            getattr(plain, name).tobytes()
    assert (patched_plant.psi, patched_plant.omega) == (plain_plant.psi,
                                                        plain_plant.omega)


def test_the_step_by_step_path_runs_the_public_pd_law(monkeypatch):
    # The at-rest exploding-gains run leaves the scan for the per-step
    # path, which forms each of its 600 commands through the law.
    calls = double_kp_law(monkeypatch)
    plant = YawPlant(inertia=1.0)
    trace = simulate_closed_loop(plant, ControllerConfig(kp=5e5, kd=0.0),
                                 duration=60.0, dt=0.1)
    assert calls.count(5e5) >= 600
    for column in (trace.psi_true, trace.psi_est, trace.omega,
                   trace.control_output):
        assert column.size == 600 and not np.any(column)
    assert (plant.psi, plant.omega) == (0.0, 0.0)


def shift_setpoints(monkeypatch):
    """Swap in a setpoint lookup whose headings are 5 degrees higher."""
    lookup = ControllerConfig.setpoint_at
    monkeypatch.setattr(ControllerConfig, "setpoint_at",
                        lambda self, t: lookup(self, t) + 5.0)


def raised(schedule):
    return tuple((t_k, v + 5.0) for t_k, v in schedule)


def test_the_scan_reads_the_schedule_through_setpoint_at(monkeypatch):
    # An edit to setpoint_at reaches the scan: adding 5 degrees in the
    # lookup is adding them to every heading of the schedule.
    kwargs = dict(duration=2.5, dt=0.001, gyro_sigma=3.0, gyro_bias=0.2,
                  seed=17)
    schedule = SCHEDULES["unsorted"]
    plain_plant = YawPlant(inertia=0.8, omega=2.0, disturbance=-0.4)
    plain = simulate_closed_loop(
        plain_plant, ControllerConfig(kp=4.0, kd=2.5, cutoff_hz=12.0,
                                      setpoint_schedule=raised(schedule)),
        **kwargs)
    shift_setpoints(monkeypatch)
    patched_plant = YawPlant(inertia=0.8, omega=2.0, disturbance=-0.4)
    patched = simulate_closed_loop(
        patched_plant, ControllerConfig(kp=4.0, kd=2.5, cutoff_hz=12.0,
                                        setpoint_schedule=schedule), **kwargs)
    for name in ("psi_true", "psi_est", "omega", "control_output"):
        assert getattr(patched, name).tobytes() == \
            getattr(plain, name).tobytes()
    assert (patched_plant.psi, patched_plant.omega) == (plain_plant.psi,
                                                        plain_plant.omega)


def test_the_step_by_step_path_reads_the_schedule_through_setpoint_at(
        monkeypatch):
    # The anti-damped run leaves the scan for the per-step path; its
    # divergence step and the state it leaves follow the patched lookup.
    schedule = ((0.0, 10.0), (200.0, -30.0))
    plain_plant = YawPlant(inertia=1.0, omega=1.0)
    with pytest.raises(RuntimeError) as plain:
        simulate_closed_loop(plain_plant, ControllerConfig(
            kp=4.0, kd=-3.0, setpoint_schedule=raised(schedule)),
            duration=600.0, dt=0.1)
    shift_setpoints(monkeypatch)
    patched_plant = YawPlant(inertia=1.0, omega=1.0)
    with pytest.raises(RuntimeError) as patched:
        simulate_closed_loop(patched_plant, ControllerConfig(
            kp=4.0, kd=-3.0, setpoint_schedule=schedule),
            duration=600.0, dt=0.1)
    assert str(patched.value) == str(plain.value)
    assert np.array([patched_plant.psi, patched_plant.omega]).tobytes() == \
        np.array([plain_plant.psi, plain_plant.omega]).tobytes()


@pytest.mark.parametrize("kp, kd", [
    (1e6, 0.0),     # diverges within the first chunk of steps
    (4.0, -3.0),    # anti-damped: diverges at step 5 405
    (4.0, -1.0),    # less anti-damped: diverges in the second chunk
])
def test_divergence_step_and_final_state_match_replay(kp, kd):
    config = ControllerConfig(kp=kp, kd=kd)
    fast_plant = YawPlant(inertia=1.0, omega=1.0)
    slow_plant = YawPlant(inertia=1.0, omega=1.0)
    with pytest.raises(RuntimeError) as fast:
        simulate_closed_loop(fast_plant, config, duration=3000.0, dt=0.1)
    with pytest.raises(RuntimeError) as slow:
        replay_closed_loop(slow_plant, config, duration=3000.0, dt=0.1)
    assert str(fast.value) == str(slow.value)
    assert "step" in str(fast.value)
    # The diverged state, not the initial one, is left in the plant.
    assert not math.isfinite(fast_plant.psi) or \
        not math.isfinite(fast_plant.omega)
    assert np.array_equal([fast_plant.psi, fast_plant.omega],
                          [slow_plant.psi, slow_plant.omega],
                          equal_nan=True)


def test_run_over_the_step_cap_is_rejected():
    config = ControllerConfig(kp=4.0, kd=2.5)
    with pytest.raises(ValueError, match=f"limit of {MAX_STEPS}"):
        simulate_closed_loop(YawPlant(inertia=1.0), config,
                             duration=float(MAX_STEPS + 1), dt=1.0)


def test_negative_gyro_noise_sigma_is_rejected():
    config = ControllerConfig(kp=4.0, kd=2.5)
    with pytest.raises(ValueError, match="gyro sigma must be at least "
                                         "0, got -2.0"):
        simulate_closed_loop(YawPlant(inertia=1.0), config, duration=0.1,
                             dt=0.01, gyro_sigma=-2.0)


@pytest.mark.parametrize("sigma", [math.inf, math.nan])
def test_non_finite_gyro_noise_sigma_is_rejected(sigma):
    # Unchecked, an infinite sigma fails as the compute error "closed-loop
    # state diverged at step 0".
    config = ControllerConfig(kp=4.0, kd=2.5)
    with pytest.raises(ValueError, match=f"gyro sigma must be finite and "
                                         f"at least 0, got {sigma}"):
        simulate_closed_loop(YawPlant(inertia=1.0), config, duration=0.1,
                             dt=0.01, gyro_sigma=sigma)


@pytest.mark.parametrize("bias", [math.nan, math.inf])
def test_non_finite_gyro_bias_is_rejected(bias):
    # Unchecked, it fails as the compute error "closed-loop state
    # diverged at step 0".
    with pytest.raises(ValueError, match=f"gyro bias must be finite, "
                                         f"got {bias}"):
        simulate_closed_loop(YawPlant(1.0), ControllerConfig(1.0, 1.0), 0.1,
                             0.01, 0.0, bias)


@pytest.mark.parametrize("schedule", [(), ((0.0,),), ((0.0, 1.0, 2.0),),
                                      ((0.0, math.nan),), ((math.inf, 1.0),)])
def test_controller_rejects_a_schedule_the_loop_cannot_look_up(schedule):
    # Unchecked, an empty schedule reaches the loop's setpoint lookup and
    # fails there with an IndexError.
    with pytest.raises(ValueError, match="setpoint schedule must be a "
                                         "non-empty sequence of finite"):
        ControllerConfig(kp=4.0, kd=2.5, setpoint_schedule=schedule)
