"""Yaw loop: filter, heading integration, PD law, closed-loop behaviour."""

import math

import numpy as np
import pytest

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


def test_closed_loop_eigenvalues_negative_for_positive_gains():
    config = ControllerConfig(kp=4.0, kd=2.5)
    eig = config.closed_loop_eigenvalues(inertia=1.0)
    assert np.all(eig.real < 0.0)


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
    estimate = 0.0
    for k in range(n):
        measured = plant.omega + gyro_bias
        if gyro_sigma > 0.0:
            measured += rng.normal(0.0, gyro_sigma)
        rate_filtered = lpf.update(measured)
        estimate = integrate_yaw(estimate, rate_filtered, dt)
        command = yaw_control_output(config.kp, config.kd,
                                     config.setpoint_at(out[0, k]), estimate,
                                     0.0, rate_filtered)
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


@pytest.mark.parametrize("schedule", SCHEDULES.values(), ids=SCHEDULES)
@pytest.mark.parametrize("gyro_sigma", [0.0, 3.0])
def test_fast_loop_equals_step_by_step_replay(schedule, gyro_sigma):
    # 2500 steps: two full chunks of the fast loop and a partial one.
    config = ControllerConfig(kp=4.0, kd=2.5, cutoff_hz=12.0,
                              plant_gain=1.3, setpoint_schedule=schedule)
    kwargs = dict(duration=2.5, dt=0.001, gyro_sigma=gyro_sigma,
                  gyro_bias=0.2, seed=17)
    fast_plant = YawPlant(inertia=0.8, omega=2.0, disturbance=-0.4)
    slow_plant = YawPlant(inertia=0.8, omega=2.0, disturbance=-0.4)
    trace = simulate_closed_loop(fast_plant, config, **kwargs)
    want = replay_closed_loop(slow_plant, config, **kwargs)
    assert trace.t.size == 2500
    got = (trace.t, trace.psi_true, trace.psi_est, trace.omega,
           trace.control_output)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert (fast_plant.psi, fast_plant.omega) == (slow_plant.psi,
                                                  slow_plant.omega)


@pytest.mark.parametrize("kp, kd", [
    (1e6, 0.0),     # diverges within the first chunk of steps
    (4.0, -3.0),    # anti-damped: diverges in the sixth chunk
])
def test_divergence_step_and_final_state_match_replay(kp, kd):
    config = ControllerConfig(kp=kp, kd=kd)
    fast_plant = YawPlant(inertia=1.0, omega=1.0)
    slow_plant = YawPlant(inertia=1.0, omega=1.0)
    with pytest.raises(RuntimeError) as fast:
        simulate_closed_loop(fast_plant, config, duration=600.0, dt=0.1)
    with pytest.raises(RuntimeError) as slow:
        replay_closed_loop(slow_plant, config, duration=600.0, dt=0.1)
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
