"""Gyro-only yaw stabilization: PD law on an integrated, low-pass-filtered rate.

Heading feedback without a magnetometer: the yaw rate from the gyro is
low-pass filtered, integrated into a heading estimate for the proportional
term, and used directly for the damping term. A constant rate bias
therefore drifts the heading estimate linearly; that limitation is part of
the design and shows up in the closed-loop demo.

Angle units are the caller's choice (the law is linear); the closed-loop
simulator works in degrees to match its trace format.

The filter, the heading integrator, the PD law, the plant and the
setpoint schedule are small public pieces: they are the documented
per-step law. :func:`simulate_closed_loop` does not call them per step.
It inlines the same arithmetic, in the same order, on local floats, and
runs it in chunks of steps with one batched noise draw and one vectorised
setpoint lookup per chunk; its trace equals a step-by-step replay through
the pieces bit for bit. :func:`wingbeat.harness.write_control` writes
the trace.
"""

from dataclasses import dataclass
import math

import numpy as np

# Steps per chunk of the closed-loop simulation.
CHUNK_STEPS = 1024
# Upper limit on the steps of one closed-loop run: its five float64
# arrays take 40 bytes a step, 400 MB at the limit.
MAX_STEPS = 10_000_000


def low_pass_coefficient(cutoff_hz, dt):
    """First-order IIR blend factor for a given cutoff and sample time.

    Exact pole mapping: beta = 1 - exp(-2 pi fc dt), in (0, 1].
    """
    if cutoff_hz <= 0.0 or dt <= 0.0:
        raise ValueError("cutoff and sample time must be positive")
    return 1.0 - math.exp(-2.0 * math.pi * cutoff_hz * dt)


@dataclass
class LowPassFilter:
    """y_k = (1 - beta) * y_{k-1} + beta * x_k."""

    beta: float
    y: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("filter coefficient must lie in (0, 1]")

    def update(self, x):
        self.y = (1.0 - self.beta) * self.y + self.beta * x
        return self.y


def integrate_yaw(psi_prev, rate_filtered, dt):
    """Explicit-Euler heading update, exact for piecewise-constant rates."""
    if dt <= 0.0:
        raise ValueError("time step must be positive")
    return psi_prev + rate_filtered * dt


def yaw_control_output(kp, kd, psi_setpoint, psi_estimate,
                       rate_setpoint, rate_filtered):
    """PD yaw command: kp * heading error + kd * rate error."""
    return (kp * (psi_setpoint - psi_estimate)
            + kd * (rate_setpoint - rate_filtered))


@dataclass
class YawPlant:
    """Single-axis rigid body: inertia * omega_dot = torque + disturbance."""

    inertia: float
    psi: float = 0.0
    omega: float = 0.0
    disturbance: float = 0.0

    def __post_init__(self):
        if self.inertia <= 0.0:
            raise ValueError("yaw inertia must be positive")

    def step(self, torque, dt):
        self.omega += (torque + self.disturbance) / self.inertia * dt
        self.psi += self.omega * dt


@dataclass(frozen=True)
class ControllerConfig:
    """Gains, filter cutoff, actuator gain, and setpoint schedule.

    ``setpoint_schedule`` is a sequence of (time, heading) pairs; the
    active setpoint is the last entry at or before the current time.
    """

    kp: float
    kd: float
    cutoff_hz: float = 10.0
    plant_gain: float = 1.0
    setpoint_schedule: tuple = ((0.0, 0.0),)

    def setpoint_at(self, t):
        value = self.setpoint_schedule[0][1]
        for t_k, v in self.setpoint_schedule:
            if t_k <= t:
                value = v
            else:
                break
        return value

    def closed_loop_eigenvalues(self, inertia):
        """Eigenvalues of the ideal (unfiltered) PD loop on the inertia."""
        system = np.array([[0.0, 1.0],
                           [-self.plant_gain * self.kp / inertia,
                            -self.plant_gain * self.kd / inertia]])
        return np.linalg.eigvals(system)


@dataclass(frozen=True)
class ControlTrace:
    """Closed-loop history; angles in degrees, rates in degrees/second."""

    t: np.ndarray
    psi_true: np.ndarray
    psi_est: np.ndarray
    omega: np.ndarray
    control_output: np.ndarray


def simulate_closed_loop(plant, config, duration, dt,
                         gyro_sigma=0.0, gyro_bias=0.0, seed=0):
    """Run the yaw loop against a noisy gyro on an inertia plant.

    Per step: sample the gyro (true rate + bias + Gaussian noise), low-pass
    it, integrate the filtered rate into the heading estimate, form the PD
    command, and apply plant_gain * command as torque. The heading
    estimate starts at 0, and the rate setpoint is 0.

    The loop is the per-step law of :class:`LowPassFilter`,
    :func:`integrate_yaw`, :func:`yaw_control_output`,
    :meth:`YawPlant.step` and :meth:`ControllerConfig.setpoint_at`,
    inlined on local floats with the same arithmetic in the same order,
    so the trace equals a step-by-step replay through them bit for bit.
    It runs in chunks of ``CHUNK_STEPS``: one batched noise draw per
    chunk (the same numbers as one draw per step) and one vectorised
    setpoint lookup, so no temporary outgrows a chunk. The final state is
    written back to ``plant``, also when the run diverges.

    Raises ValueError for more than ``MAX_STEPS`` steps, and RuntimeError
    (with the step index) if the state diverges.
    """
    if not 0.0 < dt <= duration < dt * 2**53:
        raise ValueError("duration and time step must be positive, and the "
                         "duration at least one time step and finitely many")
    n = int(round(duration / dt))
    if n > MAX_STEPS:
        raise ValueError(f"duration / time step gives {n} steps, more than "
                         f"the limit of {MAX_STEPS}")
    rng = np.random.default_rng(seed)
    beta = LowPassFilter(low_pass_coefficient(config.cutoff_hz, dt)).beta
    keep = 1.0 - beta
    kp, kd, gain = config.kp, config.kd, config.plant_gain
    inertia, disturbance = plant.inertia, plant.disturbance
    noisy = gyro_sigma > 0.0
    # setpoint_at as a lookup: entry j is reached once t is at or past
    # every time of entries 0..j, their running maximum; entry 0 holds
    # before its own time.
    schedule_t = np.maximum.accumulate(
        [float(t_k) for t_k, _ in config.setpoint_schedule])
    schedule_v = np.array([v for _, v in config.setpoint_schedule],
                          dtype=float)

    t = np.arange(n) * dt
    psi_true = np.empty(n)
    psi_est = np.empty(n)
    omega = np.empty(n)
    control = np.empty(n)

    psi, rate, estimate, y = plant.psi, plant.omega, 0.0, 0.0
    isfinite = math.isfinite
    try:
        for start in range(0, n, CHUNK_STEPS):
            stop = min(start + CHUNK_STEPS, n)
            active = np.searchsorted(schedule_t, t[start:stop],
                                     side="right") - 1
            setpoints = schedule_v[np.maximum(active, 0)].tolist()
            noise = (rng.normal(0.0, gyro_sigma, stop - start).tolist()
                     if noisy else None)
            for i, k in enumerate(range(start, stop)):
                measured = rate + gyro_bias
                if noisy:
                    measured += noise[i]
                y = keep * y + beta * measured
                estimate = estimate + y * dt
                # Zero rate setpoint as 0.0 - y: -y would give -0.0 at y = 0.
                command = kp * (setpoints[i] - estimate) + kd * (0.0 - y)
                psi_true[k] = psi
                psi_est[k] = estimate
                omega[k] = rate
                control[k] = command
                rate += (gain * command + disturbance) / inertia * dt
                psi += rate * dt
                if not (isfinite(psi) and isfinite(rate)):
                    raise RuntimeError(
                        f"closed-loop state diverged at step {k}")
    finally:
        plant.psi, plant.omega = psi, rate

    return ControlTrace(t=t, psi_true=psi_true, psi_est=psi_est,
                        omega=omega, control_output=control)
