"""Gyro-only yaw stabilization: PD law on an integrated, low-pass-filtered rate.

Heading feedback without a magnetometer: the yaw rate from the gyro is
low-pass filtered, integrated into a heading estimate for the proportional
term, and used directly for the damping term. A constant rate bias
therefore drifts the heading estimate linearly; that limitation is part of
the design and shows up in the closed-loop demo.

Angle units are the caller's choice (the law is linear); the closed-loop
simulator works in degrees to match its trace format.
"""

from dataclasses import dataclass
import math

import numpy as np

from .harness import float_table_rows, write_csv


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
    rate_setpoint: float = 0.0
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

    CSV_FIELDS = ("t_s", "psi_true_deg", "psi_est_deg", "omega_dps",
                  "control_output")

    def to_csv(self, path):
        write_csv(path, self.CSV_FIELDS, float_table_rows((
            self.t, self.psi_true, self.psi_est, self.omega,
            self.control_output)))


def simulate_closed_loop(plant, config, duration, dt,
                         gyro_sigma=0.0, gyro_bias=0.0, seed=0,
                         psi_est0=0.0):
    """Run the yaw loop against a noisy gyro on an inertia plant.

    Per step: sample the gyro (true rate + bias + Gaussian noise), low-pass
    it, integrate the filtered rate into the heading estimate, form the PD
    command, and apply plant_gain * command as torque.

    Raises RuntimeError (with the step index) if the state diverges.
    """
    if dt <= 0.0 or duration <= 0.0:
        raise ValueError("duration and time step must be positive")
    n = int(round(duration / dt))
    rng = np.random.default_rng(seed)
    lpf = LowPassFilter(low_pass_coefficient(config.cutoff_hz, dt))

    t = np.arange(n) * dt
    psi_true = np.empty(n)
    psi_est = np.empty(n)
    omega = np.empty(n)
    control = np.empty(n)

    estimate = psi_est0
    for k in range(n):
        measured = plant.omega + gyro_bias
        if gyro_sigma > 0.0:
            measured += rng.normal(0.0, gyro_sigma)
        rate_filtered = lpf.update(measured)
        estimate = integrate_yaw(estimate, rate_filtered, dt)
        command = yaw_control_output(config.kp, config.kd,
                                     config.setpoint_at(t[k]), estimate,
                                     config.rate_setpoint, rate_filtered)
        psi_true[k] = plant.psi
        psi_est[k] = estimate
        omega[k] = plant.omega
        control[k] = command
        plant.step(config.plant_gain * command, dt)
        if not (math.isfinite(plant.psi) and math.isfinite(plant.omega)):
            raise RuntimeError(f"closed-loop state diverged at step {k}")

    return ControlTrace(t=t, psi_true=psi_true, psi_est=psi_est,
                        omega=omega, control_output=control)
