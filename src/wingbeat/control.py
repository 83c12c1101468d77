"""Gyro-only yaw stabilization: PD law on an integrated, low-pass-filtered rate.

Heading feedback without a magnetometer: the yaw rate from the gyro is
low-pass filtered, integrated into a heading estimate for the proportional
term, and used directly for the damping term. A constant rate bias
therefore drifts the heading estimate linearly; that limitation is part of
the design and shows up in the closed-loop demo.

Angle units are the caller's choice (the law is linear); the closed-loop
simulator works in degrees to match its trace format.

The filter, the heading integrator, the PD law and the plant are small
public pieces, and :func:`simulate_closed_loop` runs them, with one
:meth:`ControllerConfig.setpoint_at` call per chunk of steps. The law is
linear, so the simulator takes the matrix of one step through the pieces
and scans the run as an affine recurrence, a chunk of steps at a time;
its trace matches a step-by-step replay to rounding, not bit for bit. A
run that overflows is redone step by step through the pieces, bit for
bit as the replay, so that it fails at the replay's step.
The trace is one (steps x 5) table, which
:func:`wingbeat.harness.write_control` writes as it is.
"""

from dataclasses import dataclass
import math

import numpy as np

# Steps per chunk of the closed-loop simulation. On a 60 000-step run the
# scan alone took 9.8 ms at 1 024 steps a chunk, and 7.2, 7.6, 7.0 and
# 8.3 ms at 2 048, 4 096, 8 192 and 16 384 (best of 15, 2-core x86 VM,
# Python 3.11, numpy 2.4).
CHUNK_STEPS = 8192
# Rows per sub-chunk of the closed-loop scan: log2 of it doubling passes,
# and A^SCAN_ROWS the highest power of the step matrix it forms.
SCAN_ROWS = 256
# Upper limit on the steps of one closed-loop run: its (steps x 5) float64
# trace table takes 40 bytes a step, 400 MB at the limit.
MAX_STEPS = 10_000_000


def low_pass_coefficient(cutoff_hz, dt):
    """First-order IIR blend factor for a given cutoff and sample time.

    Exact pole mapping: beta = 1 - exp(-2 pi fc dt), in (0, 1].
    """
    if not (cutoff_hz > 0.0 and dt > 0.0):
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
    if not dt > 0.0:
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
        if not self.inertia > 0.0:
            raise ValueError("yaw inertia must be positive")
        for name in ("psi", "omega", "disturbance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"yaw plant {name} must be finite")

    def step(self, torque, dt):
        self.omega += (torque + self.disturbance) / self.inertia * dt
        self.psi += self.omega * dt


@dataclass(frozen=True)
class ControllerConfig:
    """Gains, filter cutoff, actuator gain, and setpoint schedule.

    ``setpoint_schedule`` is a non-empty sequence of finite (time, heading)
    pairs. :meth:`setpoint_at` reads it at a time (a float) or an array of
    times (an array), taking entries in order until one lies after the
    time; entry 0 holds before its own time. The gains must be finite,
    the cutoff positive and a setpoint time not NaN (ValueError).
    """

    kp: float
    kd: float
    cutoff_hz: float = 10.0
    plant_gain: float = 1.0
    setpoint_schedule: tuple = ((0.0, 0.0),)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.kp, self.kd, self.plant_gain))):
            raise ValueError("gains kp, kd and plant_gain must be finite")
        if not self.cutoff_hz > 0.0:
            raise ValueError("filter cutoff must be positive")
        if not self.setpoint_schedule or any(
                len(pair) != 2 or not all(map(math.isfinite, pair))
                for pair in self.setpoint_schedule):
            raise ValueError("setpoint schedule must be a non-empty sequence "
                             "of finite (time, heading) pairs")

    def setpoint_at(self, t):
        times = np.asarray(t, dtype=float)
        if np.isnan(times).any():
            raise ValueError(f"setpoint time must not be NaN, got {t}")
        # Entry j is reached once t is at or past the times of entries
        # 0..j, their running maximum.
        schedule = np.array(self.setpoint_schedule, dtype=float)
        reached = np.maximum.accumulate(schedule[:, 0])
        active = np.searchsorted(reached, times, side="right") - 1
        headings = schedule[np.maximum(active, 0), 1]
        return headings if times.ndim else float(headings)


@dataclass(frozen=True)
class ControlTrace:
    """Closed-loop history; angles in degrees, rates in degrees/second.

    ``table`` holds one row a step, in the columns of ``control_trace.csv``:
    time, true heading, estimated heading, rate and control output. The
    attributes ``t``, ``psi_true``, ``psi_est``, ``omega`` and
    ``control_output`` are views of its columns, so a value written
    through one shows in ``table``. A table that is not 2-D with 5 columns
    raises ValueError.
    """

    table: np.ndarray

    def __post_init__(self):
        if self.table.ndim != 2 or self.table.shape[1] != 5:
            raise ValueError(f"control trace table must have 5 columns, got "
                             f"shape {self.table.shape}")

    t = property(lambda self: self.table[:, 0])
    psi_true = property(lambda self: self.table[:, 1])
    psi_est = property(lambda self: self.table[:, 2])
    omega = property(lambda self: self.table[:, 3])
    control_output = property(lambda self: self.table[:, 4])


def closed_loop_grid(cutoff_hz, duration, dt, gyro_sigma=0.0, gyro_bias=0.0):
    """Steps and low-pass coefficient of a closed-loop run; ValueError
    for a bad duration, time step, step count, cutoff, gyro sigma or bias,
    or a coefficient that rounds to 0."""
    if not 0.0 < dt <= duration < dt * 2**53:
        raise ValueError("duration and time step must be positive, and the "
                         "duration at least one time step and finitely many")
    n = int(round(duration / dt))
    if n > MAX_STEPS:
        raise ValueError(f"duration / time step gives {n} steps, more than "
                         f"the limit of {MAX_STEPS}")
    if not 0.0 <= gyro_sigma < math.inf:
        rule = "at least 0" if gyro_sigma < 0.0 else "finite and at least 0"
        raise ValueError(f"gyro sigma must be {rule}, got {gyro_sigma}")
    if not math.isfinite(gyro_bias):
        raise ValueError(f"gyro bias must be finite, got {gyro_bias}")
    beta = low_pass_coefficient(cutoff_hz, dt)
    if not beta > 0.0:
        raise ValueError(f"filter coefficient 1 - exp(-2 pi cutoff_hz dt_s) "
                         f"rounds to 0 at cutoff_hz {cutoff_hz} and dt_s {dt}")
    return n, beta


def _loop_step(lpf, plant, estimate, measured, setpoint, config, dt):
    """One loop step through the public pieces: low-pass the measured
    rate with ``lpf``, integrate it into the heading estimate, form the
    PD command against a zero rate setpoint and step ``plant`` by
    ``config.plant_gain * command``. Returns (estimate, command)."""
    rate_filtered = lpf.update(measured)
    estimate = integrate_yaw(estimate, rate_filtered, dt)
    command = yaw_control_output(config.kp, config.kd, setpoint, estimate,
                                 0.0, rate_filtered)
    plant.step(config.plant_gain * command, dt)
    return estimate, command


def _transition(beta, dt, config, plant):
    """A (4 x 4) and B (4 x 3) of one loop step, s' = A s + B u.

    The state s is (filtered rate, heading estimate, rate, heading) and
    the input u is (gyro bias + noise, setpoint, 1). Column j is
    :func:`_loop_step` from column j of the identity, the disturbance
    of ``plant`` scaled by its "1" input.
    """
    columns = []
    for y, estimate, rate, psi, offset, setpoint, one in np.eye(7).tolist():
        lpf = LowPassFilter(beta, y)
        probe = YawPlant(plant.inertia, psi, rate, plant.disturbance * one)
        estimate, _ = _loop_step(lpf, probe, estimate, rate + offset,
                                 setpoint, config, dt)
        columns.append((lpf.y, estimate, probe.omega, probe.psi))
    step = np.array(columns).T
    return step[:, :4], step[:, 4:]


def _chunk_inputs(config, t, gyro_sigma, seed):
    """(start, stop, setpoints, noise) of each ``CHUNK_STEPS`` chunk of
    the time grid ``t``; ``noise`` is None without gyro noise."""
    rng = np.random.default_rng(seed)
    for start in range(0, t.size, CHUNK_STEPS):
        stop = min(start + CHUNK_STEPS, t.size)
        noise = (rng.normal(0.0, gyro_sigma, stop - start)
                 if gyro_sigma > 0.0 else None)
        yield start, stop, config.setpoint_at(t[start:stop]), noise


def simulate_closed_loop(plant, config, duration, dt,
                         gyro_sigma=0.0, gyro_bias=0.0, seed=0):
    """Run the yaw loop against a noisy gyro on an inertia plant.

    Per step: sample the gyro (true rate + bias + Gaussian noise), low-pass
    it, integrate the filtered rate into the heading estimate, form the PD
    command, and apply plant_gain * command as torque. The heading
    estimate starts at 0, and the rate setpoint is 0.

    A step is affine, s' = A s + B u: :func:`_transition` takes A and B
    from one step through :class:`LowPassFilter`, :func:`integrate_yaw`,
    :func:`yaw_control_output` and :meth:`YawPlant.step`, and the trace
    is a read-out of s_k, s_{k+1} and the setpoint, the command through
    :func:`yaw_control_output`. The setpoints take one
    :meth:`ControllerConfig.setpoint_at` call per chunk of
    ``CHUNK_STEPS`` steps, and the noise one batched draw per chunk (the
    same numbers as one draw per step). A chunk's sub-chunks of
    ``SCAN_ROWS`` steps are scanned all at once by doubling, and their
    starts carried with A^SCAN_ROWS, the highest power formed; no
    temporary outgrows a chunk. The scan sums in another
    order than a step-by-step replay through the pieces, so the trace
    matches that replay to rounding, not bit for bit: within 1e-13 of
    each column's largest magnitude on a damped loop, and about 1e-12 on
    a lightly damped 60 000-step one. If a scanned value is not finite,
    the run is redone from step 0 through the pieces one step at a time:
    a diverging run fails at the replay's step, and a run whose state
    stays 0 keeps its exact zeros, where the scan would form inf * 0.
    The final state is left in ``plant``, also when the run diverges.

    Raises ValueError for inputs :func:`closed_loop_grid` rejects, and
    RuntimeError (with the step index) if the state diverges.
    """
    n, beta = closed_loop_grid(config.cutoff_hz, duration, dt, gyro_sigma,
                               gyro_bias)
    trace = ControlTrace(np.empty((n, 5)))
    np.multiply(np.arange(n), dt, out=trace.t)
    # Overflow in the scan shows as a non-finite value, which it reports.
    with np.errstate(all="ignore"):
        state = _scan_closed_loop(plant, config, dt, trace, beta, gyro_sigma,
                                  gyro_bias, seed)
    if state is None:
        return _step_closed_loop(plant, config, dt, trace, beta, gyro_sigma,
                                 gyro_bias, seed)
    plant.psi, plant.omega = state[3], state[2]
    return trace


def _scan_closed_loop(plant, config, dt, trace, beta, gyro_sigma, gyro_bias,
                      seed):
    """:func:`simulate_closed_loop` as a scan into ``trace``: the final
    state as floats, or None at the first chunk with a non-finite value.
    """
    a, b = _transition(beta, dt, config, plant)
    # powers[j] = A^(j + 1), one factor at a time: repeated squaring
    # doubles a power's rounding error with it, which drifted the heading
    # of a 60 000-step run by 2e-12, against 2e-13 this way.
    powers = np.empty((SCAN_ROWS, 4, 4))
    powers[0] = a
    for j in range(1, SCAN_ROWS):
        np.matmul(a, powers[j - 1], out=powers[j])
    # starts @ lift adds A^(j + 1) s to step j of each sub-chunk.
    lift = powers.transpose(2, 1, 0).reshape(4, 4 * SCAN_ROWS)
    state = np.array([0.0, 0.0, plant.omega, plant.psi])
    table = trace.table
    for start, stop, setpoints, noise in _chunk_inputs(config, trace.t,
                                                       gyro_sigma, seed):
        m = stop - start
        subs = -(-m // SCAN_ROWS)
        inputs = np.zeros((3, subs * SCAN_ROWS))
        inputs[0, :m] = gyro_bias if noise is None else gyro_bias + noise
        inputs[1, :m] = setpoints
        inputs[2, :m] = 1.0
        # z[q, :, j]: the state after step j of sub-chunk q. The scan
        # first makes it the sum of A^(j - i) B u_i over the sub-chunk's
        # steps i <= j, the state from a zero start.
        z = np.ascontiguousarray(
            (b @ inputs).reshape(4, subs, SCAN_ROWS).transpose(1, 0, 2))
        d = 1
        while d < SCAN_ROWS:
            z[:, :, d:] += powers[d - 1] @ z[:, :, :-d]
            d *= 2
        starts = np.empty((subs, 4))
        starts[0] = state
        for q in range(1, subs):
            starts[q] = powers[-1] @ starts[q - 1] + z[q - 1, :, -1]
        z += (starts @ lift).reshape(subs, 4, SCAN_ROWS)
        # Rows: filtered rate, estimate, rate and heading after each step.
        after = z.transpose(1, 0, 2).reshape(4, -1)[:, :m]
        control = yaw_control_output(config.kp, config.kd, setpoints,
                                     after[1], 0.0, after[0])
        if not (np.isfinite(after).all() and np.isfinite(control).all()):
            return None
        # Heading and rate before each step: the chunk's start, then the
        # states after all but its last step.
        table[start, [1, 3]] = state[3], state[2]
        table[start + 1:stop, 1] = after[3, :-1]
        table[start + 1:stop, 3] = after[2, :-1]
        table[start:stop, 2] = after[1]
        table[start:stop, 4] = control
        state = after[:, -1]
    return state.tolist()


def _step_closed_loop(plant, config, dt, trace, beta, gyro_sigma, gyro_bias,
                      seed):
    """:func:`simulate_closed_loop` one step at a time into ``trace``:
    :func:`_loop_step` on ``plant`` itself, so that the trace, a
    divergence's step and the state left in ``plant`` equal a
    step-by-step replay through the public pieces bit for bit.
    """
    lpf, estimate = LowPassFilter(beta), 0.0
    for start, stop, setpoints, noise in _chunk_inputs(config, trace.t,
                                                       gyro_sigma, seed):
        # Python floats: numpy scalars warn when the state overflows.
        setpoints = setpoints.tolist()
        if noise is not None:
            noise = noise.tolist()
        rows = []
        for i, k in enumerate(range(start, stop)):
            measured = plant.omega + gyro_bias
            if noise is not None:
                measured += noise[i]
            psi, omega = plant.psi, plant.omega
            estimate, command = _loop_step(lpf, plant, estimate, measured,
                                           setpoints[i], config, dt)
            rows.append((psi, estimate, omega, command))
            if not (math.isfinite(plant.psi) and math.isfinite(plant.omega)):
                raise RuntimeError(f"closed-loop state diverged at step {k}")
        trace.table[start:stop, 1:] = rows
    return trace
