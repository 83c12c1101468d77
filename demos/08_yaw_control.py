"""Gyro-only yaw stabilization on a single-axis plant.

Closes the loop with the PD law on a low-pass-filtered, integrated yaw
rate: a heading step with noisy gyro samples, then the failure mode the
magnetometer-free approach accepts, a constant rate bias drifting the
heading estimate.
"""

import os

import numpy as np

from wingbeat import ControllerConfig, YawPlant, simulate_closed_loop
from wingbeat.harness import write_control

config = ControllerConfig(kp=4.0, kd=2.5, cutoff_hz=10.0,
                          setpoint_schedule=((0.0, 0.0), (1.0, 30.0),
                                             (6.0, -20.0)))
plant = YawPlant(inertia=1.0)
trace = simulate_closed_loop(plant, config, duration=10.0, dt=0.01,
                             gyro_sigma=2.0, seed=11)

os.makedirs("demos/out", exist_ok=True)
write_control("demos/out", trace)
print("heading steps +30 deg at t=1 s and -20 deg at t=6 s, "
      "gyro noise 2 deg/s -> demos/out/control_trace.csv")

print("\n  t s   setpoint   true    estimate  (deg)")
for t_probe in (0.5, 2.0, 4.0, 5.9, 8.0, 9.9):
    k = int(round(t_probe / 0.01))
    print(f"{trace.t[k]:6.2f} {config.setpoint_at(trace.t[k]):9.1f} "
          f"{trace.psi_true[k]:8.2f} {trace.psi_est[k]:8.2f}")

err = trace.psi_true[-1] - config.setpoint_at(trace.t[-1])
print(f"final tracking error {err:+.2f} deg with noisy gyro samples")

# The cost of dropping the magnetometer: rate bias integrates into drift.
quiet = ControllerConfig(kp=0.0, kd=0.0)
drift = simulate_closed_loop(YawPlant(inertia=1.0), quiet, duration=30.0,
                             dt=0.01, gyro_bias=0.5)
slope = np.polyfit(drift.t, drift.psi_est, 1)[0]
print(f"\nwith a 0.5 deg/s gyro bias and the vehicle at rest, the heading")
print(f"estimate drifts at {slope:.3f} deg/s while the true heading stays "
      f"at {drift.psi_true[-1]:.2f} deg")
print("gyro-only heading trades absolute reference for calibration-free use")
