"""Stroke-amplitude and wing-area design study with matched-lift trims.

Runs the full amplitude x area grid at a few frequencies, exports the
plot-ready table, then compares configurations the way the wing-selection
experiment does: trim each one to the same lift and compare
lift-to-aero-power and trim frequency.
"""

import math
import os

from wingbeat import GRAM_FORCE_NEWTONS, lift_to_power, standard_wing
from wingbeat.config import StudyConfig
from wingbeat.harness import hover_trim, run_sweep

# The base study: the 25.5 cm^2 wing at 17.3 Hz and 190 deg, swept over
# amplitudes 120/190 deg, areas 20.1/25.5/31.4 cm^2 and 14/17.3/20 Hz.
config = StudyConfig.from_file(os.path.join(os.path.dirname(__file__),
                                            "configs", "study.json"))

result = run_sweep(config)
os.makedirs("demos/out", exist_ok=True)
result.to_csv("demos/out/sweep.csv")
result.to_json("demos/out/sweep.json")
print(f"{len(result.rows)} grid points -> demos/out/sweep.csv")
print(f"{'amp deg':>8} {'area cm2':>9} {'f Hz':>6} {'lift gf':>8} "
      f"{'P_aero W':>9} {'gf/W':>6}")
for row in result.rows:
    print(f"{row.amplitude_deg:8.0f} {row.area_cm2:9.1f} "
          f"{row.frequency_hz:6.1f} {row.mean_lift_gf:8.2f} "
          f"{row.aero_power_w:9.2f} {row.lift_to_power_gf_w:6.2f}")

print("\nMatched-lift comparison at 15.8 gf (the robot's weight):")
target = 15.8 * GRAM_FORCE_NEWTONS
env = config.environment
kin190 = config.kinematics
kin120 = kin190.with_stroke_amplitude(math.radians(120.0))
print(f"{'configuration':>26} {'trim Hz':>8} {'gf/W':>6}")
for label, wing_area, kin in (("120 deg, 25.5 cm^2", 25.5, kin120),
                              ("190 deg, 20.1 cm^2", 20.1, kin190),
                              ("190 deg, 25.5 cm^2", 25.5, kin190),
                              ("190 deg, 31.4 cm^2", 31.4, kin190)):
    wing = standard_wing(wing_area)
    trim = hover_trim(wing, kin, env, target, 8.0, 45.0)
    ratio = lift_to_power(trim.mean_lift, trim.aero_power)
    print(f"{label:>26} {trim.frequency_hz:8.2f} {ratio:6.2f}")
print("Higher amplitude and larger area both flap slower for the same lift")
print("and buy a better lift-to-aero-power ratio (less induced drag).")
