"""One flapping cycle of the baseline wing pair: forces, inflow, power.

Runs the blade-element solver at the 17.3 Hz operating point, prints the
cycle-average loads with the converged induced velocity, and breaks the
lift into its translational, added-mass, and rotational parts.
"""

import numpy as np

from wingbeat import (
    AeroEnvironment,
    GRAM_FORCE_NEWTONS,
    SolverSettings,
    beetle_kinematics,
    lift_to_power,
    simulate_cycle,
    standard_wing,
)

wing = standard_wing(25.5)
kin = beetle_kinematics(frequency_hz=17.3, amplitude_deg=190.0)
env = AeroEnvironment()

result = simulate_cycle(wing, kin, env,
                        SolverSettings(steps_per_cycle=720, pair=True))

print(f"wing pair, {wing.area * 1e4:.1f} cm^2 per wing, 17.3 Hz, 190 deg:")
print(f"  cycle-mean lift        {result.mean_lift / GRAM_FORCE_NEWTONS:8.2f} gf")
print(f"  aerodynamic power      {result.mean_aero_power:8.2f} W")
print(f"  lift-to-aero-power     "
      f"{lift_to_power(result.mean_lift, result.mean_aero_power):8.2f} gf/W")
print(f"  induced velocity       {result.v_induced:8.3f} m/s "
      f"({result.vi_info.iterations} thrust evaluations)")
print(f"  Reynolds number        {result.reynolds_number:8.0f}")

forces = result.history
parts = {
    "translational": forces.translational_zeta,
    "added mass": forces.added_mass_zeta,
    "rotational": forces.rotational_zeta,
}
print("\nLift decomposition (cycle means):")
for name, series in parts.items():
    share = np.mean(series) / result.mean_lift
    print(f"  {name:14s} {np.mean(series) / GRAM_FORCE_NEWTONS:8.2f} gf "
          f"({100 * share:5.1f}%)")

print("\nSpanwise distribution (per element, both wings):")
print(f"{'span':>6} {'lift mN':>9} {'power mW':>10}")
for frac, lift, power in zip(result.span_fractions[::2],
                             result.spanwise_lift[::2],
                             result.spanwise_power[::2]):
    bar = "#" * int(round(40 * lift / result.spanwise_lift.max()))
    print(f"{frac:6.3f} {lift * 1e3:9.3f} {power * 1e3:10.2f}  {bar}")
print("Both distributions peak outboard; the inboard quarter is nearly idle.")
