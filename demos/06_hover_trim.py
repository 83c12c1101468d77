"""Hover trim: what frequency carries the robot's weight?

Searches the flapping frequency of the reduced-membrane wing pair
(23.7 cm^2 per wing, 190 deg amplitude) until the cycle-mean lift equals
the 15.8 gf vehicle weight, then prints the operating point.
"""

from wingbeat import (
    AeroEnvironment,
    GRAM_FORCE_NEWTONS,
    beetle_kinematics,
    simulate_cycle,
    standard_wing,
)
from wingbeat.harness import hover_trim

wing = standard_wing(23.7)
kin = beetle_kinematics(frequency_hz=17.3, amplitude_deg=190.0)
env = AeroEnvironment()

trim = hover_trim(wing, kin, env, 15.8 * GRAM_FORCE_NEWTONS, 8.0, 40.0)
print(f"target lift 15.8 gf with a {wing.area * 1e4:.1f} cm^2 wing pair "
      f"at 190 deg amplitude")
print(f"  trim frequency  {trim.frequency_hz:.2f} Hz "
      f"({len(trim.probes)} lift probes)")
print(f"  achieved lift   {trim.mean_lift / GRAM_FORCE_NEWTONS:.3f} gf")

at_trim = simulate_cycle(wing, kin.with_frequency(trim.frequency_hz), env)
print(f"  aero power      {at_trim.mean_aero_power:.2f} W")
print(f"  induced inflow  {at_trim.v_induced:.2f} m/s")
print(f"  Reynolds        {at_trim.reynolds_number:.0f}")
print("\nThe measured robot hovers near 18 Hz; the synthetic-twist model")
print("lands in the same band without any fitted kinematics.")

print("\nLift vs frequency around the trim point:")
for f in (12.0, 14.0, trim.frequency_hz, 18.0, 20.0):
    lift = simulate_cycle(wing, kin.with_frequency(f), env).mean_lift
    marker = "  <- trim" if abs(f - trim.frequency_hz) < 1e-9 else ""
    print(f"  {f:6.2f} Hz: {lift / GRAM_FORCE_NEWTONS:6.2f} gf{marker}")
