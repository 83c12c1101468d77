"""Intact versus inboard-cutout wing at identical kinematics.

Reproduces the membrane-removal comparison: cutting the wing membrane from
the root to 25% span barely changes lift or aerodynamic power (a couple of
percent each) and leaves the lift-to-aero-power ratio essentially
untouched, because the removed area operates at a 60-90 degree angle of
attack with very little dynamic pressure.
"""

import os

from wingbeat import (
    AeroEnvironment,
    GRAM_FORCE_NEWTONS,
    SolverSettings,
    apply_inboard_cutout,
    beetle_kinematics,
    standard_wing,
)
from wingbeat.harness import run_cutout_study, write_cutout

wing = standard_wing(25.5)
modified = apply_inboard_cutout(wing, 0.25)
kin = beetle_kinematics(frequency_hz=17.3, amplitude_deg=190.0)
study = run_cutout_study(wing, kin, AeroEnvironment(), cutout=0.25,
                         frequency_hz=17.3)

print("wing membrane removed from root to 25% span, both wings at 17.3 Hz")
print(f"{'':20s} {'intact':>10} {'modified':>10}")
print(f"{'area cm^2':20s} {wing.area * 1e4:10.2f} {modified.area * 1e4:10.2f}")
print(f"{'lift gf':20s} "
      f"{study.intact.mean_lift / GRAM_FORCE_NEWTONS:10.2f} "
      f"{study.modified.mean_lift / GRAM_FORCE_NEWTONS:10.2f}")
print(f"{'aero power W':20s} {study.intact.mean_aero_power:10.2f} "
      f"{study.modified.mean_aero_power:10.2f}")

c = study.comparison
print(f"\nlift change            {100 * c.lift_delta:+6.2f}%")
print(f"aero power change      {100 * c.power_delta:+6.2f}%")
print(f"lift-to-power change   {100 * c.lift_to_power_delta:+6.2f}%  "
      f"(aerodynamic efficiency unaffected)")

os.makedirs("demos/out", exist_ok=True)
write_cutout("demos/out", study, SolverSettings())
print("\nspanwise table -> demos/out/cutout_spanwise.csv")

print("\nSpanwise lift, intact (#) vs modified (o), both wings:")
peak = study.intact.spanwise_lift.max()
for i in range(0, len(study.intact.span_fractions), 2):
    frac = study.intact.span_fractions[i]
    a = int(round(40 * study.intact.spanwise_lift[i] / peak))
    b = int(round(40 * study.modified.spanwise_lift[i] / peak))
    print(f"{frac:6.3f} {'#' * a}")
    print(f"{'':6s} {'o' * b}")
