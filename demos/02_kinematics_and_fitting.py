"""Stroke/rotation kinematics: the twist preset and Fourier fitting.

Shows the synthetic twisted-wing kinematics (stroke plus two rotation
stations), the geometric angle of attack along the span, and a round trip
through the least-squares Fourier fitter as if the angles had been
digitized from high-speed video.
"""

import math

import numpy as np

from wingbeat import beetle_kinematics, fit_fourier, geometric_aoa

kin = beetle_kinematics(frequency_hz=17.3, amplitude_deg=190.0)
print(f"flapping frequency {kin.frequency} Hz, stroke amplitude "
      f"{math.degrees(kin.stroke_amplitude):.1f} deg peak-to-peak")

t = np.linspace(0.0, 1.0 / kin.frequency, 720, endpoint=False)
rate = kin.stroke.eval(t, kin.frequency, 1)
moving = np.abs(rate) > 0.02 * np.max(np.abs(rate))

print("\nGeometric angle of attack while the wing moves:")
print(f"{'span':>6} {'min deg':>8} {'mid-stroke deg':>15} {'max deg':>8}")
for frac in (0.1, 0.25, 0.5, 0.75, 1.0):
    aoa = np.degrees(geometric_aoa(kin.rotation_at(frac, t), rate))
    print(f"{frac:6.2f} {aoa[moving].min():8.1f} {aoa[0]:15.1f} "
          f"{aoa[moving].max():8.1f}")
print("The inboard band stays at 60-90 deg: high drag, little lift, which")
print("is what makes the inboard membrane expendable.")

# Pretend the tip rotation angle was digitized at 2000 fps and refit it.
fps = 2000.0
samples_t = np.arange(int(fps / kin.frequency)) / fps
samples = kin.rotation_at(1.0, samples_t)
fitted, rms = fit_fourier(samples_t, samples, kin.frequency, n_harmonics=5)
print(f"\nFourier fit of the tip rotation from {samples_t.size} samples:")
print(f"  a0 {math.degrees(fitted.a0):7.3f} deg "
      f"(truth {math.degrees(kin.rotation_stations[-1][1].a0):.3f})")
print(f"  a1 {math.degrees(fitted.a[0]):7.3f} deg, "
      f"b1 {math.degrees(fitted.b[0]):7.3f} deg")
print(f"  RMS residual {math.degrees(rms):.2e} deg")

# Derivatives come out analytically; spot-check against finite differences.
f = kin.frequency
h = 1e-6 / f
fd = (kin.stroke.eval(0.01 + h, f) - kin.stroke.eval(0.01 - h, f)) / (2 * h)
print(f"\nstroke rate at t=10 ms: analytic {kin.stroke.eval(0.01, f, 1):.6f}, "
      f"finite difference {fd:.6f} rad/s")
