"""Ready-made wing planforms and kinematics for the hover design studies.

The measured per-section kinematics of the robot are not published, so the
kinematics preset is synthetic: a single-harmonic stroke plus a two-station
spanwise twist. The inboard station pitches only a few degrees about
vertical, which keeps the inboard geometric angle of attack inside the
60-90 degree band on both half-strokes; the tip swings the conventional
30-150 degree rotation and lags the stroke, as a passively twisting
membrane tip does. The planform is a tapered five-point outline. The lag
and taper were tuned once against the hover operating point of the 15.8 g
robot and are fixed here; they are inputs to the studies, not fit at run
time.
"""

import math

from .kinematics import FourierSeries, WingKinematics
from .wing import WingGeometry, scaled_to_area

# Tapered outline: (span fraction, chord relative to peak).
_PLANFORM_FRACTIONS = (0.0, 0.25, 0.5, 0.8, 1.0)
_PLANFORM_REL_CHORD = (0.14, 0.48, 1.0, 0.95, 0.55)

STANDARD_ASPECT_RATIO = 3.2
STANDARD_ROOT_OFFSET = 0.0125   # m, flapping axis to wing root
STANDARD_INBOARD_STATION = 0.25
STANDARD_INBOARD_TWIST_DEG = 10.0
STANDARD_TIP_TWIST_DEG = 60.0
STANDARD_TIP_LAG_DEG = 45.0


def standard_wing(area_cm2=25.5):
    """Tapered single wing of the given membrane area at fixed aspect ratio.

    The span follows from R = sqrt(AR * S) at ``STANDARD_ASPECT_RATIO``;
    25.5 cm^2 at AR 3.2 gives a 9 cm wing, the baseline of the study set
    (20.1 / 25.5 / 31.4 cm^2). The root sits ``STANDARD_ROOT_OFFSET`` from
    the flapping axis, and the wing pitches about its quarter chord.
    """
    area = area_cm2 * 1e-4
    if not area > 0.0:
        raise ValueError("wing area must be positive")
    span = math.sqrt(STANDARD_ASPECT_RATIO * area)
    rel_area = sum(0.5 * (c0 + c1) * (s1 - s0) for (s0, c0), (s1, c1)
                   in zip(zip(_PLANFORM_FRACTIONS, _PLANFORM_REL_CHORD),
                          zip(_PLANFORM_FRACTIONS[1:], _PLANFORM_REL_CHORD[1:])))
    peak_chord = area / (span * rel_area)
    breakpoints = [(s * span, rc * peak_chord)
                   for s, rc in zip(_PLANFORM_FRACTIONS, _PLANFORM_REL_CHORD)]
    wing = WingGeometry(STANDARD_ROOT_OFFSET, breakpoints)
    return scaled_to_area(wing, area)


def _rotation_series(twist_deg, lag_deg):
    # alpha_r(t) = 90 deg - twist * cos(2 pi f t - lag)
    twist = math.radians(twist_deg)
    lag = math.radians(lag_deg)
    return FourierSeries(a0=math.pi / 2.0,
                         a=(-twist * math.cos(lag),),
                         b=(-twist * math.sin(lag),))


def beetle_kinematics(frequency_hz=17.3, amplitude_deg=190.0):
    """Synthetic twisted-wing kinematics for the hover studies.

    Stroke: single harmonic with the requested peak-to-peak amplitude.
    Rotation: mean 90 degrees everywhere; the first-harmonic twist grows
    from ``STANDARD_INBOARD_TWIST_DEG`` at the ``STANDARD_INBOARD_STATION``
    span fraction to ``STANDARD_TIP_TWIST_DEG`` at the tip, and the tip
    rotation lags the stroke by ``STANDARD_TIP_LAG_DEG`` of phase (the root
    spar is driven rigidly, so the lag is zero inboard and interpolates
    outboard).
    """
    stroke = FourierSeries(a0=0.0, a=(0.0,),
                           b=(math.radians(amplitude_deg) / 2.0,))
    return WingKinematics(stroke=stroke, rotation_stations=(
        (STANDARD_INBOARD_STATION,
         _rotation_series(STANDARD_INBOARD_TWIST_DEG, 0.0)),
        (1.0, _rotation_series(STANDARD_TIP_TWIST_DEG, STANDARD_TIP_LAG_DEG)),
    ), frequency=frequency_hz)
