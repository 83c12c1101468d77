"""Wing-stroke kinematics: truncated Fourier series with analytic derivatives.

The stroke angle and the sectional rotation angle are represented as
truncated Fourier series of a common flapping frequency. The kinematics
hold that frequency once; a series is its coefficients only and takes the
frequency when evaluated. Rotation is given at a small number of spanwise
stations; values in between follow by linear interpolation, which models
the passive spanwise twist of a membrane wing.

Sign convention: positive stroke rate marks the upstroke. The rotation
angle is measured between the chord and the upstroke direction, so the
geometric angle of attack equals the rotation angle on the upstroke and
its supplement on the downstroke.
"""

from dataclasses import dataclass, replace
from functools import cached_property
import math

import numpy as np


@dataclass(frozen=True)
class FourierSeries:
    """angle(t) = a0 + sum_n [ a_n cos(2 pi n f t) + b_n sin(2 pi n f t) ].

    Coefficients are in radians. ``eval`` returns the angle or its
    first/second analytic time derivative at a frequency f in Hz.
    """

    a0: float
    a: tuple
    b: tuple

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ValueError("cosine and sine coefficient lists must have equal length")

    def eval(self, t, frequency, order=0):
        """Angle (order 0) or a time derivative (1, 2) at ``frequency`` Hz."""
        if order not in (0, 1, 2):
            raise ValueError("order must be 0, 1 or 2")
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.a0 if order == 0 else 0.0)
        for n, (an, bn) in enumerate(zip(self.a, self.b), start=1):
            w = 2.0 * math.pi * n * frequency
            wt = w * t
            if order == 0:
                out += an * np.cos(wt) + bn * np.sin(wt)
            elif order == 1:
                out += w * (-an * np.sin(wt) + bn * np.cos(wt))
            else:
                out += w * w * (-an * np.cos(wt) - bn * np.sin(wt))
        return out if out.shape else float(out)

    def scaled(self, factor):
        """Series with all harmonic amplitudes multiplied by ``factor``."""
        return replace(self, a=tuple(factor * x for x in self.a),
                       b=tuple(factor * x for x in self.b))


# Upper limit on a fit's design matrix, samples * (2 * harmonics + 1). A fit
# peaks at about 20 bytes a cell (tracemalloc), 40 MB at the limit; a
# 20 001-sample file still fits 49 harmonics.
MAX_FIT_CELLS = 2_000_000


def fit_fourier(t, angle, frequency, n_harmonics=5):
    """Least-squares Fourier fit of sampled angles at a known frequency.

    Parameters
    ----------
    t, angle : array_like
        Sample times (s) and angles (rad).
    frequency : float
        Flapping frequency (Hz) fixing the fundamental period.
    n_harmonics : int
        Number of harmonics to fit.

    Returns
    -------
    series : FourierSeries
    rms_residual : float
        Root-mean-square fit residual (rad).

    Raises
    ------
    ValueError
        If ``n_harmonics`` is negative, the design matrix would hold more
        than ``MAX_FIT_CELLS`` cells (checked before it is allocated),
        there are fewer than ``2 n_harmonics + 1`` samples, or the samples
        leave the design matrix rank deficient (for example all samples at
        coincident phases).
    """
    if n_harmonics < 0:
        raise ValueError(
            f"number of harmonics must be at least 0, got {n_harmonics}")
    t = np.asarray(t, dtype=float).ravel()
    angle = np.asarray(angle, dtype=float).ravel()
    n_coef = 2 * n_harmonics + 1
    if t.size != angle.size:
        raise ValueError("time and angle arrays must have equal length")
    if t.size * n_coef > MAX_FIT_CELLS:
        raise ValueError(
            f"fit design matrix of {t.size} samples * {n_coef} coefficients "
            f"exceeds the limit of {MAX_FIT_CELLS} cells")
    if t.size < n_coef:
        raise ValueError(
            f"need at least {n_coef} samples to fit {n_harmonics} harmonics, got {t.size}")

    phases = 2.0 * math.pi * frequency * np.outer(t, np.arange(1, n_harmonics + 1))
    design = np.hstack([np.ones((t.size, 1)), np.cos(phases), np.sin(phases)])
    coef, _, rank, _ = np.linalg.lstsq(design, angle, rcond=None)
    if rank < n_coef:
        raise ValueError(
            "rank-deficient fit: samples do not cover enough distinct phases "
            f"(rank {rank} < {n_coef})")

    series = FourierSeries(a0=float(coef[0]),
                           a=tuple(coef[1:n_harmonics + 1]),
                           b=tuple(coef[n_harmonics + 1:]))
    rms = float(np.sqrt(np.mean((design @ coef - angle) ** 2)))
    return series, rms


def geometric_aoa(rotation_angle, stroke_rate):
    """Geometric angle of attack from the rotation angle and stroke rate.

    Equals the rotation angle at a stroke rate of at least 0 (the upstroke
    direction) and its supplement on the downstroke. Result clipped to
    [0, pi]. Both sides give the same sine, so at stroke reversal, a rate
    of exactly 0, sin alpha_g is that of the limit from either side.
    """
    rotation_angle = np.asarray(rotation_angle, dtype=float)
    stroke_rate = np.asarray(stroke_rate, dtype=float)
    aoa = np.where(stroke_rate < 0.0, math.pi - rotation_angle,
                   rotation_angle)
    aoa = np.clip(aoa, 0.0, math.pi)
    return aoa if aoa.shape else float(aoa)


@dataclass(frozen=True)
class WingKinematics:
    """Stroke series plus rotation series at spanwise stations.

    ``rotation_stations`` maps span fraction (0 root .. 1 tip) to the
    rotation-angle series at that station. Every series flaps at
    ``frequency`` (Hz).
    """

    stroke: FourierSeries
    rotation_stations: tuple
    frequency: float

    def __post_init__(self):
        if not self.frequency > 0.0:
            raise ValueError("frequency must be positive")
        if not self.rotation_stations:
            raise ValueError("need at least one rotation station")
        stations = sorted(self.rotation_stations, key=lambda sf: sf[0])
        object.__setattr__(self, "rotation_stations", tuple(stations))
        if not all(0.0 <= frac <= 1.0 for frac, _ in stations):
            raise ValueError("station span fraction must lie in [0, 1]")

    @cached_property
    def stroke_amplitude(self):
        """Peak-to-peak stroke range (rad) from dense sampling, or as
        :meth:`with_stroke_amplitude` set it."""
        t = np.linspace(0.0, 1.0 / self.frequency, 1440, endpoint=False)
        angles = self.stroke.eval(t, self.frequency)
        return float(np.max(angles) - np.min(angles))

    @property
    def half_wave_symmetric(self):
        """Whether the second half-cycle mirrors the first: every even
        harmonic of the stroke and of every station is exactly 0 and every
        station's mean is exactly pi/2. Then at t + T/2 the stroke rate and
        acceleration change sign and the rotation angle theta becomes
        pi - theta. The stroke's own mean does not count, since only its
        derivatives move the wing. There is no tolerance."""
        series = [self.stroke, *(s for _, s in self.rotation_stations)]
        return (all(s.a0 == math.pi / 2 for _, s in self.rotation_stations)
                and all(c == 0.0 for s in series
                        for c in (*s.a[1::2], *s.b[1::2])))

    @property
    def quarter_wave_mirrored(self):
        """Whether the stroke speed at T/2 - t is the speed at t: the stroke
        has odd harmonics only, and either every cosine or every sine
        coefficient is exactly 0. Then the stroke rate there is the rate at
        t, or its negative. The rotation does not count. There is no
        tolerance."""
        a, b = self.stroke.a, self.stroke.b
        return (all(c == 0.0 for c in (*a[1::2], *b[1::2]))
                and (all(c == 0.0 for c in a) or all(c == 0.0 for c in b)))

    def station_weights(self, span_fraction):
        """Linear-interpolation weights over stations, one row per span
        fraction; clamped outside (the first of equal first stations wins).
        A NaN or infinite span fraction raises a ``ValueError``."""
        fracs = np.array([f for f, _ in self.rotation_stations])
        s = np.atleast_1d(np.asarray(span_fraction, dtype=float))
        if not np.isfinite(s).all():
            raise ValueError(f"span fraction must be finite, got "
                             f"{s[~np.isfinite(s)][0]}")
        i = np.where(s <= fracs[0], 0, np.searchsorted(fracs, s, "right") - 1)
        j = np.minimum(i + 1, fracs.size - 1)
        # Only a fraction strictly between two unequal stations divides.
        w = np.divide(s - fracs[i], fracs[j] - fracs[i], out=np.zeros(s.size),
                      where=(fracs[i] < s) & (s < fracs[j]))
        weights = np.zeros((s.size, fracs.size))
        weights[np.arange(s.size), j] = w
        weights[np.arange(s.size), i] = 1.0 - w  # after w: i == j keeps 1
        return weights

    def station_series(self, t, order=0):
        """Rotation angle (or derivative) of every station at time ``t``,
        stacked on the last axis in station order."""
        return np.stack([series.eval(t, self.frequency, order)
                         for _, series in self.rotation_stations], axis=-1)

    def rotation_at(self, span_fraction, t, order=0):
        """Rotation angle (or derivative) at a span fraction and time. An
        array of fractions keeps its axis, last; a scalar one has none."""
        values = self.station_series(t, order)
        weights = self.station_weights(span_fraction)
        out = values @ (weights.T if np.ndim(span_fraction) else weights[0])
        return out if np.ndim(out) else float(out)

    def with_frequency(self, frequency):
        """Time-rescaled kinematics: same coefficients, new frequency. A
        stroke amplitude already known carries over, since a time rescale
        keeps the range of angles."""
        rescaled = replace(self, frequency=float(frequency))
        if "stroke_amplitude" in self.__dict__:  # cached_property's store
            rescaled.__dict__["stroke_amplitude"] = self.stroke_amplitude
        return rescaled

    def with_stroke_amplitude(self, amplitude):
        """Stroke harmonics rescaled to a target peak-to-peak range (rad),
        which the result records as its stroke amplitude."""
        if not (math.isfinite(amplitude) and amplitude > 0.0):
            raise ValueError(f"stroke amplitude must be finite and positive, "
                             f"got {amplitude} rad")
        current = self.stroke_amplitude
        if current <= 0.0:
            raise ValueError("cannot rescale a zero-amplitude stroke")
        scaled = replace(self, stroke=self.stroke.scaled(amplitude / current))
        scaled.__dict__["stroke_amplitude"] = float(amplitude)
        return scaled
