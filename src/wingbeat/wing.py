"""Wing planform geometry and spanwise blade-element discretization.

A wing is described by a piecewise-linear chord distribution whose last
station is the span, an optional offset between the flapping axis and the
wing root, a pitching axis at a fixed fraction of the local chord, and an
inboard cutout: the span fraction from the root out to which the membrane
has been removed (the leading-edge spar is retained, so removal zeroes the
aerodynamic area without shortening the wing).
"""

from dataclasses import dataclass, replace
from functools import cached_property
import math

import numpy as np


@dataclass(frozen=True)
class WingGeometry:
    """Immutable wing planform.

    Attributes
    ----------
    root_offset : float
        Distance from the flapping axis to the wing root (m).
    chord_breakpoints : tuple of (station, chord)
        Piecewise-linear chord distribution; ``station`` is measured in
        metres from the wing root, runs from 0 and ends at the span.
    pitch_axis_fraction : float
        Chordwise pitching-axis location as a fraction of the local chord,
        measured from the leading edge.
    cutout : float
        Span fraction from the root out to which the membrane has been
        removed (0 keeps the whole membrane).
    """

    root_offset: float
    chord_breakpoints: tuple
    pitch_axis_fraction: float = 0.25
    cutout: float = 0.0

    @property
    def span(self):
        """Wing length from root to tip (m): the last chord station."""
        return self.chord_breakpoints[-1][0]

    def chord_at(self, station):
        """Chord (m) at ``station`` metres from the wing root."""
        r, c = zip(*self.chord_breakpoints)
        return np.interp(station, r, c)

    def pitch_axis_at(self, station):
        """Leading-edge-to-pitch-axis distance l_r (m) at ``station``."""
        return self.pitch_axis_fraction * self.chord_at(station)

    def _strip_areas(self, lo, hi):
        """Membrane and planform area (m^2) of each strip [lo, hi], with
        stations (scalars or arrays) in m from the wing root.

        Each strip is cut at the chord breakpoints and the cutout edge, so
        the chord is linear on every piece and the trapezoid rule is exact.
        A piece whose midpoint lies inboard of the cutout has no membrane.
        Pieces are summed from the root outward, one column at a time, so
        each strip adds its pieces in the same order as a scalar loop.
        """
        cuts = np.sort([r for r, _ in self.chord_breakpoints]
                       + [self.cutout * self.span])
        lo, hi = np.atleast_1d(lo)[:, None], np.atleast_1d(hi)[:, None]
        edges = np.hstack([lo, np.clip(cuts, lo, hi), hi])
        chord = self.chord_at(edges)
        piece = 0.5 * (chord[:, :-1] + chord[:, 1:]) * np.diff(edges, axis=1)
        mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
        kept = np.where(mid / self.span < self.cutout, 0.0, piece)
        membrane = planform = np.zeros(len(lo))
        for j in range(piece.shape[1]):
            membrane = membrane + kept[:, j]
            planform = planform + piece[:, j]
        return membrane, planform

    @cached_property
    def area(self):
        """Remaining membrane area (m^2), computed once per wing."""
        return self._strip_areas(0.0, self.span)[0][0]

    @property
    def removed_area(self):
        """Membrane area removed by the cutout (m^2)."""
        return self._strip_areas(0.0, self.span)[1][0] - self.area

    @property
    def mean_chord(self):
        """Mean chord c = area / span (m), on the remaining membrane."""
        return self.area / self.span

    @property
    def aspect_ratio(self):
        """span^2 / area, recomputed from the current geometry."""
        area = self.area
        if area <= 0.0:
            raise ValueError("aspect ratio undefined for a zero-area wing")
        return self.span**2 / area


def build_wing(chord_breakpoints, root_offset=0.0,
               pitch_axis=WingGeometry.pitch_axis_fraction):
    """Build a :class:`WingGeometry` from a chord-breakpoint list.

    Parameters
    ----------
    chord_breakpoints : sequence of (station, chord)
        At least two points, strictly increasing stations in metres from
        the wing root, non-negative chords. The first station must be 0;
        the last station is the span.
    root_offset : float
        Flapping-axis-to-root distance (m).
    pitch_axis : float
        Pitching-axis chord fraction in [0, 1], from the leading edge.
    """
    pts = [(float(r), float(c)) for r, c in chord_breakpoints]
    if len(pts) < 2:
        raise ValueError("need at least two chord breakpoints")
    stations = [r for r, _ in pts]
    if any(b <= a for a, b in zip(stations[:-1], stations[1:])):
        raise ValueError(f"breakpoint stations must strictly increase, got {stations}")
    if stations[0] != 0.0:
        raise ValueError("first chord breakpoint must sit at the wing root (station 0)")
    if any(c < 0.0 for _, c in pts):
        raise ValueError("chord must be non-negative at every breakpoint")
    if root_offset < 0.0:
        raise ValueError("root offset must be non-negative")

    pitch_axis = float(pitch_axis)
    if not 0.0 <= pitch_axis <= 1.0:
        raise ValueError("pitch-axis chord fraction must lie in [0, 1]")
    return WingGeometry(root_offset=float(root_offset),
                        chord_breakpoints=tuple(pts),
                        pitch_axis_fraction=pitch_axis)


def apply_inboard_cutout(wing, span_fraction):
    """Remove the membrane from the wing root out to ``span_fraction``.

    The chord profile and span are unchanged; only the cutout grows, so
    forces on the affected elements scale to zero. A fraction no larger
    than the wing's current cutout returns the wing unchanged, so applying
    the same fraction twice is a no-op.
    """
    if not 0.0 <= span_fraction < 1.0:
        raise ValueError("cutout span fraction must lie in [0, 1)")
    if span_fraction <= wing.cutout:
        return wing
    return replace(wing, cutout=float(span_fraction))


def scaled_to_area(wing, area):
    """Geometrically similar wing rescaled to a target membrane area (m^2).

    All lengths scale by sqrt(area / current), preserving shape and aspect
    ratio.
    """
    if area <= 0.0:
        raise ValueError("target area must be positive")
    if wing.area <= 0.0:
        raise ValueError("cannot rescale a zero-area wing")
    k = math.sqrt(area / wing.area)
    bkpts = tuple((k * r, k * c) for r, c in wing.chord_breakpoints)
    return replace(wing, root_offset=k * wing.root_offset,
                   chord_breakpoints=bkpts)


@dataclass(frozen=True)
class BladeElements:
    """Spanwise blade elements of a discretized wing, ordered root to tip.

    ``radius`` is the arm from the flapping axis to the element midpoint;
    ``span_fraction`` locates the midpoint along the wing (0 root, 1 tip).
    ``area_scale`` is the fraction of each element's planform that keeps
    its membrane after the cutout, so ``chord * area_scale * width``
    recovers the element's aerodynamically active area.
    """

    radius: np.ndarray
    width: np.ndarray
    chord: np.ndarray
    pitch_axis: np.ndarray
    area_scale: np.ndarray
    span_fraction: np.ndarray

    @property
    def active_area(self):
        return float(np.sum(self.chord * self.area_scale * self.width))


def discretize(wing, n):
    """Split a wing into ``n`` equal-width spanwise elements.

    Element chords are taken at midpoints; ``area_scale`` is the exact
    membrane-to-planform area ratio within each element (1 where the
    element has no planform area), so the summed element areas reproduce
    the wing's membrane area.
    """
    if n < 2:
        raise ValueError("need at least two blade elements")
    dr = wing.span / n
    left = np.arange(n) * dr
    mid = left + 0.5 * dr
    chord = np.atleast_1d(wing.chord_at(mid)).astype(float)
    pitch = np.atleast_1d(wing.pitch_axis_at(mid)).astype(float)

    membrane, full = wing._strip_areas(left, left + dr)
    scale = np.divide(membrane, full, out=np.ones(n), where=full > 0.0)

    return BladeElements(radius=wing.root_offset + mid,
                         width=np.full(n, dr),
                         chord=chord,
                         pitch_axis=pitch,
                         area_scale=scale,
                         span_fraction=mid / wing.span)
