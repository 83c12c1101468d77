"""Wing planform geometry and spanwise blade-element discretization.

A wing is described by a piecewise-linear chord distribution over the span,
an optional offset between the flapping axis and the wing root, a chordwise
pitching-axis location, and a membrane mask that marks spanwise regions
where the membrane has been removed (the leading-edge spar is retained, so
removal zeroes the aerodynamic area without shortening the wing).
"""

from dataclasses import dataclass, replace
import math

import numpy as np


def _merge_intervals(intervals):
    """Merge overlapping/adjacent (start, end) span-fraction intervals."""
    spans = []
    for lo, hi in sorted((float(lo), float(hi)) for lo, hi in intervals):
        lo, hi = max(lo, 0.0), min(hi, 1.0)
        if hi <= lo:
            continue
        if spans and lo <= spans[-1][1]:
            spans[-1] = (spans[-1][0], max(spans[-1][1], hi))
        else:
            spans.append((lo, hi))
    return tuple(spans)


@dataclass(frozen=True)
class WingGeometry:
    """Immutable wing planform.

    Attributes
    ----------
    span : float
        Wing length from root to tip (m).
    root_offset : float
        Distance from the flapping axis to the wing root (m).
    chord_breakpoints : tuple of (station, chord)
        Piecewise-linear chord distribution; ``station`` is measured in
        metres from the wing root and must run from 0 to ``span``.
    pitch_axis_fraction : float or None
        Chordwise pitching-axis location as a fraction of the local chord
        (measured from the leading edge). Mutually exclusive with
        ``pitch_axis_breakpoints``.
    pitch_axis_breakpoints : tuple of (station, offset) or None
        Piecewise-linear pitching-axis offset in metres from the leading
        edge, by station from the wing root.
    removed_spans : tuple of (lo, hi)
        Span-fraction intervals where the membrane has been removed.
    """

    span: float
    root_offset: float
    chord_breakpoints: tuple
    pitch_axis_fraction: float | None = 0.25
    pitch_axis_breakpoints: tuple | None = None
    removed_spans: tuple = ()

    def chord_at(self, station):
        """Chord (m) at ``station`` metres from the wing root."""
        r, c = zip(*self.chord_breakpoints)
        return np.interp(station, r, c)

    def pitch_axis_at(self, station):
        """Leading-edge-to-pitch-axis distance l_r (m) at ``station``."""
        if self.pitch_axis_breakpoints is not None:
            r, l = zip(*self.pitch_axis_breakpoints)
            return np.interp(station, r, l)
        return self.pitch_axis_fraction * self.chord_at(station)

    def _segment_edges(self):
        # Union of chord breakpoints and mask edges: the chord is linear on
        # each resulting segment, so trapezoid integration is exact there.
        edges = {r for r, _ in self.chord_breakpoints}
        for lo, hi in self.removed_spans:
            edges.add(lo * self.span)
            edges.add(hi * self.span)
        return np.array(sorted(e for e in edges if 0.0 <= e <= self.span))

    def _masked(self, mid_station):
        frac = mid_station / self.span
        for lo, hi in self.removed_spans:
            if lo < frac < hi:
                return True
        return False

    def _area_between(self, r0, r1, masked):
        edges = self._segment_edges()
        edges = np.unique(np.clip(np.concatenate([edges, [r0, r1]]), r0, r1))
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            if b > a and not (masked and self._masked(0.5 * (a + b))):
                total += 0.5 * (self.chord_at(a) + self.chord_at(b)) * (b - a)
        return total

    def membrane_area_between(self, r0, r1):
        """Remaining membrane area (m^2) between two stations (m from root)."""
        return self._area_between(r0, r1, masked=True)

    def planform_area_between(self, r0, r1):
        """Planform area (m^2) between two stations, ignoring the mask."""
        return self._area_between(r0, r1, masked=False)

    @property
    def area(self):
        """Remaining membrane area (m^2)."""
        return self.membrane_area_between(0.0, self.span)

    @property
    def removed_area(self):
        """Membrane area removed by the mask (m^2)."""
        return self.planform_area_between(0.0, self.span) - self.area

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


def build_wing(chord_breakpoints, root_offset=0.0, pitch_axis=0.25,
               removed_spans=()):
    """Build a :class:`WingGeometry` from a chord-breakpoint list.

    Parameters
    ----------
    chord_breakpoints : sequence of (station, chord)
        At least two points, strictly increasing stations in metres from
        the wing root, non-negative chords. The first station must be 0;
        the last station sets the span.
    root_offset : float
        Flapping-axis-to-root distance (m).
    pitch_axis : float or sequence of (station, offset)
        Either a chord fraction (0..1) or breakpoints in metres.
    removed_spans : sequence of (lo, hi)
        Span-fraction intervals with the membrane removed.
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

    span = stations[-1]
    if span <= 0.0:
        raise ValueError("span must be positive")

    frac, bkpts = None, None
    if np.isscalar(pitch_axis):
        frac = float(pitch_axis)
        if not 0.0 <= frac <= 1.0:
            raise ValueError("pitch-axis chord fraction must lie in [0, 1]")
    else:
        bkpts = tuple((float(r), float(l)) for r, l in pitch_axis)
        if any(l < 0.0 for _, l in bkpts):
            raise ValueError("pitch-axis offset must be non-negative")

    wing = WingGeometry(span=span, root_offset=float(root_offset),
                        chord_breakpoints=tuple(pts),
                        pitch_axis_fraction=frac,
                        pitch_axis_breakpoints=bkpts,
                        removed_spans=_merge_intervals(removed_spans))

    # 0 <= l_r <= c_r wherever the chord is nonzero; check every kink.
    check = np.unique(np.concatenate([
        [r for r, _ in wing.chord_breakpoints],
        [r for r, _ in bkpts] if bkpts else [],
    ]))
    c = wing.chord_at(check)
    l = wing.pitch_axis_at(check)
    bad = l > c + 1e-12
    if np.any(bad):
        raise ValueError(
            f"pitch axis lies behind the trailing edge at station(s) {check[bad]}")
    return wing


def apply_inboard_cutout(wing, span_fraction):
    """Remove the membrane from the wing root out to ``span_fraction``.

    The chord profile and span are unchanged; only the membrane mask is
    extended, so forces on the affected elements scale to zero. Applying
    the same fraction twice is a no-op.
    """
    if not 0.0 <= span_fraction < 1.0:
        raise ValueError("cutout span fraction must lie in [0, 1)")
    if span_fraction == 0.0:
        return wing
    spans = _merge_intervals(wing.removed_spans + ((0.0, span_fraction),))
    return replace(wing, removed_spans=spans)


def scaled_to_area(wing, area):
    """Geometrically similar wing rescaled to a target membrane area (m^2).

    All lengths scale by sqrt(area / current), preserving shape and aspect
    ratio.
    """
    if area <= 0.0:
        raise ValueError("target area must be positive")
    k = math.sqrt(area / wing.area)
    bkpts = tuple((k * r, k * c) for r, c in wing.chord_breakpoints)
    axis_bkpts = wing.pitch_axis_breakpoints
    if axis_bkpts is not None:
        axis_bkpts = tuple((k * r, k * l) for r, l in axis_bkpts)
    return replace(wing, span=k * wing.span, root_offset=k * wing.root_offset,
                   chord_breakpoints=bkpts, pitch_axis_breakpoints=axis_bkpts)


@dataclass(frozen=True)
class BladeElements:
    """Spanwise blade elements of a discretized wing, ordered root to tip.

    ``radius`` is the arm from the flapping axis to the element midpoint;
    ``span_fraction`` locates the midpoint along the wing (0 root, 1 tip).
    ``area_scale`` is the fraction of each element's membrane that remains
    after masking, so ``chord * area_scale * width`` recovers the element's
    aerodynamically active area.
    """

    radius: np.ndarray
    width: np.ndarray
    chord: np.ndarray
    pitch_axis: np.ndarray
    area_scale: np.ndarray
    span_fraction: np.ndarray
    root_offset: float
    span: float

    def __len__(self):
        return len(self.radius)

    @property
    def active_area(self):
        return float(np.sum(self.chord * self.area_scale * self.width))


def discretize(wing, n=20):
    """Split a wing into ``n`` equal-width spanwise elements.

    Element chords are taken at midpoints; ``area_scale`` is the exact
    masked-to-unmasked area ratio within each element, so the summed
    element areas reproduce the wing's membrane area.
    """
    if n < 2:
        raise ValueError("need at least two blade elements")
    dr = wing.span / n
    left = np.arange(n) * dr
    mid = left + 0.5 * dr
    chord = np.atleast_1d(wing.chord_at(mid)).astype(float)
    pitch = np.atleast_1d(wing.pitch_axis_at(mid)).astype(float)

    scale = np.ones(n)
    if wing.removed_spans:
        for i in range(n):
            full = wing.planform_area_between(left[i], left[i] + dr)
            if full > 0.0:
                scale[i] = wing.membrane_area_between(left[i], left[i] + dr) / full

    return BladeElements(radius=wing.root_offset + mid,
                         width=np.full(n, dr),
                         chord=chord,
                         pitch_axis=pitch,
                         area_scale=scale,
                         span_fraction=mid / wing.span,
                         root_offset=wing.root_offset,
                         span=wing.span)
