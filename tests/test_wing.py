"""Wing geometry: construction, areas, discretization, inboard cutout."""

from dataclasses import replace
import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from oracles import element_area_scale, strip_areas
from wingbeat.wing import (
    WingGeometry,
    apply_inboard_cutout,
    discretize,
    scaled_to_area,
)
from wingbeat.presets import standard_wing


def test_rectangular_planform_area_and_aspect_ratio():
    # R = 9 cm at constant 2.8333 cm chord: 25.5 cm^2 at AR ~ 3.18.
    wing = WingGeometry(0.0, [(0.0, 0.028333), (0.09, 0.028333)])
    assert wing.area == pytest.approx(0.09 * 0.028333, rel=1e-12)
    assert wing.area * 1e4 == pytest.approx(25.5, rel=2e-4)
    assert wing.aspect_ratio == pytest.approx(0.09 / 0.028333, rel=1e-12)
    assert round(wing.aspect_ratio, 2) == 3.18


def test_zero_chord_planform_is_degenerate():
    wing = WingGeometry(0.0, [(0.0, 0.0), (0.09, 0.0)])
    assert wing.area == 0.0
    with pytest.raises(ValueError):
        wing.aspect_ratio


@pytest.mark.parametrize("area_cm2, span_cm", [(20.1, 8.02), (25.5, 9.0),
                                               (31.4, 10.0)])
def test_study_wing_set_spans(area_cm2, span_cm):
    # R = sqrt(AR * S) at AR 3.2 reproduces the 8 / 9 / 10 cm wing set.
    wing = standard_wing(area_cm2)
    assert wing.span * 100 == pytest.approx(span_cm, rel=5e-3)
    assert wing.area * 1e4 == pytest.approx(area_cm2, rel=1e-9)
    assert wing.aspect_ratio == pytest.approx(3.2, rel=1e-9)


@pytest.mark.parametrize("area_cm2", [0.0, -1.0])
def test_standard_wing_rejects_a_non_positive_area(area_cm2):
    with pytest.raises(ValueError, match="wing area must be positive"):
        standard_wing(area_cm2)


def test_wing_geometry_rejects_bad_breakpoints():
    with pytest.raises(ValueError, match="strictly increase"):
        WingGeometry(0.0, [(0.0, 0.02), (0.05, 0.02), (0.04, 0.02)])
    with pytest.raises(ValueError, match="non-negative"):
        WingGeometry(0.0, [(0.0, 0.02), (0.09, -0.01)])
    with pytest.raises(ValueError, match="at least two"):
        WingGeometry(0.0, [(0.0, 0.02)])
    with pytest.raises(ValueError, match="root"):
        WingGeometry(0.0, [(0.01, 0.02), (0.09, 0.02)])
    # Infinite numbers pass every range guard but the last.
    for root_offset, breakpoints in (
            (0.0, [(0.0, 0.02), (math.inf, 0.02)]),
            (0.0, [(0.0, 0.02), (0.09, math.inf)]),
            (math.inf, [(0.0, 0.02), (0.09, 0.02)])):
        with pytest.raises(ValueError) as error:
            WingGeometry(root_offset, breakpoints)
        assert str(error.value) == (
            "breakpoints and root offset must be finite")


def test_pitch_axis_validation():
    for bad in (-0.1, 1.5):
        with pytest.raises(ValueError, match=r"pitch-axis chord fraction "
                                             r"must lie in \[0, 1\]"):
            WingGeometry(0.0, [(0.0, 0.02), (0.09, 0.02)],
                         pitch_axis_fraction=bad)
    elements = discretize(WingGeometry(0.0, [(0.0, 0.02), (0.09, 0.01)]), 7)
    assert np.array_equal(elements.pitch_axis, 0.25 * elements.chord)


def test_discretize_uniform_wing():
    wing = WingGeometry(0.0, [(0.0, 0.028), (0.09, 0.028)])
    elements = discretize(wing, 20)
    assert elements.radius.shape == (20,)
    assert np.allclose(elements.width, 0.09 / 20)
    assert np.allclose(elements.chord, 0.028)
    assert np.all(np.diff(elements.radius) > 0)
    assert elements.active_area == pytest.approx(wing.area, rel=1e-12)


def test_discretization_refinement_conserves_area():
    wing = standard_wing(25.5)
    coarse = discretize(wing, 20).active_area
    fine = discretize(wing, 200).active_area
    assert coarse == pytest.approx(wing.area, rel=5e-3)
    assert fine == pytest.approx(wing.area, rel=5e-3)
    assert coarse == pytest.approx(fine, rel=5e-3)


def test_triangular_planform_area():
    c_root, span = 0.03, 0.09
    wing = WingGeometry(0.0, [(0.0, c_root), (span, 0.0)])
    elements = discretize(wing, 20)
    assert elements.active_area == pytest.approx(0.5 * c_root * span, rel=1e-2)


def test_discretize_needs_two_elements():
    wing = WingGeometry(0.0, [(0.0, 0.028333), (0.09, 0.028333)])
    with pytest.raises(ValueError):
        discretize(wing, 1)


def test_cutout_zero_is_identity():
    wing = standard_wing(25.5)
    assert apply_inboard_cutout(wing, 0.0) == wing


def test_cutout_quarter_span_rectangular():
    wing = WingGeometry(0.0, [(0.0, 0.028333), (0.09, 0.028333)])
    cut = apply_inboard_cutout(wing, 0.25)
    assert cut.area == pytest.approx(0.75 * wing.area, rel=1e-12)
    assert cut.area * 1e4 == pytest.approx(19.1, abs=0.05)
    assert cut.span == wing.span
    assert cut.chord_breakpoints == wing.chord_breakpoints


def test_cutout_near_total_still_discretizes():
    wing = standard_wing(25.5)
    cut = apply_inboard_cutout(wing, 0.999)
    assert 0.0 < cut.area < 0.01 * wing.area
    elements = discretize(cut, 20)
    assert elements.active_area == pytest.approx(cut.area, rel=1e-6)


def test_cutout_rejects_bad_fraction():
    # The wing checks its own cutout, so replace() cannot skip the check,
    # and a cut wing rejects a fraction below its own cutout too.
    wing = WingGeometry(0.0, [(0.0, 0.028333), (0.09, 0.028333)])
    message = r"cutout span fraction must lie in \[0, 1\)"
    for base in (wing, apply_inboard_cutout(wing, 0.3)):
        for bad in (-0.1, 1.0, 1.5, math.nan):
            with pytest.raises(ValueError, match=message):
                apply_inboard_cutout(base, bad)
            with pytest.raises(ValueError, match=message):
                replace(base, cutout=bad)


def test_cutout_area_additivity():
    wing = standard_wing(25.5)
    cut = apply_inboard_cutout(wing, 0.25)
    assert cut.area + cut.removed_area == pytest.approx(wing.area, rel=1e-12)


def test_cutout_is_idempotent():
    wing = standard_wing(25.5)
    once = apply_inboard_cutout(wing, 0.25)
    twice = apply_inboard_cutout(once, 0.25)
    assert once == twice


def test_cutout_only_grows():
    cut = apply_inboard_cutout(standard_wing(25.5), 0.25)
    assert apply_inboard_cutout(cut, 0.1) == cut
    assert apply_inboard_cutout(cut, 0.0) == cut
    wider = apply_inboard_cutout(cut, 0.4)
    assert wider.cutout == 0.4
    assert wider == apply_inboard_cutout(standard_wing(25.5), 0.4)


@st.composite
def cut_wings(draw):
    """A wing of 2-10 chord breakpoints (the root chord may be zero), one
    or two inboard cutouts, some on a breakpoint, and an element count."""
    span = draw(st.floats(min_value=0.02, max_value=0.15))
    inner = draw(st.lists(st.floats(min_value=0.01, max_value=0.99),
                          max_size=8, unique=True))
    stations = [0.0] + sorted({f * span for f in inner}) + [span]
    chord = st.floats(min_value=0.0, max_value=0.05)
    chords = draw(st.lists(chord, min_size=len(stations),
                           max_size=len(stations)))
    wing = WingGeometry(0.0, list(zip(stations, chords)))
    fraction = st.one_of(
        st.floats(min_value=0.0, max_value=0.99),
        st.sampled_from([r / span for r in stations[:-1]]),
        st.sampled_from([0.1, 0.126, 0.138, 0.246, 0.25, 0.5]))
    cutouts = draw(st.lists(fraction, min_size=1, max_size=2))
    return wing, cutouts, draw(st.sampled_from([2, 10, 20, 37]))


@settings(max_examples=200, deadline=None)
@given(cut_wings())
def test_cut_wing_areas_match_piecewise_oracle_bitwise(case):
    wing, cutouts, n = case
    cut = wing
    for f in cutouts:
        cut = apply_inboard_cutout(cut, f)
    # Root-anchored cutouts merge into the widest one.
    cutout = max(cutouts)
    assert cut.cutout == cutout
    membrane, planform = strip_areas(wing, 0.0, wing.span, cutout)
    assert cut.area == membrane
    assert cut.removed_area == planform - membrane
    elements = discretize(cut, n)
    assert np.array_equal(elements.area_scale,
                          element_area_scale(wing, n, cutout))
    assert np.array_equal(elements.chord, discretize(wing, n).chord)


def test_partial_element_mask_keeps_area_exact():
    # Cutout edge inside an element: the area scale takes the exact
    # masked fraction, so summed element areas still match the wing.
    wing = standard_wing(25.5)
    cut = apply_inboard_cutout(wing, 0.26)
    elements = discretize(cut, 20)
    assert np.all((0.0 <= elements.area_scale) & (elements.area_scale <= 1.0))
    assert 0.0 < elements.area_scale[5] < 1.0
    assert elements.active_area == pytest.approx(cut.area, rel=1e-9)


def test_integral_quantities_converge_under_refinement():
    # Second moment of active area changes by < 0.5% from n=20 to n=40.
    wing = apply_inboard_cutout(standard_wing(25.5), 0.25)

    def second_moment(n):
        e = discretize(wing, n)
        return float(np.sum(e.chord * e.area_scale * e.radius**2 * e.width))

    assert second_moment(40) == pytest.approx(second_moment(20), rel=5e-3)


def test_scaled_to_area_preserves_shape():
    wing = standard_wing(25.5)
    bigger = scaled_to_area(wing, 31.4e-4)
    assert bigger.area == pytest.approx(31.4e-4, rel=1e-12)
    assert bigger.aspect_ratio == pytest.approx(wing.aspect_ratio, rel=1e-12)
    assert bigger.span == pytest.approx(wing.span * math.sqrt(31.4 / 25.5),
                                        rel=1e-12)
    # The shape a precompute's fit compares, formed once per wing.
    assert bigger.shape == pytest.approx(wing.shape, rel=1e-12)
    assert wing.shape is wing.shape
    assert apply_inboard_cutout(wing, 0.3).shape[1] == 0.3


def test_scaled_to_area_rejects_zero_area_wing():
    wing = WingGeometry(0.0, [(0.0, 0.0), (0.09, 0.0)])
    with pytest.raises(ValueError, match="cannot rescale a zero-area wing"):
        scaled_to_area(wing, 25e-4)


def test_elements_cover_the_span_from_the_flapping_axis():
    wing = standard_wing(25.5)
    elements = discretize(wing, 20)
    dr = wing.span / 20
    assert elements.radius[0] == pytest.approx(wing.root_offset + dr / 2,
                                               rel=1e-12)
    assert elements.radius[-1] == pytest.approx(
        wing.root_offset + wing.span - dr / 2, rel=1e-12)
