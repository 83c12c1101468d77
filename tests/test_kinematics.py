"""Fourier kinematics: evaluation, fitting, twist interpolation, AoA rule."""

import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from oracles import station_weights
from wingbeat.kinematics import (
    FourierSeries,
    WingKinematics,
    fit_fourier,
    geometric_aoa,
)


def reference_eval(a0, a, b, f, t):
    # Independent evaluator (plain Python loop) for round-trip checks.
    total = a0
    for n in range(1, len(a) + 1):
        total += a[n - 1] * math.cos(2 * math.pi * n * f * t)
        total += b[n - 1] * math.sin(2 * math.pi * n * f * t)
    return total


def random_series(rng, n=5):
    return FourierSeries(a0=float(rng.normal()),
                         a=tuple(rng.normal(size=n)),
                         b=tuple(rng.normal(size=n)))


def test_pure_sine_derivative_at_zero():
    b1 = math.radians(30.0)
    series = FourierSeries(a0=0.0, a=(0.0,), b=(b1,))
    assert series.eval(0.0, 17.3, 1) == pytest.approx(2 * math.pi * 17.3 * b1,
                                                      rel=1e-14)


def test_periodicity():
    rng = np.random.default_rng(7)
    series, f = random_series(rng), 17.3
    t = np.linspace(0.0, 1.0 / f, 37)
    assert np.allclose(series.eval(t, f), series.eval(t + 1.0 / f, f),
                       atol=1e-12)


@pytest.mark.parametrize("order", [1, 2])
def test_derivatives_match_finite_differences(order):
    rng = np.random.default_rng(11)
    series, f = random_series(rng), 17.3
    h = 1e-6 / f
    t = np.linspace(0.0, 1.0 / f, 101)
    lower = series.eval(t - h, f, order - 1)
    upper = series.eval(t + h, f, order - 1)
    fd = (upper - lower) / (2 * h)
    exact = series.eval(t, f, order)
    scale = np.max(np.abs(exact))
    assert np.all(np.abs(fd - exact) < 1e-6 * scale)


def test_eval_rejects_bad_order():
    series = FourierSeries(0.0, (0.0,), (1.0,))
    with pytest.raises(ValueError):
        series.eval(0.0, 10.0, 3)


def test_fit_recovers_pure_sine():
    f, b1 = 17.3, math.radians(30.0)
    t = np.linspace(0.0, 1.0 / f, 200, endpoint=False)
    samples = b1 * np.sin(2 * math.pi * f * t)
    series, rms = fit_fourier(t, samples, f)
    assert series.b[0] == pytest.approx(b1, abs=math.radians(1e-9))
    others = [series.a0] + list(series.a) + list(series.b[1:])
    assert max(abs(x) for x in others) < math.radians(1e-9)
    assert rms < 1e-12


def test_fit_constant_signal():
    f = 10.0
    t = np.linspace(0.0, 0.3, 40)
    series, _ = fit_fourier(t, np.full(40, math.radians(7.0)), f)
    assert series.a0 == pytest.approx(math.radians(7.0), rel=1e-12)
    assert max(map(abs, series.a + series.b)) < 1e-12


def test_fit_round_trip_five_harmonics():
    # Samples come from the independent evaluator, not the class itself.
    rng = np.random.default_rng(3)
    f = 17.3
    a0, a, b = 0.3, tuple(rng.normal(size=5)), tuple(rng.normal(size=5))
    t = np.linspace(0.0, 1.0 / f, 200, endpoint=False)
    samples = np.array([reference_eval(a0, a, b, f, tk) for tk in t])
    series, rms = fit_fourier(t, samples, f)
    assert series.a0 == pytest.approx(a0, rel=1e-9)
    for got, want in zip(series.a + series.b, a + b):
        assert got == pytest.approx(want, rel=1e-9)
    assert rms < 1e-9


def test_fit_needs_enough_samples():
    t = np.linspace(0.0, 0.05, 8)
    with pytest.raises(ValueError, match="samples"):
        fit_fourier(t, np.zeros(8), 20.0, n_harmonics=5)


def test_fit_rejects_unequal_sample_arrays():
    with pytest.raises(ValueError, match="equal length"):
        fit_fourier(np.linspace(0.0, 0.05, 8), np.zeros(7), 20.0, 1)


def test_fit_rejects_negative_harmonics():
    t = np.linspace(0.0, 0.05, 8)
    with pytest.raises(ValueError, match="at least 0, got -1"):
        fit_fourier(t, np.zeros(8), 20.0, n_harmonics=-1)


def test_fit_rejects_coincident_phases():
    f = 10.0
    t = np.arange(20) / f  # every sample at the same phase
    with pytest.raises(ValueError, match="rank"):
        fit_fourier(t, np.zeros(20), f, n_harmonics=3)


def test_fit_residual_never_grows_with_harmonics():
    rng = np.random.default_rng(5)
    f = 12.0
    t = np.linspace(0.0, 2.0 / f, 300, endpoint=False)
    # Deliberately non-band-limited target.
    samples = np.sign(np.sin(2 * math.pi * f * t)) + 0.1 * rng.normal(size=t.size)
    residuals = [fit_fourier(t, samples, f, n_harmonics=n)[1]
                 for n in range(1, 8)]
    assert all(r1 <= r0 + 1e-12 for r0, r1 in zip(residuals, residuals[1:]))


def constant_station(angle_deg):
    return FourierSeries(a0=math.radians(angle_deg), a=(0.0,), b=(0.0,))


def two_station_kinematics():
    stroke = FourierSeries(0.0, (0.0,), (math.radians(95.0),))
    return WingKinematics(stroke=stroke, rotation_stations=(
        (0.25, constant_station(90.0)), (1.0, constant_station(30.0))),
        frequency=17.3)


def test_rotation_interpolates_between_stations():
    kin = two_station_kinematics()
    assert kin.rotation_at(0.625, 0.0) == pytest.approx(math.radians(60.0),
                                                        rel=1e-12)


def test_rotation_hits_station_exactly():
    kin = two_station_kinematics()
    assert kin.rotation_at(0.25, 0.1) == pytest.approx(math.radians(90.0),
                                                       rel=1e-12)


def test_rotation_clamps_outside_stations():
    kin = two_station_kinematics()
    assert kin.rotation_at(0.1, 0.0) == pytest.approx(math.radians(90.0),
                                                      rel=1e-12)
    assert kin.rotation_at(1.0, 0.0) == pytest.approx(math.radians(30.0),
                                                      rel=1e-12)


def test_rotation_keeps_the_span_axis_of_an_array_of_fractions():
    kin = two_station_kinematics()
    one, two = kin.rotation_at(np.array([0.5]), 0.01), kin.rotation_at(
        np.array([0.5, 1.0]), 0.01)
    assert one.shape == (1,) and two.shape == (2,)
    assert one[0] == pytest.approx(kin.rotation_at(0.5, 0.01), rel=1e-15)
    assert two[0] == pytest.approx(one[0], rel=1e-15)
    assert type(kin.rotation_at(0.5, 0.01)) is float
    t = np.array([0.0, 0.01, 0.02])
    assert kin.rotation_at([0.5], t).shape == (3, 1)
    assert kin.rotation_at(0.5, t).shape == (3,)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_rotation_rejects_a_non_finite_span_fraction(value):
    kin = two_station_kinematics()
    message = f"span fraction must be finite, got {value}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        kin.rotation_at(value, 0.0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        kin.station_weights([0.5, value, 2.0])


def test_single_station_is_span_uniform():
    stroke = FourierSeries(0.0, (0.0,), (1.0,))
    kin = WingKinematics(stroke, ((0.7, constant_station(45.0)),), 17.3)
    for frac in (0.0, 0.3, 0.7, 1.0):
        assert kin.rotation_at(frac, 0.0) == pytest.approx(math.radians(45.0))


@st.composite
def stations_and_fractions(draw):
    """Kinematics of 1-5 stations, some at equal fractions, and span
    fractions below, on, between and above the stations."""
    fraction = st.floats(min_value=0.0, max_value=1.0)
    pool = draw(st.lists(fraction | st.sampled_from([-0.0, 0.0, 0.25, 1.0]),
                         min_size=1, max_size=5))
    fracs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    kin = WingKinematics(FourierSeries(0.0, (0.0,), (1.0,)), tuple(
        (f, constant_station(10.0 * k)) for k, f in enumerate(fracs)), 17.3)
    fracs = sorted(fracs)
    between = [a + (b - a) * draw(fraction)
               for a, b in zip(fracs[:-1], fracs[1:])]
    span = st.floats(min_value=-0.5, max_value=1.5) | st.sampled_from(
        fracs + between + [-0.0, 0.0, 1.0])
    return kin, draw(st.lists(span, min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(stations_and_fractions())
def test_station_weights_match_the_per_fraction_oracle_bitwise(case):
    kin, span_fractions = case
    got = kin.station_weights(span_fractions)
    assert got.tobytes() == station_weights(kin, span_fractions).tobytes()


def test_geometric_aoa_rules():
    a40 = math.radians(40.0)
    assert geometric_aoa(a40, 1.0) == pytest.approx(a40)
    assert geometric_aoa(a40, -1.0) == pytest.approx(math.radians(140.0))
    # Stroke reversal takes the upstroke's angle, clipped to [0, pi].
    assert geometric_aoa(a40, 0.0) == a40
    assert geometric_aoa(-a40, 0.0) == 0.0
    assert geometric_aoa(math.pi + a40, 0.0) == math.pi


def test_geometric_aoa_range_and_reversal():
    rng = np.random.default_rng(2)
    alpha = rng.uniform(0.0, math.pi, 500)
    rate = rng.normal(size=500)
    aoa = geometric_aoa(alpha, rate)
    assert np.all((0.0 <= aoa) & (aoa <= math.pi))
    assert np.all(geometric_aoa(alpha, np.zeros(500)) == alpha)


def test_amplitude_from_dense_sampling():
    b1 = math.radians(95.0)
    stroke = FourierSeries(0.0, (0.0,), (b1,))
    kin = WingKinematics(stroke, ((1.0, constant_station(45.0)),), 17.3)
    assert kin.stroke_amplitude == pytest.approx(2 * b1, rel=1e-2)
    # Multi-harmonic amplitude against a 10x denser grid.
    rng = np.random.default_rng(9)
    stroke = FourierSeries(0.1, tuple(rng.normal(size=5) * 0.3),
                           tuple(rng.normal(size=5) * 0.3))
    kin = WingKinematics(stroke, ((1.0, constant_station(45.0)),), 17.3)
    t = np.linspace(0.0, 1.0 / 17.3, 14400, endpoint=False)
    dense = float(np.ptp(stroke.eval(t, 17.3)))
    assert kin.stroke_amplitude == pytest.approx(dense, rel=1e-4)


def test_frequency_rescaling_scales_rates():
    kin = two_station_kinematics()
    f = kin.frequency
    faster = kin.with_frequency(2 * f)
    # Same phase point: rates double, angles match.
    t, t2 = 0.013, 0.0065
    assert faster.stroke.eval(t2, 2 * f) == pytest.approx(
        kin.stroke.eval(t, f), rel=1e-12)
    assert faster.stroke.eval(t2, 2 * f, 1) == pytest.approx(
        2 * kin.stroke.eval(t, f, 1), rel=1e-12)


def test_frequency_rescaling_keeps_every_series():
    # A time rescale changes the one frequency and no series.
    kin = two_station_kinematics()
    faster = kin.with_frequency(31.0)
    assert faster.frequency == 31.0
    assert faster.stroke is kin.stroke
    assert faster.rotation_stations == kin.rotation_stations


def test_amplitude_rescaling():
    kin = two_station_kinematics()
    target = math.radians(120.0)
    scaled = kin.with_stroke_amplitude(target)
    assert scaled.stroke_amplitude == pytest.approx(target, rel=1e-2)
    assert scaled.rotation_stations == kin.rotation_stations


def test_rescaled_kinematics_keep_the_known_amplitude():
    # The requested amplitude is recorded, and a time rescale keeps it;
    # for one harmonic it is also the sampled range of the new stroke.
    kin = two_station_kinematics()
    target = math.radians(120.0)
    faster = kin.with_stroke_amplitude(target).with_frequency(31.0)
    assert faster.stroke_amplitude == target
    fresh = WingKinematics(faster.stroke, faster.rotation_stations, 31.0)
    assert fresh.stroke_amplitude == pytest.approx(target, rel=1e-12)
    assert fresh.with_frequency(12.0).stroke_amplitude \
        == fresh.stroke_amplitude


@pytest.mark.parametrize("amplitude", [0.0, -1.0, math.inf, math.nan])
def test_amplitude_rescaling_rejects_non_positive_or_non_finite(amplitude):
    with pytest.raises(ValueError, match=f"got {amplitude} rad"):
        two_station_kinematics().with_stroke_amplitude(amplitude)


def test_kinematics_validation():
    stroke = FourierSeries(0.0, (0.0,), (1.0,))
    with pytest.raises(ValueError, match="station"):
        WingKinematics(stroke, (), 17.3)
    with pytest.raises(ValueError, match="must have equal length"):
        FourierSeries(0.0, (1.0,), ())
    with pytest.raises(ValueError, match="frequency must be positive"):
        WingKinematics(stroke, ((1.0, constant_station(45.0)),), 0.0)


def test_half_wave_symmetry_is_odd_harmonics_about_a_right_angle():
    # Exact comparisons: 90 degrees converted is pi/2, the stroke's own
    # mean does not count, and any even harmonic or other station mean,
    # however small the difference, breaks the symmetry.
    assert math.radians(90.0) == math.pi / 2
    odd = FourierSeries(math.radians(90.0), (0.1, 0.0, 0.2), (0.0, 0.0, -0.3))
    stroke = FourierSeries(0.3, (0.0, 0.0, 0.1), (1.0, 0.0, 0.0))
    kin = WingKinematics(stroke, ((0.2, odd), (1.0, odd)), 17.3)
    assert kin.half_wave_symmetric
    assert kin.with_frequency(11.0).with_stroke_amplitude(2.0) \
        .half_wave_symmetric
    off_mean = FourierSeries(math.nextafter(math.pi / 2, 4.0), odd.a, odd.b)
    for broken in (
            FourierSeries(0.3, (0.0, 1e-300, 0.1), stroke.b),
            FourierSeries(0.3, stroke.a, (1.0, -1e-300, 0.0)),
            FourierSeries(0.3, (0.0, 0.0, 0.1, 1e-300), (1.0, 0.0, 0.0, 0.0))):
        assert not WingKinematics(broken, kin.rotation_stations,
                                  17.3).half_wave_symmetric
    for station in (off_mean, FourierSeries(0.0, odd.a, odd.b),
                    FourierSeries(odd.a0, (0.1, 1e-300), (0.0, 0.0))):
        assert not WingKinematics(stroke, ((0.2, odd), (1.0, station)),
                                  17.3).half_wave_symmetric


@pytest.mark.parametrize("a, b, mirrored", [
    ((0.0, 0.0, 0.1), (1.0, 0.0, 0.0), False),
    ((0.0, 0.0, 0.0), (1.0, 0.0, -0.3), True),
    ((1.0, 0.0, 0.2), (0.0, 0.0, -0.0), True),
    ((), (), True),
    ((1e-300,), (1.0,), False),
    ((0.0, 1e-300), (1.0, 0.0), False),
    ((1.0, 0.0), (0.0, 1e-300), False)])
def test_quarter_wave_mirror_is_odd_harmonics_of_one_phase(a, b, mirrored):
    # Exact comparisons, and the rotation does not count. Where it holds,
    # the stroke speed at T/2 - t is that at t.
    odd = FourierSeries(1.2, (0.1, 0.3), (0.5, 0.0))
    kin = WingKinematics(FourierSeries(0.3, a, b), ((1.0, odd),), 17.3)
    assert kin.quarter_wave_mirrored is mirrored
    if mirrored:
        speed = np.abs(kin.stroke.eval(np.linspace(0.0, 0.5 / 17.3, 31),
                                       17.3, 1))
        np.testing.assert_allclose(speed, speed[::-1], rtol=1e-12,
                                   atol=1e-12)
