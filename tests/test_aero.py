"""Blade-element force model, induced-velocity root, cycle averages."""

from collections import Counter
from dataclasses import replace
import math
from pathlib import Path
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import wingbeat as wb
from wingbeat import aero
from wingbeat.aero import (
    MIN_REYNOLDS,
    AeroEnvironment,
    CyclePrecompute,
    ElementState,
    SolverSettings,
    aero_coefficients,
    compare_wings,
    element_acceleration,
    element_forces,
    reynolds,
    simulate_cycle,
    solve_induced_velocity,
    _element_grid_state,
)
from wingbeat.kinematics import FourierSeries, WingKinematics, geometric_aoa
from wingbeat.presets import beetle_kinematics, standard_wing
from wingbeat.wing import (
    apply_inboard_cutout,
    build_wing,
    discretize,
    scaled_to_area,
)

from oracles import pair_mean_power, pair_mean_thrust, reference_forces

FIXTURES = Path(__file__).parent / "fixtures"


def pinned():
    values = {}
    for line in (FIXTURES / "pinned_values.txt").read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            name, value = line.split()
            values[name] = float(value)
    return values


PINNED = pinned()
ENV = AeroEnvironment()


def scalar_state(**overrides):
    state = dict(radius=0.05, chord=0.03, pitch_axis=0.0075, width=0.0045,
                 area_scale=1.0, stroke_rate=10.0, stroke_accel=0.0,
                 rotation_angle=math.radians(45.0), rotation_rate=0.0,
                 rotation_accel=0.0, v_induced=0.0)
    state.update(overrides)
    return ElementState(**{k: np.float64(v) if not isinstance(v, float) else v
                           for k, v in state.items()})


# ---------------------------------------------------------------- coefficients

def test_coefficients_pinned_scalar_evaluation():
    # Independent plain-math evaluation of the empirical model.
    re = 1.95e4
    expect_cl = (1.966 - 3.94 * re**-0.429) * math.sin(2 * math.radians(45.0))
    expect_cd = (0.031 + 10.48 * re**-0.764
                 + (1.873 - 3.14 * re**-0.369)
                 * (1.0 - math.cos(2 * math.radians(45.0))))
    cl, cd = aero_coefficients(math.radians(45.0), re)
    assert cl == pytest.approx(expect_cl, rel=1e-12)
    assert cd == pytest.approx(expect_cd, rel=1e-12)
    assert cl == pytest.approx(PINNED["cl_45deg_re19500"], rel=1e-12)
    assert cd == pytest.approx(PINNED["cd_45deg_re19500"], rel=1e-12)
    assert cl == pytest.approx(1.909, abs=5e-4)
    assert cd == pytest.approx(1.827, abs=1e-3)


def test_coefficients_zero_incidence():
    cl, cd = aero_coefficients(0.0, 1.95e4)
    assert cl == 0.0
    assert cd == pytest.approx(PINNED["cd_0deg_re19500"], rel=1e-12)
    assert cd == pytest.approx(0.0365, abs=1e-4)


def test_coefficients_reject_bad_reynolds():
    # Below Re ~ 5.055 the fit's lift amplitude is negative.
    assert MIN_REYNOLDS == pytest.approx(5.055, abs=5e-4)
    assert 1.966 - 3.94 * MIN_REYNOLDS**-0.429 == pytest.approx(
        0.0, abs=1e-12)
    for re in (0.0, -10.0, 1.0, 5.0, math.nan):
        with pytest.raises(ValueError) as error:
            aero_coefficients(0.5, re)
        assert str(error.value) == (
            f"Reynolds number {re:.6g} is not above the coefficient fit's "
            f"lower limit 5.05544")
    cl, _ = aero_coefficients(0.5, 5.1)
    assert cl > 0.0


@pytest.mark.parametrize("re", [1e3, 1e4, 1e5])
def test_coefficient_symmetries(re):
    alpha = np.radians(np.arange(0, 91))
    cl_pos, cd_pos = aero_coefficients(alpha, re)
    cl_neg, cd_neg = aero_coefficients(-alpha, re)
    assert np.allclose(cl_neg, -cl_pos, atol=1e-14)
    assert np.allclose(cd_neg, cd_pos, atol=1e-14)
    assert int(np.argmax(cl_pos)) == 45


# -------------------------------------------------------------------- Reynolds

def test_reynolds_of_study_wing():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    re = reynolds(wing, kin, ENV)
    hand = 2.0 * wing.mean_chord * kin.stroke_amplitude * 17.3 * wing.span / ENV.nu
    assert re == pytest.approx(hand, rel=1e-12)
    assert re == pytest.approx(PINNED["reynolds_standard_wing"], rel=1e-12)
    assert re == pytest.approx(1.95e4, rel=3e-3)


def test_reynolds_doubles_with_frequency():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    assert reynolds(wing, kin.with_frequency(34.6), ENV) == \
        pytest.approx(2.0 * reynolds(wing, kin, ENV), rel=1e-12)


def test_reynolds_degenerate_inputs():
    kin = beetle_kinematics(17.3, 190.0)
    zero_area = build_wing([(0.0, 0.0), (0.09, 0.0)])
    with pytest.raises(ValueError):
        reynolds(zero_area, kin, ENV)
    frozen = WingKinematics(
        stroke=FourierSeries(0.0, (0.0,), (0.0,), 17.3),
        rotation_stations=kin.rotation_stations)
    with pytest.raises(ValueError):
        reynolds(standard_wing(25.5), frozen, ENV)


# -------------------------------------------------------- section acceleration

def test_acceleration_hand_case():
    state = scalar_state(stroke_accel=100.0, stroke_rate=10.0,
                         rotation_angle=math.radians(60.0),
                         rotation_accel=50.0)
    arm = 0.03 / 2 - 0.0075
    hand = ((0.05 * 100.0 + arm * 100.0 * math.cos(math.radians(60.0)))
            * math.sin(math.radians(60.0)) + arm * 50.0)
    a_w = element_acceleration(state)
    assert a_w == pytest.approx(hand, rel=1e-12)
    assert a_w == pytest.approx(PINNED["a_w_hand_case"], rel=1e-12)


def test_acceleration_degenerate_cases():
    assert element_acceleration(scalar_state(rotation_angle=0.0)) == 0.0
    # Pitch axis at mid-chord kills the offset terms.
    state = scalar_state(pitch_axis=0.015, stroke_accel=100.0,
                         rotation_angle=math.radians(30.0))
    assert element_acceleration(state) == pytest.approx(
        0.05 * 100.0 * math.sin(math.radians(30.0)), rel=1e-12)


# ------------------------------------------------------------------ forces

def test_rotational_force_vanishes_without_pitch_rate():
    fb = element_forces(scalar_state(rotation_rate=0.0), ENV, 1.95e4)
    assert fb.rotational_eta == 0.0
    assert fb.rotational_zeta == 0.0


def test_rotational_force_vanishes_at_three_quarter_axis():
    state = scalar_state(pitch_axis=0.75 * 0.03, rotation_rate=40.0)
    fb = element_forces(state, ENV, 1.95e4)
    assert fb.rotational_eta == pytest.approx(0.0, abs=1e-15)
    assert fb.rotational_zeta == pytest.approx(0.0, abs=1e-15)


def test_static_plate_translational_lift():
    # Steady sweep at 45 deg with no inflow; the mid-chord pitch axis kills
    # the centripetal added-mass term, so the vertical force reduces to the
    # bare lift-coefficient form.
    state = scalar_state(stroke_rate=12.0, pitch_axis=0.015)
    fb = element_forces(state, ENV, 1.95e4)
    cl, _ = aero_coefficients(math.radians(45.0), 1.95e4)
    v = 0.05 * 12.0
    assert fb.translational_zeta == pytest.approx(
        0.5 * ENV.rho * 0.03 * cl * v * v * 0.0045, rel=1e-12)
    assert fb.added_mass_zeta == 0.0
    assert fb.rotational_zeta == 0.0
    assert fb.total_zeta == fb.translational_zeta


def test_forces_scale_with_membrane_area():
    full = element_forces(scalar_state(stroke_accel=80.0, rotation_rate=20.0),
                          ENV, 1.95e4)
    half = element_forces(scalar_state(stroke_accel=80.0, rotation_rate=20.0,
                                       area_scale=0.5), ENV, 1.95e4)
    for name in ("translational_eta", "added_mass_eta", "rotational_eta",
                 "translational_zeta", "added_mass_zeta", "rotational_zeta"):
        assert getattr(half, name) == pytest.approx(
            0.5 * getattr(full, name), rel=1e-12)


def test_breakdown_totals_are_exact_sums():
    rng = np.random.default_rng(4)
    state = scalar_state(stroke_rate=rng.uniform(5, 15),
                         stroke_accel=rng.uniform(-100, 100),
                         rotation_rate=rng.uniform(-40, 40),
                         rotation_accel=rng.uniform(-100, 100),
                         v_induced=1.2)
    fb = element_forces(state, ENV, 1.95e4)
    assert fb.total_eta == fb.translational_eta + fb.added_mass_eta + fb.rotational_eta
    assert fb.total_zeta == fb.translational_zeta + fb.added_mass_zeta + fb.rotational_zeta


def test_element_state_derived_arrays_are_computed_once():
    _, state = _element_grid_state(discretize(standard_wing(25.5), 20),
                                   beetle_kinematics(17.3, 190.0), 72)
    state = state.with_inflow(1.5)
    inflow_free = ("v_translational", "alpha_geometric", "rotation_trig",
                   "translational_terms", "unsteady_terms")
    for name in inflow_free + ("inflow_angle", "alpha_effective"):
        assert getattr(state, name) is getattr(state, name)
    moved = state.with_inflow(0.5)
    assert moved.v_induced == 0.5 and state.v_induced == 1.5
    for name in inflow_free:
        assert getattr(moved, name) is getattr(state, name)
    assert not np.array_equal(moved.inflow_angle, state.inflow_angle)
    assert not np.array_equal(moved.alpha_effective, state.alpha_effective)


angles = st.floats(min_value=-2.0 * math.pi, max_value=3.0 * math.pi)
rates = st.one_of(st.just(0.0), st.floats(min_value=-1.0, max_value=1.0))


@st.composite
def unit_states(draw):
    """A scalar element or a small grid with stroke reversal rows and
    rotation angles on both sides of [0, pi], whose translational force
    per squared speed T, added-mass factor pi c^2 / 4 and arm are 1: its
    T sin 2 alpha_g and T cos 2 alpha_g are the bare sines, and its
    added-mass force is sin alpha_g times a chord-normal acceleration of
    1 + sin theta cos theta (stroke rate)^2, within [0.5, 1.5]."""
    if draw(st.booleans()):
        theta, rate = draw(angles), draw(rates)
    else:
        steps, n = draw(st.integers(1, 6)), draw(st.integers(1, 4))
        theta = np.reshape(draw(st.lists(angles, min_size=steps * n,
                                         max_size=steps * n)), (steps, n))
        rate = np.array(draw(st.lists(rates, min_size=steps,
                                      max_size=steps)))[:, None]
    chord = 2.0 / math.pi
    return ElementState(radius=0.05, chord=chord, pitch_axis=0.5 * chord - 1.0,
                        width=math.pi, area_scale=1.0, stroke_rate=rate,
                        stroke_accel=0.0, rotation_angle=theta,
                        rotation_rate=np.zeros_like(theta),
                        rotation_accel=np.ones_like(theta))


@settings(max_examples=300, deadline=None)
@given(unit_states())
def test_geometric_sines_are_products_of_the_rotation_angles(state):
    # sin alpha_g, sin 2 alpha_g and cos 2 alpha_g come from one sin/cos
    # pass over the rotation angle: upstroke, downstroke, reversal and the
    # clip to [0, pi] all agree with the trig of geometric_aoa.
    alpha = geometric_aoa(state.rotation_angle, state.stroke_rate)
    trans, s_t, c_t = state.translational_terms
    added, _, _ = state.unsteady_terms
    accel = element_acceleration(state)
    for got, want in ((s_t, np.sin(2.0 * alpha)), (c_t, np.cos(2.0 * alpha)),
                      (added, accel * np.sin(alpha))):
        assert np.shape(got) == np.shape(alpha)
        assert np.all(np.abs(got - want) <= 1e-15)
    assert abs(trans - 1.0) <= 1e-15


# -------------------------------------------------------- induced velocity

def test_induced_velocity_zero_kinematics():
    wing = standard_wing(25.5)
    kin = WingKinematics(
        stroke=FourierSeries(0.0, (0.0,), (0.0,), 17.3),
        rotation_stations=((1.0, FourierSeries(math.pi / 2, (0.0,), (0.0,),
                                               17.3)),))
    with pytest.raises(ValueError, match="degenerate kinematics"):
        solve_induced_velocity(wing, kin, ENV)


def momentum_residual(wing, kin, env, v, steps=720, n_elements=20):
    """g(v) of the inflow balance, on the full force path."""
    thrust = pair_mean_thrust(discretize(wing, n_elements), kin, env, steps,
                              v, reynolds(wing, kin, env))
    return (math.sqrt(max(thrust, 0.0)
                      / (2.0 * env.rho * kin.stroke_amplitude * wing.span**2))
            - v)


def lopsided_kinematics(f):
    """Two-harmonic stroke and offset rotation: the added-mass and
    rotational terms keep a cycle-mean power, which the symmetric beetle
    stroke averages out."""
    return WingKinematics(
        stroke=FourierSeries(0.1, (0.0, 0.25), (1.6, 0.3), f),
        rotation_stations=(
            (0.25, FourierSeries(1.45, (-0.2, 0.05), (0.1, 0.0), f)),
            (1.0, FourierSeries(1.35, (-0.6, 0.1), (-0.5, 0.05), f))))


@pytest.mark.parametrize("cutout", [0.0, 0.3])
@pytest.mark.parametrize("shape", [beetle_kinematics, lopsided_kinematics])
def test_rescaled_precompute_matches_full_path(shape, cutout):
    # One precompute of the 25.5 cm^2 wing at the base kinematics serves
    # every geometrically similar wing, amplitude factor a and frequency
    # ratio r; the oracles rebuild the grid at each point.
    base = shape(17.3)
    reference = standard_wing(25.5)
    precompute = CyclePrecompute.build(
        apply_inboard_cutout(reference, cutout), base, SolverSettings())
    for area in (20.1, 25.5, 31.4):
        wing = apply_inboard_cutout(scaled_to_area(reference, area * 1e-4),
                                    cutout)
        elements = discretize(wing, 20)
        for a in (0.7, 1.0, 1.3):
            for r in (0.6, 1.0, 1.5):
                kin = base.with_stroke_amplitude(
                    a * base.stroke_amplitude).with_frequency(r * 17.3)
                re = reynolds(wing, kin, ENV)
                scales = precompute.fit(wing, kin)
                for v in (0.0, 0.6, 1.87, 3.5):
                    thrust, power = precompute.loads(scales, v, re,
                                                     ENV.rho)
                    assert thrust == pytest.approx(pair_mean_thrust(
                        elements, kin, ENV, 720, v, re), rel=1e-12)
                    assert power == pytest.approx(pair_mean_power(
                        elements, kin, ENV, 720, v, re), rel=1e-12)


def test_precompute_rejects_a_wing_it_does_not_fit():
    # A cut wing solved on the uncut wing's precompute would return the
    # uncut wing's unsteady terms and element layout.
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    solver = SolverSettings(steps_per_cycle=72, n_elements=10)
    precompute = CyclePrecompute.build(wing, kin, solver)
    stubby = build_wing([(r, 1.2 * c) for r, c in wing.chord_breakpoints],
                        root_offset=wing.root_offset)
    offset = replace(wing, root_offset=2.0 * wing.root_offset)
    for other in (apply_inboard_cutout(wing, 0.4), stubby, offset,
                  replace(wing, pitch_axis_fraction=0.3)):
        with pytest.raises(ValueError) as error:
            solve_induced_velocity(other, kin, ENV, solver,
                                   precompute=precompute)
        assert str(error.value) == ("wing is not a geometric rescaling of "
                                    "the precomputed wing")
    similar = scaled_to_area(wing, 31.4e-4)
    solve_induced_velocity(similar, kin, ENV, solver, precompute=precompute)


def test_precompute_rejects_kinematics_of_another_shape():
    base = beetle_kinematics(17.3, 190.0)
    wing = standard_wing(25.5)
    precompute = CyclePrecompute.build(
        wing, base, SolverSettings(steps_per_cycle=72, n_elements=10))
    reversed_stroke = replace(base, stroke=base.stroke.scaled(-1.0))
    # The tip twisting 50 deg instead of 60.
    inboard, (tip, series) = base.rotation_stations
    more_twist = replace(base, rotation_stations=(
        inboard, (tip, series.scaled(50.0 / 60.0))))
    for kin in (reversed_stroke, more_twist):
        with pytest.raises(ValueError, match="not a rescaling"):
            precompute.fit(wing, kin)


def test_precompute_build_frees_its_grid_before_the_moments():
    # The build drops its grid, the unsteady terms with it, before the
    # moments form, whatever the interpreter's calling convention. Holding
    # the grid to the end peaks near 2.5 MB on 720 x 20.
    wing, kin = standard_wing(25.5), beetle_kinematics(17.3, 190.0)
    CyclePrecompute.build(wing, kin, SolverSettings())
    tracemalloc.start()
    try:
        CyclePrecompute.build(wing, kin, SolverSettings())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 2**20


def test_induced_velocity_sweep_corners():
    for amplitude in (120.0, 190.0):
        for area in (20.1, 31.4):
            for cutout in (0.0, 0.3):
                for f in (12.0, 24.0):
                    wing = apply_inboard_cutout(standard_wing(area), cutout)
                    kin = beetle_kinematics(f, amplitude)
                    result = solve_induced_velocity(wing, kin, ENV)
                    assert result.iterations <= 8
                    assert result.residual <= 1e-6
                    g = momentum_residual(wing, kin, ENV, result.v_induced)
                    assert abs(g) <= 1e-6 + 1e-12


def test_pinned_inflow_is_the_momentum_root():
    # Independent bisection on the full force path.
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    lo, hi = 0.0, 5.0
    assert momentum_residual(wing, kin, ENV, lo) > 0.0
    assert momentum_residual(wing, kin, ENV, hi) < 0.0
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        if momentum_residual(wing, kin, ENV, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(PINNED["cycle_v_induced"],
                                            abs=1e-11)


def test_cycle_inflow_matches_standalone_solve():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    precompute = CyclePrecompute.build(wing, kin, SolverSettings())
    alone = solve_induced_velocity(wing, kin, ENV)
    given = solve_induced_velocity(wing, kin, ENV, precompute=precompute)
    cycle = simulate_cycle(wing, kin, ENV)
    assert cycle.v_induced == alone.v_induced == given.v_induced
    assert cycle.vi_info == alone == given


def test_one_precompute_serves_any_air():
    # A precompute holds no density: solved in two airs, it gives what a
    # fresh build in each air gives, bit for bit.
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    precompute = CyclePrecompute.build(wing, kin, SolverSettings())
    for env in (ENV, AeroEnvironment(rho=0.6, nu=2e-5)):
        shared = solve_induced_velocity(wing, kin, env, precompute=precompute)
        assert shared == solve_induced_velocity(wing, kin, env)
        assert shared == simulate_cycle(wing, kin, env).vi_info


def test_precompute_on_another_grid_is_rejected():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    precompute = CyclePrecompute.build(
        wing, kin, SolverSettings(steps_per_cycle=36, n_elements=2))
    for solver in (SolverSettings(), SolverSettings(steps_per_cycle=36),
                   SolverSettings(steps_per_cycle=72, n_elements=2)):
        with pytest.raises(ValueError) as error:
            solve_induced_velocity(wing, kin, ENV, solver,
                                   precompute=precompute)
        assert str(error.value) == (
            f"precompute grid (36, 2) is not the solver grid "
            f"({solver.steps_per_cycle}, {solver.n_elements})")


def test_induced_velocity_self_consistency():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    result = solve_induced_velocity(wing, kin, ENV)
    elements = discretize(wing, 20)
    re = reynolds(wing, kin, ENV)
    thrust = pair_mean_thrust(elements, kin, ENV, 720, result.v_induced, re)
    rederived = math.sqrt(max(thrust, 0.0)
                          / (2.0 * ENV.rho * kin.stroke_amplitude * wing.span**2))
    assert abs(rederived - result.v_induced) < 1e-6


def test_induced_velocity_reports_thrust_at_the_root():
    wing = apply_inboard_cutout(standard_wing(25.5), 0.3)
    kin = beetle_kinematics(17.3, 190.0)
    result = solve_induced_velocity(wing, kin, ENV)
    thrust = pair_mean_thrust(discretize(wing, 20), kin, ENV, 720,
                              result.v_induced, reynolds(wing, kin, ENV))
    assert result.lift == pytest.approx(thrust, rel=1e-12)


@pytest.mark.parametrize("cutout", [0.0, 0.3])
@pytest.mark.parametrize("pair", [True, False])
@pytest.mark.parametrize("shape", [beetle_kinematics, lopsided_kinematics])
def test_induced_velocity_reports_lift_and_power_at_the_root(shape, pair,
                                                              cutout):
    # The solve's lift and power are those of a force pass at its inflow,
    # for the pair or for one wing as the solver says.
    wing = apply_inboard_cutout(standard_wing(25.5), cutout)
    kin = shape(17.3)
    solver = SolverSettings(pair=pair)
    result = solve_induced_velocity(wing, kin, ENV, solver)
    cycle = simulate_cycle(wing, kin, ENV, solver,
                           induced_velocity=result.v_induced)
    assert result.lift == pytest.approx(cycle.mean_lift, rel=1e-12)
    assert result.power == pytest.approx(cycle.mean_aero_power, rel=1e-12)


def test_induced_velocity_density_invariance():
    # Thrust scales with rho, so rho cancels out of the fixed point.
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    v1 = solve_induced_velocity(wing, kin, ENV).v_induced
    dense = AeroEnvironment(rho=4 * ENV.rho, nu=ENV.nu)
    v4 = solve_induced_velocity(wing, kin, dense).v_induced
    assert abs(v4 - v1) < 5e-6


def test_induced_velocity_nonconvergence_raises():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    with pytest.raises(RuntimeError, match="residual"):
        solve_induced_velocity(wing, kin, ENV, SolverSettings(vi_max_iter=2))
    with pytest.raises(ValueError, match="max_iter"):
        solve_induced_velocity(wing, kin, ENV, SolverSettings(vi_max_iter=0))


def test_induced_velocity_non_finite_thrust_raises():
    # A finite but absurd chord overflows the thrust to nan.
    wing = build_wing([(0.0, 0.02), (0.09, 1e300)])
    kin = beetle_kinematics(17.3, 190.0)
    with pytest.raises(RuntimeError, match="non-finite cycle-mean thrust nan"):
        solve_induced_velocity(wing, kin, ENV)


def inverted_twist_kinematics(f=17.3):
    # Twist phased to push air upward on both half-strokes: negative lift.
    stroke = FourierSeries(0.0, (0.0,), (math.radians(95.0),), f)
    rot = FourierSeries(math.pi / 2, (math.radians(60.0),), (0.0,), f)
    return WingKinematics(stroke, ((1.0, rot),))


def test_negative_thrust_pins_inflow_at_zero():
    wing = standard_wing(25.5)
    result = solve_induced_velocity(wing, inverted_twist_kinematics(), ENV)
    assert result.v_induced == 0.0
    assert result.negative_thrust
    assert result.iterations == 1
    cycle = simulate_cycle(wing, inverted_twist_kinematics(), ENV)
    assert cycle.mean_lift < 0.0
    assert cycle.vi_info.negative_thrust


# ------------------------------------------------------------ cycle averages

def flat_plate_kinematics(f=17.3):
    stroke = FourierSeries(0.0, (0.0,), (math.radians(95.0),), f)
    rot = FourierSeries(math.pi / 2, (0.0,), (0.0,), f)
    return WingKinematics(stroke, ((1.0, rot),))


def test_symmetric_stroke_has_zero_mean_lateral_force():
    # Edge-on plate, symmetric stroke: the fixed-direction eta history
    # cancels between half-strokes.
    wing = build_wing([(0.0, 0.028333), (0.09, 0.028333)])
    result = simulate_cycle(wing, flat_plate_kinematics(), ENV)
    eta = result.time_series.forces.total_eta
    assert abs(np.mean(eta)) < 1e-12 * np.max(np.abs(eta))


def test_step_refinement():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    coarse = simulate_cycle(wing, kin, ENV, SolverSettings(steps_per_cycle=720))
    fine = simulate_cycle(wing, kin, ENV, SolverSettings(steps_per_cycle=1440))
    assert fine.mean_lift == pytest.approx(coarse.mean_lift, rel=5e-3)
    assert fine.mean_aero_power == pytest.approx(coarse.mean_aero_power,
                                                 rel=5e-3)


def test_minimum_steps_enforced():
    with pytest.raises(ValueError):
        simulate_cycle(standard_wing(25.5), beetle_kinematics(), ENV,
                       SolverSettings(steps_per_cycle=20))


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf, -3.0])
def test_cycle_rejects_a_bad_fixed_inflow(v):
    with pytest.raises(ValueError) as error:
        simulate_cycle(standard_wing(25.5), beetle_kinematics(), ENV,
                       induced_velocity=v)
    assert str(error.value) == (
        f"induced velocity must be finite and non-negative, got {v}")


def test_fixed_inflow_whose_loads_overflow_is_one_error():
    # The force pass runs under the grid's errstate: no warning escapes,
    # and the non-finite mean is reported as the inflow solve reports it.
    with pytest.raises(RuntimeError) as error:
        simulate_cycle(standard_wing(25.5), beetle_kinematics(17.3, 190.0),
                       ENV, induced_velocity=1e200)
    assert str(error.value) == (
        "non-finite cycle-mean lift nan at inflow 1e+200 m/s")


def test_solved_cycle_forms_each_inflow_free_term_once(monkeypatch):
    # The inflow solve's precompute and the force pass read one set of
    # cached cell terms, with one sin/cos pass over the rotation angle and
    # no geometric angle of attack.
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(aero, "geometric_aoa",
                        counting("geometric_aoa", aero.geometric_aoa))
    for name in ("rotation_trig", "translational_terms", "unsteady_terms"):
        term = vars(ElementState)[name]
        monkeypatch.setattr(term, "func", counting(name, term.func))
    result = simulate_cycle(standard_wing(25.5),
                            beetle_kinematics(17.3, 190.0), ENV)
    assert result.vi_info is not None
    assert calls == {"rotation_trig": 1, "translational_terms": 1,
                     "unsteady_terms": 1}


def test_spanwise_bookkeeping_and_trapezoid_consistency():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    result = simulate_cycle(wing, kin, ENV)
    assert result.mean_lift == pytest.approx(float(np.sum(result.spanwise_lift)),
                                             rel=1e-10)
    assert result.mean_aero_power == pytest.approx(
        float(np.sum(result.spanwise_power)), rel=1e-10)
    # Trapezoid average with periodic closure equals the stored mean.
    zeta = result.time_series.forces.total_zeta
    closed = np.append(zeta, zeta[0])
    trapezoid = float(np.trapezoid(closed, dx=1.0 / zeta.size))
    assert result.mean_lift == pytest.approx(trapezoid, rel=1e-10)
    power = result.time_series.power
    closed = np.append(power, power[0])
    assert result.mean_aero_power == pytest.approx(
        float(np.trapezoid(closed, dx=1.0 / power.size)), rel=1e-10)


def test_pair_doubles_single_wing():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    single = simulate_cycle(wing, kin, ENV, SolverSettings(pair=False),
                            induced_velocity=1.5)
    pair = simulate_cycle(wing, kin, ENV, SolverSettings(pair=True),
                          induced_velocity=1.5)
    assert pair.mean_lift == pytest.approx(2 * single.mean_lift, rel=1e-14)
    assert pair.mean_aero_power == pytest.approx(2 * single.mean_aero_power,
                                                 rel=1e-14)


def test_density_linearity_at_fixed_inflow():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    base = simulate_cycle(wing, kin, ENV, induced_velocity=1.5)
    dense = simulate_cycle(wing, kin, AeroEnvironment(rho=4 * ENV.rho),
                           induced_velocity=1.5)
    assert np.allclose(dense.spanwise_lift, 4 * base.spanwise_lift, rtol=1e-14)
    assert np.allclose(dense.spanwise_power, 4 * base.spanwise_power,
                       rtol=1e-14)


def test_frequency_squared_scaling_without_inflow():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    base = simulate_cycle(wing, kin, ENV, induced_velocity=0.0)
    # Twice the viscosity holds the Reynolds number at twice the frequency.
    double = simulate_cycle(wing, kin.with_frequency(34.6),
                            AeroEnvironment(rho=ENV.rho, nu=2 * ENV.nu),
                            induced_velocity=0.0)
    assert double.mean_lift == pytest.approx(4 * base.mean_lift, rel=1e-6)
    # Power carries one extra factor of frequency: force x velocity.
    assert double.mean_aero_power == pytest.approx(8 * base.mean_aero_power,
                                                   rel=1e-6)


def test_membrane_removal_never_raises_lift():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    lifts = []
    for cutout in (0.0, 0.2, 0.4, 0.6):
        cut = apply_inboard_cutout(wing, cutout) if cutout else wing
        # The viscosity scales with the area, holding the Reynolds number.
        air = AeroEnvironment(rho=ENV.rho, nu=ENV.nu * cut.area / wing.area)
        result = simulate_cycle(cut, kin, air, induced_velocity=1.5)
        lifts.append(abs(result.mean_lift))
    assert all(b <= a + 1e-15 for a, b in zip(lifts, lifts[1:]))


def test_mean_aero_power_is_positive():
    wing = standard_wing(25.5)
    for kin in (beetle_kinematics(17.3, 190.0), flat_plate_kinematics(),
                inverted_twist_kinematics()):
        result = simulate_cycle(wing, kin, ENV)
        assert result.mean_aero_power > 0.0


def test_spanwise_distributions_peak_outboard():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    result = simulate_cycle(wing, kin, ENV)
    assert result.span_fractions[int(np.argmax(result.spanwise_lift))] > 0.5
    assert result.span_fractions[int(np.argmax(result.spanwise_power))] > 0.5


def test_cycle_regression_pins():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    result = simulate_cycle(wing, kin, ENV)
    assert result.mean_lift == pytest.approx(PINNED["cycle_mean_lift"],
                                             rel=1e-9)
    assert result.mean_aero_power == pytest.approx(
        PINNED["cycle_mean_aero_power"], rel=1e-9)
    assert result.v_induced == pytest.approx(PINNED["cycle_v_induced"],
                                             abs=2e-6)


# ---------------------------------------------------------------- comparison

def test_compare_identical_runs():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    result = simulate_cycle(wing, kin, ENV)
    deltas = compare_wings(result, result)
    assert deltas.lift_delta == 0.0
    assert deltas.power_delta == 0.0
    assert deltas.lift_to_power_delta == 0.0


def test_compare_chord_doubling_doubles_translational_lift():
    # Unlagged flipping rotation with a mid-chord pitch axis: added-mass
    # and rotational cycle means vanish by parity, and the remaining
    # translational force is linear in chord at fixed inflow, so doubling
    # the chord doubles the lift.
    f = 17.3
    stroke = FourierSeries(0.0, (0.0,), (math.radians(95.0),), f)
    rot = FourierSeries(math.pi / 2, (-math.radians(45.0),), (0.0,), f)
    kin = WingKinematics(stroke, ((1.0, rot),))
    thin = build_wing([(0.0, 0.02), (0.09, 0.02)], pitch_axis=0.5)
    thick = build_wing([(0.0, 0.04), (0.09, 0.04)], pitch_axis=0.5)
    # Twice the viscosity holds the Reynolds number of the thick wing.
    a = simulate_cycle(thin, kin, ENV, induced_velocity=0.0)
    b = simulate_cycle(thick, kin, AeroEnvironment(rho=ENV.rho,
                                                   nu=2 * ENV.nu),
                       induced_velocity=0.0)
    deltas = compare_wings(a, b)
    assert deltas.lift_delta == pytest.approx(1.0, rel=1e-9)


def test_compare_rejects_mismatched_frequencies_and_zero_denominators():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    a = simulate_cycle(wing, kin, ENV, induced_velocity=1.0)
    b = simulate_cycle(wing, kin.with_frequency(18.0), ENV,
                       induced_velocity=1.0)
    with pytest.raises(ValueError, match="frequencies"):
        compare_wings(a, b)
    from dataclasses import replace
    zero = replace(a, mean_lift=0.0)
    with pytest.raises(ValueError, match="zero"):
        compare_wings(zero, a)


def test_element_state_angle_ranges_over_a_cycle():
    # Inflow angle in [0, pi/2] and effective AoA in [-pi/2, pi] by
    # construction, checked over a full preset cycle.
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    _, state = _element_grid_state(discretize(wing, 20), kin, 720)
    state = state.with_inflow(1.8)
    phi = state.inflow_angle
    assert np.all((0.0 <= phi) & (phi <= math.pi / 2))
    alpha_e = state.alpha_effective
    assert np.all((-math.pi / 2 <= alpha_e) & (alpha_e <= math.pi))
    assert np.all(state.v_translational >= 0.0)


def test_zero_chord_region_produces_finite_forces():
    # A planform with a bare outboard spar (zero chord) must not poison
    # the force grid with divide-by-zero artifacts.
    wing = build_wing([(0.0, 0.03), (0.05, 0.0), (0.09, 0.0)])
    kin = beetle_kinematics(17.3, 190.0)
    result = simulate_cycle(wing, kin, ENV)
    assert np.isfinite(result.mean_lift)
    assert np.isfinite(result.mean_aero_power)
    assert np.all(np.isfinite(result.spanwise_lift))
    bare = result.span_fractions > 0.6
    assert np.allclose(result.spanwise_lift[bare], 0.0)


def oracle_element_forces(r, c, l, dr, scale, srate, saccel, alpha, arate,
                          aaccel, vi, rho, re):
    # Independent scalar transcription of the sectional force model.
    vt = r * abs(srate)
    phi = math.atan2(vi, vt)
    if srate > 0:
        ag = alpha
    elif srate < 0:
        ag = math.pi - alpha
    else:
        ag = math.pi / 2
    ae = ag - phi
    cl = (1.966 - 3.94 * re**-0.429) * math.sin(2 * ae)
    cd = (0.031 + 10.48 * re**-0.764
          + (1.873 - 3.14 * re**-0.369) * (1 - math.cos(2 * ae)))
    dyn = vt * vt + vi * vi
    trans_eta = -0.5 * rho * c * (cl * math.sin(phi) + cd * math.cos(phi)) \
        * dyn * dr * scale
    trans_zeta = 0.5 * rho * c * (cl * math.cos(phi) - cd * math.sin(phi)) \
        * dyn * dr * scale
    aw = (r * saccel + (c / 2 - l) * srate**2 * math.cos(alpha)) \
        * math.sin(alpha) + (c / 2 - l) * aaccel
    added = math.pi / 4 * rho * c * c * aw * math.sin(ag) * dr * scale
    crot = math.pi * (0.75 - l / c)
    rot = rho * vt * crot * arate * c * c * dr * scale
    return (trans_eta, added * math.sin(alpha), -rot * math.sin(alpha),
            trans_zeta, added * math.cos(alpha), rot * math.cos(alpha))


def test_forces_match_independent_scalar_oracle():
    rng = np.random.default_rng(17)
    re = 1.7e4
    inputs = []
    for _ in range(200):
        kwargs = dict(
            radius=float(rng.uniform(0.005, 0.1)),
            chord=float(rng.uniform(0.005, 0.05)),
            width=float(rng.uniform(0.001, 0.01)),
            area_scale=float(rng.uniform(0.0, 1.0)),
            stroke_rate=float(rng.uniform(-200, 200)),
            stroke_accel=float(rng.uniform(-2e4, 2e4)),
            rotation_angle=float(rng.uniform(0.0, math.pi)),
            rotation_rate=float(rng.uniform(-100, 100)),
            rotation_accel=float(rng.uniform(-1e4, 1e4)),
            v_induced=float(rng.uniform(0.0, 3.0)),
        )
        kwargs["pitch_axis"] = kwargs["chord"] * float(rng.uniform(0.0, 1.0))
        inputs.append(kwargs)
    # Stroke reversal: no section speed, with and without inflow.
    inputs += [dict(inputs[i], stroke_rate=0.0, v_induced=v)
               for i in range(10) for v in (0.0, 1.2)]
    for kwargs in inputs:
        state = ElementState(**kwargs)
        fb = element_forces(state, ENV, re)
        want = oracle_element_forces(
            kwargs["radius"], kwargs["chord"], kwargs["pitch_axis"],
            kwargs["width"], kwargs["area_scale"], kwargs["stroke_rate"],
            kwargs["stroke_accel"], kwargs["rotation_angle"],
            kwargs["rotation_rate"], kwargs["rotation_accel"],
            kwargs["v_induced"], ENV.rho, re)
        got = (fb.translational_eta, fb.added_mass_eta, fb.rotational_eta,
               fb.translational_zeta, fb.added_mass_zeta, fb.rotational_zeta)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-18)


def test_force_pass_matches_the_reference_pass_on_a_grid():
    # The trig-free force pass against the angle form, cell by cell,
    # relative to each component's largest cell.
    wing = apply_inboard_cutout(standard_wing(25.5), 0.3)
    for shape in (beetle_kinematics, lopsided_kinematics):
        kin = shape(17.3)
        re = reynolds(wing, kin, ENV)
        for v in (0.0, 1.87, 3.5):
            _, state = _element_grid_state(discretize(wing, 20), kin, 720)
            state = state.with_inflow(v)
            got = element_forces(state, ENV, re)
            want = reference_forces(state, ENV, re)
            for name, value in vars(want).items():
                error = np.max(np.abs(getattr(got, name) - value))
                assert error <= 1e-12 * np.max(np.abs(value))


def test_force_pass_at_stroke_reversal_without_inflow():
    # A cell with no section speed and no inflow has no dynamic pressure:
    # zero translational force, finite forces, and no 0/0 warning.
    _, state = _element_grid_state(discretize(standard_wing(25.5), 20),
                                   beetle_kinematics(17.3, 190.0), 72)
    rate = state.stroke_rate.copy()
    rate[[0, 36]] = 0.0
    state = replace(state, stroke_rate=rate)
    assert np.all(state.v_translational[[0, 36]] == 0.0)
    fb = element_forces(state, ENV, 1.95e4)
    for name, value in vars(fb).items():
        assert np.all(np.isfinite(value)), name
    for value in (fb.translational_eta, fb.translational_zeta):
        assert np.all(value[[0, 36]] == 0.0)
        assert np.all(value[1:36] != 0.0)
    assert np.any(fb.added_mass_zeta[[0, 36]] != 0.0)


def test_cycle_averages_match_scalar_loop_oracle():
    # Slow pure-Python re-computation of the cycle means: same model, a
    # fully independent loop over steps and elements with by-hand station
    # interpolation, against the vectorized kernel at fixed inflow.
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    steps, n, vi, re = 72, 6, 1.8, reynolds(wing, kin, ENV)
    result = simulate_cycle(wing, kin, ENV, SolverSettings(
                                steps_per_cycle=steps, n_elements=n,
                                pair=False),
                            induced_velocity=vi)

    elements = discretize(wing, n)
    stations = kin.rotation_stations
    fracs = [f for f, _ in stations]
    lift = power = 0.0
    for k in range(steps):
        t = k / (steps * kin.frequency)
        srate = float(kin.stroke.eval(t, 1))
        saccel = float(kin.stroke.eval(t, 2))
        for j in range(n):
            s = elements.span_fraction[j]
            if s <= fracs[0]:
                w0, i0 = 1.0, 0
            elif s >= fracs[-1]:
                w0, i0 = 0.0, len(fracs) - 2
            else:
                i0 = next(i for i in range(len(fracs) - 1)
                          if fracs[i] <= s < fracs[i + 1])
                w0 = (fracs[i0 + 1] - s) / (fracs[i0 + 1] - fracs[i0])
            def rot(order):
                return (w0 * float(stations[i0][1].eval(t, order))
                        + (1 - w0) * float(stations[i0 + 1][1].eval(t, order)))
            parts = oracle_element_forces(
                float(elements.radius[j]), float(elements.chord[j]),
                float(elements.pitch_axis[j]), float(elements.width[j]),
                float(elements.area_scale[j]), srate, saccel,
                rot(0), rot(1), rot(2), vi, ENV.rho, re)
            lift += (parts[3] + parts[4] + parts[5]) / steps
            power += (elements.radius[j] * abs(srate)
                      * -(parts[0] + parts[1] + parts[2])) / steps
    assert result.mean_lift == pytest.approx(lift, rel=1e-9)
    assert result.mean_aero_power == pytest.approx(power, rel=1e-9)
