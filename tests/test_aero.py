"""Blade-element force model, induced-velocity root, cycle averages."""

from collections import Counter
from dataclasses import replace
from functools import cached_property
import itertools
import json
import math
from pathlib import Path
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

import wingbeat as wb
from wingbeat import aero, harness
from wingbeat.aero import (
    MIN_REYNOLDS,
    AeroEnvironment,
    CyclePrecompute,
    ElementState,
    SolverSettings,
    aero_coefficients,
    element_acceleration,
    element_forces,
    reynolds,
    secant_steps,
    simulate_cycle,
    solve_induced_velocities,
    solve_induced_velocity,
    _element_grid_state,
)
from wingbeat.config import StudyConfig
from wingbeat.kinematics import FourierSeries, WingKinematics, geometric_aoa
from wingbeat.presets import beetle_kinematics, standard_wing
from wingbeat.wing import (
    WingGeometry,
    apply_inboard_cutout,
    discretize,
    scaled_to_area,
)

from oracles import (
    concatenated_cycle_sums,
    full_grid_state,
    pair_mean_power,
    pair_mean_thrust,
    reference_forces,
    solve_point,
)

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
                 area_scale=1.0, span_fraction=0.5, stroke_rate=10.0,
                 stroke_accel=0.0, rotation_angle=math.radians(45.0),
                 rotation_rate=0.0, rotation_accel=0.0, v_induced=0.0)
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
    with pytest.raises(ValueError) as error:
        aero_coefficients(0.5, math.inf)
    assert str(error.value) == "Reynolds number inf is not finite"
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
    zero_area = WingGeometry(0.0, [(0.0, 0.0), (0.09, 0.0)])
    with pytest.raises(ValueError):
        reynolds(zero_area, kin, ENV)
    frozen = WingKinematics(
        stroke=FourierSeries(0.0, (0.0,), (0.0,)),
        rotation_stations=kin.rotation_stations, frequency=17.3)
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
    # Every cached property is free of the inflow: two fresh grid states
    # at different inflows agree on it, and with_inflow shares it.
    cached = [name for name, attr in vars(ElementState).items()
              if isinstance(attr, cached_property)]
    assert cached

    def fresh(v_induced):
        state = _element_grid_state(
            standard_wing(25.5), beetle_kinematics(17.3, 190.0),
            SolverSettings(steps_per_cycle=72))
        return state.with_inflow(v_induced)

    low, state = fresh(0.5), fresh(1.5)
    for name in cached:
        np.testing.assert_equal(getattr(low, name), getattr(state, name))
        assert getattr(state, name) is getattr(state, name)
    moved = state.with_inflow(0.5)
    assert moved.v_induced == 0.5 and state.v_induced == 1.5
    for name in cached:
        assert getattr(moved, name) is getattr(state, name)
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
                        width=math.pi, area_scale=1.0, span_fraction=0.5,
                        stroke_rate=rate,
                        stroke_accel=0.0, rotation_angle=theta,
                        rotation_rate=np.zeros_like(theta),
                        rotation_accel=np.ones_like(theta))


@settings(max_examples=300, deadline=None)
@given(unit_states())
def test_geometric_sines_are_products_of_the_rotation_angles(state):
    # sin alpha_g, sin 2 alpha_g and cos 2 alpha_g come from one sin/cos
    # pass over the rotation angle: upstroke, downstroke, reversal and the
    # clip to [0, pi] all agree with the trig of geometric_aoa, except
    # sin 2 alpha_g at reversal: its limits from either side differ in
    # sign, and it takes their mean, 0.
    alpha = geometric_aoa(state.rotation_angle, state.stroke_rate)
    trans, s_t, c_t = state.translational_terms
    added, _, _ = state.unsteady_terms
    accel = element_acceleration(state)
    sin_2a = np.where(state.stroke_rate == 0.0, 0.0, np.sin(2.0 * alpha))
    for got, want in ((s_t, sin_2a), (c_t, np.cos(2.0 * alpha)),
                      (added, accel * np.sin(alpha))):
        assert np.shape(got) == np.shape(alpha)
        assert np.all(np.abs(got - want) <= 1e-15)
    assert abs(trans - 1.0) <= 1e-15


# -------------------------------------------------------- induced velocity

def test_induced_velocity_zero_kinematics():
    wing = standard_wing(25.5)
    kin = WingKinematics(
        stroke=FourierSeries(0.0, (0.0,), (0.0,)),
        rotation_stations=((1.0, FourierSeries(math.pi / 2, (0.0,), (0.0,))),),
        frequency=17.3)
    with pytest.raises(ValueError, match="degenerate kinematics"):
        solve_induced_velocity(wing, kin, ENV)


def momentum_residual(wing, kin, env, v, steps=720, n_elements=20):
    """g(v) of the inflow balance, on the full force path."""
    solver = SolverSettings(steps_per_cycle=steps, n_elements=n_elements)
    thrust = pair_mean_thrust(wing, kin, env, solver, v,
                              reynolds(wing, kin, env))
    return (math.sqrt(max(thrust, 0.0)
                      / (2.0 * env.rho * kin.stroke_amplitude * wing.span**2))
            - v)


def lopsided_kinematics(f):
    """Two-harmonic stroke and offset rotation: the added-mass and
    rotational terms keep a cycle-mean power, which the symmetric beetle
    stroke averages out."""
    return WingKinematics(
        stroke=FourierSeries(0.1, (0.0, 0.25), (1.6, 0.3)),
        rotation_stations=(
            (0.25, FourierSeries(1.45, (-0.2, 0.05), (0.1, 0.0))),
            (1.0, FourierSeries(1.35, (-0.6, 0.1), (-0.5, 0.05)))),
        frequency=f)


def point_loads(precompute, scales, v, re, rho=ENV.rho):
    """Thrust and power of one point at inflow ``v`` on ``precompute``."""
    (loads,) = precompute.loads([precompute.point(scales, re, rho)], [v],
                                np.empty((1, precompute.v_t_sq.size)))
    return loads


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
        for a in (0.7, 1.0, 1.3):
            for r in (0.6, 1.0, 1.5):
                kin = base.with_stroke_amplitude(
                    a * base.stroke_amplitude).with_frequency(r * 17.3)
                re = reynolds(wing, kin, ENV)
                scales = precompute.fit(wing, kin)
                for v in (0.0, 0.6, 1.87, 3.5):
                    thrust, power = point_loads(precompute, scales, v, re)
                    assert thrust == pytest.approx(pair_mean_thrust(
                        wing, kin, ENV, SolverSettings(), v, re), rel=1e-12)
                    assert power == pytest.approx(pair_mean_power(
                        wing, kin, ENV, SolverSettings(), v, re), rel=1e-12)


def test_precompute_rejects_a_wing_it_does_not_fit():
    # A cut wing solved on the uncut wing's precompute would return the
    # uncut wing's unsteady terms and element layout.
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    solver = SolverSettings(steps_per_cycle=72, n_elements=10)
    precompute = CyclePrecompute.build(wing, kin, solver)
    stubby = WingGeometry(wing.root_offset,
                          [(r, 1.2 * c) for r, c in wing.chord_breakpoints])
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
    # Shapes agree relatively: a root offset 1e9 spans out rescales too.
    far = replace(wing, root_offset=1e8)
    CyclePrecompute.build(far, kin, solver).fit(scaled_to_area(far, 31.4e-4),
                                                kin)


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
        # A block solve checks the grid once, for all of its points.
        with pytest.raises(ValueError, match="^precompute grid"):
            solve_induced_velocities([], solver, precompute)


def full_cycle_precompute(wing, kin, solver):
    """The precompute on every row of the ``solver`` grid, whatever the
    symmetry of ``kin``."""
    return CyclePrecompute._from_means(
        *aero._precompute_terms(full_grid_state(wing, kin, solver)), kin,
        wing, solver.steps_per_cycle)


def stroke_kinematics(cosine, sine, f=17.3):
    """The beetle kinematics with a one-harmonic stroke of these cosine and
    sine coefficients (rad)."""
    return replace(beetle_kinematics(f, 190.0),
                   stroke=FourierSeries(0.0, (cosine,), (sine,)))


PEAK = beetle_kinematics(17.3, 190.0).stroke.b[0]


@pytest.mark.parametrize("cutout, kin, steps, cells", [
    pytest.param(0.0, beetle_kinematics(17.3, 190.0), 720, 3620, id="0.0"),
    pytest.param(0.3, beetle_kinematics(17.3, 190.0), 720, 3620, id="0.3"),
    pytest.param(0.0, beetle_kinematics(17.3, 190.0), 722, 3620,
                 id="odd-half-grid"),
    pytest.param(0.0, stroke_kinematics(1e-300, PEAK), 720, 7200,
                 id="cosine-1e-300")])
def test_symmetric_precompute_holds_half_the_cycle(cutout, kin, steps, cells):
    # The beetle stroke's second half-cycle mirrors its first: half the
    # rows give the full grid's loads, and the unsteady power means,
    # rounding noise on the full grid, are exactly 0. A sine stroke of odd
    # harmonics also has the speed at T/2 - t of t, and those rows fold
    # onto rows 0 .. rows/2; a cosine term, however small, keeps every row
    # of the half grid.
    wing = apply_inboard_cutout(standard_wing(25.5), cutout)
    solver = SolverSettings(steps_per_cycle=steps)
    half = CyclePrecompute.build(wing, kin, solver)
    full = full_cycle_precompute(wing, kin, solver)
    assert (half.steps, half.rows, half.v_t_sq.size) == (steps, steps // 2,
                                                         cells)
    assert half.folded is (cells < steps // 2 * 20)
    assert (full.steps, full.rows, full.v_t_sq.size) == (steps, steps,
                                                         steps * 20)
    assert not full.folded
    assert half.power_by_a == (0.0, 0.0, 0.0)
    assert max(map(abs, full.power_by_a)) < 1e-15
    scales, re = half.fit(wing, kin), reynolds(wing, kin, ENV)
    for v in (0.0, 0.7, 1.3):
        got = point_loads(half, scales, v, re)
        want = point_loads(full, scales, v, re)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    for pair in (True, False):
        solver = replace(solver, pair=pair)
        got = solve_induced_velocity(wing, kin, ENV, solver, precompute=half)
        want = solve_induced_velocity(wing, kin, ENV, solver, precompute=full)
        assert got.iterations == want.iterations
        assert (got.lift, got.power) == pytest.approx(
            (want.lift, want.power), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("cutout", [0.0, 0.3])
def test_a_cosine_stroke_folds_its_half_cycle(monkeypatch, cutout):
    # Odd cosine harmonics mirror the stroke speed too: the folded half
    # cycle gives the loads of the unfolded half cycle and of the full
    # grid, whose reversals at t = 0 and T/2 sample stroke rates of 0 and
    # ~2e-14.
    wing = apply_inboard_cutout(standard_wing(25.5), cutout)
    kin = stroke_kinematics(PEAK, 0.0)
    assert kin.quarter_wave_mirrored
    folded = CyclePrecompute.build(wing, kin, SolverSettings())
    full = full_cycle_precompute(wing, kin, SolverSettings())
    monkeypatch.setattr(WingKinematics, "quarter_wave_mirrored", False)
    unfolded = CyclePrecompute.build(wing, kin, SolverSettings())
    assert (folded.rows, folded.v_t_sq.size, folded.folded) == (360, 3620,
                                                                True)
    assert (unfolded.rows, unfolded.v_t_sq.size, unfolded.folded) == (
        360, 7200, False)
    scales, re = unfolded.fit(wing, kin), reynolds(wing, kin, ENV)
    for v in (0.0, 0.7, 1.3):
        got = point_loads(folded, scales, v, re)
        for reference in (unfolded, full):
            want = point_loads(reference, scales, v, re)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def even_harmonic_kinematics(f=17.3):
    """The beetle kinematics with a second stroke harmonic of 1e-300."""
    kin = beetle_kinematics(f, 190.0)
    return replace(kin, stroke=FourierSeries(
        0.0, (0.0, 1e-300), (kin.stroke.b[0], 0.0)))


def off_right_angle_kinematics(f=17.3):
    """The beetle kinematics with a tip mean one ulp above pi/2."""
    kin = beetle_kinematics(f, 190.0)
    (inboard, root), (tip, series) = kin.rotation_stations
    return replace(kin, rotation_stations=(
        (inboard, root),
        (tip, replace(series, a0=math.nextafter(math.pi / 2, 4.0)))))


@pytest.mark.parametrize("kin, steps", [
    (even_harmonic_kinematics(), 720), (off_right_angle_kinematics(), 720),
    (lopsided_kinematics(17.3), 720), (beetle_kinematics(17.3, 190.0), 721)])
def test_asymmetric_stroke_or_odd_grid_keeps_the_full_cycle(kin, steps):
    # No tolerance: each of these precomputes, and the solves on it, are
    # the full grid's bit for bit.
    wing, solver = standard_wing(25.5), SolverSettings(steps_per_cycle=steps)
    built = CyclePrecompute.build(wing, kin, solver)
    full = full_cycle_precompute(wing, kin, solver)
    assert built.steps == built.rows == steps
    assert built.v_t_sq.size == steps * 20 and not built.folded
    for name in ("v_t_sq", "by_inverse_q"):
        np.testing.assert_array_equal(getattr(built, name),
                                      getattr(full, name))
    for name in ("at_zero_inflow", "lift_by_a", "power_by_a"):
        assert getattr(built, name) == getattr(full, name)
    solved = solve_induced_velocity(wing, kin, ENV, solver, precompute=full)
    assert simulate_cycle(wing, kin, ENV, solver).vi_info == solved
    assert solve_induced_velocity(wing, kin, ENV, solver) == solved


@pytest.mark.parametrize("cutout, kin", [
    pytest.param(0.0, beetle_kinematics(17.3, 190.0), id="0.0"),
    pytest.param(0.3, beetle_kinematics(17.3, 190.0), id="0.3"),
    pytest.param(0.0, stroke_kinematics(PEAK, 0.0), id="cosine")])
@pytest.mark.parametrize("pair", [True, False])
def test_mirrored_half_cycle_matches_the_full_grid(monkeypatch, pair, cutout,
                                                   kin):
    # The force pass on half the grid, with the second half-cycle mirrored,
    # gives the tables of a cycle solved on every row of the grid: each
    # array within 1e-12 of its largest magnitude. A cosine stroke's grid
    # holds its reversals, a stroke rate of 0 at t = 0 and ~2e-14 at T/2.
    wing = apply_inboard_cutout(standard_wing(25.5), cutout)
    solver = SolverSettings(pair=pair)
    got = simulate_cycle(wing, kin, ENV, solver)
    monkeypatch.setattr(aero, "_element_grid_state", full_grid_state)
    want = simulate_cycle(wing, kin, ENV, solver)
    assert got.v_induced == pytest.approx(want.v_induced, rel=1e-12)
    np.testing.assert_array_equal(got.t, want.t)
    arrays = [(getattr(got.history, name), value)
              for name, value in vars(want.history).items()]
    arrays += [(got.power_history, want.power_history),
               (got.spanwise_lift, want.spanwise_lift),
               (got.spanwise_power, want.spanwise_power)]
    for value, reference in arrays:
        assert value.shape == reference.shape
        error = np.max(np.abs(value - reference))
        assert error <= 1e-12 * np.max(np.abs(reference))


def test_a_symmetric_cycle_runs_one_force_pass_on_half_the_grid(
        monkeypatch):
    shapes = []

    def recorded(state, env, re):
        shapes.append(np.shape(state.rotation_angle))
        return element_forces(state, env, re)

    monkeypatch.setattr(aero, "element_forces", recorded)
    result = simulate_cycle(standard_wing(25.5),
                            beetle_kinematics(17.3, 190.0), ENV)
    assert result.vi_info is not None
    assert shapes == [(360, 20)]
    assert result.t.shape == result.power_history.shape == (720,)


@pytest.mark.parametrize("kin, cutout, pair, steps, reversals", [
    pytest.param(beetle_kinematics(17.3, 190.0), 0.0, True, 720, [180, 540],
                 id="sine"),
    pytest.param(stroke_kinematics(PEAK, 0.0), 0.0, True, 720, [0, 360],
                 id="cosine"),
    pytest.param(beetle_kinematics(17.3, 190.0), 0.3, True, 720, [180, 540],
                 id="cutout-0.3"),
    pytest.param(beetle_kinematics(17.3, 190.0), 0.0, False, 720, [180, 540],
                 id="single"),
    pytest.param(beetle_kinematics(17.3, 190.0), 0.0, True, 721, [],
                 id="odd-grid")])
def test_cycle_sums_equal_the_concatenated_mirror(kin, cutout, pair, steps,
                                                  reversals):
    # Bit for bit, zeros by sign too: the second half-cycle summed from
    # the half-grid arrays gives what summing the whole-cycle grids gives.
    # The eta history rows at a reversal, which get no direction, are
    # sums of signed zeros, so a mirror that negates the first half's rows
    # writes -0 where the mirrored cells sum to 0.
    wing = apply_inboard_cutout(standard_wing(25.5), cutout)
    solver = SolverSettings(steps_per_cycle=steps, pair=pair)
    got = simulate_cycle(wing, kin, ENV, solver)
    want = concatenated_cycle_sums(wing, kin, ENV, solver, got.v_induced)
    assert (got.mean_lift, got.mean_aero_power) == (want["mean_lift"],
                                                    want["mean_aero_power"])
    values = {**vars(got.history), "power_history": got.power_history,
              "spanwise_lift": got.spanwise_lift,
              "spanwise_power": got.spanwise_power}
    assert values.keys() <= want.keys()
    for name, value in values.items():
        np.testing.assert_array_equal(value, want[name], err_msg=name)
        np.testing.assert_array_equal(np.signbit(value),
                                      np.signbit(want[name]), err_msg=name)
    for name in ("translational_eta", "added_mass_eta", "rotational_eta"):
        assert not np.any(getattr(got.history, name)[reversals])


def test_half_cycle_precompute_refuses_an_even_stroke_harmonic():
    # An even harmonic of 1e-12 of the peak passes the rescaling check's
    # 1e-9, but a half cycle no longer stands for the whole.
    wing = standard_wing(25.5)
    beetle = beetle_kinematics(17.3, 190.0)
    peak = beetle.stroke.b[0]
    kin = replace(beetle, stroke=FourierSeries(0.0, (0.0, 0.0), (peak, 0.0)))
    tilted = replace(kin, stroke=FourierSeries(0.0, (0.0, 1e-12 * peak),
                                               (peak, 0.0)))
    precompute = CyclePrecompute.build(wing, kin, SolverSettings())
    assert precompute.rows == 360
    for call in (lambda: precompute.fit(wing, tilted),
                 lambda: solve_induced_velocity(wing, tilted, ENV,
                                                precompute=precompute)):
        with pytest.raises(ValueError) as error:
            call()
        assert str(error.value) == ("kinematics are not half-wave "
                                    "symmetric, as the precomputed half "
                                    "cycle needs")
    # A full-cycle precompute serves both.
    full = CyclePrecompute.build(wing, tilted, SolverSettings())
    assert full.rows == 720
    assert full.fit(wing, kin) == full.fit(wing, tilted) == (1.0, 1.0, 1.0)


def test_folded_precompute_refuses_an_unmirrored_stroke():
    # A cosine term of 1e-12 of the peak passes the rescaling check's 1e-9
    # and keeps the stroke half-wave symmetric, but the speed at T/2 - t
    # is no longer that at t.
    wing = standard_wing(25.5)
    kin, tilted = stroke_kinematics(0.0, PEAK), stroke_kinematics(
        1e-12 * PEAK, PEAK)
    assert tilted.half_wave_symmetric and not tilted.quarter_wave_mirrored
    precompute = CyclePrecompute.build(wing, kin, SolverSettings())
    assert precompute.folded
    for call in (lambda: precompute.fit(wing, tilted),
                 lambda: solve_induced_velocity(wing, tilted, ENV,
                                                precompute=precompute)):
        with pytest.raises(ValueError) as error:
            call()
        assert str(error.value) == ("kinematics are not quarter-wave "
                                    "mirrored, as the folded precompute "
                                    "needs")
    # The half cycle of the tilted stroke, unfolded, serves both.
    unfolded = CyclePrecompute.build(wing, tilted, SolverSettings())
    assert (unfolded.rows, unfolded.folded) == (360, False)
    assert unfolded.fit(wing, kin) == unfolded.fit(wing, tilted) == (
        1.0, 1.0, 1.0)


def test_induced_velocity_self_consistency():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    result = solve_induced_velocity(wing, kin, ENV)
    re = reynolds(wing, kin, ENV)
    thrust = pair_mean_thrust(wing, kin, ENV, SolverSettings(),
                              result.v_induced, re)
    rederived = math.sqrt(max(thrust, 0.0)
                          / (2.0 * ENV.rho * kin.stroke_amplitude * wing.span**2))
    assert abs(rederived - result.v_induced) < 1e-6


def test_induced_velocity_reports_thrust_at_the_root():
    wing = apply_inboard_cutout(standard_wing(25.5), 0.3)
    kin = beetle_kinematics(17.3, 190.0)
    result = solve_induced_velocity(wing, kin, ENV)
    thrust = pair_mean_thrust(wing, kin, ENV, SolverSettings(),
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
    wing = WingGeometry(0.0, [(0.0, 0.02), (0.09, 1e300)])
    kin = beetle_kinematics(17.3, 190.0)
    with pytest.raises(RuntimeError, match="non-finite cycle-mean thrust nan"):
        solve_induced_velocity(wing, kin, ENV)


def study_block():
    """study.json's 18 sweep points as (wing, kinematics) pairs, its config,
    and the precompute that ``run_sweep`` solves them on."""
    config = StudyConfig.from_dict(json.loads(
        (Path(__file__).resolve().parents[1] / "demos" / "configs"
         / "study.json").read_text()))
    points = [(apply_inboard_cutout(scaled_to_area(config.wing, area * 1e-4),
                                    cutout),
               config.kinematics.with_stroke_amplitude(
                   math.radians(amplitude)).with_frequency(frequency))
              for amplitude, area, cutout, frequency in itertools.product(
                  config.amplitudes_deg, config.areas_cm2, config.cutouts,
                  config.frequencies_hz)]
    shape = config.kinematics.with_stroke_amplitude(1.0).with_frequency(1.0)
    return points, config, CyclePrecompute.build(config.wing, shape,
                                                 config.solver)


def solve_alone(wing, kin, env, solver, precompute):
    """A point's one-point solve, or the error it raises."""
    try:
        return solve_induced_velocity(wing, kin, env, solver, precompute)
    except (ValueError, RuntimeError) as exc:
        return exc


def assert_same_solve(got, want):
    """A block's result for a point is the point's own solve: the same
    error, or the same iterations, flag and Reynolds number with the inflow
    and loads within 1e-14."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert (got.iterations, got.negative_thrust, got.reynolds) == (
        want.iterations, want.negative_thrust, want.reynolds)
    for name in ("v_induced", "lift", "power"):
        assert getattr(got, name) == pytest.approx(getattr(want, name),
                                                   rel=1e-14, abs=0.0)
    assert got.residual == pytest.approx(want.residual, rel=0.0, abs=1e-14)


def test_a_block_solves_each_point_as_it_would_alone(monkeypatch):
    # All 18 points advance in lockstep, with one product a round.
    points, config, precompute = study_block()
    sizes = []
    loads = CyclePrecompute.loads

    def counting(self, points, inflows, workspace):
        sizes.append(len(inflows))
        return loads(self, points, inflows, workspace)

    monkeypatch.setattr(CyclePrecompute, "loads", counting)
    block = solve_induced_velocities(
        [solve_point(wing, kin, config.environment, precompute)
         for wing, kin in points], config.solver, precompute)
    assert sizes[0] == 18 and len(sizes) == max(r.iterations for r in block)
    for (wing, kin), got in zip(points, block):
        assert_same_solve(got, solve_alone(wing, kin, config.environment,
                                           config.solver, precompute))


def test_a_solve_bounds_its_workspace_by_the_grid_limit(monkeypatch):
    # Blocks hold max(1, MAX_GRID_CELLS // cells) points: 276 on the folded
    # 3 620-cell grid, an 8 MB workspace, so study.json's 18 points are one
    # block. At a limit of 2.5 grids, blocks of 2 follow the input order
    # on one reused 2-row workspace, and each point is solved as alone.
    points, config, precompute = study_block()
    cells = precompute.v_t_sq.size
    assert cells == 3620
    assert max(1, aero.MAX_GRID_CELLS // cells) == 276
    assert 276 * cells * 8 <= 8e6
    env, solver = config.environment, config.solver
    prepared = [solve_point(wing, kin, env, precompute)
                for wing, kin in points]
    index_of = {point.terms: i for i, point in enumerate(prepared)}
    assert len(index_of) == len(points)
    calls, workspaces = [], set()
    loads = CyclePrecompute.loads

    def recording(self, terms, inflows, workspace):
        calls.append([index_of[t] for t in terms])
        workspaces.add((id(workspace), workspace.shape))
        return loads(self, terms, inflows, workspace)

    monkeypatch.setattr(aero, "MAX_GRID_CELLS", 5 * cells // 2)
    monkeypatch.setattr(CyclePrecompute, "loads", recording)
    block = solve_induced_velocities(prepared, solver, precompute)
    monkeypatch.undo()
    assert len(workspaces) == 1 and workspaces.pop()[1] == (2, cells)
    # Each evaluation takes the live points of one block, in input order,
    # and a block's first takes all of them.
    first_calls = {}
    for call in calls:
        assert call == sorted(call) and {i // 2 for i in call} == {
            call[0] // 2}
        assert call[0] // 2 >= max(first_calls, default=0)
        first_calls.setdefault(call[0] // 2, call)
    assert list(first_calls.values()) == [
        [i, i + 1] for i in range(0, len(points), 2)]
    for (wing, kin), got in zip(points, block):
        assert_same_solve(got, solve_alone(wing, kin, env, solver,
                                           precompute))


def test_a_block_records_only_its_failing_points():
    # Two evaluations at a 0.05 m/s tolerance: the 2, 3 and 5 Hz points
    # converge and the 17.3 Hz point does not. A 1e300 cm^2 wing overflows
    # the thrust. Each failure is its point's own, and its neighbours are
    # solved as they are alone. A cut wing does not fit the precompute: its
    # point fails as it is formed, before any solve, as it does alone.
    wing, kin = standard_wing(25.5), beetle_kinematics(17.3, 190.0)
    solver = SolverSettings(vi_tol=0.05, vi_max_iter=2)
    precompute = CyclePrecompute.build(wing, kin, solver)
    points = [(wing, kin.with_frequency(2.0)),
              (scaled_to_area(wing, 1e296), kin),
              (wing, kin.with_frequency(5.0)),
              (wing, kin),
              (wing, kin.with_frequency(3.0))]
    block = solve_induced_velocities(
        [solve_point(wing, kin, ENV, precompute) for wing, kin in points],
        solver, precompute)
    kinds = [type(result) for result in block]
    assert kinds == [aero.InducedVelocityResult, RuntimeError,
                     aero.InducedVelocityResult, RuntimeError,
                     aero.InducedVelocityResult]
    assert str(block[1]).startswith("non-finite cycle-mean thrust inf")
    assert str(block[3]).startswith(
        "induced-velocity solve did not converge after 2 thrust evaluations")
    for (wing, kin), got in zip(points, block):
        assert_same_solve(got, solve_alone(wing, kin, ENV, solver,
                                           precompute))
    cut = apply_inboard_cutout(wing, 0.3)
    with pytest.raises(ValueError) as error:
        solve_point(cut, kin, ENV, precompute)
    assert str(error.value).startswith("wing is not a geometric rescaling")
    assert_same_solve(error.value,
                      solve_alone(cut, kin, ENV, solver, precompute))


def test_a_one_point_evaluation_is_a_matrix_vector_product():
    # A block of one point sums its moments as by_inverse_q @ (1/q), bit
    # for bit, which keeps one-point solves at their values.
    wing, kin = standard_wing(25.5), beetle_kinematics(20.0, 190.0)
    precompute = CyclePrecompute.build(wing, kin.with_frequency(17.3),
                                       SolverSettings())
    point = precompute.point(precompute.fit(wing, kin),
                             reynolds(wing, kin, ENV), ENV.rho)
    for v in (0.7, 1.87, 3.5):
        u = v / point.s
        by_q = 1.0 / np.sqrt(precompute.v_t_sq + u * u)
        sums = (precompute.by_inverse_q @ by_q).tolist()
        assert precompute.loads([point], [v], np.empty((1, by_q.size))) == [
            precompute._point_loads(point, u, sums)]


def test_solve_results_hold_python_scalars():
    # No numpy scalar reaches a result: a numpy bool, say, fails the JSON
    # encoder. The inverted twist pins a negative thrust at zero inflow.
    points, config, precompute = study_block()
    results = solve_induced_velocities(
        [solve_point(wing, kin, config.environment, precompute)
         for wing, kin in points], config.solver, precompute)
    results.append(solve_induced_velocity(standard_wing(25.5),
                                          inverted_twist_kinematics(), ENV))
    assert results[-1].negative_thrust is True
    for result in results:
        assert [type(x) for x in vars(result).values()] == [
            float, int, float, bool, float, float, float]
        json.dumps(vars(result), allow_nan=False)


class StubPrecompute:
    """A precompute on the 36 x 2 grid whose pair thrust at inflow v is
    ``thrust(v)``, at zero power; it records every inflow it is asked."""

    steps = rows = 36
    n_elements = 2
    v_t_sq = np.zeros(72)

    def __init__(self, thrust):
        self.thrust, self.inflows = thrust, []

    def fit(self, wing, kin):
        return None

    def point(self, scales, re, rho):
        return None

    def loads(self, points, inflows, workspace):
        self.inflows.extend(inflows)
        return [(self.thrust(v), 0.0) for v in inflows]


def test_induced_velocity_bisects_when_a_secant_leaves_the_bracket():
    # A thrust of 8 rho A (1 - v) has the momentum inflow 2 sqrt(1 - v):
    # from 0 the search steps to 2, then the secant through (0, 2) and
    # (2, -2) to 1. Through (2, -2) and (1, -1) the secant reaches 0, the
    # bracket's lower end, so it bisects to 0.5, then converges to the
    # root 2 sqrt(2) - 2.
    wing, kin = standard_wing(25.5), beetle_kinematics(17.3, 190.0)
    disk = kin.stroke_amplitude * wing.span**2
    stub = StubPrecompute(lambda v: 8.0 * ENV.rho * disk * max(1.0 - v, 0.0))
    result = solve_induced_velocity(wing, kin, ENV, SolverSettings(36, 2),
                                    precompute=stub)
    assert stub.inflows[:4] == pytest.approx([0.0, 2.0, 1.0, 0.5],
                                             rel=1e-15)
    assert result.iterations == len(stub.inflows) == 9
    assert result.v_induced == stub.inflows[-1]
    assert result.v_induced == pytest.approx(2.0 * math.sqrt(2.0) - 2.0,
                                             abs=1e-6)


def search_points(residual, x, slope, hi=math.inf, limit=12):
    """The points ``secant_steps`` yields when sent ``residual`` at each,
    until it ends or has yielded ``limit`` points."""
    search = secant_steps(x, slope, hi)
    points = [next(search)]
    while len(points) < limit:
        try:
            points.append(search.send(residual(points[-1])))
        except StopIteration:
            break
    return points


def test_search_takes_model_steps_until_the_bracket_forms():
    # The residual is 1 below 2.5, where a secant through two points would
    # not move: model steps of 1 reach 3, above the root, and secant steps
    # through (2, 1), (3, -0.5) and then (8/3, -1/6) find it.
    points = search_points(lambda x: 1.0 if x < 2.5 else 2.5 - x, 0.0, 1.0,
                           limit=6)
    assert points[:4] == [0.0, 1.0, 2.0, 3.0]
    assert points[4:] == pytest.approx([8.0 / 3.0, 2.5], rel=1e-15)


def test_search_stops_a_model_step_at_hi():
    # From 0 the model step of slope 0.5 would reach 10; it stops at hi = 8,
    # which lies above the root, and the secant through (0, 5) and (8, -3)
    # lands on it.
    points = search_points(lambda x: 5.0 - x, 0.0, 0.5, hi=8.0, limit=3)
    assert points == [0.0, 8.0, 5.0]


def test_search_bisects_a_step_that_is_not_finite():
    # Equal residuals at 1.5 and 1.75 give an infinite secant step, which
    # takes the middle of the bracket [1.75, 2].
    points = search_points(lambda x: 1.0 if x < 2.0 else -1.0, 0.0, 1.0,
                           limit=6)
    assert points == [0.0, 1.0, 2.0, 1.5, 1.75, 1.875]


def test_search_sends_an_infinite_residual_to_hi():
    # An infinite residual at 0 goes to hi = 4, above the root at 3. The
    # secant step through the infinite residual is zero, which stays at
    # the end of the bracket [0, 4], so the search takes its middle, and
    # the secant through (4, -1) and (2, 1) lands on the root.
    points = search_points(lambda x: math.inf if x < 1.0 else 3.0 - x, 0.0,
                           1.0, hi=4.0, limit=4)
    assert points == [0.0, 4.0, 2.0, 3.0]
    # Where hi still lies below the root, the search ends there.
    assert search_points(lambda x: math.inf, 1.0, 1.0, hi=4.0) == [1.0, 4.0]


@settings(max_examples=300, deadline=None)
@given(x0=st.floats(-10.0, 10.0), gap=st.floats(1e-3, 10.0),
       inf_share=st.floats(0.0, 0.99), span=st.floats(1e-3, 20.0),
       a=st.floats(0.1, 10.0), b=st.floats(0.0, 10.0),
       model=st.floats(0.25, 2.0))
def test_search_stays_in_its_bracket_and_finds_the_root(x0, gap, inf_share,
                                                        span, a, b, model):
    # r = a (root - x) + b (root - x)^3, infinite on [x0, x0 + d) below the
    # root, searched from x0 up to hi with a model slope near a. Every point
    # lies in [x0, hi], and once a point lies above the root every later
    # one lies inside the latest bracket. The search comes within 1e-12 of
    # the root, relative to 1 + |root|, within TRIM_MAX_ITER + 1 points, or
    # ends after yielding hi when the root lies above hi.
    root, hi, d = x0 + gap, x0 + span, inf_share * gap
    tol = 1e-12 * (1.0 + abs(root))

    def residual(x):
        return (math.inf if x < x0 + d
                else a * (root - x) + b * (root - x)**3)

    search = secant_steps(x0, model * a, hi)
    x, below, above = next(search), x0, None
    for _ in range(harness.TRIM_MAX_ITER + 1):
        assert x0 <= x <= hi
        if above is not None:
            assert below < x < above
        if abs(x - root) <= tol:
            return
        r = residual(x)
        if r > 0.0:
            below = x
        else:
            above = x
        try:
            x = search.send(r)
        except StopIteration:
            assert root > hi and below == hi
            return
    pytest.fail(f"no point within {tol:.3g} of the root {root!r}")


def test_search_from_a_point_above_the_root_tries_only_hi():
    assert search_points(lambda x: -1.0, 0.0, 1.0, hi=4.0) == [0.0, 4.0]
    assert search_points(lambda x: 1.0 - x, 2.0, 1.0, hi=4.0) == [2.0, 4.0]


def test_search_ends_when_hi_lies_below_the_root():
    assert search_points(lambda x: 10.0 - x, 0.0, 1.0, hi=4.0) == [0.0, 4.0]


@pytest.mark.parametrize("thrust, cause", [
    (1e-300, "momentum inflow inf"),
    (0.0, "momentum inflow nan"),
    (-1.0, "momentum inflow nan"),
])
def test_empty_stroke_disk_fails_the_finiteness_check(thrust, cause):
    # A 1e-163 m wing, whose squared span underflows, with chords and a
    # frequency that keep its Reynolds number valid: the momentum inflow
    # of any thrust is not finite, and no zero result stands in for it.
    wing = WingGeometry(0.0, [(0.0, 1e60), (1e-163, 1e60)])
    kin = beetle_kinematics(1.73e101, 190.0)
    assert kin.stroke_amplitude * wing.span**2 == 0.0
    assert reynolds(wing, kin, ENV) > MIN_REYNOLDS
    stub = StubPrecompute(lambda v: thrust)
    with pytest.raises(RuntimeError) as error:
        solve_induced_velocity(wing, kin, ENV, SolverSettings(36, 2),
                               precompute=stub)
    assert str(error.value) == (
        f"non-finite cycle-mean {cause} at inflow 0 m/s")
    assert stub.inflows == [0.0]


def inverted_twist_kinematics(f=17.3):
    # Twist phased to push air upward on both half-strokes: negative lift.
    stroke = FourierSeries(0.0, (0.0,), (math.radians(95.0),))
    rot = FourierSeries(math.pi / 2, (math.radians(60.0),), (0.0,))
    return WingKinematics(stroke, ((1.0, rot),), f)


def test_negative_thrust_pins_inflow_at_zero():
    wing = standard_wing(25.5)
    result = solve_induced_velocity(wing, inverted_twist_kinematics(), ENV)
    assert result.v_induced == 0.0
    assert result.negative_thrust
    assert result.iterations == 1
    cycle = simulate_cycle(wing, inverted_twist_kinematics(), ENV)
    assert cycle.mean_lift < 0.0
    assert cycle.vi_info.negative_thrust


def test_hover_trim_of_a_design_that_never_lifts_takes_two_solves(
        monkeypatch):
    # The lift at 8 Hz is negative, so the trim probes 40 Hz next, whose
    # negative lift does not bracket the target either.
    solves = []

    def solve(*args, **kwargs):
        solves.append(args[1].frequency)
        return solve_induced_velocity(*args, **kwargs)

    monkeypatch.setattr(harness, "solve_induced_velocity", solve)
    with pytest.raises(ValueError) as error:
        harness.hover_trim(standard_wing(25.5), inverted_twist_kinematics(),
                           ENV, 0.1, 8.0, 40.0, SolverSettings(72, 4))
    assert str(error.value) == (
        "target lift 0.1 N not bracketed: lift is -0.08536 N at 8.0 Hz and "
        "-2.18 N at 40.0 Hz")
    assert solves == [8.0, 40.0]


# ------------------------------------------------------------ cycle averages

def flat_plate_kinematics(f=17.3):
    stroke = FourierSeries(0.0, (0.0,), (math.radians(95.0),))
    rot = FourierSeries(math.pi / 2, (0.0,), (0.0,))
    return WingKinematics(stroke, ((1.0, rot),), f)


def test_symmetric_stroke_has_zero_mean_lateral_force():
    # Edge-on plate, symmetric stroke: the fixed-direction eta history
    # cancels between half-strokes.
    wing = WingGeometry(0.0, [(0.0, 0.028333), (0.09, 0.028333)])
    result = simulate_cycle(wing, flat_plate_kinematics(), ENV)
    eta = result.history.total_eta
    assert abs(np.mean(eta)) < 1e-12 * np.max(np.abs(eta))


def test_step_refinement():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    coarse = simulate_cycle(wing, kin, ENV, SolverSettings(steps_per_cycle=720))
    fine = simulate_cycle(wing, kin, ENV, SolverSettings(steps_per_cycle=1440))
    assert fine.mean_lift == pytest.approx(coarse.mean_lift, rel=5e-3)
    assert fine.mean_aero_power == pytest.approx(coarse.mean_aero_power,
                                                 rel=5e-3)


@pytest.mark.parametrize("field, value", [
    ("steps_per_cycle", 720.5),
    ("n_elements", 20.5),
    ("vi_max_iter", 2.5),
])
def test_solver_settings_rejects_a_non_integral_count(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        SolverSettings(**{field: value})


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
    # The inflow solve's precompute and the force pass read one element
    # grid and one set of its cached cell terms, with one sin/cos pass over
    # the rotation angle and no geometric angle of attack.
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in ("geometric_aoa", "discretize"):
        monkeypatch.setattr(aero, name, counting(name, getattr(aero, name)))
    for name in ("rotation_trig", "translational_terms", "unsteady_terms"):
        term = vars(ElementState)[name]
        monkeypatch.setattr(term, "func", counting(name, term.func))
    result = simulate_cycle(standard_wing(25.5),
                            beetle_kinematics(17.3, 190.0), ENV)
    assert result.vi_info is not None
    assert calls == {"discretize": 1, "rotation_trig": 1,
                     "translational_terms": 1, "unsteady_terms": 1}


def test_spanwise_bookkeeping_and_trapezoid_consistency():
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    result = simulate_cycle(wing, kin, ENV)
    assert result.mean_lift == pytest.approx(float(np.sum(result.spanwise_lift)),
                                             rel=1e-10)
    assert result.mean_aero_power == pytest.approx(
        float(np.sum(result.spanwise_power)), rel=1e-10)
    # Trapezoid average with periodic closure equals the stored mean.
    zeta = result.history.total_zeta
    closed = np.append(zeta, zeta[0])
    trapezoid = float(np.trapezoid(closed, dx=1.0 / zeta.size))
    assert result.mean_lift == pytest.approx(trapezoid, rel=1e-10)
    power = result.power_history
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

def test_compare_chord_doubling_doubles_translational_lift():
    # Unlagged flipping rotation with a mid-chord pitch axis: added-mass
    # and rotational cycle means vanish by parity, and the remaining
    # translational force is linear in chord at fixed inflow, so doubling
    # the chord doubles the lift.
    f = 17.3
    stroke = FourierSeries(0.0, (0.0,), (math.radians(95.0),))
    rot = FourierSeries(math.pi / 2, (-math.radians(45.0),), (0.0,))
    kin = WingKinematics(stroke, ((1.0, rot),), f)
    thin = WingGeometry(0.0, [(0.0, 0.02), (0.09, 0.02)],
                        pitch_axis_fraction=0.5)
    thick = WingGeometry(0.0, [(0.0, 0.04), (0.09, 0.04)],
                         pitch_axis_fraction=0.5)
    # Twice the viscosity holds the Reynolds number of the thick wing.
    a = simulate_cycle(thin, kin, ENV, induced_velocity=0.0)
    b = simulate_cycle(thick, kin, AeroEnvironment(rho=ENV.rho,
                                                   nu=2 * ENV.nu),
                       induced_velocity=0.0)
    assert b.mean_lift / a.mean_lift == pytest.approx(2.0, rel=1e-9)


def test_element_state_angle_ranges_over_a_cycle():
    # Inflow angle in [0, pi/2] and effective AoA in [-pi/2, pi] by
    # construction, checked over a full preset cycle.
    wing = standard_wing(25.5)
    kin = beetle_kinematics(17.3, 190.0)
    state = _element_grid_state(wing, kin, SolverSettings()).with_inflow(1.8)
    alpha_e = state.alpha_effective
    phi = geometric_aoa(state.rotation_angle, state.stroke_rate) - alpha_e
    assert np.all((0.0 <= phi) & (phi <= math.pi / 2))
    assert np.all((-math.pi / 2 <= alpha_e) & (alpha_e <= math.pi))
    assert np.all(state.v_translational >= 0.0)


def test_zero_chord_region_produces_finite_forces():
    # A planform with a bare outboard spar (zero chord) must not poison
    # the force grid with divide-by-zero artifacts.
    wing = WingGeometry(0.0, [(0.0, 0.03), (0.05, 0.0), (0.09, 0.0)])
    kin = beetle_kinematics(17.3, 190.0)
    result = simulate_cycle(wing, kin, ENV)
    assert np.isfinite(result.mean_lift)
    assert np.isfinite(result.mean_aero_power)
    assert np.all(np.isfinite(result.spanwise_lift))
    bare = result.span_fractions > 0.6
    assert np.allclose(result.spanwise_lift[bare], 0.0)


def oracle_element_forces(r, c, l, dr, scale, srate, saccel, alpha, arate,
                          aaccel, vi, rho, re):
    # Independent scalar transcription of the sectional force model. At
    # stroke reversal the geometric angle of attack is alpha from the
    # upstroke side and pi - alpha from the downstroke side, and the
    # coefficients, so the forces, are the mean of those two limits.
    vt = r * abs(srate)
    phi = math.atan2(vi, vt)
    if srate > 0:
        ags = (alpha,)
    elif srate < 0:
        ags = (math.pi - alpha,)
    else:
        ags = (alpha, math.pi - alpha)
    cl = ((1.966 - 3.94 * re**-0.429)
          * sum(math.sin(2 * (ag - phi)) for ag in ags) / len(ags))
    cd = (0.031 + 10.48 * re**-0.764
          + (1.873 - 3.14 * re**-0.369)
          * sum(1 - math.cos(2 * (ag - phi)) for ag in ags) / len(ags))
    dyn = vt * vt + vi * vi
    trans_eta = -0.5 * rho * c * (cl * math.sin(phi) + cd * math.cos(phi)) \
        * dyn * dr * scale
    trans_zeta = 0.5 * rho * c * (cl * math.cos(phi) - cd * math.sin(phi)) \
        * dyn * dr * scale
    aw = (r * saccel + (c / 2 - l) * srate**2 * math.cos(alpha)) \
        * math.sin(alpha) + (c / 2 - l) * aaccel
    added = math.pi / 4 * rho * c * c * aw * math.sin(ags[0]) * dr * scale
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
        state = ElementState(span_fraction=0.5, **kwargs)
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
            state = _element_grid_state(wing, kin,
                                        SolverSettings()).with_inflow(v)
            got = element_forces(state, ENV, re)
            want = reference_forces(state, ENV, re)
            for name, value in vars(want).items():
                error = np.max(np.abs(getattr(got, name) - value))
                assert error <= 1e-12 * np.max(np.abs(value))


def test_force_pass_at_stroke_reversal_without_inflow():
    # A cell with no section speed and no inflow has no dynamic pressure:
    # zero translational force, finite forces, and no 0/0 warning.
    state = full_grid_state(standard_wing(25.5),
                            beetle_kinematics(17.3, 190.0),
                            SolverSettings(steps_per_cycle=72))
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
    stations, f = kin.rotation_stations, kin.frequency
    fracs = [s for s, _ in stations]
    lift = power = 0.0
    for k in range(steps):
        t = k / (steps * f)
        srate = float(kin.stroke.eval(t, f, 1))
        saccel = float(kin.stroke.eval(t, f, 2))
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
                return (w0 * float(stations[i0][1].eval(t, f, order))
                        + (1 - w0) * float(stations[i0 + 1][1].eval(t, f, order)))
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
