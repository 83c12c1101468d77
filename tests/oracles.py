"""Reference computations the tests check the solvers against."""

import math

import numpy as np

from wingbeat import aero
from wingbeat.aero import (
    ElementState,
    ForceBreakdown,
    SolvePoint,
    aero_coefficients,
    reynolds,
)
from wingbeat.kinematics import geometric_aoa
from wingbeat.wing import discretize


def full_grid_state(wing, kin, solver):
    """The wing's blade elements moving as ``kin`` says on every row of a
    uniform one-cycle ``solver`` grid, shape (steps, n), whatever the
    symmetry of ``kin``."""
    elements = discretize(wing, solver.n_elements)
    steps = solver.steps_per_cycle
    t = np.arange(steps) / (steps * kin.frequency)
    weights = kin.station_weights(elements.span_fraction)
    rot = [kin.station_series(t, order) @ weights.T for order in (0, 1, 2)]
    return ElementState(
        **vars(elements),
        stroke_rate=kin.stroke.eval(t, kin.frequency, 1)[:, None],
        stroke_accel=kin.stroke.eval(t, kin.frequency, 2)[:, None],
        rotation_angle=rot[0],
        rotation_rate=rot[1],
        rotation_accel=rot[2],
    )


def solve_point(wing, kin, env, precompute):
    """The :class:`~wingbeat.aero.SolvePoint` of (``wing``, ``kin``) on
    ``precompute``, from its own fit and Reynolds number, and its disk
    2 rho Phi R^2 with the squared span a numpy scalar."""
    re = reynolds(wing, kin, env)
    return SolvePoint(
        precompute.point(precompute.fit(wing, kin), re, env.rho), re,
        2.0 * env.rho * float(kin.stroke_amplitude * np.float64(wing.span)**2))


def reference_forces(state, env, re):
    """Sectional forces in the angle form of the model: the coefficients
    of ``aero_coefficients`` at the effective angle of attack, resolved
    through the arctan2 inflow angle, with the added-mass and rotational
    terms written out from the model equations."""
    phi = np.arctan2(state.v_induced, state.v_translational)
    alpha_g = geometric_aoa(state.rotation_angle, state.stroke_rate)
    cl, cd = aero_coefficients(alpha_g - phi, re)
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    sin_rot = np.sin(state.rotation_angle)
    cos_rot = np.cos(state.rotation_angle)
    scale = state.area_scale * state.width
    chord = np.asarray(state.chord, dtype=float)

    dyn = state.v_translational**2 + state.v_induced**2
    trans = 0.5 * env.rho * chord * dyn * scale
    arm = 0.5 * chord - state.pitch_axis
    accel = ((state.radius * state.stroke_accel
              + arm * state.stroke_rate**2 * cos_rot) * sin_rot
             + arm * state.rotation_accel)
    added = (0.25 * math.pi * env.rho * chord**2 * accel
             * np.sin(alpha_g) * scale)
    axis_ratio = np.divide(state.pitch_axis, chord,
                           out=np.zeros(np.shape(chord)), where=chord > 0.0)
    c_rot = math.pi * (0.75 - axis_ratio)
    rot = (env.rho * state.v_translational * c_rot * state.rotation_rate
           * chord**2 * scale)
    return ForceBreakdown(
        translational_eta=-trans * (cl * sin_phi + cd * cos_phi),
        added_mass_eta=added * sin_rot,
        rotational_eta=-rot * sin_rot,
        translational_zeta=trans * (cl * cos_phi - cd * sin_phi),
        added_mass_zeta=added * cos_rot,
        rotational_zeta=rot * cos_rot,
    )


def _reference_pass(wing, kin, env, solver, v_induced, re):
    state = full_grid_state(wing, kin, solver).with_inflow(v_induced)
    return state, reference_forces(state, env, re)


def pair_mean_thrust(wing, kin, env, solver, v_induced, re):
    """Cycle-mean vertical force of the wing pair at a given inflow, from
    one reference force pass on the ``solver`` element grid."""
    _, forces = _reference_pass(wing, kin, env, solver, v_induced, re)
    return 2.0 * float(np.mean(np.sum(forces.total_zeta, axis=1)))


def pair_mean_power(wing, kin, env, solver, v_induced, re):
    """Cycle-mean aerodynamic power of the wing pair at a given inflow: the
    eta force opposing the motion times the section speed, from one
    reference force pass on the ``solver`` element grid."""
    state, forces = _reference_pass(wing, kin, env, solver, v_induced, re)
    return 2.0 * float(np.mean(np.sum(
        state.v_translational * -forces.total_eta, axis=1)))


def concatenated_cycle_sums(wing, kin, env, solver, v_induced):
    """The sums that ``simulate_cycle`` reports at inflow ``v_induced``,
    formed on whole-cycle grids: the force pass on the rows of
    ``aero._element_grid_state``, with the second half-cycle appended as
    its mirror when those rows are half the grid (the stroke rate and the
    added-mass and rotational eta forces negated, every other force
    repeated), then the history, the power history and the spanwise means
    summed over the concatenated grids. Returns a dict of the history's
    six rows, ``power_history``, ``spanwise_lift``, ``spanwise_power``,
    ``mean_lift`` and ``mean_aero_power``."""
    state = aero._element_grid_state(wing, kin, solver)
    with np.errstate(all="ignore"):
        forces = aero.element_forces(state.with_inflow(v_induced), env,
                                     aero.reynolds(wing, kin, env))
    v_t, rate = state.v_translational, state.stroke_rate
    if len(rate) < solver.steps_per_cycle:
        flip = ("added_mass_eta", "rotational_eta")
        forces = ForceBreakdown(**{
            name: np.concatenate([f, -f if name in flip else f])
            for name, f in vars(forces).items()})
        v_t = np.concatenate([v_t, v_t])
        rate = np.concatenate([rate, -rate])
    factor = 2.0 if solver.pair else 1.0
    power_grid = v_t * -forces.total_eta
    spanwise_lift = factor * np.mean(forces.total_zeta, axis=0)
    spanwise_power = factor * np.mean(power_grid, axis=0)
    moving = np.abs(rate) > 1e-9 * np.max(np.abs(rate))
    direction = np.where(moving, np.sign(rate), 0.0)
    sums = {name: factor * np.sum(direction * f if name.endswith("_eta")
                                  else f, axis=1)
            for name, f in vars(forces).items()}
    sums.update(power_history=factor * np.sum(power_grid, axis=1),
                spanwise_lift=spanwise_lift, spanwise_power=spanwise_power,
                mean_lift=float(np.sum(spanwise_lift)),
                mean_aero_power=float(np.sum(spanwise_power)))
    return sums


def strip_areas(wing, r0, r1, cutout):
    """Membrane and planform area (m^2) of the wing between two stations
    (m from the root), with the membrane gone inboard of span fraction
    ``cutout``.

    The strip is cut at every chord breakpoint and at the cutout edge, and
    the exact trapezoid of each piece is added one at a time from the root
    outward; a piece whose midpoint lies inside (0, cutout) adds to the
    planform only.
    """
    edges = sorted({r for r, _ in wing.chord_breakpoints}
                   | {cutout * wing.span})
    edges = np.unique(np.clip(edges + [r0, r1], r0, r1))
    membrane = planform = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        piece = 0.5 * (wing.chord_at(a) + wing.chord_at(b)) * (b - a)
        planform += piece
        if not 0.0 < 0.5 * (a + b) / wing.span < cutout:
            membrane += piece
    return membrane, planform


def element_area_scale(wing, n, cutout):
    """Membrane-to-planform area ratio of each of ``n`` equal-width
    elements (1 where an element has no planform area), one strip at a
    time."""
    dr = wing.span / n
    left = np.arange(n) * dr
    scale = np.ones(n)
    for i in range(n):
        membrane, full = strip_areas(wing, left[i], left[i] + dr, cutout)
        if full > 0.0:
            scale[i] = membrane / full
    return scale


def station_weights(kin, span_fraction):
    """Linear-interpolation weights of ``kin``'s rotation stations, one
    span fraction at a time: the first station at or inboard of the first
    fraction, the last at or outboard of the last, and otherwise the two
    stations around the fraction, found by a right-sided search."""
    fracs = np.array([f for f, _ in kin.rotation_stations])
    span_fraction = np.atleast_1d(np.asarray(span_fraction, dtype=float))
    weights = np.zeros((span_fraction.size, fracs.size))
    for k, s in enumerate(span_fraction):
        if s <= fracs[0]:
            weights[k, 0] = 1.0
        elif s >= fracs[-1]:
            weights[k, -1] = 1.0
        else:
            i = int(np.searchsorted(fracs, s, side="right")) - 1
            w = (s - fracs[i]) / (fracs[i + 1] - fracs[i])
            weights[k, i] = 1.0 - w
            weights[k, i + 1] = w
    return weights


def reference_setpoint(schedule, t):
    """The heading of a (time, heading) schedule at one time ``t``: the
    entries in order until the first after ``t``, entry 0 before its own
    time."""
    value = schedule[0][1]
    for t_k, v in schedule:
        if t_k <= t:
            value = v
        else:
            break
    return value
