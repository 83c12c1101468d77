"""Unsteady blade-element aerodynamics for hovering flapping wings.

Each spanwise element carries three force contributions: a quasi-steady
translational part driven by empirical lift/drag coefficients, an
added-mass part reacting to the section's normal acceleration, and a
rotational part from wing pitching. Forces are resolved along two axes:
eta, tangential to the section's instantaneous motion in the stroke
plane, and zeta, perpendicular to the stroke plane (lift).

The mean inflow through the stroke disk couples back into the effective
angle of attack. Assuming a uniform induced velocity, it is the root of
actuator-disk momentum balance against the blade-element thrust, found by
a bracketed secant search on a cycle grid whose inflow-independent terms
are evaluated once. The aerodynamic power follows from the eta force
opposing the stroke motion. Both solvers take their grid and search
limits from one :class:`SolverSettings`.
"""

from dataclasses import dataclass, replace
from functools import cached_property
import math
import numbers

import numpy as np

from .kinematics import geometric_aoa
from .wing import discretize


@dataclass(frozen=True)
class AeroEnvironment:
    """Still air: density (kg/m^3) and kinematic viscosity (m^2/s)."""

    rho: float = 1.225
    nu: float = 1.5e-5

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0.0 for x in (self.rho, self.nu)):
            raise ValueError(
                "air density and viscosity must be finite and positive")


@dataclass(frozen=True)
class SolverSettings:
    """Cycle grid, pair flag, and inflow-search limits of a cycle solve.

    ``pair`` doubles single-wing loads for the mirrored pair (no wing-wing
    interaction); ``vi_tol`` is the momentum residual (m/s) that ends the
    inflow search and ``vi_max_iter`` its thrust-evaluation budget.
    """

    steps_per_cycle: int = 720
    n_elements: int = 20
    pair: bool = True
    vi_tol: float = 1e-6
    vi_max_iter: int = 100

    def __post_init__(self):
        if self.steps_per_cycle < 36:
            raise ValueError("steps_per_cycle must be at least 36")
        if self.n_elements < 2:
            raise ValueError("n_elements must be at least 2")
        if not (math.isfinite(self.vi_tol) and self.vi_tol > 0.0):
            raise ValueError(
                f"vi_tol must be a finite positive number, got {self.vi_tol}")
        if not (isinstance(self.vi_max_iter, numbers.Integral)
                and self.vi_max_iter >= 1):
            raise ValueError(
                f"vi_max_iter must be an integer of at least 1, "
                f"got {self.vi_max_iter!r}")


def aero_coefficients(alpha_e, re):
    """Empirical flat-plate lift/drag coefficients at low Reynolds number.

    Parameters
    ----------
    alpha_e : array_like
        Effective angle of attack (rad).
    re : float
        Reynolds number, > 0.

    Returns
    -------
    cl, cd : ndarray or float
    """
    if re <= 0.0:
        raise ValueError("Reynolds number must be positive")
    alpha_e = np.asarray(alpha_e, dtype=float)
    lift_amp = 1.966 - 3.94 * re**-0.429
    drag_zero = 0.031 + 10.48 * re**-0.764
    drag_amp = 1.873 - 3.14 * re**-0.369
    cl = lift_amp * np.sin(2.0 * alpha_e)
    cd = drag_zero + drag_amp * (1.0 - np.cos(2.0 * alpha_e))
    if cl.shape:
        return cl, cd
    return float(cl), float(cd)


def reynolds(wing, kin, env):
    """Stroke-based Reynolds number 2 * cbar * Phi * f * R / nu."""
    area = wing.area
    if area <= 0.0:
        raise ValueError("Reynolds number undefined for a zero-area wing")
    re = (2.0 * wing.mean_chord * kin.stroke_amplitude * kin.frequency
          * wing.span / env.nu)
    if re <= 0.0:
        raise ValueError(f"degenerate kinematics give Re = {re}")
    return re


@dataclass(frozen=True)
class ElementState:
    """Instantaneous state of one or more blade elements.

    Fields broadcast together, so the same dataclass serves a single
    scalar element and a (steps, elements) grid. Angles in radians,
    lengths in metres, rates in 1/s. Derived arrays are cached per instance.
    """

    radius: np.ndarray
    chord: np.ndarray
    pitch_axis: np.ndarray
    width: np.ndarray
    area_scale: np.ndarray
    stroke_rate: np.ndarray
    stroke_accel: np.ndarray
    rotation_angle: np.ndarray
    rotation_rate: np.ndarray
    rotation_accel: np.ndarray
    v_induced: float = 0.0

    @cached_property
    def v_translational(self):
        """Section speed in the stroke plane, radius * |stroke rate|."""
        return self.radius * np.abs(self.stroke_rate)

    @cached_property
    def inflow_angle(self):
        """Induced inflow angle, atan2(Vi, VT), in [0, pi/2]."""
        return np.arctan2(self.v_induced, self.v_translational)

    @cached_property
    def alpha_geometric(self):
        return geometric_aoa(self.rotation_angle, self.stroke_rate)

    @cached_property
    def alpha_effective(self):
        """Geometric angle of attack minus the induced inflow angle."""
        return self.alpha_geometric - self.inflow_angle


def element_acceleration(state):
    """Chord-normal section acceleration feeding the added-mass force.

    Combines the stroke acceleration arm, the centripetal term of the
    pitch-axis offset, and the pitching acceleration about that offset.
    """
    arm = 0.5 * state.chord - state.pitch_axis
    return ((state.radius * state.stroke_accel
             + arm * state.stroke_rate**2 * np.cos(state.rotation_angle))
            * np.sin(state.rotation_angle)
            + arm * state.rotation_accel)


@dataclass(frozen=True)
class ForceBreakdown:
    """Forces (N) split by mechanism and axis.

    eta components follow the motion-relative sign convention of the
    sectional model: negative eta opposes the instantaneous stroke
    motion, so steady drag is negative here.
    """

    translational_eta: np.ndarray
    added_mass_eta: np.ndarray
    rotational_eta: np.ndarray
    translational_zeta: np.ndarray
    added_mass_zeta: np.ndarray
    rotational_zeta: np.ndarray

    @property
    def total_eta(self):
        return (self.translational_eta + self.added_mass_eta
                + self.rotational_eta)

    @property
    def total_zeta(self):
        return (self.translational_zeta + self.added_mass_zeta
                + self.rotational_zeta)


def _unsteady_forces(state, env):
    """Added-mass and rotational force magnitudes of the elements.

    Neither depends on the inflow: both use the geometric angle of attack
    and the stroke-plane section speed.
    """
    scale = state.area_scale * state.width
    a_w = element_acceleration(state)
    added = (0.25 * math.pi * env.rho * state.chord**2 * a_w
             * np.sin(state.alpha_geometric) * scale)

    # Zero-chord stations carry no force; avoid 0/0 in the axis ratio.
    chord = np.asarray(state.chord, dtype=float)
    axis_ratio = np.divide(state.pitch_axis, chord,
                           out=np.zeros(np.shape(chord)), where=chord > 0.0)
    c_rot = math.pi * (0.75 - axis_ratio)
    rot = (env.rho * state.v_translational * c_rot * state.rotation_rate
           * chord**2 * scale)
    return added, rot


def element_forces(state, env, re):
    """Sectional forces for a given element state.

    Translational terms use the lift/drag coefficients at the effective
    angle of attack with the combined translational/induced dynamic
    pressure; added-mass terms scale with chord^2 and the section
    acceleration; rotational terms scale with the pitch rate and the
    pitching-axis coefficient pi * (0.75 - l/c). Every component carries
    the element's membrane area scale.
    """
    cl, cd = aero_coefficients(state.alpha_effective, re)
    phi = state.inflow_angle
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    sin_rot, cos_rot = np.sin(state.rotation_angle), np.cos(state.rotation_angle)

    dyn = state.v_translational**2 + state.v_induced**2
    scale = state.area_scale * state.width
    trans = 0.5 * env.rho * state.chord * dyn * scale
    added, rot = _unsteady_forces(state, env)

    return ForceBreakdown(
        translational_eta=-trans * (cl * sin_phi + cd * cos_phi),
        added_mass_eta=added * sin_rot,
        rotational_eta=-rot * sin_rot,
        translational_zeta=trans * (cl * cos_phi - cd * sin_phi),
        added_mass_zeta=added * cos_rot,
        rotational_zeta=rot * cos_rot,
    )


def _element_grid_state(elements, kin, steps, v_induced):
    """Element states on a uniform one-cycle time grid, shape (steps, n)."""
    t = np.arange(steps) / (steps * kin.frequency)
    weights = kin.station_weights(elements.span_fraction)
    rot = []
    for order in (0, 1, 2):
        per_station = np.stack(
            [series.eval(t, order) for _, series in kin.rotation_stations],
            axis=1)
        rot.append(per_station @ weights.T)
    state = ElementState(
        radius=elements.radius,
        chord=elements.chord,
        pitch_axis=elements.pitch_axis,
        width=elements.width,
        area_scale=elements.area_scale,
        stroke_rate=kin.stroke.eval(t, 1)[:, None],
        stroke_accel=kin.stroke.eval(t, 2)[:, None],
        rotation_angle=rot[0],
        rotation_rate=rot[1],
        rotation_accel=rot[2],
        v_induced=v_induced,
    )
    return t, state


def _pair_mean_thrust(elements, kin, env, steps, v_induced, re):
    """Cycle-mean vertical force of the wing pair at a given inflow."""
    _, state = _element_grid_state(elements, kin, steps, v_induced)
    forces = element_forces(state, env, re)
    return 2.0 * float(np.mean(np.sum(forces.total_zeta, axis=1)))


def _pair_mean_thrust_function(state, env, re):
    """``thrust(v)``: the pair's cycle-mean vertical force at inflow ``v``.

    Equals ``_pair_mean_thrust`` on the grid of ``state`` (whose own
    ``v_induced`` is ignored). Only the translational term depends on the
    inflow, so the section speed, the geometric angle of attack, the
    translational force scale and the cycle-mean added-mass plus
    rotational lift are evaluated once here.
    """
    v_t = state.v_translational
    v_t_sq = v_t**2
    alpha_g = state.alpha_geometric
    trans_scale = 0.5 * env.rho * state.chord * state.area_scale * state.width
    added, rot = _unsteady_forces(state, env)
    unsteady = float(np.mean(np.sum((added + rot)
                                    * np.cos(state.rotation_angle), axis=1)))

    def thrust(v):
        phi = np.arctan2(v, v_t)
        cl, cd = aero_coefficients(alpha_g - phi, re)
        zeta = trans_scale * (v_t_sq + v * v) * (cl * np.cos(phi)
                                                 - cd * np.sin(phi))
        return 2.0 * (float(np.mean(np.sum(zeta, axis=1))) + unsteady)

    return thrust


@dataclass(frozen=True)
class InducedVelocityResult:
    """Converged mean inflow with the root-search diagnostics.

    ``iterations`` counts evaluations of the cycle-mean thrust and
    ``residual`` is the momentum-balance residual at ``v_induced``.
    """

    v_induced: float
    iterations: int
    residual: float
    negative_thrust: bool


def solve_induced_velocity(wing, kin, env, solver=SolverSettings(),
                           reynolds_number=None, state=None):
    """Solve momentum/blade-element balance for the mean inflow.

    The inflow is the root of g(Vi) = sqrt(max(T, 0) / (2 rho A)) - Vi,
    where T is the cycle-mean vertical force of the wing pair evaluated
    at Vi and A = Phi * R^2 is the actuator area swept by the two wings.
    The search starts at Vi = 0 and steps to the momentum inflow of the
    thrust until the root is bracketed (one step when thrust falls with
    inflow). It then takes secant steps through the two latest iterates,
    bisecting the bracket instead whenever a step would leave it, and
    stops at the first Vi with |g(Vi)| <= ``solver.vi_tol`` (m/s).

    ``state`` is an element grid from ``_element_grid_state`` for this
    wing's elements on the ``solver`` grid; it is built here when omitted.

    Returns an :class:`InducedVelocityResult`; a negative mean thrust
    pins the inflow at zero and sets the ``negative_thrust`` flag.

    Raises
    ------
    RuntimeError
        If the thrust is not finite, or no inflow meets ``vi_tol`` within
        ``vi_max_iter`` thrust evaluations (the message reports the last
        residual).
    """
    disk_area = kin.stroke_amplitude * wing.span**2
    if disk_area <= 0.0:
        return InducedVelocityResult(0.0, 0, 0.0, False)
    re = reynolds(wing, kin, env) if reynolds_number is None else reynolds_number
    if state is None:
        _, state = _element_grid_state(discretize(wing, solver.n_elements),
                                       kin, solver.steps_per_cycle, 0.0)
    thrust_at = _pair_mean_thrust_function(state, env, re)

    # g falls through the root: v_lo (g > 0) lies below it, v_hi above.
    v, v_hi, previous = 0.0, None, None
    for evaluation in range(1, solver.vi_max_iter + 1):
        thrust = thrust_at(v)
        if not math.isfinite(thrust):
            raise RuntimeError(
                f"non-finite cycle-mean thrust {thrust} at inflow {v:.6g} m/s")
        g = math.sqrt(max(thrust, 0.0) / (2.0 * env.rho * disk_area)) - v
        if abs(g) <= solver.vi_tol:
            return InducedVelocityResult(v, evaluation, abs(g),
                                         negative_thrust=thrust < 0.0)
        if g > 0.0:
            v_lo = v
        else:
            v_hi = v
        if v_hi is None:
            step = g  # to the momentum inflow of this thrust
        else:
            v_prev, g_prev = previous
            step = (-g * (v - v_prev) / (g - g_prev) if g != g_prev
                    else math.inf)
            if not v_lo < v + step < v_hi:
                step = 0.5 * (v_lo + v_hi) - v
        previous = v, g
        v += step
    raise RuntimeError(
        f"induced-velocity solve did not converge after {solver.vi_max_iter} "
        f"thrust evaluations (last residual {abs(g):.3e} m/s)")


@dataclass(frozen=True)
class CycleTimeSeries:
    """Wing-total force history over one cycle plus instantaneous power.

    The eta history is re-signed into a fixed stroke-plane direction
    (positive toward the upstroke motion), so a symmetric stroke averages
    to zero; power keeps the motion-opposing convention and is positive
    when drag is being overcome.
    """

    t: np.ndarray
    forces: ForceBreakdown
    power: np.ndarray


@dataclass(frozen=True)
class CycleResult:
    """Cycle-averaged loads of a flapping wing (or mirrored pair)."""

    mean_lift: float
    mean_aero_power: float
    v_induced: float
    reynolds_number: float
    frequency: float
    span_fractions: np.ndarray
    spanwise_lift: np.ndarray
    spanwise_power: np.ndarray
    time_series: CycleTimeSeries
    pair: bool
    steps: int
    vi_info: InducedVelocityResult | None


def simulate_cycle(wing, kin, env, solver=SolverSettings(),
                   induced_velocity=None, reynolds_number=None):
    """March one flapping cycle and accumulate cycle-average loads.

    Parameters
    ----------
    wing : WingGeometry
    kin : WingKinematics
    env : AeroEnvironment
    solver : SolverSettings
        Cycle grid, pair flag, and inflow-search limits.
    induced_velocity : float, optional
        Fix the mean inflow instead of solving for it.
    reynolds_number : float, optional
        Override the stroke-based Reynolds number.
    """
    elements = discretize(wing, solver.n_elements)
    re = reynolds(wing, kin, env) if reynolds_number is None else reynolds_number
    t, state = _element_grid_state(elements, kin, solver.steps_per_cycle, 0.0)

    vi_info = None
    if induced_velocity is None:
        vi_info = solve_induced_velocity(wing, kin, env, solver,
                                         reynolds_number=re, state=state)
        induced_velocity = vi_info.v_induced

    state = replace(state, v_induced=induced_velocity)
    forces = element_forces(state, env, re)

    factor = 2.0 if solver.pair else 1.0
    power_grid = state.v_translational * -forces.total_eta
    spanwise_lift = factor * np.mean(forces.total_zeta, axis=0)
    spanwise_power = factor * np.mean(power_grid, axis=0)

    # Re-sign eta into a fixed stroke-plane direction for the history. The
    # tangential direction is undefined at stroke reversal, so samples with
    # a vanishing stroke rate get no direction.
    rate = state.stroke_rate
    moving = np.abs(rate) > 1e-9 * np.max(np.abs(rate))
    direction = np.where(moving, np.sign(rate), 0.0)
    history = ForceBreakdown(
        translational_eta=factor * np.sum(direction * forces.translational_eta, axis=1),
        added_mass_eta=factor * np.sum(direction * forces.added_mass_eta, axis=1),
        rotational_eta=factor * np.sum(direction * forces.rotational_eta, axis=1),
        translational_zeta=factor * np.sum(forces.translational_zeta, axis=1),
        added_mass_zeta=factor * np.sum(forces.added_mass_zeta, axis=1),
        rotational_zeta=factor * np.sum(forces.rotational_zeta, axis=1),
    )

    return CycleResult(
        mean_lift=float(np.sum(spanwise_lift)),
        mean_aero_power=float(np.sum(spanwise_power)),
        v_induced=float(induced_velocity),
        reynolds_number=float(re),
        frequency=kin.frequency,
        span_fractions=elements.span_fraction,
        spanwise_lift=spanwise_lift,
        spanwise_power=spanwise_power,
        time_series=CycleTimeSeries(t=t, forces=history,
                                    power=factor * np.sum(power_grid, axis=1)),
        pair=solver.pair,
        steps=solver.steps_per_cycle,
        vi_info=vi_info,
    )


@dataclass(frozen=True)
class WingComparison:
    """Relative changes from a reference cycle result to a modified one."""

    lift_delta: float
    power_delta: float
    lift_to_power_delta: float


def compare_wings(reference, modified):
    """Relative lift, power, and lift-to-power changes between two runs.

    Both results must come from the same frequency (the comparison is
    meaningless otherwise) and carry nonzero reference lift and powers.
    """
    if not math.isclose(reference.frequency, modified.frequency,
                        rel_tol=1e-12):
        raise ValueError("cycle results were run at different frequencies")
    if reference.mean_lift == 0.0 or reference.mean_aero_power == 0.0 \
            or modified.mean_aero_power == 0.0:
        raise ValueError("comparison undefined for zero lift or power")
    lift_delta = modified.mean_lift / reference.mean_lift - 1.0
    power_delta = modified.mean_aero_power / reference.mean_aero_power - 1.0
    ratio_ref = reference.mean_lift / reference.mean_aero_power
    ratio_mod = modified.mean_lift / modified.mean_aero_power
    return WingComparison(lift_delta=lift_delta, power_delta=power_delta,
                          lift_to_power_delta=ratio_mod / ratio_ref - 1.0)
