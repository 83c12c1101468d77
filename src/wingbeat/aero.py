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
a bracketed secant search. The search evaluates thrust and power
together through a :class:`CyclePrecompute` and returns both at its
root. The precompute holds the inflow-independent terms of one cycle
grid, which rescale exactly with the stroke amplitude, the frequency and
the size of a geometrically similar wing: a sweep builds one per cutout
and a hover trim one for all of its probes. The aerodynamic power
follows from the eta force opposing the stroke motion. Both solvers take
their grid and search limits from one :class:`SolverSettings`.
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


# Upper limit on the cycle grid, steps_per_cycle * n_elements. A cycle
# solve peaks near 190 bytes a cell, about 190 MB at the limit.
MAX_GRID_CELLS = 1_000_000


@dataclass(frozen=True)
class SolverSettings:
    """Cycle grid, pair flag, and inflow-search limits of a cycle solve.

    ``pair`` doubles single-wing loads for the mirrored pair (no wing-wing
    interaction); ``vi_tol`` is the momentum residual (m/s) that ends the
    inflow search and ``vi_max_iter`` its thrust-evaluation budget. The
    grid may hold at most ``MAX_GRID_CELLS`` cells.
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
        if self.steps_per_cycle * self.n_elements > MAX_GRID_CELLS:
            raise ValueError(
                f"steps_per_cycle * n_elements = {self.steps_per_cycle} * "
                f"{self.n_elements} exceeds the limit of {MAX_GRID_CELLS} "
                f"grid cells")
        if not (math.isfinite(self.vi_tol) and self.vi_tol > 0.0):
            raise ValueError(
                f"vi_tol must be a finite positive number, got {self.vi_tol}")
        if not (isinstance(self.vi_max_iter, numbers.Integral)
                and self.vi_max_iter >= 1):
            raise ValueError(
                f"vi_max_iter must be an integer of at least 1, "
                f"got {self.vi_max_iter!r}")


def _coefficient_amplitudes(re):
    """Lift amplitude, zero-lift drag and drag amplitude at Reynolds ``re``."""
    if re <= 0.0:
        raise ValueError("Reynolds number must be positive")
    return (1.966 - 3.94 * re**-0.429, 0.031 + 10.48 * re**-0.764,
            1.873 - 3.14 * re**-0.369)


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
    alpha_e = np.asarray(alpha_e, dtype=float)
    lift_amp, drag_zero, drag_amp = _coefficient_amplitudes(re)
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


def _added_mass_force(state, env, accel):
    """Added-mass force magnitude of the elements at section acceleration
    ``accel``; it uses the geometric angle of attack, not the inflow."""
    return (0.25 * math.pi * env.rho * state.chord**2 * accel
            * np.sin(state.alpha_geometric)
            * (state.area_scale * state.width))


def _rotational_force(state, env):
    """Rotational force magnitude of the elements; it uses the stroke-plane
    section speed, not the inflow."""
    # Zero-chord stations carry no force; avoid 0/0 in the axis ratio.
    chord = np.asarray(state.chord, dtype=float)
    axis_ratio = np.divide(state.pitch_axis, chord,
                           out=np.zeros(np.shape(chord)), where=chord > 0.0)
    c_rot = math.pi * (0.75 - axis_ratio)
    return (env.rho * state.v_translational * c_rot * state.rotation_rate
            * chord**2 * (state.area_scale * state.width))


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
    added = _added_mass_force(state, env, element_acceleration(state))
    rot = _rotational_force(state, env)

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
    rot = [kin.station_series(t, order) @ weights.T for order in (0, 1, 2)]
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


def _unsteady_means(state, env):
    """Cycle-mean added-mass plus rotational lift and power of one wing on
    an element grid, as polynomials in the stroke factor a.

    Lift is r^2 (L0 + a L1 + a^2 L2) and power a r^3 (P0 + a P1 + a^2 P2)
    for stroke harmonics scaled by a and frequency by r; returns the L and
    the P coefficients. Power opposes the added-mass force and follows the
    rotational force along the stroke.
    """
    sin_rot = np.sin(state.rotation_angle)
    cos_rot = np.cos(state.rotation_angle)
    v_t_sin = state.v_translational * sin_rot

    def mean(x):
        return float(np.mean(np.sum(x, axis=1)))

    per_accel = _added_mass_force(state, env, 1.0)
    arm = 0.5 * state.chord - state.pitch_axis
    lift, power = [], []
    # element_acceleration split by scaling: r^2, a r^2 and a^2 r^2.
    for accel in (arm * state.rotation_accel,
                  state.radius * state.stroke_accel * sin_rot,
                  arm * state.stroke_rate**2 * cos_rot * sin_rot):
        force = per_accel * accel
        lift.append(mean(force * cos_rot))
        power.append(-mean(v_t_sin * force))
    rot = _rotational_force(state, env)   # scales as a r^2
    lift[1] += mean(rot * cos_rot)
    power[1] += mean(v_t_sin * rot)
    return tuple(lift), tuple(power)


@dataclass(frozen=True, eq=False)
class CyclePrecompute:
    """Inflow-independent terms of one cycle grid, rescalable in amplitude,
    frequency and wing size.

    Kinematics that differ from ``kinematics`` only by a factor ``a`` on
    the stroke harmonics and a ratio ``r`` of frequencies sample the same
    phases on the same grid: the section speed v_t scales by a*r, the
    stroke acceleration by a*r^2, the squared stroke rate by a^2*r^2 and
    the rotation rate and acceleration by r and r^2. A wing with every
    length k times that of the wing of span ``span`` scales v_t, chords,
    widths and acceleration arms by k. With speed scale s = a r k the
    translational thrust is k^2 s^2 G(v / s) and its power k^2 s^3 P(v / s);
    the cycle-mean added-mass and rotational lift and power are unit means
    times powers of a and r, and k^4 on lift, k^5 on power. :meth:`loads`
    takes a and r from the kinematics and k from ``wing.span / span``;
    the wing must be a geometric rescaling of the precomputed one, which
    is not checked.

    G and P need no trigonometry. At unit-scale inflow u the inflow angle
    has cos phi = v_t / q and sin phi = u / q with q = sqrt(v_t^2 + u^2),
    and 2 alpha_e = 2 alpha_g - 2 phi. Expanding sin 2 alpha_e and
    cos 2 alpha_e by the angle-difference identities turns each cell's
    force and power into a cubic in u whose coefficients are fixed
    multiples of 1/q and q. A cycle mean is thus a few dot products of
    fixed cell moments with 1/q and q; at u = 0 it is fixed outright, and
    a cell with q = 0 carries no translational force.
    """

    kinematics: object
    span: float
    steps: int
    v_t_sq: np.ndarray
    by_inverse_q: np.ndarray
    by_q: np.ndarray
    at_zero_inflow: tuple
    lift_by_a: tuple
    power_by_a: tuple

    @classmethod
    def build(cls, wing, kin, env, solver):
        """Precompute on the ``solver`` grid of ``kin`` for ``wing``."""
        elements = discretize(wing, solver.n_elements)
        with np.errstate(all="ignore"):
            _, state = _element_grid_state(elements, kin,
                                           solver.steps_per_cycle, 0.0)
            return cls.from_state(state, kin, env, wing.span)

    @classmethod
    def from_state(cls, state, kin, env, span):
        """Precompute on an element grid of ``kin`` for a wing of ``span``
        (the grid's inflow is ignored)."""
        v_t = state.v_translational
        lift, power = _unsteady_means(state, env)

        # Translational moments, with T the force per unit dynamic pressure
        # and S, C = sin, cos 2 alpha_g; see loads().
        trans = (0.5 * env.rho * state.chord
                 * (state.area_scale * state.width))
        alpha_2 = 2.0 * state.alpha_geometric
        v_sq = v_t**2
        by_inverse_q = np.empty((5,) + v_t.shape)
        s_t_v3, c_t_v2, s_t_v, c_t, c_t_v4 = by_inverse_q
        np.multiply(np.sin(alpha_2), trans, out=s_t_v)
        s_t_v *= v_t
        np.multiply(s_t_v, v_sq, out=s_t_v3)
        np.multiply(np.cos(alpha_2), trans, out=c_t)
        np.multiply(c_t, v_sq, out=c_t_v2)
        np.multiply(c_t_v2, v_sq, out=c_t_v4)
        by_q = np.empty((2,) + v_t.shape)
        by_q[0] = trans
        np.multiply(trans, v_sq, out=by_q[1])

        def total(x):
            return float(np.vdot(x, v_t))

        return cls(kinematics=kin, span=span, steps=v_t.shape[0],
                   v_t_sq=v_sq.ravel(),
                   by_inverse_q=by_inverse_q.reshape(5, -1),
                   by_q=by_q.reshape(2, -1),
                   at_zero_inflow=(total(s_t_v), total(c_t_v2),
                                   total(by_q[1])),
                   lift_by_a=lift, power_by_a=power)

    def _scales(self, kin):
        """(a, r): ``kin``'s stroke harmonics are a times, and its frequency
        r times, those of the precomputed kinematics."""
        ref = self.kinematics
        harmonics = kin.stroke.a + kin.stroke.b
        ref_harmonics = ref.stroke.a + ref.stroke.b
        peak = max(ref_harmonics, key=abs)
        a = harmonics[ref_harmonics.index(peak)] / peak if peak else 1.0
        shape = [(f, s.a0, s.a, s.b) for f, s in kin.rotation_stations]
        ref_shape = [(f, s.a0, s.a, s.b) for f, s in ref.rotation_stations]
        # Harmonics rescaled through different factors agree to rounding.
        if not (a > 0.0 and shape == ref_shape
                and len(harmonics) == len(ref_harmonics)
                and all(abs(x - a * y) <= 1e-9 * a * abs(peak)
                        for x, y in zip(harmonics, ref_harmonics))):
            raise ValueError("kinematics are not a rescaling of the "
                             "precomputed cycle")
        return a, kin.frequency / ref.frequency

    def loads(self, wing, kin, v, re):
        """Cycle-mean vertical force (N) and aerodynamic power (W) of the
        wing pair at inflow ``v``.

        A cell's translational force is T q (c_l v_t - c_d u), which is
        (T/q) [A S v_t^3 + u (D1 - 2A) C v_t^2 + u^2 (2 D1 - A) S v_t
        - u^3 D1 C] - (D0 + D1) u T q with c_l = A sin 2 alpha_e and
        c_d = D0 + D1 (1 - cos 2 alpha_e): A, D0 and D1 are the
        coefficient amplitudes of :func:`aero_coefficients` at ``re``.

        A cell's translational power is T v_t q (c_l u + c_d v_t), which is
        (T/q) [-D1 C v_t^4 + u (A - 2 D1) S v_t^3 + u^2 (D1 - 2A) C v_t^2
        - u^3 A S v_t] + (D0 + D1) T v_t^2 q.
        """
        a, r = self._scales(kin)
        k = wing.span / self.span
        s = a * r * k
        u = v / s
        lift_amp, drag_zero, drag_amp = _coefficient_amplitudes(re)
        if u * u == 0.0:
            s_v, c_v3, v3 = self.at_zero_inflow
            thrust = lift_amp * s_v
            power = (drag_zero + drag_amp) * v3 - drag_amp * c_v3
        else:
            # Sums over the cells of the moments times 1/q and times q.
            q = np.sqrt(self.v_t_sq + u * u)
            k1, k2, k3, k4, k6 = self.by_inverse_q @ (1.0 / q)
            k5, k7 = self.by_q @ q
            thrust = (lift_amp * k1
                      + u * ((drag_amp - 2.0 * lift_amp) * k2
                             + u * ((2.0 * drag_amp - lift_amp) * k3
                                    - u * drag_amp * k4))
                      - (drag_zero + drag_amp) * u * k5)
            power = (-drag_amp * k6
                     + u * ((lift_amp - 2.0 * drag_amp) * k1
                            + u * ((drag_amp - 2.0 * lift_amp) * k2
                                   - u * lift_amp * k3))
                     + (drag_zero + drag_amp) * k7)
        l0, l1, l2 = self.lift_by_a
        p0, p1, p2 = self.power_by_a
        return (2.0 * k * k * (s * s * float(thrust) / self.steps
                               + k * k * r * r * (l0 + a * (l1 + a * l2))),
                2.0 * k * k * (s * s * s * float(power) / self.steps
                               + k**3 * a * r**3 * (p0 + a * (p1 + a * p2))))


@dataclass(frozen=True)
class InducedVelocityResult:
    """Converged mean inflow with the root-search diagnostics.

    ``iterations`` counts evaluations of the cycle-mean thrust,
    ``residual`` is the momentum-balance residual at ``v_induced``, and
    ``lift`` (N) and ``power`` (W) are the cycle-mean loads there, of the
    pair or of one wing as the solver's ``pair`` says. They are all 0
    when the stroke disk is empty, which a wing with a valid Reynolds
    number reaches only when its squared span underflows.
    """

    v_induced: float
    iterations: int
    residual: float
    negative_thrust: bool
    lift: float
    power: float


def solve_induced_velocity(wing, kin, env, solver=SolverSettings(),
                           precompute=None):
    """Solve momentum/blade-element balance for the mean inflow.

    The inflow is the root of g(Vi) = sqrt(max(T, 0) / (2 rho A)) - Vi,
    where T is the cycle-mean vertical force of the wing pair evaluated
    at Vi and A = Phi * R^2 is the actuator area swept by the two wings.
    The search starts at Vi = 0 and steps to the momentum inflow of the
    thrust until the root is bracketed (one step when thrust falls with
    inflow). It then takes secant steps through the two latest iterates,
    bisecting the bracket instead whenever a step would leave it, and
    stops at the first Vi with |g(Vi)| <= ``solver.vi_tol`` (m/s).

    ``precompute`` is a :class:`CyclePrecompute` in ``env`` on the
    ``solver`` grid of this wing or one it rescales geometrically, for
    kinematics that ``kin`` rescales; it is built when omitted. The force
    coefficients are taken at the stroke-based Reynolds number.

    Returns an :class:`InducedVelocityResult` that carries the lift and
    power at the returned inflow; a negative mean thrust pins the inflow
    at zero and sets the ``negative_thrust`` flag.

    Raises
    ------
    ValueError
        If :func:`reynolds` finds none, as for a zero stroke.
    RuntimeError
        If the thrust is not finite, or no inflow meets ``vi_tol`` within
        ``vi_max_iter`` thrust evaluations (the message reports the last
        residual).
    """
    re = reynolds(wing, kin, env)
    disk_area = kin.stroke_amplitude * wing.span**2
    if disk_area <= 0.0:
        return InducedVelocityResult(0.0, 0, 0.0, False, 0.0, 0.0)
    # Absurd but finite inputs may overflow on the way; the finiteness
    # check on every thrust reports that as one error instead of warnings.
    with np.errstate(all="ignore"):
        if precompute is None:
            precompute = CyclePrecompute.build(wing, kin, env, solver)

        # g falls through the root: v_lo (g > 0) lies below it, v_hi above.
        v, v_hi, previous = 0.0, None, None
        for evaluation in range(1, solver.vi_max_iter + 1):
            thrust, power = precompute.loads(wing, kin, v, re)
            if not math.isfinite(thrust):
                raise RuntimeError(f"non-finite cycle-mean thrust {thrust} "
                                   f"at inflow {v:.6g} m/s")
            g = math.sqrt(max(thrust, 0.0) / (2.0 * env.rho * disk_area)) - v
            if abs(g) <= solver.vi_tol:
                share = 1.0 if solver.pair else 0.5
                return InducedVelocityResult(v, evaluation, abs(g),
                                             negative_thrust=thrust < 0.0,
                                             lift=share * thrust,
                                             power=share * power)
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
            f"induced-velocity solve did not converge after "
            f"{solver.vi_max_iter} thrust evaluations (last residual "
            f"{abs(g):.3e} m/s)")


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
                   induced_velocity=None):
    """March one flapping cycle and accumulate cycle-average loads at the
    stroke-based Reynolds number (:func:`reynolds`), which raises if none.

    Parameters
    ----------
    wing : WingGeometry
    kin : WingKinematics
    env : AeroEnvironment
    solver : SolverSettings
        Cycle grid, pair flag, and inflow-search limits.
    induced_velocity : float, optional
        Fix the mean inflow instead of solving for it.
    """
    elements = discretize(wing, solver.n_elements)
    re = reynolds(wing, kin, env)
    vi_info = None
    # As in the inflow solve: absurd inputs end in its one error message.
    with np.errstate(all="ignore"):
        t, state = _element_grid_state(elements, kin, solver.steps_per_cycle,
                                       0.0)
        if induced_velocity is None:
            vi_info = solve_induced_velocity(
                wing, kin, env, solver, precompute=CyclePrecompute.from_state(
                    state, kin, env, elements.span))
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
