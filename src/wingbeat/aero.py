"""Unsteady blade-element aerodynamics for hovering flapping wings.

Each spanwise element carries three force contributions: a quasi-steady
translational part driven by empirical lift/drag coefficients, an
added-mass part reacting to the section's normal acceleration, and a
rotational part from wing pitching. Forces are resolved along two axes:
eta, tangential to the section's instantaneous motion in the stroke
plane, and zeta, perpendicular to the stroke plane (lift).

The translational law, :func:`aero_coefficients` at the effective angle
of attack, expands into cubics in the inflow on inflow-independent cell
moments (:func:`_lift_cubic`, :func:`_drag_cubic`). :func:`element_forces`
evaluates them per cell and a :class:`CyclePrecompute` on moments summed
over a cycle grid; both read the inflow-free cell terms that an
:class:`ElementState` caches at unit air density. So a precompute holds
no density, and :meth:`CyclePrecompute.loads` takes the solve's.

Those terms take two trig passes over the cells, sin and cos of the
rotation angle theta, and no others. The geometric angle of attack
alpha_g is theta on the upstroke and pi - theta on the downstroke, so
sin alpha_g = sin theta, sin 2 alpha_g = 2 sign(stroke rate) sin theta
cos theta and cos 2 alpha_g = 1 - 2 sin^2 theta. At stroke reversal
alpha_g = pi/2 (sines 1 and 0, cos 2 alpha_g = -1), and where the clip of
:func:`~wingbeat.kinematics.geometric_aoa` to [0, pi] moves a moving cell
its sines are 0 and cos 2 alpha_g is 1; both cases are set explicitly.

The uniform mean inflow through the stroke disk, which couples back into
the effective angle of attack, is the root of actuator-disk momentum
balance against the blade-element thrust, found by a bracketed secant
search on a precompute. A precompute rescales exactly with the stroke
amplitude, the frequency and the size of a geometrically similar wing;
:meth:`CyclePrecompute.fit` finds those scales once per solve. Power is
the eta force opposing the stroke motion times its speed.
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


# The coefficient fit's lower Reynolds limit, about 5.055, where its lift
# amplitude 1.966 - 3.94 Re^-0.429 reaches zero.
MIN_REYNOLDS = (3.94 / 1.966) ** (1.0 / 0.429)


def _coefficient_amplitudes(re):
    """Lift amplitude, zero-lift drag and drag amplitude at Reynolds ``re``,
    which must exceed ``MIN_REYNOLDS``."""
    if not re > MIN_REYNOLDS:
        raise ValueError(f"Reynolds number {re:.6g} is not above the "
                         f"coefficient fit's lower limit {MIN_REYNOLDS:.6g}")
    return (1.966 - 3.94 * re**-0.429, 0.031 + 10.48 * re**-0.764,
            1.873 - 3.14 * re**-0.369)


def aero_coefficients(alpha_e, re):
    """Empirical flat-plate lift and drag coefficients at low Reynolds
    number, c_l = A sin 2 alpha_e and c_d = D0 + D1 (1 - cos 2 alpha_e), at
    the effective angle of attack ``alpha_e`` (rad, array_like) and
    Reynolds number ``re`` > ``MIN_REYNOLDS``. Returns (cl, cd), arrays or
    floats."""
    alpha_e = np.asarray(alpha_e, dtype=float)
    lift_amp, drag_zero, drag_amp = _coefficient_amplitudes(re)
    cl = lift_amp * np.sin(2.0 * alpha_e)
    cd = drag_zero + drag_amp * (1.0 - np.cos(2.0 * alpha_e))
    if cl.shape:
        return cl, cd
    return float(cl), float(cd)


def reynolds(wing, kin, env):
    """Stroke-based Reynolds number 2 * cbar * Phi * f * R / nu."""
    if wing.area <= 0.0:
        raise ValueError("Reynolds number undefined for a zero-area wing")
    re = (2.0 * wing.mean_chord * kin.stroke_amplitude * kin.frequency
          * wing.span / env.nu)
    if re <= 0.0:
        raise ValueError(f"degenerate kinematics give Re = {re}")
    return re


@dataclass(frozen=True)
class ElementState:
    """Instantaneous state of one or more blade elements.

    The rotation angle, rate and acceleration share the state's shape, and
    every other field broadcasts to it, so the same dataclass serves a
    single scalar element and a (steps, elements) grid. Angles in radians,
    lengths in metres, rates in 1/s. Derived arrays are cached per
    instance.
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
        """Induced inflow angle arcsin(Vi / hypot(VT, Vi)), 0 at rest."""
        q = np.hypot(self.v_translational, self.v_induced)
        return np.arcsin(np.divide(self.v_induced, q,
                                   out=np.zeros(np.shape(q)), where=q > 0.0))

    @cached_property
    def alpha_geometric(self):
        return geometric_aoa(self.rotation_angle, self.stroke_rate)

    @cached_property
    def alpha_effective(self):
        """Geometric angle of attack minus the induced inflow angle."""
        return self.alpha_geometric - self.inflow_angle

    @cached_property
    def rotation_trig(self):
        """Sine and cosine of the rotation angle theta: the only trig pass
        over the cells, of which the geometric angle's sines are products."""
        return np.sin(self.rotation_angle), np.cos(self.rotation_angle)

    @cached_property
    def translational_terms(self):
        """The translational force per unit squared speed T of every cell at
        unit air density, and its products with sin and cos 2 alpha_g:
        2 sign(stroke rate) sin theta cos theta and 1 - 2 sin^2 theta, with
        cos 2 alpha_g = -1 at stroke reversal (see :func:`_clipped_cells`)."""
        trans = 0.5 * self.chord * (self.area_scale * self.width)
        sin_rot, cos_rot = self.rotation_trig
        sign = np.sign(self.stroke_rate)
        moving = np.abs(sign)
        s_t = sin_rot * cos_rot
        s_t *= 2.0 * sign
        s_t *= trans
        c_t = sin_rot * sin_rot
        c_t *= -2.0 * moving
        c_t += 2.0 * moving - 1.0
        c_t *= trans
        clipped = _clipped_cells(self)
        if clipped is not None:
            s_t = np.where(clipped, 0.0, s_t)
            c_t = np.where(clipped, trans, c_t)
        return trans, s_t, c_t

    @cached_property
    def unsteady_terms(self):
        """Unsteady forces of every cell at unit air density, the added-mass
        force and the rotational force (a r^2), and the cell sums from which
        a cycle grid's means follow: of F cos theta and of F v_t sin theta,
        for each part of the added mass (:func:`_acceleration_parts`) and
        then the rotational force. The added mass takes sin alpha_g as
        sin theta, 1 at stroke reversal (see :func:`_clipped_cells`)."""
        scale = self.area_scale * self.width
        sin_rot, cos_rot = self.rotation_trig
        moving = np.abs(np.sign(self.stroke_rate))
        per_accel = sin_rot * moving
        per_accel += 1.0 - moving
        clipped = _clipped_cells(self)
        if clipped is not None:
            per_accel = np.where(clipped, 0.0, per_accel)
        per_accel *= 0.25 * math.pi * self.chord**2 * scale
        v_t_sin = self.v_translational * sin_rot
        sums = []
        added = None
        for part in _acceleration_parts(self, sin_rot, cos_rot):
            part *= per_accel
            sums.append((np.vdot(part, cos_rot), np.vdot(part, v_t_sin)))
            # Summed as each part is taken: one added-mass array stays.
            if added is None:
                added = part
            else:
                added += part
        # Zero-chord stations carry no force; avoid 0/0 in the axis ratio.
        chord = np.asarray(self.chord, dtype=float)
        axis_ratio = np.divide(self.pitch_axis, chord, where=chord > 0.0,
                               out=np.zeros(np.shape(chord)))
        rot = self.rotation_rate * self.v_translational
        rot *= math.pi * (0.75 - axis_ratio) * chord**2 * scale
        sums.append((np.vdot(rot, cos_rot), np.vdot(rot, v_t_sin)))
        return added, rot, tuple(sums)

    def with_inflow(self, v_induced):
        """This state at inflow ``v_induced``; shares its inflow-free cache."""
        moved = replace(self, v_induced=v_induced)
        vars(moved).update((name, vars(self)[name]) for name in (
            "v_translational", "alpha_geometric", "rotation_trig",
            "translational_terms", "unsteady_terms") if name in vars(self))
        return moved


def _clipped_cells(state):
    """Where the sines of :func:`geometric_aoa` are not products of the
    rotation angle's: ``None``, or the moving cells whose rotation angle
    lies outside [0, pi], where the clip sets alpha_g to 0 or pi, so that
    sin alpha_g = sin 2 alpha_g = 0 and cos 2 alpha_g = 1. Elsewhere alpha_g
    is theta moving up, pi - theta moving down and pi/2 at reversal."""
    theta = state.rotation_angle
    if not (np.min(theta) < 0.0 or np.max(theta) > math.pi):
        return None
    return (state.stroke_rate != 0.0) & ((theta < 0.0) | (theta > math.pi))


def _acceleration_parts(state, sin_rot, cos_rot):
    """:func:`element_acceleration` one part at a time, split by scaling for
    stroke harmonics times a and frequency times r: pitching (r^2), stroke
    acceleration (a r^2) and the pitch-axis centripetal term (a^2 r^2)."""
    arm = 0.5 * state.chord - state.pitch_axis
    yield arm * state.rotation_accel
    part = sin_rot * state.stroke_accel
    part *= state.radius
    yield part
    part = sin_rot * cos_rot
    part *= state.stroke_rate**2
    part *= arm
    yield part


def element_acceleration(state):
    """Chord-normal section acceleration feeding the added-mass force: the
    stroke acceleration arm, the centripetal term of the pitch-axis offset,
    and the pitching acceleration about that offset."""
    return sum(_acceleration_parts(state, *state.rotation_trig))


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


def _lift_cubic(amplitudes, u, s_v3, c_v2, s_v, c, by_q):
    """Translational vertical force T q (c_l v - c_d u) at inflow ``u``.

    For a cell of section speed v and force T per squared speed, with
    q = sqrt(v^2 + u^2), cos phi = v / q and sin phi = u / q, expanding the
    coefficients of :func:`aero_coefficients` (``amplitudes`` A, D0, D1)
    at 2 alpha_e = 2 alpha_g - 2 phi gives (T/q) [A S v^3 + u (D1 - 2A)
    C v^2 + u^2 (2 D1 - A) S v - u^3 D1 C] - (D0 + D1) u T q, S and C being
    sin and cos 2 alpha_g. Its arguments, the moments T S v^3 / q,
    T C v^2 / q, T S v / q, T C / q and T q, may be cell sums.
    """
    lift_amp, drag_zero, drag_amp = amplitudes
    # Innermost bracket first, in place on cell arrays.
    lift = (2.0 * drag_amp - lift_amp) * s_v
    lift -= u * drag_amp * c
    lift *= u
    lift += (drag_amp - 2.0 * lift_amp) * c_v2
    lift *= u
    lift += lift_amp * s_v3
    lift -= (drag_zero + drag_amp) * u * by_q
    return lift


def _drag_cubic(amplitudes, u, c_v4, s_v3, c_v2, s_v, by_q):
    """Translational power T v q (c_l u + c_d v) at inflow ``u``: in the
    terms of :func:`_lift_cubic`, (T/q) [-D1 C v^4 + u (A - 2 D1) S v^3
    + u^2 (D1 - 2A) C v^2 - u^3 A S v] + (D0 + D1) T v^2 q on the moments
    T C v^4 / q, T S v^3 / q, T C v^2 / q, T S v / q and T v^2 q. With
    every moment one power of v lower it is the motion-opposing drag, with
    no division by v, which is 0 at stroke reversal."""
    lift_amp, drag_zero, drag_amp = amplitudes
    power = (drag_amp - 2.0 * lift_amp) * c_v2
    power -= u * lift_amp * s_v
    power *= u
    power += (lift_amp - 2.0 * drag_amp) * s_v3
    power *= u
    power += -drag_amp * c_v4
    power += (drag_zero + drag_amp) * by_q
    return power


def element_forces(state, env, re):
    """Sectional forces for a given element state.

    The translational force, that of :func:`aero_coefficients` (the angle
    form of the law) on the dynamic pressure q^2 = v_t^2 + Vi^2, is the
    expansion of :func:`_lift_cubic` (zeta) and :func:`_drag_cubic` (eta)
    in Vi, per cell with the factor 1/q taken out; a cell with q = 0
    carries none. Added-mass and rotational terms are those the state caches.
    """
    trans, s_t, c_t = state.translational_terms
    v, u = state.v_translational, state.v_induced
    v_sq = v * v
    q_sq = v_sq + u * u
    amplitudes = _coefficient_amplitudes(re)
    s_t_v, c_t_v = s_t * v, c_t * v
    lift = _lift_cubic(amplitudes, u, s_t_v * v_sq, c_t_v * v, s_t_v, c_t,
                       trans * q_sq)
    # The drag's moments first, so that v^2 and T S v go before its cubic.
    c_t_v3, s_t_v2 = c_t_v * v_sq, s_t_v * v
    del v_sq, s_t_v
    t_v_q_sq = trans * v
    t_v_q_sq *= q_sq
    drag = _drag_cubic(amplitudes, u, c_t_v3, s_t_v2, c_t_v, s_t, t_v_q_sq)
    del c_t_v, c_t_v3, s_t_v2, t_v_q_sq
    rho_by_q = np.divide(env.rho, np.sqrt(q_sq), out=np.zeros(np.shape(q_sq)),
                         where=q_sq > 0.0)
    lift *= rho_by_q
    drag *= -rho_by_q
    del q_sq, rho_by_q  # before the unsteady forces form
    added, rot, _ = state.unsteady_terms
    sin_rot, cos_rot = state.rotation_trig
    added, rot = env.rho * added, env.rho * rot
    return ForceBreakdown(
        translational_eta=drag,
        added_mass_eta=added * sin_rot,
        rotational_eta=-rot * sin_rot,
        translational_zeta=lift,
        added_mass_zeta=added * cos_rot,
        rotational_zeta=rot * cos_rot,
    )


def _element_grid_state(elements, kin, steps):
    """Element states on a uniform one-cycle time grid, shape (steps, n)."""
    t = np.arange(steps) / (steps * kin.frequency)
    weights = kin.station_weights(elements.span_fraction)
    rot = [kin.station_series(t, order) @ weights.T for order in (0, 1, 2)]
    return t, ElementState(
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
    )


def _unsteady_means(state):
    """Cycle means of one wing's unsteady lift and power on an element
    grid, by powers of the scales a and r of :class:`CyclePrecompute`: lift
    r^2 (L0 + a L1 + a^2 L2) and power a r^3 (P0 + a P1 + a^2 P2). Returns
    ((L0, L1, L2), (P0, P1, P2))."""
    *added, (rot_lift, rot_power) = state.unsteady_terms[2]
    steps = np.shape(state.rotation_angle)[0]
    lift = [force_lift / steps for force_lift, _ in added]
    power = [-force_power / steps for _, force_power in added]
    lift[1] += rot_lift / steps
    power[1] += rot_power / steps
    return tuple(map(float, lift)), tuple(map(float, power))


@dataclass(frozen=True, eq=False)
class CyclePrecompute:
    """Inflow-independent terms of one cycle grid, rescalable in amplitude,
    frequency and wing size.

    Kinematics that differ from ``kinematics`` by a factor a on the stroke
    harmonics and a ratio r of frequencies sample the same phases: v_t
    scales by a r, the stroke acceleration by a r^2, the squared stroke
    rate by a^2 r^2, the rotation rate and acceleration by r and r^2. A
    wing k times ``wing`` in every length scales v_t, chords, widths and
    arms by k. With s = a r k the translational thrust is k^2 s^2 G(v / s)
    and its power k^2 s^3 P(v / s), G and P being the cubics of
    :func:`_lift_cubic` and :func:`_drag_cubic` on cell sums of their
    moments; the unsteady lift and power are unit means times powers of a
    and r, and k^4 on lift, k^5 on power. :meth:`fit` finds (a, r, k).
    Every term is at unit air density: :meth:`loads` takes the solve's.
    """

    kinematics: object
    wing: object
    steps: int
    v_t_sq: np.ndarray
    by_inverse_q: np.ndarray
    by_q: np.ndarray
    at_zero_inflow: tuple
    lift_by_a: tuple
    power_by_a: tuple

    @classmethod
    def build(cls, wing, kin, solver):
        """Precompute on the ``solver`` grid of ``kin`` for ``wing``."""
        elements = discretize(wing, solver.n_elements)
        with np.errstate(all="ignore"):
            _, state = _element_grid_state(elements, kin,
                                           solver.steps_per_cycle)
            means = _unsteady_means(state)
            v_t, terms = state.v_translational, state.translational_terms
            del state  # the grid and its unsteady terms, before the moments
            return cls._from_means(means, v_t, terms, kin, wing)

    @classmethod
    def from_state(cls, state, kin, wing):
        """Precompute on an element grid of ``kin`` for ``wing``; the grid's
        inflow is ignored."""
        return cls._from_means(_unsteady_means(state), state.v_translational,
                               state.translational_terms, kin, wing)

    @classmethod
    def _from_means(cls, means, v_t, terms, kin, wing):
        """Precompute from the unsteady means, the section speeds and the
        translational terms of a grid."""
        trans, s_t, c_t = terms
        # The moments of the cubics at unit scale (see loads()), in place.
        v_sq = v_t**2
        by_inverse_q = np.empty((5,) + v_t.shape)
        s_t_v3, c_t_v2, s_t_v, _, c_t_v4 = by_inverse_q
        np.multiply(s_t, v_t, out=s_t_v)
        np.multiply(s_t_v, v_sq, out=s_t_v3)
        np.multiply(c_t, v_sq, out=c_t_v2)
        np.multiply(c_t_v2, v_sq, out=c_t_v4)
        by_inverse_q[3] = c_t
        by_q = np.empty((2,) + v_t.shape)
        by_q[0] = trans
        np.multiply(trans, v_sq, out=by_q[1])
        at_zero_inflow = tuple(float(np.vdot(x, v_t))
                               for x in (s_t_v, c_t_v2, by_q[1]))
        lift, power = means
        return cls(kinematics=kin, wing=wing, steps=v_t.shape[0],
                   v_t_sq=v_sq.ravel(),
                   by_inverse_q=by_inverse_q.reshape(5, -1),
                   by_q=by_q.reshape(2, -1), at_zero_inflow=at_zero_inflow,
                   lift_by_a=lift, power_by_a=power)

    def fit(self, wing, kin):
        """Scales (a, r, k): ``kin``'s stroke harmonics are a times, and its
        frequency r times, those of the precomputed kinematics, and ``wing``
        is k times the precomputed wing. Raise ``ValueError`` unless
        ``wing``'s lengths over its span, pitch axis and cutout are the
        precomputed wing's to 1e-9, then unless ``kin`` rescales the
        precomputed kinematics."""
        def shape(w):
            return [w.pitch_axis_fraction, w.cutout, w.root_offset / w.span,
                    *(x / w.span for point in w.chord_breakpoints
                      for x in point)]

        mine, theirs = shape(self.wing), shape(wing)
        if len(mine) != len(theirs) or any(abs(x - y) > 1e-9
                                           for x, y in zip(mine, theirs)):
            raise ValueError("wing is not a geometric rescaling of the "
                             "precomputed wing")
        ref = self.kinematics
        harmonics = kin.stroke.a + kin.stroke.b
        ref_harmonics = ref.stroke.a + ref.stroke.b
        peak = max(ref_harmonics, key=abs)
        a = harmonics[ref_harmonics.index(peak)] / peak if peak else 1.0
        stations = [(f, s.a0, s.a, s.b) for f, s in kin.rotation_stations]
        ref_stations = [(f, s.a0, s.a, s.b) for f, s in ref.rotation_stations]
        # Harmonics rescaled through different factors agree to rounding.
        if not (a > 0.0 and stations == ref_stations
                and len(harmonics) == len(ref_harmonics)
                and all(abs(x - a * y) <= 1e-9 * a * abs(peak)
                        for x, y in zip(harmonics, ref_harmonics))):
            raise ValueError("kinematics are not a rescaling of the "
                             "precomputed cycle")
        # As numpy scalars, absurd scales overflow to inf, which the
        # caller's finiteness check reports, and not to an OverflowError.
        return (np.float64(a), np.float64(kin.frequency / ref.frequency),
                np.float64(wing.span) / self.wing.span)

    def loads(self, scales, v, re, rho):
        """Cycle-mean vertical force (N) and aerodynamic power (W) of the
        wing pair at inflow ``v``, Reynolds number ``re`` and density ``rho``,
        for the scales that :meth:`fit` returns, once per inflow solve."""
        a, r, k = scales
        s = a * r * k
        u = v / s
        amplitudes = _coefficient_amplitudes(re)
        if u * u == 0.0:
            # Only the terms free of u remain: fixed sums with q = v_t.
            k1, k6, k7 = self.at_zero_inflow
            k2 = k3 = k4 = k5 = 0.0
        else:
            # Sums over the cells of the moments times 1/q and times q.
            q = self.v_t_sq + u * u
            np.sqrt(q, out=q)
            k5, k7 = self.by_q @ q
            np.divide(1.0, q, out=q)
            k1, k2, k3, k4, k6 = self.by_inverse_q @ q
        thrust = _lift_cubic(amplitudes, u, k1, k2, k3, k4, k5)
        power = _drag_cubic(amplitudes, u, k6, k1, k2, k3, k7)
        l0, l1, l2 = self.lift_by_a
        p0, p1, p2 = self.power_by_a
        pair = 2.0 * rho * k * k
        thrust = pair * (s * s * thrust / self.steps
                         + k * k * r * r * (l0 + a * (l1 + a * l2)))
        power = pair * (s * s * s * power / self.steps
                        + k**3 * a * r**3 * (p0 + a * (p1 + a * p2)))
        return float(thrust), float(power)


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


def _require_finite(v, **loads):
    """Raise ``RuntimeError`` unless each named cycle-mean load is finite."""
    for name, value in loads.items():
        if not math.isfinite(value):
            raise RuntimeError(f"non-finite cycle-mean {name} {value} at "
                               f"inflow {v:.6g} m/s")


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

    ``precompute``, built when omitted, is a :class:`CyclePrecompute` in
    any air, on the ``solver`` grid (checked), of this wing or one it
    rescales geometrically, for kinematics that ``kin`` rescales. The force
    coefficients are taken at the stroke-based Reynolds number.

    Returns an :class:`InducedVelocityResult` that carries the lift and
    power at the returned inflow; a negative mean thrust pins the inflow
    at zero and sets the ``negative_thrust`` flag.

    Raises
    ------
    ValueError
        If :func:`reynolds` finds none, as for a zero stroke, or finds one
        not above ``MIN_REYNOLDS``, or the precompute is off the ``solver``
        grid or does not fit ``wing`` or ``kin`` (:meth:`CyclePrecompute.fit`).
    RuntimeError
        If the thrust or the power is not finite at an evaluated inflow, or
        no inflow meets ``vi_tol`` within ``vi_max_iter`` thrust
        evaluations (the message reports the last residual).
    """
    re = reynolds(wing, kin, env)
    disk_area = kin.stroke_amplitude * wing.span**2
    if disk_area <= 0.0:
        return InducedVelocityResult(0.0, 0, 0.0, False, 0.0, 0.0)
    # Absurd but finite inputs may overflow on the way; the finiteness
    # check on every evaluation reports that as one error, not warnings.
    with np.errstate(all="ignore"):
        if precompute is None:
            precompute = CyclePrecompute.build(wing, kin, solver)
        grid = (precompute.steps, precompute.v_t_sq.size // precompute.steps)
        if grid != (solver.steps_per_cycle, solver.n_elements):
            raise ValueError(f"precompute grid {grid} is not the solver grid "
                             f"{(solver.steps_per_cycle, solver.n_elements)}")
        scales = precompute.fit(wing, kin)

        # g falls through the root: v_lo (g > 0) lies below it, v_hi above.
        v, v_hi, previous = 0.0, None, None
        for evaluation in range(1, solver.vi_max_iter + 1):
            thrust, power = precompute.loads(scales, v, re, env.rho)
            _require_finite(v, thrust=thrust, power=power)
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
    vi_info: InducedVelocityResult | None


def simulate_cycle(wing, kin, env, solver=SolverSettings(),
                   induced_velocity=None):
    """March one flapping cycle and accumulate cycle-average loads at the
    stroke-based Reynolds number (:func:`reynolds`), which raises if none,
    on the ``solver`` grid. A given ``induced_velocity`` (m/s), finite and
    non-negative, fixes the mean inflow instead of solving for it."""
    if induced_velocity is not None and not 0.0 <= induced_velocity < math.inf:
        raise ValueError(f"induced velocity must be finite and non-negative, "
                         f"got {induced_velocity}")
    elements = discretize(wing, solver.n_elements)
    re = reynolds(wing, kin, env)
    vi_info = None
    # As in the inflow solve: absurd inputs end in one error message.
    with np.errstate(all="ignore"):
        t, state = _element_grid_state(elements, kin, solver.steps_per_cycle)
        if induced_velocity is None:
            vi_info = solve_induced_velocity(
                wing, kin, env, solver, precompute=CyclePrecompute.from_state(
                    state, kin, wing))
            induced_velocity = vi_info.v_induced
        v_t, rate = state.v_translational, state.stroke_rate
        forces = element_forces(state.with_inflow(induced_velocity), env, re)
        del state  # and with it the cell terms, before the sums below

        factor = 2.0 if solver.pair else 1.0
        power_grid = v_t * -forces.total_eta
        spanwise_lift = factor * np.mean(forces.total_zeta, axis=0)
        spanwise_power = factor * np.mean(power_grid, axis=0)
        mean_lift = float(np.sum(spanwise_lift))
        mean_power = float(np.sum(spanwise_power))
        # Finite means imply finite force cells for the history below.
        _require_finite(induced_velocity, lift=mean_lift, power=mean_power)

    # Re-sign eta into a fixed stroke-plane direction for the history. The
    # tangential direction is undefined at stroke reversal, so samples with
    # a vanishing stroke rate get no direction.
    moving = np.abs(rate) > 1e-9 * np.max(np.abs(rate))
    direction = np.where(moving, np.sign(rate), 0.0)
    history = ForceBreakdown(**{
        name: factor * np.sum(direction * f if name.endswith("_eta") else f,
                              axis=1)
        for name, f in vars(forces).items()})

    return CycleResult(
        mean_lift=mean_lift,
        mean_aero_power=mean_power,
        v_induced=float(induced_velocity),
        reynolds_number=float(re),
        frequency=kin.frequency,
        span_fractions=elements.span_fraction,
        spanwise_lift=spanwise_lift,
        spanwise_power=spanwise_power,
        time_series=CycleTimeSeries(t=t, forces=history,
                                    power=factor * np.sum(power_grid, axis=1)),
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
