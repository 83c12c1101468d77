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
no density, and :meth:`CyclePrecompute.loads` takes the solve's. An
element state is the wing's blade elements in motion; one function builds
every cycle grid of them from the wing, kinematics and solver settings,
on the first half of the cycle when the second mirrors it.

Those terms take two trig passes over the cells, sin and cos of the
rotation angle theta, and no others. The geometric angle of attack
alpha_g is theta on the upstroke and pi - theta on the downstroke, so
sin alpha_g = sin theta, sin 2 alpha_g = 2 sign(stroke rate) sin theta
cos theta and cos 2 alpha_g = 1 - 2 sin^2 theta. A stroke rate of exactly
0 (reversal) takes the upstroke's theta: sin alpha_g and cos 2 alpha_g are
their limits from either side, and sin 2 alpha_g takes the mean, 0, of its
two limits. Where the clip of :func:`~wingbeat.kinematics.geometric_aoa`
to [0, pi] moves a cell, sin alpha_g is 0, the one case set explicitly.

The uniform mean inflow through the stroke disk, which couples back into
the effective angle of attack, is the root of actuator-disk momentum
balance against the blade-element thrust, found by :func:`secant_steps`
on a precompute. A precompute rescales exactly with the stroke
amplitude, the frequency and the size of a geometrically similar wing.
Its :meth:`~CyclePrecompute.stroke_scale`,
:meth:`~CyclePrecompute.frequency_ratio` and
:meth:`~CyclePrecompute.wing_scale` find those scales, each from its own
input, so that a batch can form each once per value;
:meth:`CyclePrecompute.fit` composes them for one point. Its cell moments
all divide by q, in one matrix, and on the half cycle of a stroke whose
speed at T/2 - t is that at t it adds those rows onto each other, so an
evaluation sums a quarter of the grid. Points on one precompute, each a
:class:`SolvePoint` of its terms there, its Reynolds number and its
momentum denominator, are solved in lockstep
(:func:`solve_induced_velocities`), in blocks whose workspace holds at
most ``MAX_GRID_CELLS`` cells: each round forms 1/q of a block's live
points on it and sums their moments in one matrix product, and each
point's cubics, momentum residual and secant step run on Python floats.
A single solve is a block of one. Power is the eta force opposing the
stroke motion times its speed.
"""

from dataclasses import dataclass, replace
from functools import cached_property
import math
import numbers
from typing import NamedTuple

import numpy as np

from .kinematics import geometric_aoa
from .wing import BladeElements, discretize


@dataclass(frozen=True)
class AeroEnvironment:
    """Still air: density (kg/m^3) and kinematic viscosity (m^2/s)."""

    rho: float = 1.225
    nu: float = 1.5e-5

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0.0 for x in (self.rho, self.nu)):
            raise ValueError(
                "air density and viscosity must be finite and positive")


# Upper limit on the cycle grid, steps_per_cycle * n_elements. A solved
# cycle peaks at 160-162 bytes a cell (tracemalloc), 161 MB at the limit,
# on an odd grid or asymmetric kinematics, and at 76-78 when it mirrors.
# It also bounds the workspace of a block of inflow solves, (points,
# cells) floats, to one grid of this many cells: 8 MB.
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
        for name in ("steps_per_cycle", "n_elements"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
    which must be finite and exceed ``MIN_REYNOLDS``."""
    if re == math.inf:
        raise ValueError(f"Reynolds number {re} is not finite")
    if not re > MIN_REYNOLDS:
        raise ValueError(f"Reynolds number {re:.6g} is not above the "
                         f"coefficient fit's lower limit {MIN_REYNOLDS:.6g}")
    return (1.966 - 3.94 * re**-0.429, 0.031 + 10.48 * re**-0.764,
            1.873 - 3.14 * re**-0.369)


def aero_coefficients(alpha_e, re):
    """Empirical flat-plate lift and drag coefficients at low Reynolds
    number, c_l = A sin 2 alpha_e and c_d = D0 + D1 (1 - cos 2 alpha_e), at
    the effective angle of attack ``alpha_e`` (rad, array_like) and finite
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
    """Stroke-based Reynolds number 2 * cbar * Phi * f * R / nu of ``wing``
    flapping as ``kin`` says (:func:`stroke_reynolds`)."""
    return stroke_reynolds(wing, kin.stroke_amplitude, kin.frequency, env.nu)


def stroke_reynolds(wing, amplitude, frequency, nu):
    """Reynolds number 2 * cbar * Phi * f * R / nu of ``wing`` at stroke
    amplitude Phi (rad) and frequency f (Hz), a Python float formed from
    left to right: one that overflows is inf, which the coefficient fit
    rejects. Raise ``ValueError`` for a zero-area wing, then for a number
    that is not positive."""
    if wing.area <= 0.0:
        raise ValueError("Reynolds number undefined for a zero-area wing")
    chord, nu = float(wing.mean_chord), float(nu)
    re = 2.0 * chord * float(amplitude) * float(frequency) * wing.span / nu
    if re <= 0.0:
        raise ValueError(f"degenerate kinematics give Re = {re}")
    return re


@dataclass(frozen=True)
class ElementState(BladeElements):
    """The wing's :class:`BladeElements` in motion.

    The rotation angle, rate and acceleration share the state's shape, and
    every other field broadcasts to it: one element, or the (rows, n) grid
    that :func:`_element_grid_state` builds from the wing, the kinematics
    and the solver settings. Angles in radians, lengths in metres, rates in
    1/s. Cached properties are free of the inflow ``v_induced``, so
    :meth:`with_inflow` shares them; :attr:`alpha_effective` is not cached.
    """

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

    @property
    def alpha_effective(self):
        """Geometric angle of attack minus the induced inflow angle
        arcsin(Vi / hypot(VT, Vi)), which is 0 at rest."""
        q = np.hypot(self.v_translational, self.v_induced)
        return (geometric_aoa(self.rotation_angle, self.stroke_rate)
                - np.arcsin(np.divide(self.v_induced, q,
                                      out=np.zeros(np.shape(q)),
                                      where=q > 0.0)))

    @cached_property
    def rotation_trig(self):
        """Sine and cosine of the rotation angle theta, the only trig pass
        over the cells, and sin alpha_g: sin theta itself, since alpha_g is
        theta or pi - theta, except on the cells whose theta lies outside
        [0, pi], where the clip of
        :func:`~wingbeat.kinematics.geometric_aoa` sets alpha_g to 0 or pi
        and sin alpha_g is 0."""
        theta = self.rotation_angle
        sin_rot = np.sin(theta)
        sin_aoa = sin_rot
        if np.min(theta) < 0.0 or np.max(theta) > math.pi:
            sin_aoa = np.where((theta < 0.0) | (theta > math.pi), 0.0,
                               sin_rot)
        return sin_rot, np.cos(theta), sin_aoa

    @cached_property
    def translational_terms(self):
        """The translational force per unit squared speed T of every cell at
        unit air density, and its products with sin and cos 2 alpha_g:
        2 sign(stroke rate) sin alpha_g cos theta and 1 - 2 sin^2 alpha_g
        (see :attr:`rotation_trig`)."""
        trans = 0.5 * self.chord * (self.area_scale * self.width)
        _, cos_rot, sin_aoa = self.rotation_trig
        s_t = sin_aoa * cos_rot
        s_t *= 2.0 * np.sign(self.stroke_rate)
        s_t *= trans
        c_t = sin_aoa * sin_aoa
        c_t *= -2.0
        c_t += 1.0
        c_t *= trans
        return trans, s_t, c_t

    @cached_property
    def unsteady_terms(self):
        """Unsteady forces of every cell at unit air density, the added-mass
        force and the rotational force (a r^2), and their means over the
        rows of a grid, by powers of the scales a and r of
        :class:`CyclePrecompute`: lift r^2 (L0 + a L1 + a^2 L2) and power
        a r^3 (P0 + a P1 + a^2 P2) as ((L0, L1, L2), (P0, P1, P2)), one
        power of a for each part of the added mass
        (:func:`_acceleration_parts`), the rotational force in L1 and P1.
        The added mass takes sin alpha_g from :attr:`rotation_trig`."""
        scale = self.area_scale * self.width
        sin_rot, cos_rot, sin_aoa = self.rotation_trig
        per_accel = sin_aoa * (0.25 * math.pi * self.chord**2 * scale)
        v_t_sin = self.v_translational * sin_rot
        rows = np.shape(cos_rot)[0] if np.ndim(cos_rot) else 1
        lift, power = [], []
        added = None
        for part in _acceleration_parts(self, sin_rot, cos_rot):
            part *= per_accel
            lift.append(np.vdot(part, cos_rot) / rows)
            power.append(-np.vdot(part, v_t_sin) / rows)
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
        lift[1] += np.vdot(rot, cos_rot) / rows
        power[1] += np.vdot(rot, v_t_sin) / rows
        return added, rot, (tuple(map(float, lift)), tuple(map(float, power)))

    def with_inflow(self, v_induced):
        """This state at inflow ``v_induced``; shares its whole cache, which
        holds inflow-free terms only."""
        moved = replace(self, v_induced=v_induced)
        vars(moved).update({**vars(self), **vars(moved)})
        return moved


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
    sin_rot, cos_rot, _ = state.rotation_trig
    return sum(_acceleration_parts(state, sin_rot, cos_rot))


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
    sin_rot, cos_rot, _ = state.rotation_trig
    added, rot = env.rho * added, env.rho * rot
    return ForceBreakdown(
        translational_eta=drag,
        added_mass_eta=added * sin_rot,
        rotational_eta=-rot * sin_rot,
        translational_zeta=lift,
        added_mass_zeta=added * cos_rot,
        rotational_zeta=rot * cos_rot,
    )


def _element_grid_state(wing, kin, solver):
    """The wing's blade elements moving as ``kin`` says on the rows of a
    uniform one-cycle ``solver`` grid that stand for the cycle, shape
    (rows, n): the first half of an even grid when ``kin`` is half-wave
    symmetric, since the second half mirrors it, and else all of it."""
    elements = discretize(wing, solver.n_elements)
    steps = solver.steps_per_cycle
    rows = steps // 2 if steps % 2 == 0 and kin.half_wave_symmetric else steps
    t = np.arange(rows) / (steps * kin.frequency)
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


def _precompute_terms(state):
    """The unsteady means of a grid ``state``, its section speeds and its
    translational terms."""
    means = state.unsteady_terms[2]  # before the translational terms form
    return means, state.v_translational, state.translational_terms


def _fold(x):
    """Rows 0 .. R/2 of an (R, n) half-grid array, with row R - j added onto
    row j for 0 < j < R - j."""
    rows = len(x)
    folded = x[:rows // 2 + 1].copy()
    folded[1:(rows + 1) // 2] += x[:rows // 2:-1]
    return folded


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

    Of a grid of ``steps`` steps it stands for the ``rows`` that
    :func:`_element_grid_state` forms: half of an even grid for
    half-wave-symmetric kinematics, whose second half-cycle repeats every
    translational cell term of the first and cancels the unsteady power
    means, which are then exactly 0; else all of them. The R rows of a
    half cycle are ``folded`` when the stroke is also
    :attr:`~wingbeat.kinematics.WingKinematics.quarter_wave_mirrored`:
    row R - j, at T/2 - t, has the section speeds of row j, so its
    translational terms are added onto row j's and rows 0 .. R/2 remain,
    181 of 360 on a 720-step grid. The moments over 1/q, ``by_inverse_q``,
    are those of the cubics and T, T v^2 and T v^4, since T q and
    T v^2 q are T (v^2 + u^2) / q and T v^2 (v^2 + u^2) / q: one matrix
    product a :meth:`loads` call, for every point it evaluates.
    """

    kinematics: object
    wing: object
    steps: int
    rows: int
    n_elements: int
    folded: bool
    v_t_sq: np.ndarray
    by_inverse_q: np.ndarray
    at_zero_inflow: tuple
    lift_by_a: tuple
    power_by_a: tuple

    @classmethod
    def build(cls, wing, kin, solver):
        """Precompute on the ``solver`` grid of ``kin`` for ``wing``."""
        with np.errstate(all="ignore"):
            state = _element_grid_state(wing, kin, solver)
            terms = _precompute_terms(state)
            del state  # the grid and its unsteady terms, before the moments
            return cls._from_means(*terms, kin, wing, solver.steps_per_cycle)

    @classmethod
    def _from_means(cls, means, v_t, terms, kin, wing, steps):
        """Precompute from :func:`_precompute_terms` of a ``steps`` grid."""
        rows, n_elements = v_t.shape
        trans, s_t, c_t = terms
        folded = rows < steps and kin.quarter_wave_mirrored
        if folded:
            # The three terms first, so that each moment forms on the
            # folded rows only.
            trans, s_t, c_t = (_fold(np.broadcast_to(x, v_t.shape))
                               for x in terms)
            v_t = v_t[:rows // 2 + 1]
        # The moments of the cubics at unit scale (see loads()), in place.
        v_sq = v_t**2
        by_inverse_q = np.empty((8,) + v_t.shape)
        s_t_v3, c_t_v2, s_t_v, _, c_t_v4, _, t_v2, t_v4 = by_inverse_q
        np.multiply(s_t, v_t, out=s_t_v)
        np.multiply(s_t_v, v_sq, out=s_t_v3)
        np.multiply(c_t, v_sq, out=c_t_v2)
        np.multiply(c_t_v2, v_sq, out=c_t_v4)
        by_inverse_q[3] = c_t
        by_inverse_q[5] = trans
        np.multiply(trans, v_sq, out=t_v2)
        np.multiply(t_v2, v_sq, out=t_v4)
        at_zero_inflow = tuple(float(np.vdot(x, v_t))
                               for x in (s_t_v, c_t_v2, t_v2))
        lift, power = means
        if rows < steps:
            power = (0.0, 0.0, 0.0)
        return cls(kinematics=kin, wing=wing, steps=steps, rows=rows,
                   n_elements=n_elements, folded=folded, v_t_sq=v_sq.ravel(),
                   by_inverse_q=by_inverse_q.reshape(8, -1),
                   at_zero_inflow=at_zero_inflow, lift_by_a=lift,
                   power_by_a=power)

    def fit(self, wing, kin):
        """Scales (a, r, k) of a point of ``wing`` flapping as ``kin`` says:
        the :meth:`stroke_scale` and :meth:`frequency_ratio` of ``kin`` and
        the :meth:`wing_scale` of ``wing``, whose check comes first."""
        k = self.wing_scale(wing)
        return self.stroke_scale(kin), self.frequency_ratio(kin.frequency), k

    def wing_scale(self, wing):
        """The k for which ``wing`` is k times the precomputed wing. Raise
        ``ValueError`` unless ``wing``'s
        :attr:`~wingbeat.wing.WingGeometry.shape` is the precomputed wing's
        to 1e-9 (relative, or absolute near 0)."""
        mine, theirs = self.wing.shape, wing.shape
        if len(mine) != len(theirs) or not all(
                math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)
                for x, y in zip(mine, theirs)):
            raise ValueError("wing is not a geometric rescaling of the "
                             "precomputed wing")
        # Absurd ratios overflow to inf, which the solve's finiteness check
        # reports; no divisor here or in frequency_ratio() is 0.
        return float(wing.span / self.wing.span)

    def stroke_scale(self, kin):
        """The a for which ``kin``'s stroke harmonics are a times those of
        the precomputed kinematics. Raise ``ValueError`` unless ``kin``
        rescales the precomputed kinematics, then unless it is half-wave
        symmetric when the precompute holds half a cycle, then unless it is
        quarter-wave mirrored when the precompute is folded."""
        ref = self.kinematics
        harmonics = kin.stroke.a + kin.stroke.b
        ref_harmonics = ref.stroke.a + ref.stroke.b
        peak = max(ref_harmonics, key=abs)
        a = harmonics[ref_harmonics.index(peak)] / peak if peak else 1.0
        # Harmonics rescaled through different factors agree to rounding.
        if not (a > 0.0 and kin.rotation_stations == ref.rotation_stations
                and len(harmonics) == len(ref_harmonics)
                and all(abs(x - a * y) <= 1e-9 * a * abs(peak)
                        for x, y in zip(harmonics, ref_harmonics))):
            raise ValueError("kinematics are not a rescaling of the "
                             "precomputed cycle")
        if self.rows < self.steps and not kin.half_wave_symmetric:
            raise ValueError("kinematics are not half-wave symmetric, as the "
                             "precomputed half cycle needs")
        if self.folded and not kin.quarter_wave_mirrored:
            raise ValueError("kinematics are not quarter-wave mirrored, as "
                             "the folded precompute needs")
        return float(a)

    def frequency_ratio(self, frequency):
        """The r for which ``frequency`` (Hz) is r times the precomputed
        kinematics' frequency."""
        return float(frequency / self.kinematics.frequency)

    def point(self, scales, re, rho):
        """The :class:`PointTerms` of a point at the ``scales`` that
        :meth:`fit` returns, Reynolds number ``re`` and density ``rho``.
        Raise ``ValueError`` for a Reynolds number off the coefficient fit
        (:func:`aero_coefficients`)."""
        a, r, k = scales
        s = a * r * k
        l0, l1, l2 = self.lift_by_a
        p0, p1, p2 = self.power_by_a
        # Products, not powers: on Python floats an absurd scale overflows
        # to inf, which the solve reports, and a power would raise.
        return PointTerms(
            s=s, amplitudes=_coefficient_amplitudes(float(re)),
            pair=2.0 * float(rho) * k * k,
            lift=k * k * r * r * (l0 + a * (l1 + a * l2)),
            power=k * k * k * a * r * r * r * (p0 + a * (p1 + a * p2)))

    def loads(self, points, inflows, workspace):
        """Cycle-mean vertical force (N) and aerodynamic power (W) of the
        wing pair of each of ``points`` (:meth:`point`) at its inflow of
        ``inflows`` (m/s), as a list of Python float pairs.

        The points at a scaled inflow u = v / s other than 0 share one
        matrix product: the rows of ``workspace``, a float array of at least
        (points, cells), take 1/q = 1/sqrt(v^2 + u^2) over the cells, and
        their product with ``by_inverse_q`` gives each point's eight sums.
        At u = 0 only the fixed sums at q = v remain. The cubics and the
        scaling run on Python floats, point by point.
        """
        # s is 0 only where a r k underflows, at the first inflow 0: 0/0.
        us = [v / p.s if p.s else math.nan for p, v in zip(points, inflows)]
        moving = 0
        for u in us:
            if u * u != 0.0:
                np.add(self.v_t_sq, u * u, out=workspace[moving])
                moving += 1
        if moving:
            by_q = workspace[:moving]
            np.sqrt(by_q, out=by_q)
            np.divide(1.0, by_q, out=by_q)
            # One row is a matrix-vector product, bit for bit.
            sums = iter((by_q @ self.by_inverse_q.T).tolist())
        return [self._point_loads(p, u, next(sums) if u * u != 0.0 else None)
                for p, u in zip(points, us)]

    def _point_loads(self, point, u, sums):
        """Thrust and power of ``point`` at scaled inflow ``u``, from the
        eight sums over 1/q or, when ``sums`` is None, at u = 0."""
        if sums is None:
            k1, k6, k7 = self.at_zero_inflow
            k2 = k3 = k4 = k5 = 0.0
        else:
            # Among the sums T, T v^2 and T v^4, since T q = T (v^2 + u^2)
            # / q and T v^2 q = T v^2 (v^2 + u^2) / q.
            k1, k2, k3, k4, k6, t, t_v2, t_v4 = sums
            k5 = t_v2 + u * u * t
            k7 = t_v4 + u * u * t_v2
        thrust = _lift_cubic(point.amplitudes, u, k1, k2, k3, k4, k5)
        power = _drag_cubic(point.amplitudes, u, k6, k1, k2, k3, k7)
        s, pair = point.s, point.pair
        return (pair * (s * s * thrust / self.rows + point.lift),
                pair * (s * s * s * power / self.rows + point.power))


class PointTerms(NamedTuple):
    """The inflow-free factors of one point's loads on a
    :class:`CyclePrecompute`, as Python floats: the inflow scale s = a r k,
    the coefficient amplitudes, the pair factor 2 rho k^2, and the
    unsteady lift and power, each over the pair factor."""

    s: float
    amplitudes: tuple
    pair: float
    lift: float
    power: float


class SolvePoint(NamedTuple):
    """One point of an inflow solve on a :class:`CyclePrecompute`: its
    :class:`PointTerms` there, its Reynolds number, and the momentum
    denominator 2 rho A of its stroke disk (:func:`momentum_denominator`),
    as Python floats."""

    terms: PointTerms
    reynolds: float
    disk: float


def momentum_denominator(amplitude, span, rho):
    """2 rho A of the stroke disk A = Phi R^2 swept by the two wings, at
    stroke amplitude Phi (rad), span R (m) and density rho (kg/m^3). The
    squared span is a numpy scalar, so one that underflows or overflows
    gives a non-finite momentum inflow in the solve, and no Python
    exception."""
    with np.errstate(all="ignore"):
        disk_area = float(amplitude * np.float64(span)**2)
    return 2.0 * rho * disk_area


@dataclass(frozen=True)
class InducedVelocityResult:
    """Converged mean inflow with the root-search diagnostics.

    ``iterations`` counts evaluations of the cycle-mean thrust,
    ``residual`` is the momentum-balance residual at ``v_induced``,
    ``lift`` (N) and ``power`` (W) are the cycle-mean loads there, of the
    pair or of one wing as the solver's ``pair`` says, and ``reynolds`` is
    the Reynolds number of the force coefficients. Every field is a Python
    ``int``, ``float`` or ``bool``.
    """

    v_induced: float
    iterations: int
    residual: float
    negative_thrust: bool
    lift: float
    power: float
    reynolds: float


def _non_finite(v, **values):
    """The ``RuntimeError`` that names the first non-finite cycle-mean value
    of ``values`` at inflow ``v``, or None if each is finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            return RuntimeError(f"non-finite cycle-mean {name} {value} at "
                                f"inflow {v:.6g} m/s")
    return None


def secant_steps(x, slope, hi=math.inf):
    """Safeguarded secant search for the root of a falling residual r(x),
    from ``x`` up to at most ``hi``.

    A generator: send it the residual at each point it yields, and it
    yields the next. A point with a positive residual lies below the root,
    any other above it. Until a point lies above the root, each step is
    r / ``slope`` (the root of a model of that slope), stopping at ``hi``
    if it would pass it, so an infinite residual goes to ``hi``. After
    that each step is the secant through the two latest points. A secant
    step that is not finite, or that would leave the bracket (from the
    latest point below the root to the latest above it), goes to the
    bracket's middle instead. A first point above the root leaves only
    ``hi`` to try: the search yields it and ends. It also ends when ``hi``
    still lies below the root.
    """
    r = yield x
    if not r > 0.0:
        yield hi
        return
    lo, bracketed = x, False
    while True:
        if not bracketed:
            x_next = min(x + r / slope, hi)
        else:
            step = (-r * (x - x_prev) / (r - r_prev) if r != r_prev
                    else math.inf)
            if not lo < x + step < hi:
                step = 0.5 * (lo + hi) - x
            x_next = x + step
        x_prev, r_prev, x = x, r, x_next
        r = yield x
        if not r > 0.0:
            hi, bracketed = x, True
        elif x == hi:
            return
        else:
            lo = x


def solve_induced_velocity(wing, kin, env, solver=SolverSettings(),
                           precompute=None):
    """Solve momentum/blade-element balance for the mean inflow.

    The inflow is the root of g(Vi) = sqrt(max(T, 0) / (2 rho A)) - Vi,
    where T is the cycle-mean vertical force of the wing pair evaluated
    at Vi and A = Phi * R^2 is the actuator area swept by the two wings.
    The search is :func:`secant_steps` on g from Vi = 0 with slope 1, so
    each step before the bracket forms goes to the momentum inflow of the
    thrust. It stops at the first Vi with |g(Vi)| <= ``solver.vi_tol``
    (m/s). This is the one-point block of :func:`solve_induced_velocities`,
    whose :class:`SolvePoint` it forms from :func:`reynolds`,
    :meth:`CyclePrecompute.fit` and :func:`momentum_denominator`.

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
        If :func:`reynolds` finds none, as for a zero stroke, or the
        precompute is off the ``solver`` grid or does not fit ``wing`` or
        ``kin`` (:meth:`CyclePrecompute.fit`), or the Reynolds number lies
        outside the fit's domain; in that order.
    RuntimeError
        If the thrust, the power or the momentum inflow of the thrust is
        not finite at an evaluated inflow, as for an empty stroke disk, or
        no inflow meets ``vi_tol`` within ``vi_max_iter`` thrust
        evaluations (the message reports the last residual).
    """
    re = reynolds(wing, kin, env)  # its error before a build
    if precompute is None:
        precompute = CyclePrecompute.build(wing, kin, solver)
    _check_grid(precompute, solver)
    with np.errstate(all="ignore"):  # as in the solve: one error, if any
        point = SolvePoint(
            precompute.point(precompute.fit(wing, kin), re, env.rho), re,
            momentum_denominator(kin.stroke_amplitude, wing.span, env.rho))
    result, = solve_induced_velocities([point], solver, precompute)
    if isinstance(result, Exception):
        raise result
    return result


def _check_grid(precompute, solver):
    """Raise ``ValueError`` unless ``precompute`` is on the ``solver``
    grid."""
    grid = (precompute.steps, precompute.n_elements)
    solver_grid = (solver.steps_per_cycle, solver.n_elements)
    if grid != solver_grid:
        raise ValueError(f"precompute grid {grid} is not the solver grid "
                         f"{solver_grid}")


class _Search:
    """One point of a block solve: its place, the terms, Reynolds number
    and momentum denominator of its :class:`SolvePoint`, its secant
    search, inflow and residual."""

    __slots__ = ("index", "terms", "re", "disk", "steps", "v", "g")

    def __init__(self, index, point):
        self.index = index
        self.terms, self.re, self.disk = point
        self.steps = secant_steps(0.0, 1.0)
        self.v = next(self.steps)


def solve_induced_velocities(points, solver, precompute):
    """The inflow solve of :func:`solve_induced_velocity` for each
    :class:`SolvePoint` of ``points``, all formed on ``precompute``, in
    lockstep. Raise ``ValueError`` if ``precompute`` is off the ``solver``
    grid.

    Consecutive blocks of max(1, ``MAX_GRID_CELLS`` // cells) points, 276
    on the folded 720 x 20 grid, reuse one (points, cells) workspace of at
    most ``MAX_GRID_CELLS`` floats, freed when the call returns. Each round
    evaluates a block's live points at once through
    :meth:`CyclePrecompute.loads`, then runs each point's momentum
    residual, finiteness check and secant step on Python floats; a point
    leaves its block when it converges or fails. Returns a list, in the
    order of ``points``, of each point's :class:`InducedVelocityResult` or
    of the ``RuntimeError`` that :func:`solve_induced_velocity` raises for
    it.
    """
    _check_grid(precompute, solver)
    size = max(1, MAX_GRID_CELLS // precompute.v_t_sq.size)
    workspace = np.empty((min(len(points), size), precompute.v_t_sq.size))
    return [result for start in range(0, len(points), size)
            for result in _solve_block(points[start:start + size], solver,
                                       precompute, workspace)]


def _solve_block(points, solver, precompute, workspace):
    """:func:`solve_induced_velocities` on one block of ``points``, whose
    evaluations share the rows of ``workspace``."""
    results = [None] * len(points)
    share = 1.0 if solver.pair else 0.5
    live = [_Search(index, point) for index, point in enumerate(points)]
    # Absurd but finite inputs may overflow on the way; the finiteness
    # check on every evaluation reports that as one error, not warnings.
    with np.errstate(all="ignore"):
        for evaluation in range(1, solver.vi_max_iter + 1):
            if not live:
                break
            loads = precompute.loads([p.terms for p in live],
                                     [p.v for p in live], workspace)
            kept = []
            for p, (thrust, power) in zip(live, loads):
                lifted = max(thrust, 0.0)
                # An empty disk's division: inf, or nan for no thrust.
                momentum = (math.sqrt(lifted / p.disk) if p.disk
                            else math.inf if lifted > 0.0 else math.nan)
                if not (math.isfinite(thrust) and math.isfinite(power)
                        and math.isfinite(momentum)):
                    results[p.index] = _non_finite(
                        p.v, thrust=thrust, power=power,
                        **{"momentum inflow": momentum})
                    continue
                p.g = momentum - p.v
                if abs(p.g) <= solver.vi_tol:
                    results[p.index] = InducedVelocityResult(
                        p.v, evaluation, abs(p.g),
                        negative_thrust=thrust < 0.0, lift=share * thrust,
                        power=share * power, reynolds=p.re)
                else:
                    p.v = p.steps.send(p.g)
                    kept.append(p)
            live = kept
    for p in live:
        results[p.index] = RuntimeError(
            f"induced-velocity solve did not converge after "
            f"{solver.vi_max_iter} thrust evaluations (last residual "
            f"{abs(p.g):.3e} m/s)")
    return results


@dataclass(frozen=True)
class CycleResult:
    """Cycle-averaged loads of a flapping wing (or mirrored pair), with the
    wing-total forces at the times ``t`` of one cycle (``history``) and the
    instantaneous power (``power_history``).

    The eta history is re-signed into a fixed stroke-plane direction
    (positive toward the upstroke motion), so a symmetric stroke averages
    to zero; power keeps the motion-opposing convention and is positive
    when drag is being overcome.
    """

    mean_lift: float
    mean_aero_power: float
    v_induced: float
    reynolds_number: float
    frequency: float
    span_fractions: np.ndarray
    spanwise_lift: np.ndarray
    spanwise_power: np.ndarray
    t: np.ndarray
    history: ForceBreakdown
    power_history: np.ndarray
    vi_info: InducedVelocityResult | None


def _column_sums(grid, head=None):
    """Column sums of the rows of ``grid`` below its head row, continued
    from ``head``, the column sums of rows before them, when given. numpy
    sums a grid's columns row by row, so these are the sums over both
    sets of rows bit for bit."""
    if head is None:
        return np.sum(grid[1:], axis=0)
    grid[0] = head
    return np.sum(grid, axis=0)


def simulate_cycle(wing, kin, env, solver=SolverSettings(),
                   induced_velocity=None):
    """March one flapping cycle and accumulate cycle-average loads at the
    stroke-based Reynolds number (:func:`reynolds`), which raises if none,
    on the ``solver`` grid. A given ``induced_velocity`` (m/s), finite and
    non-negative, fixes the mean inflow instead of solving for it. The
    force pass runs on the rows of :func:`_element_grid_state`; when they
    are half the grid, the second half-cycle is their mirror, summed from
    the half-grid arrays to the whole grid's sums bit for bit."""
    if induced_velocity is not None and not 0.0 <= induced_velocity < math.inf:
        raise ValueError(f"induced velocity must be finite and non-negative, "
                         f"got {induced_velocity}")
    re = reynolds(wing, kin, env)
    steps = solver.steps_per_cycle
    vi_info = None
    # As in the inflow solve: absurd inputs end in one error message.
    with np.errstate(all="ignore"):
        state = _element_grid_state(wing, kin, solver)
        if induced_velocity is None:
            vi_info = solve_induced_velocity(
                wing, kin, env, solver, precompute=CyclePrecompute._from_means(
                    *_precompute_terms(state), kin, wing, steps))
            induced_velocity = vi_info.v_induced
        v_t, rate = state.v_translational, state.stroke_rate
        span_fractions = state.span_fraction
        forces = element_forces(state.with_inflow(induced_velocity), env, re)
        del state  # and with it the cell terms, before the sums below
        # At t + T/2 the stroke rate and the added-mass and rotational eta
        # forces change sign, and every other force repeats: the second
        # half-cycle's eta total is (translational - added mass) -
        # rotational, and its zeta total the first's.
        halves = (np.add, np.subtract)[:1 + (len(rate) < steps)]
        grid = np.empty((len(v_t) + 1, v_t.shape[1]))  # a head row, then cells
        np.add(forces.translational_zeta, forces.added_mass_zeta,
               out=grid[1:])
        grid[1:] += forces.rotational_zeta
        lift_sums = None
        for _ in halves:
            lift_sums = _column_sums(grid, lift_sums)
        power_sums, power_rows = None, []
        eta = np.empty_like(grid[1:])
        for combine in halves:
            combine(forces.translational_eta, forces.added_mass_eta, out=eta)
            combine(eta, forces.rotational_eta, out=eta)
            np.multiply(v_t, np.negative(eta, out=eta), out=grid[1:])
            power_rows.append(np.sum(grid[1:], axis=1))
            power_sums = _column_sums(grid, power_sums)
        del grid, eta

        factor = 2.0 if solver.pair else 1.0
        spanwise_lift = factor * (lift_sums / steps)
        spanwise_power = factor * (power_sums / steps)
        mean_lift = float(np.sum(spanwise_lift))
        mean_power = float(np.sum(spanwise_power))
        # Finite means imply finite force cells for the history below.
        error = _non_finite(induced_velocity, lift=mean_lift, power=mean_power)
        if error is not None:
            raise error

    # Re-sign eta into a fixed stroke-plane direction for the history. The
    # tangential direction is undefined at stroke reversal, so rows whose
    # stroke rate is at most 1e-9 of its peak get no direction.
    moving = np.abs(rate) > 1e-9 * np.max(np.abs(rate))
    sign = np.sign(rate)
    directions = [np.where(moving, sign, 0.0),
                  np.where(moving, -sign, 0.0)][:len(halves)]
    history = {}
    for name, f in vars(forces).items():
        if name.endswith("_zeta"):
            rows = [np.sum(f, axis=1)] * len(halves)
        else:
            # Each half-cycle's rows from its own cells: at no direction
            # they are sums of signed zeros, which a negated row would not
            # match.
            rows = []
            for half, direction in enumerate(directions):
                cells = direction * f
                if half and name != "translational_eta":
                    np.negative(cells, out=cells)
                rows.append(np.sum(cells, axis=1))
        history[name] = factor * np.concatenate(rows)

    return CycleResult(
        mean_lift=mean_lift,
        mean_aero_power=mean_power,
        v_induced=float(induced_velocity),
        reynolds_number=float(re),
        frequency=kin.frequency,
        span_fractions=span_fractions,
        spanwise_lift=spanwise_lift,
        spanwise_power=spanwise_power,
        t=np.arange(steps) / (steps * kin.frequency),
        history=ForceBreakdown(**history),
        power_history=factor * np.concatenate(power_rows),
        vi_info=vi_info,
    )
