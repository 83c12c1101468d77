"""Input-power decomposition, Joule loss, wing inertial power, lift economy.

The total electrical input power of the flapping system splits into Joule
loss in the motor winding, power spent by the flapping mechanism itself,
aerodynamic power, and inertial power. The mechanism term has no model and
is always reported as the residual of the other four.
"""

from dataclasses import dataclass
import json

import numpy as np

from .wing import discretize

# Gram-force in newtons, as used in the measurement convention we follow
# (exactly 9.8 mN, not standard gravity).
GRAM_FORCE_NEWTONS = 9.8e-3


@dataclass(frozen=True)
class MotorElectrical:
    """DC-motor electrical constants; only the winding resistance is used."""

    resistance: float  # ohm

    def __post_init__(self):
        if self.resistance <= 0.0:
            raise ValueError("motor resistance must be positive")


def shunt_current(v_supply, v_out, shunt_resistance):
    """Current (A) through a series shunt: (V_supply - V_out) / R.

    A negative result means the measured drop is reversed; it is returned
    as-is for the caller to flag.
    """
    if shunt_resistance <= 0.0:
        raise ValueError("shunt resistance must be positive")
    return (v_supply - v_out) / shunt_resistance


def joule_loss(current, motor):
    """Winding loss R_m * I^2 (W)."""
    return motor.resistance * current**2


def lift_to_power(lift, power):
    """Lift economy in gram-force per watt.

    ``lift`` in newtons, ``power`` in watts; power must be positive.
    """
    if power <= 0.0:
        raise ValueError("lift-to-power ratio needs positive power")
    return (lift / GRAM_FORCE_NEWTONS) / power


@dataclass(frozen=True)
class WingMassModel:
    """Lumped wing masses for inertial power.

    Each entry carries the mass (kg), its arm from the flapping axis (m),
    its span fraction (for the local pitch rate), and the chordwise offset
    of its centre of gravity from the pitching axis (m).
    """

    masses: tuple
    radii: tuple
    span_fractions: tuple
    pitch_offsets: tuple

    def __post_init__(self):
        n = len(self.masses)
        if n == 0:
            raise ValueError("mass model needs at least one lumped mass")
        if not (len(self.radii) == len(self.span_fractions)
                == len(self.pitch_offsets) == n):
            raise ValueError("mass model fields must have equal length")
        if any(m < 0.0 for m in self.masses):
            raise ValueError("masses must be non-negative")

    @property
    def total_mass(self):
        return float(sum(self.masses))

    @classmethod
    def point_mass(cls, mass, radius):
        """One lumped mass at arm ``radius`` on the tip's pitching axis."""
        return cls(masses=(float(mass),), radii=(float(radius),),
                   span_fractions=(1.0,), pitch_offsets=(0.0,))

    @classmethod
    def from_wing(cls, wing, total_mass):
        """Distribute a wing-pair mass over 20 blade elements by membrane area.

        The chordwise CG of each lump sits a quarter of the local chord
        behind the pitching axis.
        """
        elements = discretize(wing, 20)
        weights = elements.chord * elements.area_scale * elements.width
        if weights.sum() <= 0.0:
            weights = np.ones_like(weights)
        masses = total_mass * weights / weights.sum()
        return cls(masses=tuple(masses),
                   radii=tuple(elements.radius),
                   span_fractions=tuple(elements.span_fraction),
                   pitch_offsets=tuple(0.25 * elements.chord))


@dataclass(frozen=True)
class InertialPowerResult:
    """Cycle statistics of the mechanical power driving the wing inertia.

    ``rectified_mean`` assumes no kinetic-energy recovery by the motor
    (negative instantaneous power is discarded); the signed series is kept
    for energy-recovery what-ifs.
    """

    rectified_mean: float
    signed_mean: float
    t: np.ndarray
    series: np.ndarray


def inertial_power(mass_model, kin):
    """Cycle-mean inertial power of a rigid wing under given kinematics,
    on 720 uniform steps of one cycle.

    Sums, over lumped masses, the stroke term m r^2 * stroke_accel *
    stroke_rate and the pitching term m d^2 * rot_accel * rot_rate at the
    local span station. The station series are evaluated once and
    weighted per mass as :meth:`WingKinematics.rotation_at` weights them.
    """
    t = np.arange(720) / (720 * kin.frequency)
    stroke_rate = kin.stroke.eval(t, 1)
    stroke_accel = kin.stroke.eval(t, 2)
    station_rate = kin.station_series(t, 1)
    station_accel = kin.station_series(t, 2)
    station_weights = kin.station_weights(mass_model.span_fractions)

    power = np.zeros_like(t)
    for m, r, weights, d in zip(mass_model.masses, mass_model.radii,
                                station_weights, mass_model.pitch_offsets):
        power += m * r * r * stroke_accel * stroke_rate
        if d != 0.0:
            power += (m * d * d * (station_accel @ weights)
                      * (station_rate @ weights))

    return InertialPowerResult(
        rectified_mean=float(np.mean(np.maximum(power, 0.0))),
        signed_mean=float(np.mean(power)),
        t=t,
        series=power,
    )


@dataclass(frozen=True)
class PowerBudget:
    """Input power split into loss, mechanism, aerodynamic, inertial terms.

    The mechanism term is the residual closing the balance; a negative
    residual flags an inconsistent set of inputs rather than raising.
    """

    p_in: float
    p_loss: float
    p_mechanism: float
    p_aero: float
    p_inertial: float
    provenance: tuple

    @property
    def residual_negative(self):
        return self.p_mechanism < 0.0

    def as_dict(self):
        terms = {
            "p_in_w": self.p_in,
            "p_loss_w": self.p_loss,
            "p_mechanism_w": self.p_mechanism,
            "p_aero_w": self.p_aero,
            "p_inertial_w": self.p_inertial,
        }
        return {
            "terms": terms,
            "provenance": dict(self.provenance),
            "residual_negative": self.residual_negative,
        }

    def to_json(self, **kwargs):
        """The budget as strict JSON: a non-finite term raises ValueError."""
        return json.dumps(self.as_dict(), allow_nan=False, **kwargs)


def decompose(p_in, current, motor, p_aero, p_inertial):
    """Build a :class:`PowerBudget` from measured input power and current.

    The Joule loss follows from the motor resistance; the mechanism power
    is whatever remains. The aerodynamic and inertial terms are modeled.
    """
    if p_in < 0.0:
        raise ValueError("input power must be non-negative")
    p_loss = joule_loss(current, motor)
    p_mechanism = p_in - p_loss - p_aero - p_inertial
    provenance = (
        ("p_in_w", "measured"),
        ("p_loss_w", "modeled"),
        ("p_mechanism_w", "residual"),
        ("p_aero_w", "modeled"),
        ("p_inertial_w", "modeled"),
    )
    return PowerBudget(p_in=p_in, p_loss=p_loss, p_mechanism=p_mechanism,
                       p_aero=p_aero, p_inertial=p_inertial,
                       provenance=provenance)
