"""Power budget: shunt current, Joule loss, inertial power, decomposition."""

import json
import math

import numpy as np
import pytest

from wingbeat.kinematics import FourierSeries, WingKinematics
from wingbeat.power import (
    GRAM_FORCE_NEWTONS,
    MotorElectrical,
    WingMassModel,
    decompose,
    inertial_power,
    joule_loss,
    lift_to_power,
    shunt_current,
)
from wingbeat.presets import beetle_kinematics, standard_wing
from wingbeat.wing import WingGeometry


def test_gram_force_constant():
    assert GRAM_FORCE_NEWTONS == 9.8e-3


def test_shunt_current():
    assert shunt_current(3.7, 3.7, 2.0) == 0.0
    assert shunt_current(3.7, 3.3, 2.0) == pytest.approx(0.2, rel=1e-12)
    assert shunt_current(3.3, 3.7, 2.0) < 0.0
    with pytest.raises(ValueError):
        shunt_current(3.7, 3.3, 0.0)


def test_joule_loss():
    motor = MotorElectrical(resistance=2.0)
    assert joule_loss(0.0, motor) == 0.0
    assert joule_loss(1.0, motor) == 2.0
    assert joule_loss(2.0, motor) == 4 * joule_loss(1.0, motor)
    for k in (0.3, 1.7, 5.0):
        assert joule_loss(k * 0.4, motor) == pytest.approx(
            k * k * joule_loss(0.4, motor), rel=1e-12)
    with pytest.raises(ValueError):
        MotorElectrical(resistance=0.0)


def test_lift_to_power_unit_anchor():
    assert lift_to_power(9.8e-3, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert lift_to_power(2 * 9.8e-3, 1.0) == pytest.approx(2.0, rel=1e-12)
    # Peak-lift arithmetic: 1.34 lift-to-weight at 15.8 g body mass.
    peak_lift_gf = 1.34 * 15.8
    assert peak_lift_gf == pytest.approx(21.2, abs=0.05)
    assert lift_to_power(peak_lift_gf * GRAM_FORCE_NEWTONS, 1.0) == \
        pytest.approx(peak_lift_gf, rel=1e-12)
    with pytest.raises(ValueError):
        lift_to_power(0.1, 0.0)


def test_decompose_hand_case():
    budget = decompose(3.0, 0.5, MotorElectrical(2.0), p_aero=1.2,
                       p_inertial=0.4)
    assert budget.p_loss == pytest.approx(0.5, rel=1e-12)
    assert budget.p_mechanism == pytest.approx(0.9, rel=1e-12)
    assert not budget.residual_negative


def test_decompose_zero_case():
    budget = decompose(0.0, 0.0, MotorElectrical(2.0), 0.0, 0.0)
    assert budget.p_loss == 0.0
    assert budget.p_mechanism == 0.0
    assert budget.p_aero == 0.0
    assert budget.p_inertial == 0.0


def test_decompose_rejects_negative_input_power():
    with pytest.raises(ValueError, match="input power must be non-negative"):
        decompose(-1.0, 0.0, MotorElectrical(2.0), 0.0, 0.0)


def test_decompose_flags_negative_residual():
    budget = decompose(1.0, 0.1, MotorElectrical(2.0), p_aero=2.0,
                       p_inertial=0.0)
    assert budget.residual_negative
    assert budget.as_dict()["residual_negative"] is True


def test_budget_closure():
    rng = np.random.default_rng(8)
    for _ in range(50):
        p_in = float(rng.uniform(0, 10))
        budget = decompose(p_in, float(rng.uniform(0, 2)),
                           MotorElectrical(float(rng.uniform(0.5, 5))),
                           p_aero=float(rng.uniform(0, 5)),
                           p_inertial=float(rng.uniform(0, 2)))
        rebuilt = (budget.p_loss + budget.p_mechanism + budget.p_aero
                   + budget.p_inertial)
        assert rebuilt == pytest.approx(p_in, rel=1e-12, abs=1e-15)


def test_budget_provenance_and_json():
    budget = decompose(3.0, 0.5, MotorElectrical(2.0), 1.2, 0.4)
    doc = json.loads(budget.to_json())
    assert doc["provenance"] == {
        "p_in_w": "measured", "p_loss_w": "modeled",
        "p_mechanism_w": "residual", "p_aero_w": "modeled",
        "p_inertial_w": "modeled"}
    assert doc["terms"]["p_mechanism_w"] == pytest.approx(0.9)


def single_mass_kinematics(f=17.3, amplitude_deg=190.0):
    stroke = FourierSeries(0.0, (0.0,), (math.radians(amplitude_deg) / 2,))
    rot = FourierSeries(math.pi / 2, (0.0,), (0.0,))
    return WingKinematics(stroke, ((1.0, rot),), f)


def test_inertial_power_zero_for_constant_stroke():
    kin = WingKinematics(
        FourierSeries(0.3, (0.0,), (0.0,)),
        ((1.0, FourierSeries(math.pi / 2, (0.0,), (0.0,))),), 17.3)
    model = WingMassModel(masses=(1e-3,), radii=(0.05,),
                          span_fractions=(1.0,), pitch_offsets=(0.0,))
    result = inertial_power(model, kin)
    assert result.rectified_mean == 0.0
    assert result.signed_mean == 0.0


def test_point_mass_rectified_mean_against_quadrature():
    # Oracle: dense trapezoid quadrature of max(m r^2 a(t) w(t), 0) for the
    # single-harmonic stroke, cross-checked against the closed form
    # m r^2 (Phi/2)^2 (2 pi f)^3 / (2 pi).
    m, r, f = 0.2e-3, 0.05, 17.3
    phi_half = math.radians(95.0)
    w = 2 * math.pi * f
    t = np.linspace(0.0, 1.0 / f, 200001)
    rate = phi_half * w * np.cos(w * t)
    accel = -phi_half * w * w * np.sin(w * t)
    series = m * r * r * accel * rate
    oracle = np.trapezoid(np.maximum(series, 0.0), t) * f
    closed_form = m * r * r * phi_half**2 * w**3 / (2 * math.pi)
    assert oracle == pytest.approx(closed_form, rel=1e-6)

    kin = single_mass_kinematics(f)
    model = WingMassModel(masses=(m,), radii=(r,), span_fractions=(1.0,),
                          pitch_offsets=(0.0,))
    result = inertial_power(model, kin)
    assert result.rectified_mean == pytest.approx(oracle, rel=1e-3)


def test_inertial_power_zero_mass():
    kin = single_mass_kinematics()
    model = WingMassModel(masses=(0.0,), radii=(0.05,),
                          span_fractions=(1.0,), pitch_offsets=(0.0,))
    result = inertial_power(model, kin)
    assert result.rectified_mean == 0.0
    with pytest.raises(ValueError):
        WingMassModel(masses=(), radii=(), span_fractions=(),
                      pitch_offsets=())
    with pytest.raises(ValueError, match="must have equal length"):
        WingMassModel(masses=(0.1,), radii=(), span_fractions=(1.0,),
                      pitch_offsets=(0.0,))
    with pytest.raises(ValueError, match="must be non-negative"):
        WingMassModel(masses=(-0.1,), radii=(0.05,), span_fractions=(1.0,),
                      pitch_offsets=(0.0,))


def test_signed_mean_vanishes_for_periodic_kinematics():
    # Rigid periodic motion returns stored kinetic energy within the cycle.
    kin = beetle_kinematics(17.3, 190.0)
    model = WingMassModel.from_wing(standard_wing(25.5), 0.4e-3)
    result = inertial_power(model, kin)
    assert abs(result.signed_mean) < 1e-9
    assert result.rectified_mean >= abs(result.signed_mean)
    assert result.rectified_mean > 0.0


def test_mass_model_distribution():
    wing = standard_wing(25.5)
    model = WingMassModel.from_wing(wing, 0.4e-3)
    assert sum(model.masses) == pytest.approx(0.4e-3, rel=1e-12)
    assert len(model.masses) == 20
    # Mass follows membrane area, so the fat mid-outboard lumps dominate.
    assert max(model.masses) == model.masses[np.argmax(model.masses)]
    assert all(m >= 0 for m in model.masses)


def test_mass_model_of_a_zero_area_wing_is_uniform():
    # No membrane to weight by: the mass spreads evenly over the elements.
    wing = WingGeometry(0.0, [(0.0, 0.0), (0.09, 0.0)])
    model = WingMassModel.from_wing(wing, 0.4e-3)
    assert model.masses == pytest.approx((0.02e-3,) * 20, rel=1e-12)


def test_inertial_power_equals_per_mass_rotation_at_sum():
    # One station evaluation weighted per mass is the same arithmetic as
    # interpolating each mass's rotation with rotation_at.
    kin = beetle_kinematics(17.3, 190.0)
    model = WingMassModel.from_wing(standard_wing(25.5), 0.4e-3)
    steps = 720
    t = np.arange(steps) / (steps * kin.frequency)
    stroke_rate = kin.stroke.eval(t, kin.frequency, 1)
    stroke_accel = kin.stroke.eval(t, kin.frequency, 2)
    want = np.zeros(steps)
    for m, r, s, d in zip(model.masses, model.radii, model.span_fractions,
                          model.pitch_offsets):
        want += m * r * r * stroke_accel * stroke_rate
        want += (m * d * d * kin.rotation_at(s, t, 2)
                 * kin.rotation_at(s, t, 1))
    assert np.array_equal(inertial_power(model, kin).series, want)
