"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (visible with
``pytest -s`` or in captured output on failure):

  1. Coefficient model: pinned 45-degree values to 1e-12 against an
     independent scalar evaluation; odd/even symmetry and the 45-degree
     lift peak across three Reynolds decades.
  2. Inboard-cutout study at 17.3 Hz: removing the inboard quarter of
     membrane cuts cycle lift and aerodynamic power each by 0.5-6%,
     changing the lift-to-aero-power ratio by less than 1%.
  3. Amplitude and area trends at matched lift: 190 deg beats 120 deg in
     lift-to-aero-power (sign asserted, percentage reported), and the
     25.5 cm^2 wing trims at a strictly lower frequency than 20.1 cm^2.
  4. Hover trim for 15.8 gf with the 23.7 cm^2 pair at 190 deg lands in
     the 12-24 Hz band.
  5. Solver convergence: step and section refinement below 0.5%; the
     induced-velocity fixed point self-consistent to 1e-6; density
     linearity and frequency-squared scaling at zero inflow to 1e-6.
  6. Power budget: exact closure, quadratic Joule law, zero signed
     inertial mean for rigid periodic kinematics, point-mass rectified
     mean against a quadrature oracle to 0.1%.
  7. Controller: exact constant-rate integration and hand-evaluated PD
     output; noiseless step converges under 1% error; constant gyro bias
     drifts the heading estimate at the bias rate.
  8. Harness determinism: byte-identical sweep CSV from two runs;
     Fourier fit round trip to 1e-9.

Every tolerance is fixed here; nothing is calibrated at run time.
"""

from contextlib import contextmanager
import json
import math
from pathlib import Path
import time

import numpy as np
import pytest

import wingbeat as wb
from wingbeat.config import SolverSettings, StudyConfig
from wingbeat.harness import hover_trim, run_cutout_study, run_sweep
from wingbeat.kinematics import FourierSeries, WingKinematics, fit_fourier
from wingbeat.power import (
    GRAM_FORCE_NEWTONS,
    MotorElectrical,
    WingMassModel,
    decompose,
    inertial_power,
    joule_loss,
)

ENV = wb.AeroEnvironment()


@contextmanager
def criterion(number, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number}: PASS  {description}  [{elapsed:.2f} s "
          f"< {budget_s} s]")
    assert elapsed < budget_s


def test_criterion_1_coefficient_model():
    with criterion(1, "lift/drag coefficient model and symmetries", 1.0):
        re = 1.95e4
        expect_cl = (1.966 - 3.94 * re**-0.429) * math.sin(math.radians(90.0))
        expect_cd = (0.031 + 10.48 * re**-0.764
                     + (1.873 - 3.14 * re**-0.369)
                     * (1.0 - math.cos(math.radians(90.0))))
        cl, cd = wb.aero_coefficients(math.radians(45.0), re)
        assert cl == pytest.approx(expect_cl, rel=1e-12)
        assert cd == pytest.approx(expect_cd, rel=1e-12)

        alpha = np.radians(np.arange(-90, 91))
        for decade in (1e3, 1e4, 1e5):
            cl_grid, cd_grid = wb.aero_coefficients(alpha, decade)
            assert np.allclose(cl_grid[::-1], -cl_grid, atol=1e-14)
            assert np.allclose(cd_grid[::-1], cd_grid, atol=1e-14)
            positive = np.radians(np.arange(0, 91))
            cl_pos, _ = wb.aero_coefficients(positive, decade)
            assert int(np.argmax(cl_pos)) == 45


def test_criterion_2_cutout_study():
    with criterion(2, "inboard-cutout lift/power deltas at 17.3 Hz", 10.0):
        wing = wb.standard_wing(25.5)
        kin = wb.beetle_kinematics(17.3, 190.0)

        # Preset premise: inboard geometric AoA stays in the 60-90 band.
        t = np.linspace(0.0, 1 / 17.3, 1440, endpoint=False)
        rate = kin.stroke.eval(t, 1)
        moving = np.abs(rate) > 1e-3 * np.max(np.abs(rate))
        for frac in (0.05, 0.25):
            aoa = np.degrees(wb.geometric_aoa(kin.rotation_at(frac, t), rate))
            assert np.all(aoa[moving] >= 60.0)
            assert np.all(aoa[moving] <= 90.0)

        study = run_cutout_study(wing, kin, ENV, cutout=0.25,
                                 frequency_hz=17.3)
        lift_drop = -study.comparison.lift_delta
        power_drop = -study.comparison.power_delta
        ratio_change = abs(study.comparison.lift_to_power_delta)
        print(f"  cutout 25%: lift {100 * lift_drop:.2f}% lower, aero power "
              f"{100 * power_drop:.2f}% lower, ratio change "
              f"{100 * ratio_change:.3f}%")
        assert 0.005 <= lift_drop <= 0.06
        assert 0.005 <= power_drop <= 0.06
        assert ratio_change < 0.01


def test_criterion_3_amplitude_and_area_trends():
    with criterion(3, "matched-lift amplitude and area trends", 60.0):
        target = 15.8 * GRAM_FORCE_NEWTONS
        wing = wb.standard_wing(25.5)
        kin190 = wb.beetle_kinematics(17.3, 190.0)
        kin120 = kin190.with_stroke_amplitude(math.radians(120.0))

        trim190 = hover_trim(wing, kin190, ENV, target, 8.0, 45.0)
        trim120 = hover_trim(wing, kin120, ENV, target, 8.0, 45.0)

        def lift_to_aero_power(kin, f):
            result = wb.simulate_cycle(wing, kin.with_frequency(f), ENV)
            return (result.mean_lift / GRAM_FORCE_NEWTONS) / result.mean_aero_power

        lp190 = lift_to_aero_power(kin190, trim190.frequency_hz)
        lp120 = lift_to_aero_power(kin120, trim120.frequency_hz)
        gain = 100 * (lp190 / lp120 - 1.0)
        print(f"  190 deg vs 120 deg at {15.8:.1f} gf: lift-to-aero-power "
              f"{lp190:.2f} vs {lp120:.2f} gf/W ({gain:+.1f}%; the reference "
              f"experiment reports +28.9 +/- 6.8% on input power)")
        assert lp190 > lp120

        small = wb.standard_wing(20.1)
        trim_small = hover_trim(small, kin190, ENV, target, 8.0, 45.0)
        print(f"  trim for {15.8:.1f} gf: 25.5 cm^2 at "
              f"{trim190.frequency_hz:.2f} Hz, 20.1 cm^2 at "
              f"{trim_small.frequency_hz:.2f} Hz")
        assert trim190.frequency_hz < trim_small.frequency_hz


def test_criterion_4_hover_trim_band():
    with criterion(4, "hover trim of the 23.7 cm^2 pair for 15.8 gf", 30.0):
        wing = wb.standard_wing(23.7)
        kin = wb.beetle_kinematics(17.3, 190.0)
        trim = hover_trim(wing, kin, ENV, 15.8 * GRAM_FORCE_NEWTONS,
                          8.0, 40.0)
        print(f"  trim frequency {trim.frequency_hz:.2f} Hz "
              f"(acceptance band 12-24 Hz around the observed ~18 Hz)")
        assert 12.0 <= trim.frequency_hz <= 24.0


def test_criterion_5_solver_convergence_properties():
    with criterion(5, "refinement, fixed-point, and scaling properties", 30.0):
        wing = wb.standard_wing(25.5)
        kin = wb.beetle_kinematics(17.3, 190.0)

        base = wb.simulate_cycle(wing, kin, ENV, SolverSettings(
            steps_per_cycle=720, n_elements=20))
        fine_t = wb.simulate_cycle(wing, kin, ENV, SolverSettings(
            steps_per_cycle=1440, n_elements=20))
        fine_r = wb.simulate_cycle(wing, kin, ENV, SolverSettings(
            steps_per_cycle=720, n_elements=40))
        for fine in (fine_t, fine_r):
            assert fine.mean_lift == pytest.approx(base.mean_lift, rel=5e-3)
            assert fine.mean_aero_power == pytest.approx(
                base.mean_aero_power, rel=5e-3)

        # Fixed-point self-consistency at the returned inflow.
        from oracles import pair_mean_thrust
        from wingbeat.aero import reynolds
        from wingbeat.wing import discretize
        vi = wb.solve_induced_velocity(wing, kin, ENV)
        thrust = pair_mean_thrust(discretize(wing, 20), kin, ENV, 720,
                                  vi.v_induced, reynolds(wing, kin, ENV))
        rederived = math.sqrt(max(thrust, 0.0) / (
            2.0 * ENV.rho * kin.stroke_amplitude * wing.span**2))
        assert abs(rederived - vi.v_induced) < 1e-6

        still = wb.simulate_cycle(wing, kin, ENV, induced_velocity=0.0)
        dense = wb.simulate_cycle(wing, kin,
                                  wb.AeroEnvironment(rho=4 * ENV.rho),
                                  induced_velocity=0.0)
        assert dense.mean_lift == pytest.approx(4 * still.mean_lift, rel=1e-6)
        # Twice the viscosity holds the Reynolds number at twice the
        # frequency.
        doubled = wb.simulate_cycle(wing, kin.with_frequency(34.6),
                                    wb.AeroEnvironment(rho=ENV.rho,
                                                       nu=2 * ENV.nu),
                                    induced_velocity=0.0)
        assert doubled.mean_lift == pytest.approx(4 * still.mean_lift,
                                                  rel=1e-6)


def test_criterion_6_power_budget():
    with criterion(6, "power-budget closure, Joule law, inertial power", 5.0):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p_in = float(rng.uniform(0, 8))
            budget = decompose(p_in, float(rng.uniform(0, 2)),
                               MotorElectrical(float(rng.uniform(0.5, 4))),
                               p_aero=float(rng.uniform(0, 4)),
                               p_inertial=float(rng.uniform(0, 2)))
            rebuilt = (budget.p_loss + budget.p_mechanism + budget.p_aero
                       + budget.p_inertial)
            assert rebuilt == pytest.approx(p_in, rel=1e-12, abs=1e-15)

        motor = MotorElectrical(1.7)
        for k in (2.0, 3.0, 10.0):
            assert joule_loss(k * 0.3, motor) == pytest.approx(
                k * k * joule_loss(0.3, motor), rel=1e-12)

        kin = wb.beetle_kinematics(17.3, 190.0)
        model = WingMassModel.from_wing(wb.standard_wing(25.5), 0.4e-3)
        result = inertial_power(model, kin)
        assert abs(result.signed_mean) < 1e-9

        m, r, f = 0.2e-3, 0.05, 17.3
        phi_half = math.radians(95.0)
        w = 2 * math.pi * f
        t = np.linspace(0.0, 1.0 / f, 200001)
        series = m * r * r * (-phi_half * w * w * np.sin(w * t)) \
            * (phi_half * w * np.cos(w * t))
        oracle = float(np.trapezoid(np.maximum(series, 0.0), t) * f)
        single = WingKinematics(
            FourierSeries(0.0, (0.0,), (phi_half,), f),
            ((1.0, FourierSeries(math.pi / 2, (0.0,), (0.0,), f)),))
        got = inertial_power(WingMassModel.point_mass(m, r), single)
        assert got.rectified_mean == pytest.approx(oracle, rel=1e-3)


def test_criterion_7_controller():
    with criterion(7, "yaw-law exactness and closed-loop behaviour", 5.0):
        psi = 0.0
        for _ in range(100):
            psi = wb.integrate_yaw(psi, 10.0, 0.01)
        assert abs(psi - 10.0) < 1e-12

        assert wb.yaw_control_output(1.0, 0.1, 30.0, 10.0, 0.0, 5.0) == 19.5

        config = wb.ControllerConfig(kp=4.0, kd=2.5,
                                     setpoint_schedule=((0.0, 30.0),))
        trace = wb.simulate_closed_loop(wb.YawPlant(inertia=1.0), config,
                                        duration=8.0, dt=0.01)
        assert abs(trace.psi_true[-1] - 30.0) < 0.01 * 30.0

        bias = 1.5
        quiet = wb.ControllerConfig(kp=0.0, kd=0.0)
        drift = wb.simulate_closed_loop(wb.YawPlant(inertia=1.0), quiet,
                                        duration=10.0, dt=0.01,
                                        gyro_bias=bias)
        tail = slice(drift.t.size // 2, None)
        slope = np.polyfit(drift.t[tail], drift.psi_est[tail], 1)[0]
        assert slope == pytest.approx(bias, rel=1e-3)
        assert np.allclose(drift.psi_true, 0.0, atol=1e-12)


def test_criterion_8_harness_determinism():
    with criterion(8, "sweep reproducibility and fit round trip", 30.0):
        study = json.loads((Path(__file__).resolve().parents[1] / "demos"
                            / "configs" / "study.json").read_text())
        doc = {
            "wing": study["wing"],
            "kinematics": study["kinematics"],
            "environment": {"rho_kg_m3": 1.225, "nu_m2_s": 1.5e-5},
            "sweep": {"amplitude_deg": [120.0, 190.0],
                      "area_cm2": [20.1, 25.5],
                      "frequency_hz": [14.0, 18.0]},
            "solver": {"steps_per_cycle": 360, "n_elements": 20},
            "output": {"directory": "."},
        }
        config = StudyConfig.from_dict(doc)
        assert run_sweep(config) == run_sweep(config)

        rng = np.random.default_rng(12)
        f = 17.3
        truth = FourierSeries(a0=float(rng.normal()),
                              a=tuple(rng.normal(size=5)),
                              b=tuple(rng.normal(size=5)), frequency=f)
        t = np.linspace(0.0, 1.0 / f, 240, endpoint=False)
        fitted, _ = fit_fourier(t, truth.eval(t), f)
        assert fitted.a0 == pytest.approx(truth.a0, rel=1e-9)
        for got, want in zip(fitted.a + fitted.b, truth.a + truth.b):
            assert got == pytest.approx(want, rel=1e-9)
