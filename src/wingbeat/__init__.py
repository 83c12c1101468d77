"""Aerodynamics, power budgeting, and yaw control for flapping-wing MAVs.

The library couples a quasi-steady blade-element force model (with
added-mass and rotational terms and a momentum-balanced induced inflow)
to Fourier-series wing kinematics, and layers design-study tooling on
top: amplitude/area sweeps, hover trim, the inboard-cutout comparison,
an input-power decomposition, and a gyro-only yaw control loop.
"""

__version__ = "0.1.0"

from .aero import (
    AeroEnvironment,
    CycleResult,
    ElementState,
    ForceBreakdown,
    InducedVelocityResult,
    SolverSettings,
    aero_coefficients,
    element_acceleration,
    element_forces,
    reynolds,
    simulate_cycle,
    solve_induced_velocities,
    solve_induced_velocity,
)
from .control import (
    ControllerConfig,
    ControlTrace,
    LowPassFilter,
    YawPlant,
    integrate_yaw,
    low_pass_coefficient,
    simulate_closed_loop,
    yaw_control_output,
)
from .kinematics import (
    FourierSeries,
    WingKinematics,
    fit_fourier,
    geometric_aoa,
)
from .power import (
    GRAM_FORCE_NEWTONS,
    InertialPowerResult,
    MotorElectrical,
    PowerBudget,
    WingMassModel,
    decompose,
    inertial_power,
    joule_loss,
    lift_to_power,
    shunt_current,
)
from .presets import beetle_kinematics, standard_wing
from .wing import (
    BladeElements,
    WingGeometry,
    apply_inboard_cutout,
    discretize,
    scaled_to_area,
)

__all__ = [name for name in dir() if not name.startswith("_")]
