"""Reference computations the tests check the solvers against."""

import numpy as np

from wingbeat.aero import _element_grid_state, element_forces


def pair_mean_thrust(elements, kin, env, steps, v_induced, re):
    """Cycle-mean vertical force of the wing pair at a given inflow, from
    one full force pass on the element grid."""
    _, state = _element_grid_state(elements, kin, steps, v_induced)
    forces = element_forces(state, env, re)
    return 2.0 * float(np.mean(np.sum(forces.total_zeta, axis=1)))
