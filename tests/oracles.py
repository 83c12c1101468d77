"""Reference computations the tests check the solvers against."""

import numpy as np

from wingbeat.aero import _element_grid_state, element_forces


def pair_mean_thrust(elements, kin, env, steps, v_induced, re):
    """Cycle-mean vertical force of the wing pair at a given inflow, from
    one full force pass on the element grid."""
    _, state = _element_grid_state(elements, kin, steps, v_induced)
    forces = element_forces(state, env, re)
    return 2.0 * float(np.mean(np.sum(forces.total_zeta, axis=1)))


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
