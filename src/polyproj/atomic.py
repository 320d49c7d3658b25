"""Closed-form projectors onto a single hyperplane or halfspace.

Both projectors move a point along the normal:

    P_H x = x + (eta - <x,u>) / |u|^2 * u

and the halfspace projector applies that step only when the point is
strictly outside.  Points within the boundary tolerance are returned
unchanged (both branches agree on the boundary, so snapping avoids a
needless perturbation).
"""

from __future__ import annotations

import numpy as np

from .errors import EmptySet
from .sets import Halfspace, Hyperplane, LinearSet, checked_point, is_empty, membership_bound

BOUNDARY_TOL = 1e-12


def project_hyperplane(plane: Hyperplane, x) -> np.ndarray:
    """Nearest point of the hyperplane.

    A zero normal with zero offset is the whole space (identity); a zero
    normal with nonzero offset is the empty set and raises EmptySet.
    """
    xv = checked_point((plane,), x)
    if is_empty(plane):
        raise EmptySet("hyperplane with zero normal and nonzero offset is empty")
    if plane.has_zero_normal:
        return xv.copy()
    u = plane.u
    step = (plane.eta - float(np.dot(xv, u))) / plane.norm_sq
    return xv + step * u


def halfspace_step(half: Halfspace, xv: np.ndarray) -> tuple[np.ndarray, float]:
    """Step onto a nonempty halfspace; returns (point, multiplier >= 0).

    Points inside or within the boundary tolerance come back unchanged
    with multiplier 0, which covers every point when the normal is zero;
    points outside move along the normal onto the boundary.
    """
    u = half.u
    value = float(np.dot(xv, u)) - half.eta
    if value <= membership_bound(half, xv, BOUNDARY_TOL):
        return xv.copy(), 0.0
    t = value / half.norm_sq
    return xv - t * u, t


def project_halfspace(half: Halfspace, x) -> np.ndarray:
    """Nearest point of the halfspace: identity inside, boundary projection outside."""
    xv = checked_point((half,), x)
    if is_empty(half):
        raise EmptySet("halfspace with zero normal and negative offset is empty")
    return halfspace_step(half, xv)[0]


def project_onto(s: LinearSet, x) -> np.ndarray:
    """Dispatch to the hyperplane or halfspace projector."""
    if isinstance(s, Halfspace):
        return project_halfspace(s, x)
    if isinstance(s, Hyperplane):
        return project_hyperplane(s, x)
    raise TypeError(f"cannot project onto {type(s).__name__}")
