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

from .errors import DimensionMismatch, EmptySet
from .linalg import as_vector
from .sets import Halfspace, Hyperplane, LinearSet, membership_bound

BOUNDARY_TOL = 1e-12


def _checked_point(s: LinearSet, x) -> np.ndarray:
    xv = as_vector(x)
    if xv.shape[0] != s.dim:
        raise DimensionMismatch(f"point has dim {xv.shape[0]}, set has dim {s.dim}")
    return xv


def project_hyperplane(plane: Hyperplane, x) -> np.ndarray:
    """Nearest point of the hyperplane.

    A zero normal with zero offset is the whole space (identity); a zero
    normal with nonzero offset is the empty set and raises EmptySet.
    """
    xv = _checked_point(plane, x)
    if plane.has_zero_normal:
        if plane.eta == 0.0:
            return xv.copy()
        raise EmptySet("hyperplane with zero normal and nonzero offset is empty")
    u = plane.u
    step = (plane.eta - float(np.dot(xv, u))) / float(np.dot(u, u))
    return xv + step * u


def halfspace_step(half: Halfspace, xv: np.ndarray) -> tuple[np.ndarray, float]:
    """Step onto a halfspace with a nonzero normal; returns (point, multiplier >= 0).

    Points inside or within the boundary tolerance come back unchanged
    with multiplier 0; points outside move along the normal onto the
    boundary.
    """
    u = half.u
    value = float(np.dot(xv, u)) - half.eta
    if value <= membership_bound(half, xv, BOUNDARY_TOL):
        return xv.copy(), 0.0
    t = value / float(np.dot(u, u))
    return xv - t * u, t


def project_halfspace(half: Halfspace, x) -> np.ndarray:
    """Nearest point of the halfspace: identity inside, boundary projection outside."""
    xv = _checked_point(half, x)
    if half.has_zero_normal:
        if half.eta >= 0.0:
            return xv.copy()
        raise EmptySet("halfspace with zero normal and negative offset is empty")
    return halfspace_step(half, xv)[0]


def project_onto(s: LinearSet, x) -> np.ndarray:
    """Dispatch to the hyperplane or halfspace projector."""
    if isinstance(s, Halfspace):
        return project_halfspace(s, x)
    if isinstance(s, Hyperplane):
        return project_hyperplane(s, x)
    raise TypeError(f"cannot project onto {type(s).__name__}")
