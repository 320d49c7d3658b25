"""Closed-form projectors onto a single hyperplane or halfspace.

Both projectors move a point along the normal:

    P_H x = x + (eta - <x,u>) / |u|^2 * u

and the halfspace projector applies that step only when the point is
strictly outside.  Points within the boundary tolerance are returned
unchanged (both branches agree on the boundary, so snapping avoids a
needless perturbation).

A block of points has two paths.  One point goes through
:func:`project_onto`, which costs less per call.  Many points, each onto
its own set, go through :func:`project_rows` on a :class:`SetBlock`:
row i of the block is projected onto set i in a few numpy calls, and
gets the bits :func:`project_onto` gives it alone (``linalg.row_dots``
takes each row's inner product with the per-point ``dot``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, EmptySet
from .linalg import row_dots
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


class SetBlock:
    """Linear sets stacked row by row for :func:`project_rows`.

    ``u`` (n, d), ``eta``, ``norm_sq`` and ``norm`` (n,) stack each set's
    own values; ``always_moves`` marks the hyperplanes with a nonzero
    normal, the rows whose projection always steps.  Raises EmptySet if
    any set is empty and DimensionMismatch unless all share one
    dimension.  The arrays are read-only, so they cannot go stale.
    """

    def __init__(self, sets: Sequence[LinearSet]):
        if len(sets) == 0:
            raise ValueError("need at least one set")
        for i, s in enumerate(sets):
            if not isinstance(s, (Hyperplane, Halfspace)):
                raise TypeError(f"cannot project onto {type(s).__name__}")
            if is_empty(s):
                raise EmptySet(f"set {i} ({s.kind} with zero normal) is empty")
        checked_point(sets, sets[0].u)  # DimensionMismatch unless all share one dimension
        self.u = np.array([s.u for s in sets])
        self.eta = np.array([s.eta for s in sets])
        self.norm_sq = np.array([s.norm_sq for s in sets])
        self.norm = np.array([s.norm for s in sets])
        self.always_moves = np.array(
            [isinstance(s, Hyperplane) and not s.has_zero_normal for s in sets]
        )
        for arr in (self.u, self.eta, self.norm_sq, self.norm, self.always_moves):
            arr.setflags(write=False)


def project_rows(block: SetBlock, x) -> np.ndarray:
    """Project row i of the point block ``x`` onto set i of ``block``.

    ``x`` must have the block's shape (n, d) and finite coordinates.
    Every row gets the bits :func:`project_onto` gives it alone.  With
    ``gap = eta - <x,u>``, a row moves to ``x + gap / |u|^2 * u``, the
    hyperplane step, when its set is a hyperplane with a nonzero normal
    or a halfspace with ``-gap`` above ``membership_bound`` at
    ``BOUNDARY_TOL``.  For such a halfspace row ``gap`` is nonzero, and
    IEEE negation is exact, so the step has the bits of the halfspace
    step ``x - (-gap) / |u|^2 * u``.  Other rows come back unchanged:
    a zero-normal row has ``gap`` equal to ``eta`` (a halfspace, never
    negative once nonempty) or zero (a whole-space hyperplane), so it
    never moves and is never divided by its zero ``|u|^2``.
    """
    xb = np.asarray(x, dtype=float)
    if xb.shape != block.u.shape:
        raise DimensionMismatch(f"point block has shape {xb.shape}, sets have {block.u.shape}")
    if not np.isfinite(xb).all():
        raise ValueError("coordinates must be finite")
    gap = block.eta - row_dots(xb, block.u)
    bound = BOUNDARY_TOL * (1.0 + np.abs(block.eta) + block.norm * np.sqrt(row_dots(xb, xb)))
    moves = block.always_moves | (gap < -bound)
    step = np.divide(gap, block.norm_sq, out=np.zeros_like(gap), where=moves)
    return np.where(moves[:, None], xb + step[:, None] * block.u, xb)
