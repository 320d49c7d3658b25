"""The single-set layer: closed-form projection onto one hyperplane or halfspace.

Every path onto one set takes one step, :func:`step`, along the normal:

    P_H x = x + (eta - <x,u>) / |u|^2 * u

and a halfspace takes it only when the point is strictly outside.
Points within ``sets.membership_bound`` at ``BOUNDARY_TOL`` are returned
unchanged (both branches agree on the boundary, so snapping avoids a
needless perturbation).

:func:`project_onto` checks one set and one point, then steps;
``project_hyperplane`` and ``project_halfspace`` are the same function.
Callers whose input is already checked (``iterate.dykstra``, the
closed-form projectors) call :func:`step`.  Many points, each onto its
own set, go through :func:`project_rows` on a :class:`SetBlock`: row i
of the block is projected onto set i in a few numpy calls.
``closed_form.project_pair_rows`` does the same for pairs of sets.

Bit for bit.  A row kernel gives each row the bits the per-point path
gives it alone.  These rules keep it so, and the row kernels point here
rather than restate them:

* Inner products come from ``linalg.row_dots``, which gives each row the
  bits of the per-point ``dot``.
* numpy's elementwise arithmetic rounds as Python's float arithmetic
  does, so each row evaluates the per-point expression in the same
  order, with no term added, dropped or regrouped.  A branch computing
  ``x - c1 * u1`` stays apart from one computing ``x - c1 * u1 - c2 *
  u2``: subtracting ``0.0 * u2`` turns a -0.0 coordinate into +0.0.
* Python's ``min(a, b)`` is ``np.where(b < a, b, a)`` and ``max(v,
  0.0)`` is ``np.where(0.0 > v, 0.0, v)``.  Both return the first
  argument on a tie, so ``max(-0.0, 0.0)`` stays -0.0, where
  ``np.maximum`` gives +0.0.
* Every division runs only on the rows of its branch (``where=``), so
  no row is divided by a zero |u|^2 and no row of another branch raises
  a warning.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, EmptySet
from .linalg import _norm, _row_norms, row_dots
from .sets import Halfspace, Hyperplane, LinearSet, checked_point, is_empty, membership_bound

BOUNDARY_TOL = 1e-12


def step(s: LinearSet, xv: np.ndarray) -> tuple[np.ndarray, float]:
    """Step a checked point onto a nonempty hyperplane or halfspace; returns (point, multiplier).

    With ``gap = eta - <x,u>`` the point moves to ``x + gap / |u|^2 * u``,
    with multiplier ``-gap / |u|^2``, when the set is a hyperplane with a
    nonzero normal or when ``-gap`` is above ``membership_bound`` at
    ``BOUNDARY_TOL``; otherwise it comes back unchanged with multiplier 0.
    IEEE negation is exact, so a moved halfspace point has the bits of
    ``x - (<x,u> - eta) / |u|^2 * u`` and a positive multiplier.
    """
    gap = s.eta - float(np.dot(xv, s.u))
    always_moves = isinstance(s, Hyperplane) and not s.has_zero_normal
    if not always_moves and -gap <= membership_bound(s.eta, s.norm, _norm(xv), BOUNDARY_TOL):
        return xv.copy(), 0.0
    t = gap / s.norm_sq
    return xv + t * s.u, -t


def project_onto(s: LinearSet, x) -> np.ndarray:
    """Nearest point of a hyperplane or halfspace; EmptySet when the set is empty."""
    if not isinstance(s, (Hyperplane, Halfspace)):
        raise TypeError(f"cannot project onto {type(s).__name__}")
    xv = checked_point((s,), x)
    if is_empty(s):
        raise EmptySet(f"{s.kind} with zero normal and offset {s.eta!r} is empty")
    return step(s, xv)[0]


project_hyperplane = project_halfspace = project_onto


class SetBlock:
    """Linear sets stacked row by row for the row kernels.

    ``u`` (n, d), ``eta``, ``norm_sq`` and ``norm`` (n,) stack each set's
    own values; ``is_hyperplane`` marks the hyperplane rows and
    ``always_moves`` those with a nonzero normal, the rows whose
    projection always steps.  Raises EmptySet if any set is empty and
    DimensionMismatch unless all share one dimension.  The arrays are
    read-only, so they cannot go stale.
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
        self.is_hyperplane = np.array([isinstance(s, Hyperplane) for s in sets])
        self.always_moves = self.is_hyperplane & (self.norm_sq != 0.0)
        for arr in (self.u, self.eta, self.norm_sq, self.norm, self.is_hyperplane, self.always_moves):
            arr.setflags(write=False)

    def points(self, x) -> np.ndarray:
        """``x`` as a float block of the shape of ``u``, with finite coordinates."""
        xb = np.asarray(x, dtype=float)
        if xb.shape != self.u.shape:
            raise DimensionMismatch(f"point block has shape {xb.shape}, sets have {self.u.shape}")
        if not np.isfinite(xb).all():
            raise ValueError("coordinates must be finite")
        return xb


def _step_rows(u, eta, norm_sq, norm, always_moves, xb) -> tuple[np.ndarray, np.ndarray]:
    """The step of :func:`project_rows` on stacked set arrays; returns (points, moved).

    With ``gap = eta - <x,u>``, a row moves to ``x + gap / |u|^2 * u``
    when ``always_moves`` is set for it or when ``-gap`` is above
    ``membership_bound`` at ``BOUNDARY_TOL``, which is when :func:`step`
    moves it.  Other rows come back unchanged.
    """
    gap = eta - row_dots(xb, u)
    moved = always_moves | (gap < -membership_bound(eta, norm, _row_norms(xb), BOUNDARY_TOL))
    t = np.divide(gap, norm_sq, out=np.zeros_like(gap), where=moved)
    return np.where(moved[:, None], xb + t[:, None] * u, xb), moved


def project_rows(block: SetBlock, x) -> np.ndarray:
    """Project row i of the point block ``x`` onto set i of ``block``.

    ``x`` must have the block's shape (n, d) and finite coordinates.
    Every row gets the bits :func:`project_onto` gives it alone (see the
    module docstring).  A row steps when :func:`step` would.  A
    zero-normal row has ``gap`` equal to ``eta`` (a halfspace, never
    negative once nonempty) or zero (a whole-space hyperplane), so it
    never moves and is never divided by its zero ``|u|^2``.
    """
    xb = block.points(x)
    return _step_rows(block.u, block.eta, block.norm_sq, block.norm, block.always_moves, xb)[0]
