"""Constraint-set value types: hyperplanes, halfspaces, and systems.

A hyperplane is {x : <x,u> = eta}; a halfspace is {x : <x,u> <= eta}.
Zero normals are legal and classified rather than rejected: the set is
then the whole space or empty depending on the offset, and
:func:`is_empty` tells which.

One scale rule: a set also keeps its exact image ``_u = ldexp(u, k)``,
``_eta = ldexp(eta, k)``, with ``k = -frexp(max |u_i|)[1]`` (``_k``)
putting ``max |_u_i|`` in [0.5, 1), and its ``_norm_sq`` and ``_norm``,
which neither overflow nor underflow (an offset whose image is not
finite is a ValueError).  The projector formulas are homogeneous in (u, eta), so
the projectors read only these, give the caller's points bit for bit
wherever the caller's scale stays in range, and map a multiplier back
as ``ldexp(multiplier, k)``.  ``norm_sq`` (``u.dot(u)``, inf past the
float range), ``norm`` and ``has_zero_normal`` are the caller's.
Nothing can go stale: sets are frozen, ``u`` is a read-only copy, and
``dataclasses.replace`` builds a new set.

Membership is tolerance-based.  A point sits on the boundary when

    |<x,u> - eta|  <=  tol * (1 + |eta| + |u| |x|)

read on the prescaled set.  :func:`membership_bound` is its one copy, for
one point or a block of rows: :func:`contains` reads it at
``MEMBERSHIP_TOL``, ``atomic.step`` at ``BOUNDARY_TOL``.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import DimensionMismatch
from .linalg import _ldexp, _norm, _scan_rows, as_vector

MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class _LinearSet:
    u: np.ndarray
    eta: float
    norm_sq: float = field(init=False, repr=False, compare=False)
    norm: float = field(init=False, repr=False, compare=False)
    has_zero_normal: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u = as_vector(self.u).copy()
        u.setflags(write=False)
        eta = float(self.eta)
        k = -math.frexp(max(map(abs, u.tolist())))[1]  # 0 for a zero normal
        u_hat, eta_hat = (np.ldexp(u, k), _ldexp(eta, k)) if k else (u, eta)
        if not math.isfinite(eta_hat):
            raise ValueError("offset must be finite, also on the scale of its normal")
        norm_sq = float(u_hat.dot(u_hat))
        norm = math.sqrt(norm_sq)
        vars(self).update(  # frozen: the fields are written past __setattr__
            u=u, eta=eta, norm_sq=_ldexp(norm_sq, -2 * k), norm=_ldexp(norm, -k),
            has_zero_normal=norm_sq == 0.0,
            _k=k, _u=u_hat, _eta=eta_hat, _norm_sq=norm_sq, _norm=norm,
        )

    @property
    def dim(self) -> int:
        return self.u.shape[0]


class Hyperplane(_LinearSet):
    """The set {x : <x,u> = eta}."""

    kind = "hyperplane"


class Halfspace(_LinearSet):
    """The set {x : <x,u> <= eta}."""

    kind = "halfspace"

    def boundary(self) -> Hyperplane:
        return Hyperplane(self.u, self.eta)


LinearSet = Union[Hyperplane, Halfspace]


def is_empty(s: LinearSet) -> bool:
    """True when the set contains no point (zero normal, impossible offset)."""
    if not s.has_zero_normal:
        return False
    if isinstance(s, Hyperplane):
        return s.eta != 0.0
    return s.eta < 0.0


class Membership(enum.Enum):
    INSIDE = "Inside"
    BOUNDARY = "Boundary"
    OUTSIDE = "Outside"
    ON_PLANE = "OnPlane"
    OFF = "Off"


def membership_bound(eta, norm, xnorm, tol):
    """``tol * (1 + |eta| + |u| |x|)`` from floats, or entry by entry from arrays that broadcast."""
    return tol * (1.0 + abs(eta) + norm * xnorm)


def checked_point(sets: Sequence[LinearSet], x) -> np.ndarray:
    """``x`` as a coordinate array, checked against every member of ``sets``.

    TypeError for a member that is neither a Hyperplane nor a Halfspace,
    before ``x`` is read, so a caller with no point may pass
    ``getattr(sets[0], "u", None)``; then DimensionMismatch unless every
    set has the dimension of ``x``.
    """
    for s in sets:
        if not isinstance(s, (Hyperplane, Halfspace)):
            raise TypeError(f"cannot project onto {type(s).__name__}")
    xv = as_vector(x)
    for s in sets:
        if s.dim != xv.shape[0]:
            raise DimensionMismatch(f"point has dim {xv.shape[0]}, set has dim {s.dim}")
    return xv


def contains(s: LinearSet, x) -> Membership:
    """Tolerance-based membership test.

    Halfspaces report Inside / Boundary / Outside; hyperplanes report
    OnPlane / Off.
    """
    xv = checked_point((s,), x)
    value = float(np.dot(xv, s._u)) - s._eta
    bound = membership_bound(s._eta, s._norm, _norm(xv), MEMBERSHIP_TOL)
    if isinstance(s, Hyperplane):
        return Membership.ON_PLANE if abs(value) <= bound else Membership.OFF
    if abs(value) <= bound:
        return Membership.BOUNDARY
    return Membership.INSIDE if value < 0 else Membership.OUTSIDE


class Feasibility(enum.Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class ReducedHyperplaneSystem:
    """Result of pruning a hyperplane system to independent normals.

    When ``status`` is FEASIBLE the retained planes cut out the same set
    as the originals; INFEASIBLE records that some pruned plane (or a
    zero-normal plane with nonzero offset) contradicts the others.
    """

    retained: tuple[Hyperplane, ...]
    status: Feasibility
    retained_indices: tuple[int, ...]


def reduce_hyperplane_system(planes: Sequence[Hyperplane]) -> ReducedHyperplaneSystem:
    """Prune dependent planes and detect offset contradictions.

    Rows are scanned greedily in input order by ``linalg._scan_rows``,
    the scan the oracle's hyperplanes share.  Infeasibility is reported
    as data, never raised.
    """
    if len(planes) == 0:
        raise ValueError("need at least one hyperplane")
    checked_point(planes, getattr(planes[0], "u", None))  # all sets, of one dimension
    normals = np.array([p._u for p in planes])
    offsets = np.array([p._eta for p in planes])
    kept, _, consistent = _scan_rows(normals, offsets)
    status = Feasibility.FEASIBLE if consistent else Feasibility.INFEASIBLE
    return ReducedHyperplaneSystem(tuple(planes[i] for i in kept), status, kept)


@dataclass(frozen=True)
class Instance:
    """A problem instance: ambient dimension, constraint sets, query points."""

    dim: int
    sets: tuple[LinearSet, ...]
    points: tuple[np.ndarray, ...]


def instance_from_dict(data: dict) -> Instance:
    """Parse the shared JSON instance schema.

    Expected shape: {"dim": int, "sets": [{"kind", "u", "eta"}, ...],
    "points": [[...], ...]}.  Raises ValueError on malformed input.
    """
    try:
        dim = data["dim"]
        raw_sets = data["sets"]
        raw_points = data["points"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"instance is missing required field: {exc}") from exc
    if type(dim) is not int:  # JSON reads 2.7 as a float and true as a bool
        raise ValueError(f"dim must be an integer, got {dim!r}")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    sets: list[LinearSet] = []
    for entry in raw_sets:
        try:
            kind = entry["kind"]
            u = entry["u"]
            eta = entry["eta"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"set entry is missing required field: {exc}") from exc
        if kind == "hyperplane":
            s: LinearSet = Hyperplane(u, eta)
        elif kind == "halfspace":
            s = Halfspace(u, eta)
        else:
            raise ValueError(f"unknown set kind: {kind!r}")
        if s.dim != dim:
            raise ValueError(f"set normal has dim {s.dim}, instance has dim {dim}")
        sets.append(s)
    points = []
    for p in raw_points:
        pv = as_vector(p)
        if pv.shape[0] != dim:
            raise ValueError(f"point has dim {pv.shape[0]}, instance has dim {dim}")
        points.append(pv)
    return Instance(dim, tuple(sets), tuple(points))


def instance_to_dict(inst: Instance) -> dict:
    return {
        "dim": inst.dim,
        "sets": [
            {"kind": s.kind, "u": [float(c) for c in s.u], "eta": float(s.eta)}
            for s in inst.sets
        ],
        "points": [[float(c) for c in p] for p in inst.points],
    }


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))
