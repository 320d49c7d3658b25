"""Constraint-set value types: hyperplanes, halfspaces, and systems.

A hyperplane is {x : <x,u> = eta}; a halfspace is {x : <x,u> <= eta}.
Zero normals are legal and classified rather than rejected: the set is
then the whole space or empty depending on the offset, and
:func:`is_empty` tells which.  A nonzero normal whose squared norm
underflows below the smallest normal float is rejected with ZeroNormal,
so "zero normal" means the same to every projector and no projector
divides by a subnormal |u|^2.

Each set computes three invariants of its normal once, when it is
built: ``norm_sq`` (the float ``u.dot(u)``), ``norm`` (its square root,
bit for bit ``np.linalg.norm(u)``) and ``has_zero_normal`` (exactly
``norm_sq == 0.0``, since a nonzero normal with a smaller square is
rejected).  They cannot go stale: the set is frozen, ``u`` is a
read-only private copy, and ``dataclasses.replace`` builds a new set
that computes them again.  The projectors read them instead of
recomputing them on every call.

Membership is tolerance-based.  A point sits on the boundary when

    |<x,u> - eta|  <=  tol * (1 + |eta| + |u| |x|)

which keeps the test meaningful across scales.  :func:`membership_bound`
is its one copy, for one point or a block of rows: :func:`contains` reads
it at ``MEMBERSHIP_TOL``, ``atomic.step`` at ``BOUNDARY_TOL``.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import DimensionMismatch, ZeroNormal
from .linalg import _norm, _scan_rows, as_vector

MEMBERSHIP_TOL = 1e-9

_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class _LinearSet:
    u: np.ndarray
    eta: float
    norm_sq: float = field(init=False, repr=False, compare=False)
    norm: float = field(init=False, repr=False, compare=False)
    has_zero_normal: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u = as_vector(self.u).copy()
        norm_sq = float(u.dot(u))
        if norm_sq < _TINY and u.any():
            raise ZeroNormal("normal is nonzero but its squared norm underflows")
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        eta = float(self.eta)
        if not math.isfinite(eta):
            raise ValueError("offset must be finite")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "norm_sq", norm_sq)
        object.__setattr__(self, "norm", math.sqrt(norm_sq))
        object.__setattr__(self, "has_zero_normal", norm_sq == 0.0)

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
    """``x`` as a coordinate array; DimensionMismatch unless every set has its dimension."""
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
    value = float(np.dot(xv, s.u)) - s.eta
    bound = membership_bound(s.eta, s.norm, _norm(xv), MEMBERSHIP_TOL)
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
    checked_point(planes, planes[0].u)  # DimensionMismatch unless all share one dimension
    normals = np.array([p.u for p in planes])
    offsets = np.array([p.eta for p in planes])
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
