"""Constraint-set value types: hyperplanes, halfspaces, and systems.

A hyperplane is {x : <x,u> = eta}; a halfspace is {x : <x,u> <= eta}.
Zero normals are legal and classified rather than rejected: the set is
then the whole space or empty depending on the offset, and callers can
query that through :func:`is_whole_space` / :func:`is_empty`.  A
nonzero normal whose squared norm underflows to zero is rejected with
ZeroNormal, so "zero normal" means the same to every projector.

Membership is tolerance-based.  A point sits on the boundary when

    |<x,u> - eta|  <=  tol * (1 + |eta| + |u| |x|)

which keeps the test meaningful across scales.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DimensionMismatch, ZeroNormal
from .linalg import DEPENDENCE_TOL, as_vector, max_independent_subset

MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class _LinearSet:
    u: np.ndarray
    eta: float

    def __post_init__(self):
        u = as_vector(self.u).copy()
        if float(u.dot(u)) == 0.0 and u.any():
            raise ZeroNormal("normal is nonzero but its squared norm underflows to zero")
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        eta = float(self.eta)
        if not math.isfinite(eta):
            raise ValueError("offset must be finite")
        object.__setattr__(self, "eta", eta)

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @property
    def has_zero_normal(self) -> bool:
        return not np.any(self.u)


class Hyperplane(_LinearSet):
    """The set {x : <x,u> = eta}."""

    kind = "hyperplane"


class Halfspace(_LinearSet):
    """The set {x : <x,u> <= eta}."""

    kind = "halfspace"

    def boundary(self) -> Hyperplane:
        return Hyperplane(self.u, self.eta)


LinearSet = Union[Hyperplane, Halfspace]


def is_whole_space(s: LinearSet) -> bool:
    """True when the set imposes no constraint (zero normal, feasible offset)."""
    if not s.has_zero_normal:
        return False
    if isinstance(s, Hyperplane):
        return s.eta == 0.0
    return s.eta >= 0.0


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


def membership_bound(s: LinearSet, x: np.ndarray, tol: float) -> float:
    return tol * (1.0 + abs(s.eta) + float(np.linalg.norm(s.u)) * float(np.linalg.norm(x)))


def checked_point(sets: Sequence[LinearSet], x) -> np.ndarray:
    """``x`` as a coordinate array; DimensionMismatch unless every set has its dimension."""
    xv = as_vector(x)
    for s in sets:
        if s.dim != xv.shape[0]:
            raise DimensionMismatch(f"point has dim {xv.shape[0]}, set has dim {s.dim}")
    return xv


def contains(s: LinearSet, x, tol: float = MEMBERSHIP_TOL) -> Membership:
    """Tolerance-based membership test.

    Halfspaces report Inside / Boundary / Outside; hyperplanes report
    OnPlane / Off.
    """
    xv = checked_point((s,), x)
    value = float(np.dot(xv, s.u)) - s.eta
    bound = membership_bound(s, xv, tol)
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


def offset_consistent(
    plane: Hyperplane, coefficients, retained: Sequence[Hyperplane], tol: float = DEPENDENCE_TOL
) -> bool:
    """Whether a plane whose normal is dependent on ``retained`` agrees with them.

    Its normal is sum_j c_j u_j over the retained planes, with
    ``coefficients`` c aligned with ``retained``; it is consistent only
    if its offset matches sum_j c_j eta_j within ``tol * (1 + |eta|)``.
    A zero-normal plane is consistent only if its offset is exactly zero
    (it is the empty set otherwise).
    """
    if plane.has_zero_normal:
        return plane.eta == 0.0
    implied = float(sum(c * p.eta for c, p in zip(coefficients, retained)))
    return not abs(plane.eta - implied) > tol * (1.0 + abs(plane.eta))


def reduce_hyperplane_system(
    planes: Sequence[Hyperplane], tol: float = DEPENDENCE_TOL
) -> ReducedHyperplaneSystem:
    """Prune dependent planes and detect offset contradictions.

    Normals are scanned greedily in input order; every excluded plane
    must pass :func:`offset_consistent` against the retained ones.
    Infeasibility is reported as data, never raised.
    """
    if len(planes) == 0:
        raise ValueError("need at least one hyperplane")
    subset = max_independent_subset([p.u for p in planes], tol)
    retained = tuple(planes[i] for i in subset.indices)
    consistent = all(
        offset_consistent(planes[i], coeff, retained, tol)
        for i, coeff in subset.coefficients.items()
    )
    status = Feasibility.FEASIBLE if consistent else Feasibility.INFEASIBLE
    return ReducedHyperplaneSystem(retained, status, subset.indices)


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
        dim = int(data["dim"])
        raw_sets = data["sets"]
        raw_points = data["points"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"instance is missing required field: {exc}") from exc
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
