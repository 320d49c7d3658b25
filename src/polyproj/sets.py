"""Constraint-set value types: hyperplanes, halfspaces, and systems.

A hyperplane is {x : <x,u> = eta}; a halfspace is {x : <x,u> <= eta}.
Zero normals are legal and classified rather than rejected: the set is
then the whole space or empty depending on the offset, and callers can
query that through :func:`is_whole_space` / :func:`is_empty`.  A
nonzero normal whose squared norm underflows below the smallest normal
float is rejected with ZeroNormal, so "zero normal" means the same to
every projector and no projector divides by a subnormal |u|^2.

Membership is tolerance-based.  A point sits on the boundary when

    |<x,u> - eta|  <=  tol * (1 + |eta| + |u| |x|)

which keeps the test meaningful across scales; ``tol`` is
``MEMBERSHIP_TOL``.

:func:`add_row` is the one row step of a hyperplane system: it extends
an orthonormal basis of the kept normals by one row, or else checks the
dependent row's offset against the kept rows.  Both
:func:`reduce_hyperplane_system` and the oracle's active-set walk call it.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DimensionMismatch, ZeroNormal
from .linalg import DEPENDENCE_TOL, as_vector, expansion_coefficients, extend_basis

MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class _LinearSet:
    u: np.ndarray
    eta: float

    def __post_init__(self):
        u = as_vector(self.u).copy()
        if float(u.dot(u)) < np.finfo(float).tiny and u.any():
            raise ZeroNormal("normal is nonzero but its squared norm underflows")
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


def contains(s: LinearSet, x) -> Membership:
    """Tolerance-based membership test.

    Halfspaces report Inside / Boundary / Outside; hyperplanes report
    OnPlane / Off.
    """
    xv = checked_point((s,), x)
    value = float(np.dot(xv, s.u)) - s.eta
    bound = membership_bound(s, xv, MEMBERSHIP_TOL)
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


def add_row(
    basis: np.ndarray, kept: tuple[int, ...], normals: np.ndarray, offsets: np.ndarray, row: int
) -> tuple[int, ...] | None:
    """One row step of the hyperplane system with rows ``normals``, ``offsets``.

    ``basis[: len(kept)]`` holds orthonormal rows spanning the normals
    of the ``kept`` rows.  Returns ``kept + (row,)`` when the new normal
    is independent of them (:func:`linalg.extend_basis`; its unit
    residual goes to ``basis[len(kept)]``), ``kept`` when the row is
    dependent and consistent, and None when it contradicts them.  A
    dependent normal is sum_j c_j u_j over the kept rows (least
    squares); the row is consistent if its offset matches sum_j c_j eta_j
    within ``DEPENDENCE_TOL * (1 + |eta|)``.  A zero-normal row is
    consistent only if its offset is exactly zero.
    """
    v, eta = normals[row], offsets[row]
    unit = extend_basis(basis[: len(kept)], v)
    if unit is not None:
        basis[len(kept)] = unit
        return kept + (row,)
    if not v.any():
        return kept if eta == 0.0 else None
    coeff = expansion_coefficients([normals[j] for j in kept], v)
    implied = float(sum(c * offsets[j] for c, j in zip(coeff, kept)))
    return None if abs(eta - implied) > DEPENDENCE_TOL * (1.0 + abs(eta)) else kept


def reduce_hyperplane_system(planes: Sequence[Hyperplane]) -> ReducedHyperplaneSystem:
    """Prune dependent planes and detect offset contradictions.

    Rows are scanned greedily in input order with :func:`add_row`.
    Infeasibility is reported as data, never raised.
    """
    if len(planes) == 0:
        raise ValueError("need at least one hyperplane")
    checked_point(planes, planes[0].u)  # DimensionMismatch unless all share one dimension
    normals = np.array([p.u for p in planes])
    offsets = np.array([p.eta for p in planes])
    basis = np.empty_like(normals)
    kept: tuple[int, ...] = ()
    status = Feasibility.FEASIBLE
    for row in range(len(planes)):
        step = add_row(basis, kept, normals, offsets, row)
        if step is None:
            status = Feasibility.INFEASIBLE
        else:
            kept = step
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
