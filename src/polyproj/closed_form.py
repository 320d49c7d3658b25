"""Closed-form projectors onto intersections of linear sets.

Three intersections admit explicit formulas:

* finitely many hyperplanes, via a Gram solve on an independent
  subfamily of the normals;
* two halfspaces, split into a dependent-normal dispatch (the
  intersection collapses to the whole space, one of the sets, a single
  halfspace with a merged normal, a slab, or nothing) and an
  independent-normal dispatch over four point regions;
* a hyperplane and a halfspace, where the multiplier on the halfspace
  normal is either strictly positive (both boundaries active) or zero
  (the plane projection already satisfies the halfspace).

Every projector returns a :class:`ProjectionBreakdown` carrying the
projected point together with the sets it used and a multiplier on
each, so :func:`certify` can verify the result independently through
the KKT residuals in :mod:`polyproj.oracle`; :func:`project` picks the
projector for a family of sets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .atomic import halfspace_step
from .errors import DependentNormals, EmptySet
from .linalg import PairTag, as_vector, classify_pair, solve_gram
from .oracle import KKT_TOL, KktCertificate, kkt_check
from .sets import (
    Feasibility,
    Halfspace,
    Hyperplane,
    LinearSet,
    checked_point,
    is_empty,
    reduce_hyperplane_system,
)

ILL_CONDITIONED_GAMMA = 1.0 - 1e-6


class Region(enum.Enum):
    """Which multiplier branch applies at a query point.

    INSIDE_BOTH / C1 / C2 / C3 partition the space for a halfspace
    pair with independent normals; IN_C / NOT_IN_C split it for a
    hyperplane-halfspace pair.
    """

    INSIDE_BOTH = "InsideBoth"
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    IN_C = "InC"
    NOT_IN_C = "NotInC"


@dataclass(frozen=True)
class ProjectionBreakdown:
    """A projected point plus the sets and multipliers that produce it.

    ``coefficients[i]`` is the multiplier on ``sets[i]``; the invariant
    ``point == x - sum(coefficients[i] * normals[i])`` holds to machine
    precision, and halfspace multipliers are nonnegative.  The sets are
    the projector's inputs, except in the ``merged_halfspace`` case,
    whose one set is the halfspace the pair merges into.
    ``case`` labels the dependent-normal branch taken (None on the
    independent path), and ``ill_conditioned`` flags independent pairs
    whose normals are within 1e-6 of dependence: the formulas still
    evaluate but the 2x2 determinant is vanishing.
    """

    point: np.ndarray
    coefficients: np.ndarray
    sets: tuple[LinearSet, ...]
    region: Region | None = None
    case: str | None = None
    ill_conditioned: bool = False

    @property
    def normals(self) -> tuple[np.ndarray, ...]:
        return tuple(s.u for s in self.sets)

    def reconstruction(self, x) -> np.ndarray:
        """Recompute the point from x and the recorded multipliers."""
        p = as_vector(x).copy()
        for c, u in zip(self.coefficients, self.normals):
            p -= c * u
        return p


def _pair_terms(s1_set, s2_set, xv):
    u1, u2 = s1_set.u, s2_set.u
    a1 = float(np.dot(xv, u1)) - s1_set.eta
    a2 = float(np.dot(xv, u2)) - s2_set.eta
    q = float(np.dot(u1, u2))
    n1sq = float(np.dot(u1, u1))
    n2sq = float(np.dot(u2, u2))
    return a1, a2, q, n1sq, n2sq


def _region_of(a1, a2, q, n1sq, n2sq) -> Region:
    # Ties fall to the earlier, non-strict branch; the four cases
    # partition the space when the normals are independent.
    if a1 <= 0.0 and a2 <= 0.0:
        return Region.INSIDE_BOTH
    if a1 > 0.0 and n1sq * a2 <= q * a1:
        return Region.C1
    if a2 > 0.0 and n2sq * a1 <= q * a2:
        return Region.C2
    return Region.C3


def classify_region_halfspace_pair(w1: Halfspace, w2: Halfspace, x) -> Region:
    """Locate a point relative to a halfspace pair with independent normals.

    Raises DependentNormals when the pair is (numerically) dependent;
    the dependent dispatch inside :func:`project_halfspace_pair` covers
    that geometry instead.
    """
    xv = checked_point((w1, w2), x)
    pc = classify_pair(w1.u, w2.u)
    if pc.linearly_dependent:
        raise DependentNormals("region labels require independent normals")
    return _region_of(*_pair_terms(w1, w2, xv))


def _dependent_pair(w1: Halfspace, w2: Halfspace, xv, pc) -> ProjectionBreakdown:
    if is_empty(w1) or is_empty(w2):
        raise EmptySet("empty intersection")
    u1, u2 = w1.u, w2.u
    n1 = float(np.linalg.norm(u1))
    n2 = float(np.linalg.norm(u2))

    if n1 == 0.0 and n2 == 0.0:
        return ProjectionBreakdown(
            xv.copy(), np.zeros(2), (w1, w2), case="whole_space"
        )
    if n2 == 0.0:
        point, t = halfspace_step(w1, xv)
        return ProjectionBreakdown(
            point, np.array([t, 0.0]), (w1, w2), case="first_set_only"
        )
    if n1 == 0.0:
        point, t = halfspace_step(w2, xv)
        return ProjectionBreakdown(
            point, np.array([0.0, t]), (w1, w2), case="second_set_only"
        )

    if pc.tag is PairTag.DEPENDENT_POSITIVE:
        # The intersection is a single halfspace whose normal merges the
        # pair; the lone multiplier refers to that merged halfspace.
        merged = Halfspace(n2 * u1, min(w1.eta * n2, w2.eta * n1))
        point, t = halfspace_step(merged, xv)
        return ProjectionBreakdown(
            point, np.array([t]), (merged,), case="merged_halfspace"
        )

    # Opposite normals: a slab, or nothing when the offsets contradict.
    if w1.eta * n2 + w2.eta * n1 < 0.0:
        raise EmptySet("empty intersection")
    point, t = halfspace_step(w1, xv)
    if t > 0.0:
        return ProjectionBreakdown(point, np.array([t, 0.0]), (w1, w2), case="slab")
    point, t = halfspace_step(w2, xv)
    return ProjectionBreakdown(point, np.array([0.0, t]), (w1, w2), case="slab")


def project_halfspace_pair(w1: Halfspace, w2: Halfspace, x) -> ProjectionBreakdown:
    """Project onto the intersection of two halfspaces.

    Dependent normals dispatch over the collapsed geometries; for
    independent normals the point region picks the multipliers, which
    solve the 2x2 normal system in closed form on C3.  Raises EmptySet
    when the intersection is empty.
    """
    xv = checked_point((w1, w2), x)
    pc = classify_pair(w1.u, w2.u)
    if pc.linearly_dependent:
        return _dependent_pair(w1, w2, xv, pc)

    a1, a2, q, n1sq, n2sq = _pair_terms(w1, w2, xv)
    region = _region_of(a1, a2, q, n1sq, n2sq)
    flag = pc.gamma > ILL_CONDITIONED_GAMMA
    u1, u2 = w1.u, w2.u
    if region is Region.INSIDE_BOTH:
        g1, g2 = 0.0, 0.0
    elif region is Region.C1:
        g1, g2 = a1 / n1sq, 0.0
    elif region is Region.C2:
        g1, g2 = 0.0, a2 / n2sq
    else:
        det = n1sq * n2sq - q * q
        g1 = max((n2sq * a1 - q * a2) / det, 0.0)
        g2 = max((n1sq * a2 - q * a1) / det, 0.0)
    point = xv - g1 * u1 - g2 * u2
    return ProjectionBreakdown(
        point, np.array([g1, g2]), (w1, w2), region=region, ill_conditioned=flag
    )


def project_hyperplane_halfspace(h1: Hyperplane, w2: Halfspace, x) -> ProjectionBreakdown:
    """Project onto the intersection of a hyperplane and a halfspace.

    With independent normals the intersection is never empty: the
    halfspace multiplier is strictly positive exactly when the plain
    plane projection violates the halfspace (region IN_C), and zero
    otherwise.  With dependent normals the intersection is the plane,
    the halfspace, or empty.
    """
    xv = checked_point((h1, w2), x)
    pc = classify_pair(h1.u, w2.u)
    u1, u2 = h1.u, w2.u

    if pc.linearly_dependent:
        if is_empty(h1) or is_empty(w2):
            raise EmptySet("empty intersection")
        n1 = float(np.linalg.norm(u1))
        n2 = float(np.linalg.norm(u2))
        if n1 == 0.0:
            point, t = halfspace_step(w2, xv)
            return ProjectionBreakdown(
                point, np.array([0.0, t]), (h1, w2), case="plane_is_whole_space"
            )
        if n2 == 0.0:
            xi1 = (float(np.dot(xv, u1)) - h1.eta) / (n1 * n1)
            return ProjectionBreakdown(
                xv - xi1 * u1,
                np.array([xi1, 0.0]),
                (h1, w2),
                case="halfspace_is_whole_space",
            )
        sign = 1.0 if pc.tag is PairTag.DEPENDENT_POSITIVE else -1.0
        if sign * h1.eta * n2 > w2.eta * n1:
            raise EmptySet("empty intersection")
        xi1 = (float(np.dot(xv, u1)) - h1.eta) / (n1 * n1)
        return ProjectionBreakdown(
            xv - xi1 * u1,
            np.array([xi1, 0.0]),
            (h1, w2),
            case="plane_inside_halfspace",
        )

    a1, a2, q, n1sq, n2sq = _pair_terms(h1, w2, xv)
    flag = pc.gamma > ILL_CONDITIONED_GAMMA
    active = a2 * n1sq - a1 * q
    if active > 0.0:
        det = n1sq * n2sq - q * q
        xi1 = (a1 * n2sq - a2 * q) / det
        xi2 = active / det
        point = xv - xi1 * u1 - xi2 * u2
        return ProjectionBreakdown(
            point,
            np.array([xi1, xi2]),
            (h1, w2),
            region=Region.IN_C,
            ill_conditioned=flag,
        )
    xi1 = a1 / n1sq
    return ProjectionBreakdown(
        xv - xi1 * u1,
        np.array([xi1, 0.0]),
        (h1, w2),
        region=Region.NOT_IN_C,
        ill_conditioned=flag,
    )


def project_hyperplanes(planes: Sequence[Hyperplane], x) -> ProjectionBreakdown:
    """Project onto the intersection of finitely many hyperplanes.

    The system is first pruned to an independent subfamily; redundant
    planes get zero multipliers, and an inconsistent system raises
    EmptySet.  On the retained planes the multipliers solve the Gram
    system of the normals.
    """
    if len(planes) == 0:
        raise ValueError("need at least one hyperplane")
    xv = checked_point(planes, x)
    reduced = reduce_hyperplane_system(planes)
    if reduced.status is Feasibility.INFEASIBLE:
        raise EmptySet("empty intersection")
    coefficients = np.zeros(len(planes))
    if not reduced.retained:
        return ProjectionBreakdown(xv.copy(), coefficients, tuple(planes))
    rhs = [float(np.dot(xv, p.u)) - p.eta for p in reduced.retained]
    beta = solve_gram([p.u for p in reduced.retained], rhs)
    point = xv.copy()
    for b, p in zip(beta, reduced.retained):
        point -= b * p.u
    for b, idx in zip(beta, reduced.retained_indices):
        coefficients[idx] = b
    return ProjectionBreakdown(point, coefficients, tuple(planes))


def project(sets: Sequence[LinearSet], x) -> ProjectionBreakdown:
    """Project onto a family of sets that has a closed form.

    The families are hyperplane systems, halfspace pairs, and one
    hyperplane plus one halfspace (in either order); any other family
    raises ValueError.
    """
    halfspaces = [s for s in sets if isinstance(s, Halfspace)]
    hyperplanes = [s for s in sets if isinstance(s, Hyperplane)]
    if not halfspaces:
        return project_hyperplanes(hyperplanes, x)
    if len(sets) == 2 and len(halfspaces) == 2:
        return project_halfspace_pair(*halfspaces, x)
    if len(sets) == 2 and len(hyperplanes) == 1:
        return project_hyperplane_halfspace(hyperplanes[0], halfspaces[0], x)
    raise ValueError(
        "closed_form supports hyperplane systems, halfspace pairs, "
        "and hyperplane+halfspace pairs"
    )


def certify(bd: ProjectionBreakdown, x, tol: float = KKT_TOL) -> KktCertificate:
    """KKT certificate of a breakdown against the sets its multipliers refer to."""
    lam = [c for c, s in zip(bd.coefficients, bd.sets) if isinstance(s, Halfspace)]
    beta = [c for c, s in zip(bd.coefficients, bd.sets) if isinstance(s, Hyperplane)]
    return kkt_check(bd.sets, x, bd.point, lam, beta, tol)
