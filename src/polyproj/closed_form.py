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

The two pair projectors also come as one row kernel,
:func:`project_pair_rows`, which projects a block of points, each onto
its own pair, with the bits the per-point projectors give.

Every projector returns a :class:`ProjectionBreakdown` carrying the
projected point together with the sets it used and a multiplier on
each, so :func:`certify` can verify the result independently through
the KKT residuals in :mod:`polyproj.oracle`; :func:`project` picks the
projector for a family of sets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .atomic import SetBlock, _step_rows, step
from .errors import DependentNormals, DimensionMismatch, EmptySet, ZeroNormal
from .linalg import DEPENDENCE_TOL, PairTag, _scan_rows, classify_pair, row_dots
from .oracle import KKT_TOL, KktCertificate, kkt_check
from .sets import (
    _TINY,
    Halfspace,
    Hyperplane,
    LinearSet,
    checked_point,
    is_empty,
    membership_bound,
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
    whose one set is the halfspace the pair merges into; ``inputs``
    always holds the projector's input sets (it defaults to ``sets``).
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
    inputs: tuple[LinearSet, ...] = ()

    def __post_init__(self):
        if not self.inputs:
            object.__setattr__(self, "inputs", self.sets)

    @property
    def normals(self) -> tuple[np.ndarray, ...]:
        return tuple(s.u for s in self.sets)


def _pair_terms(s1_set, s2_set, xv):
    u1, u2 = s1_set.u, s2_set.u
    a1 = float(np.dot(xv, u1)) - s1_set.eta
    a2 = float(np.dot(xv, u2)) - s2_set.eta
    q = float(np.dot(u1, u2))
    return a1, a2, q, s1_set.norm_sq, s2_set.norm_sq


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


def _determinant(n1sq, n2sq, q) -> float:
    det = n1sq * n2sq - q * q  # positive for an independent pair unless it underflows
    if det < _TINY:
        raise ZeroNormal("determinant of the normals underflows")
    return det


def _dependent_pair(w1: Halfspace, w2: Halfspace, xv, pc) -> ProjectionBreakdown:
    if is_empty(w1) or is_empty(w2):
        raise EmptySet("empty intersection")
    u1 = w1.u
    n1, n2 = w1.norm, w2.norm

    if n1 == 0.0 and n2 == 0.0:
        return ProjectionBreakdown(
            xv.copy(), np.zeros(2), (w1, w2), case="whole_space"
        )
    if n2 == 0.0:
        point, t = step(w1, xv)
        return ProjectionBreakdown(
            point, np.array([t, 0.0]), (w1, w2), case="first_set_only"
        )
    if n1 == 0.0:
        point, t = step(w2, xv)
        return ProjectionBreakdown(
            point, np.array([0.0, t]), (w1, w2), case="second_set_only"
        )

    if pc.tag is PairTag.DEPENDENT_POSITIVE:
        # The intersection is a single halfspace whose normal merges the
        # pair; the lone multiplier refers to that merged halfspace.
        merged = Halfspace(n2 * u1, min(w1.eta * n2, w2.eta * n1))
        point, t = step(merged, xv)
        return ProjectionBreakdown(
            point, np.array([t]), (merged,), case="merged_halfspace", inputs=(w1, w2)
        )

    # Opposite normals: a slab, or nothing when the offsets contradict.
    if w1.eta * n2 + w2.eta * n1 < 0.0:
        raise EmptySet("empty intersection")
    point, t = step(w1, xv)
    if t > 0.0:
        return ProjectionBreakdown(point, np.array([t, 0.0]), (w1, w2), case="slab")
    point, t = step(w2, xv)
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
        det = _determinant(n1sq, n2sq, q)
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
        n1, n2 = h1.norm, w2.norm
        if n1 == 0.0:
            point, t = step(w2, xv)
            return ProjectionBreakdown(
                point, np.array([0.0, t]), (h1, w2), case="plane_is_whole_space"
            )
        # a zero second normal makes the test 0 > eta2 * n1, false once w2 is nonempty
        sign = 1.0 if pc.tag is PairTag.DEPENDENT_POSITIVE else -1.0
        if sign * h1.eta * n2 > w2.eta * n1:
            raise EmptySet("empty intersection")
        xi1 = (float(np.dot(xv, u1)) - h1.eta) / (n1 * n1)
        case = "halfspace_is_whole_space" if n2 == 0.0 else "plane_inside_halfspace"
        return ProjectionBreakdown(xv - xi1 * u1, np.array([xi1, 0.0]), (h1, w2), case=case)

    a1, a2, q, n1sq, n2sq = _pair_terms(h1, w2, xv)
    flag = pc.gamma > ILL_CONDITIONED_GAMMA
    active = a2 * n1sq - a1 * q
    if active > 0.0:
        det = _determinant(n1sq, n2sq, q)
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


def project_pair_rows(first: SetBlock, second: SetBlock, x) -> np.ndarray:
    """Project row i of the point block ``x`` onto the pair (first[i], second[i]).

    Each pair is two halfspaces or a hyperplane and a halfspace, in that
    order; both kinds may share a block.  Row i gets the point
    :func:`project_halfspace_pair` or :func:`project_hyperplane_halfspace`
    gives it alone, bit for bit (see :mod:`polyproj.atomic`); the
    multipliers are not returned.  Like those projectors it raises
    EmptySet for a contradictory dependent pair and ZeroNormal when a
    merged normal or the determinant of an independent pair underflows.
    """
    if second.is_hyperplane.any():
        raise ValueError("each pair must be two halfspaces or a hyperplane and a halfspace")
    if first.u.shape != second.u.shape:
        raise DimensionMismatch(f"set blocks have shapes {first.u.shape} and {second.u.shape}")
    xb = first.points(x)
    u1, u2 = first.u, second.u
    n1, n2, n1sq, n2sq = first.norm, second.norm, first.norm_sq, second.norm_sq
    plane = first.is_hyperplane
    a1 = row_dots(xb, u1) - first.eta
    a2 = row_dots(xb, u2) - second.eta
    q = row_dots(u1, u2)

    # classify_pair: a zero member makes the pair dependent
    zero1, zero2 = n1 == 0.0, n2 == 0.0
    scale = n1 * n2
    dependent = zero1 | zero2 | (scale - np.abs(q) <= DEPENDENCE_TOL * scale)
    both_nonzero = dependent & ~zero1 & ~zero2
    aligned = q > 0
    merged = both_nonzero & ~plane & aligned
    slab = both_nonzero & ~plane & ~aligned
    plane_sign_eta = np.where(aligned, first.eta, -first.eta)
    if (slab & (first.eta * n2 + second.eta * n1 < 0.0)).any() or (
        both_nonzero & plane & (plane_sign_eta * n2 > second.eta * n1)
    ).any():
        raise EmptySet("empty intersection")

    # multipliers: (g1, g2) of an independent pair's region, and g1 of a
    # plane projection, which a dependent plane divides by n1*n1
    halves = ~dependent & ~plane
    inside = (a1 <= 0.0) & (a2 <= 0.0)
    c1 = halves & ~inside & (a1 > 0.0) & (n1sq * a2 <= q * a1)
    c2 = halves & ~inside & ~c1 & (a2 > 0.0) & (n2sq * a1 <= q * a2)
    c3 = halves & ~inside & ~c1 & ~c2
    in_c = ~dependent & plane & (a2 * n1sq - a1 * q > 0.0)
    not_in_c = ~dependent & plane & ~in_c
    plane_only = dependent & plane & ~zero1
    det = n1sq * n2sq - q * q
    if ((c3 | in_c) & (det < _TINY)).any():
        raise ZeroNormal("determinant of the normals underflows")
    g1, g2 = np.zeros_like(a1), np.zeros_like(a1)
    np.divide(n2sq * a1 - q * a2, det, out=g1, where=c3 | in_c)
    np.divide(n1sq * a2 - q * a1, det, out=g2, where=c3 | in_c)
    g1 = np.where(c3 & (0.0 > g1), 0.0, g1)  # max(g1, 0.0) on C3
    g2 = np.where(c3 & (0.0 > g2), 0.0, g2)
    np.divide(a1, n1sq, out=g1, where=c1 | not_in_c)
    np.divide(a2, n2sq, out=g2, where=c2)
    np.divide(a1, n1 * n1, out=g1, where=plane_only)

    # halfspace steps onto the second set, and onto the first set or, on
    # merged rows, Halfspace(n2 * u1, min(eta1 * n2, eta2 * n1)); where
    # mu is u1, row_dots gives its |u1|^2 bit for bit
    mu = np.where(merged[:, None], n2[:, None] * u1, u1)
    mu_sq = row_dots(mu, mu)
    if (merged & (mu_sq < _TINY) & mu.any(axis=1)).any():
        raise ZeroNormal("merged normal is nonzero but its squared norm underflows")
    e1, e2 = first.eta * n2, second.eta * n1
    mu_eta = np.where(merged, np.where(e2 < e1, e2, e1), first.eta)
    onto_first, moved = _step_rows(mu, mu_eta, mu_sq, np.sqrt(mu_sq), False, xb)
    onto_second = _step_rows(u2, second.eta, n2sq, n2, False, xb)[0]
    take_first = ~plane & ~zero1 & (zero2 | merged | (slab & moved))
    take_second = (dependent & zero1) | (slab & ~moved)

    one_normal = xb - g1[:, None] * u1
    out = np.where(take_second[:, None], onto_second, onto_first)
    out = np.where((not_in_c | plane_only)[:, None], one_normal, out)
    return np.where((halves | in_c)[:, None], one_normal - g2[:, None] * u2, out)


def project_hyperplanes(planes: Sequence[Hyperplane], x) -> ProjectionBreakdown:
    """Project onto the intersection of finitely many hyperplanes.

    One row scan (``linalg._scan_rows``) keeps an independent subfamily
    and carries its multipliers, one bordered step per kept plane;
    redundant planes get zero multipliers, and an inconsistent system
    raises EmptySet.  The point is x minus the multipliers times the
    kept normals.
    """
    if len(planes) == 0:
        raise ValueError("need at least one hyperplane")
    xv = checked_point(planes, x)
    offsets = np.array([p.eta for p in planes])
    rhs = np.array([float(np.dot(xv, p.u)) for p in planes]) - offsets
    kept, (_, _, _, beta), consistent = _scan_rows(np.array([p.u for p in planes]), offsets, rhs)
    if not consistent:
        raise EmptySet("empty intersection")
    point = xv.copy()
    coefficients = np.zeros(len(planes))
    for b, idx in zip(beta, kept):
        point -= b * planes[idx].u
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
    """KKT certificate of a breakdown against the sets its multipliers refer to.

    The point must also lie in every input set within ``membership_bound``
    at ``tol``.  A merged pair is certified against its merged halfspace,
    which a near-dependent pair only approximates; a violation of an
    input set makes the certificate invalid and raises
    ``feasibility_residual`` to the worst violation.  For every other
    breakdown the input sets are the certified sets, whose violations
    beyond ``tol`` already fail the certificate, so the check changes
    nothing there.
    """
    lam = [c for c, s in zip(bd.coefficients, bd.sets) if isinstance(s, Halfspace)]
    beta = [c for c, s in zip(bd.coefficients, bd.sets) if isinstance(s, Hyperplane)]
    cert = kkt_check(bd.sets, x, bd.point, lam, beta, tol)
    p = bd.point
    # |<p,u> - eta| for hyperplanes, <p,u> - eta for halfspaces
    gaps = [float(np.dot(p, s.u)) - s.eta for s in bd.inputs]
    gaps = [abs(g) if isinstance(s, Hyperplane) else g for s, g in zip(bd.inputs, gaps)]
    if any(g > membership_bound(s, p, tol) for s, g in zip(bd.inputs, gaps)):
        cert = replace(cert, feasibility_residual=max(cert.feasibility_residual, *gaps), valid=False)
    return cert
