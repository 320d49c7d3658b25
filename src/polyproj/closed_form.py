"""Closed-form projectors onto intersections of linear sets.

Two families of intersections admit explicit formulas (on prescaled sets):

* finitely many hyperplanes, via the one row scan (``linalg._scan_rows``)
  on an independent subfamily of the normals;
* a halfspace or a hyperplane, then a halfspace.  A hyperplane is a
  constraint whose multiplier is free in sign, so one body,
  :func:`project_halfspace_pair`, projects both pair families.
  Dependent normals (``linalg._dependent``) collapse the intersection to
  the whole space, one of the sets, a merged halfspace, a slab, or
  nothing (one emptiness rule, ``_contradicts``).  Independent normals
  take the point's region: INSIDE_BOTH, C1, C2 or C3 for two halfspaces;
  for a hyperplane IN_C, C3's 2x2 formula, when the plane projection
  violates the halfspace, and otherwise NOT_IN_C, C1's plane projection.

:func:`project_pair_rows` projects a block of points, each onto its own
pair, with the bits the pair projector gives each alone.

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
from .errors import DependentNormals, DimensionMismatch, EmptySet
from .linalg import _dependent, _ldexp, _norm, _prescaled, _scan_rows, row_dots
from .oracle import KKT_TOL, KktCertificate, _split, kkt_check
from .sets import Halfspace, Hyperplane, LinearSet, checked_point, is_empty, membership_bound

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


def _pair_terms(first: LinearSet, second: Halfspace, xv):
    u1, u2 = first._u, second._u
    a1 = float(np.dot(xv, u1)) - first._eta
    a2 = float(np.dot(xv, u2)) - second._eta
    return a1, a2, float(np.dot(u1, u2))


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

    Returns the region :func:`project_halfspace_pair` takes.  A pair that
    is not two halfspaces raises ValueError, and one that
    ``linalg._dependent`` calls dependent raises DependentNormals.
    """
    xv = checked_point((w1, w2), x)
    if not (isinstance(w1, Halfspace) and isinstance(w2, Halfspace)):
        raise ValueError("region labels C1, C2 and C3 need two halfspaces")
    a1, a2, q = _pair_terms(w1, w2, xv)
    if _dependent(w1._norm, w2._norm, q):
        raise DependentNormals("region labels require independent normals")
    return _region_of(a1, a2, q, w1._norm_sq, w2._norm_sq)


def _contradicts(q, eta1, eta2, n1, n2):
    """sign(q) eta1 |u2| > eta2 |u1|: a dependent plane-first or opposed pair is empty.

    Floats or arrays that broadcast.  On opposed halfspaces it decides as
    eta1 |u2| + eta2 |u1| < 0 does, since a rounded sum has the exact sum's sign.
    """
    sign = (q > 0.0) * 2.0 - 1.0  # 1.0 where q > 0, else -1.0
    return sign * eta1 * n2 > eta2 * n1


def _dependent_pair(first: LinearSet, second: Halfspace, xv, a1, q) -> ProjectionBreakdown:
    if is_empty(first) or is_empty(second):
        raise EmptySet("empty intersection")
    plane = isinstance(first, Hyperplane)
    sets = (first, second)
    n1, n2 = first._norm, second._norm

    if n1 == 0.0:  # the first set is the whole space; if n2 is 0 too, the step keeps x
        point, t = step(second, xv)
        case = "plane_is_whole_space" if plane else "second_set_only" if n2 else "whole_space"
        return ProjectionBreakdown(point, np.array([0.0, t]), sets, case=case)
    if not plane and n2 == 0.0:
        point, t = step(first, xv)
        return ProjectionBreakdown(point, np.array([t, 0.0]), sets, case="first_set_only")
    if not plane and q > 0.0:
        # The intersection is a single halfspace whose normal merges the
        # pair.  The step takes it from the prescaled sets, 2^(k1 + k2)
        # times the merged halfspace in the caller's scale, which the lone
        # multiplier refers to.
        point, t = step(Halfspace(n2 * first._u, min(first._eta * n2, second._eta * n1)), xv)
        c1, c2 = first.norm, second.norm
        merged = Halfspace(c2 * first.u, min(first.eta * c2, second.eta * c1))
        t = _ldexp(t, first._k + second._k)
        return ProjectionBreakdown(
            point, np.array([t]), (merged,), case="merged_halfspace", inputs=sets
        )

    # a plane with a zero second normal reads 0 > eta2 * n1, false as the halfspace is nonempty
    if _contradicts(q, first._eta, second._eta, n1, n2):
        raise EmptySet("empty intersection")
    if plane:
        xi1 = a1 / (n1 * n1)
        case = "halfspace_is_whole_space" if n2 == 0.0 else "plane_inside_halfspace"
        point = xv - xi1 * first._u
        return ProjectionBreakdown(point, np.array([_ldexp(xi1, first._k), 0.0]), sets, case=case)
    # opposed halfspaces: a slab
    point, t = step(first, xv)
    if t > 0.0:
        return ProjectionBreakdown(point, np.array([t, 0.0]), sets, case="slab")
    point, t = step(second, xv)
    return ProjectionBreakdown(point, np.array([0.0, t]), sets, case="slab")


def project_halfspace_pair(first: LinearSet, second: Halfspace, x) -> ProjectionBreakdown:
    """Project onto a halfspace or a hyperplane intersected with a halfspace.

    ``project_hyperplane_halfspace`` is the same function; any pairing
    other than (halfspace or hyperplane, halfspace) raises ValueError.
    Independent normals take the point's region (module docstring): two
    halfspaces get nonnegative multipliers, a hyperplane a free one.
    Dependent normals take the collapsed geometry, or raise EmptySet.
    """
    plane = isinstance(first, Hyperplane)
    if not (plane or isinstance(first, Halfspace)) or not isinstance(second, Halfspace):
        raise ValueError("each pair must be two halfspaces or a hyperplane and a halfspace")
    xv = checked_point((first, second), x)
    a1, a2, q = _pair_terms(first, second, xv)
    n1, n2 = first._norm, second._norm
    if _dependent(n1, n2, q):
        return _dependent_pair(first, second, xv, a1, q)

    n1sq, n2sq = first._norm_sq, second._norm_sq
    if plane:
        region = Region.IN_C if a2 * n1sq - a1 * q > 0.0 else Region.NOT_IN_C
    else:
        region = _region_of(a1, a2, q, n1sq, n2sq)
    g1 = g2 = 0.0
    if region is Region.C3 or region is Region.IN_C:
        det = n1sq * n2sq - q * q  # at least 1e-10 n1sq n2sq, as the pair is independent
        g1 = (n2sq * a1 - q * a2) / det
        g2 = (n1sq * a2 - q * a1) / det
        if not plane:
            g1, g2 = max(g1, 0.0), max(g2, 0.0)
    elif region is Region.C1 or region is Region.NOT_IN_C:
        g1 = a1 / n1sq
    elif region is Region.C2:
        g2 = a2 / n2sq
    # x - g1 u1 keeps a -0.0 coordinate that "- 0.0 * u2" would turn into +0.0
    u1, u2 = first._u, second._u
    point = xv - g1 * u1 if region is Region.NOT_IN_C else xv - g1 * u1 - g2 * u2
    flag = abs(q) / (n1 * n2) > ILL_CONDITIONED_GAMMA
    g = np.array([_ldexp(g1, first._k), _ldexp(g2, second._k)])
    return ProjectionBreakdown(point, g, (first, second), region=region, ill_conditioned=flag)


project_hyperplane_halfspace = project_halfspace_pair


def project_pair_rows(first: SetBlock, second: SetBlock, x) -> np.ndarray:
    """Project row i of the point block ``x`` onto the pair (first[i], second[i]).

    Each pair is two halfspaces or a hyperplane and a halfspace, in that
    order; both kinds may share a block.  Row i gets the point
    :func:`project_halfspace_pair` gives it alone, bit for bit (see
    :mod:`polyproj.atomic`); the multipliers are not returned.  Like that
    projector it reads only the prescaled sets, whose one power-of-two
    scale keeps every square and the 2x2 determinant in the float range,
    and raises EmptySet for a contradictory dependent pair.
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

    zero1, zero2 = n1 == 0.0, n2 == 0.0
    dependent = _dependent(n1, n2, q)
    both_nonzero = dependent & ~zero1 & ~zero2
    aligned = q > 0
    merged = both_nonzero & ~plane & aligned
    slab = both_nonzero & ~plane & ~aligned
    if (both_nonzero & ~merged & _contradicts(q, first.eta, second.eta, n1, n2)).any():
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
    g1, g2 = np.zeros_like(a1), np.zeros_like(a1)
    np.divide(n2sq * a1 - q * a2, det, out=g1, where=c3 | in_c)
    np.divide(n1sq * a2 - q * a1, det, out=g2, where=c3 | in_c)
    g1 = np.where(c3 & (0.0 > g1), 0.0, g1)  # max(g1, 0.0) on C3
    g2 = np.where(c3 & (0.0 > g2), 0.0, g2)
    np.divide(a1, n1sq, out=g1, where=c1 | not_in_c)
    np.divide(a2, n2sq, out=g2, where=c2)
    np.divide(a1, n1 * n1, out=g1, where=plane_only)

    # halfspace steps onto the second set, and onto the first set or, on
    # merged rows, the prescaled Halfspace(n2 * u1, min(eta1 * n2, eta2 * n1));
    # _prescaled leaves u1 as it is, and row_dots gives its |u1|^2 bit for bit
    e1, e2 = first.eta * n2, second.eta * n1
    mu = np.where(merged[:, None], n2[:, None] * u1, u1)
    mu_eta = np.where(merged, np.where(e2 < e1, e2, e1), first.eta)
    mu, k = _prescaled(mu)
    mu_eta = np.ldexp(mu_eta, k)
    mu_sq = row_dots(mu, mu)
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
    normals = np.array([p._u for p in planes])
    offsets = np.array([p._eta for p in planes])
    kept, (_, _, _, beta), consistent = _scan_rows(normals, offsets, row_dots(normals, xv) - offsets)
    if not consistent:
        raise EmptySet("empty intersection")
    point = xv.copy()
    coefficients = np.zeros(len(planes))
    for b, idx in zip(beta.tolist(), kept):
        point -= b * normals[idx]
        coefficients[idx] = _ldexp(b, planes[idx]._k)
    return ProjectionBreakdown(point, coefficients, tuple(planes))


def project(sets: Sequence[LinearSet], x) -> ProjectionBreakdown:
    """Project onto a family of sets that has a closed form.

    The families are hyperplane systems, one halfspace (one ``atomic.step``)
    and two sets with a halfspace among them (:func:`project_halfspace_pair`,
    a hyperplane first).  A member that is not a set raises TypeError before
    dispatch; any other family raises ValueError.
    """
    xv = checked_point(sets, x)
    hyperplanes, halfspaces = _split(sets)
    if not halfspaces:
        return project_hyperplanes(hyperplanes, xv)
    if len(sets) == 1:
        if is_empty(halfspaces[0]):
            raise EmptySet("empty intersection")
        point, t = step(halfspaces[0], xv)
        return ProjectionBreakdown(point, np.array([t]), tuple(halfspaces))
    if len(sets) == 2:
        return project_halfspace_pair(*hyperplanes, *halfspaces, xv)
    raise ValueError(
        "closed_form supports hyperplane systems, one halfspace, halfspace pairs, "
        "and hyperplane+halfspace pairs"
    )


def certify(bd: ProjectionBreakdown, x, tol: float = KKT_TOL) -> KktCertificate:
    """KKT certificate of a breakdown against the sets its multipliers refer to.

    The point must also lie in every input set within ``membership_bound``
    at ``tol``, read on the prescaled set.  This is the one check of that
    relative bound, as ``kkt_check`` reads raw gaps: a halfspace with
    |u| = 1e-20 passes there far outside it.  A merged pair is certified
    against its merged halfspace, which a near-dependent pair only
    approximates.  A violation of an input set makes the certificate
    invalid and raises ``feasibility_residual`` to the worst violation.
    """
    lam = [c for c, s in zip(bd.coefficients, bd.sets) if isinstance(s, Halfspace)]
    beta = [c for c, s in zip(bd.coefficients, bd.sets) if isinstance(s, Hyperplane)]
    cert = kkt_check(bd.sets, x, bd.point, lam, beta, tol)
    p = bd.point
    # |<p,u> - eta| for hyperplanes, <p,u> - eta for halfspaces, judged on
    # the prescaled set, where it is ldexp(gap, k)
    gaps = [float(np.dot(p, s.u)) - s.eta for s in bd.inputs]
    gaps = [abs(g) if isinstance(s, Hyperplane) else g for s, g in zip(bd.inputs, gaps)]
    bounds = [membership_bound(s._eta, s._norm, _norm(p), tol) for s in bd.inputs]
    if any(_ldexp(g, s._k) > b for s, g, b in zip(bd.inputs, gaps, bounds)):
        cert = replace(cert, feasibility_residual=max(cert.feasibility_residual, *gaps), valid=False)
    return cert
