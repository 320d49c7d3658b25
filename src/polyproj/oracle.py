"""Independent ground truth for projections onto polyhedra.

:func:`oracle_project` minimizes ``|y - x|`` over an intersection of
hyperplanes and halfspaces by brute force: for every subset of at most
d - rank(E) inequality constraints (E the hyperplanes) it solves the
equality-constrained problem (all hyperplanes plus the chosen
boundaries), then keeps the candidates that are primal feasible with
nonnegative multipliers on the chosen boundaries.  Since the
constraints are affine, the true projection is always among the
candidates, so the minimum-distance candidate is the projection.  A
larger subset adds no candidate: the boundaries it keeps after
reduction are a visited subset, reduced to the same rows.  The
enumeration is exponential by design; it exists to check the
closed-form projectors, not to replace them.

The subsets are walked depth first in lexicographic order.  The
hyperplanes are scanned once; each child then extends its parent's
orthonormal basis of kept rows by one boundary, so no prefix is scanned
twice.  Rows are added by ``sets.add_row``, the same row step
``reduce_hyperplane_system`` takes: a dependent boundary is dropped when
its offset agrees with the kept rows, and otherwise ends its branch,
since every superset keeps the contradiction.  The Gram systems of the
visited subsets are solved in stacks of at most ``GRAM_STACK``, grouped by
how many rows they keep (``linalg.solve_gram_stack``); the results are
bit for bit those of reducing and solving each subset on its own.

:func:`kkt_check` evaluates the first-order optimality residuals of a
proposed projection: stationarity of the quadratic objective, primal
feasibility, dual nonnegativity, and complementary slackness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, EmptySet, TooManyConstraints
from .linalg import as_vector, solve_gram_stack
from .sets import Halfspace, Hyperplane, LinearSet, add_row, checked_point, is_empty

MAX_INEQUALITIES = 20

# most Gram systems solved in one stacked call; bounds the stack's memory
GRAM_STACK = 256

KKT_TOL = 1e-9


@dataclass(frozen=True)
class KktCertificate:
    """First-order optimality residuals for a candidate projection.

    ``lam`` holds the inequality multipliers (input order of the
    halfspaces), ``beta`` the equality multipliers (input order of the
    hyperplanes).  The certificate is valid when every residual is at
    most ``tol`` and no inequality multiplier is below ``-tol``.
    """

    lam: np.ndarray
    beta: np.ndarray
    stationarity_residual: float
    feasibility_residual: float
    complementarity_residual: float
    tol: float
    valid: bool


def _split(sets: Sequence[LinearSet]):
    eq = [(i, s) for i, s in enumerate(sets) if isinstance(s, Hyperplane)]
    ineq = [(i, s) for i, s in enumerate(sets) if isinstance(s, Halfspace)]
    if len(eq) + len(ineq) != len(sets):
        raise TypeError("sets must be Hyperplane or Halfspace instances")
    return eq, ineq


def kkt_check(
    sets: Sequence[LinearSet],
    x,
    p,
    lam: Sequence[float],
    beta: Sequence[float],
    tol: float = KKT_TOL,
) -> KktCertificate:
    """Evaluate the KKT residuals of a proposed projection ``p`` of ``x``.

    Stationarity: |p - x + sum lam_i u_i + sum beta_j u_j|.
    Feasibility: worst constraint violation at p.
    Complementarity: max_i |lam_i * (<p,u_i> - eta_i)| over halfspaces.
    """
    eq, ineq = _split(sets)
    xv = checked_point(sets, x)
    pv = as_vector(p)
    if xv.shape != pv.shape:
        raise DimensionMismatch("x and p must share one dimension")
    lam_arr = np.asarray(lam, dtype=float)
    beta_arr = np.asarray(beta, dtype=float)
    if lam_arr.shape != (len(ineq),):
        raise DimensionMismatch(
            f"expected {len(ineq)} inequality multipliers, got {lam_arr.shape}"
        )
    if beta_arr.shape != (len(eq),):
        raise DimensionMismatch(
            f"expected {len(eq)} equality multipliers, got {beta_arr.shape}"
        )

    grad = pv - xv
    feasibility = 0.0
    complementarity = 0.0
    for mult, (_, s) in zip(lam_arr, ineq):
        grad = grad + mult * s.u
        gap = float(np.dot(pv, s.u)) - s.eta
        feasibility = max(feasibility, gap)
        complementarity = max(complementarity, abs(mult * gap))
    for mult, (_, s) in zip(beta_arr, eq):
        grad = grad + mult * s.u
        feasibility = max(feasibility, abs(float(np.dot(pv, s.u)) - s.eta))
    stationarity = float(np.linalg.norm(grad))

    valid = (
        stationarity <= tol
        and feasibility <= tol
        and complementarity <= tol
        and bool(np.all(lam_arr >= -tol))
    )
    return KktCertificate(
        lam=lam_arr,
        beta=beta_arr,
        stationarity_residual=stationarity,
        feasibility_residual=feasibility,
        complementarity_residual=complementarity,
        tol=tol,
        valid=valid,
    )


class OracleResult(NamedTuple):
    point: np.ndarray
    certificate: KktCertificate


def oracle_project(sets: Sequence[LinearSet], x, tol: float = KKT_TOL) -> OracleResult:
    """Brute-force projection onto an intersection of linear sets.

    Enumerates the subsets of at most ``d - rank(E)`` inequalities as
    candidate active sets (a larger one reduces to a visited subset with
    the same candidate); keeps candidates that are feasible for every
    constraint and whose active multipliers are nonnegative (within
    ``tol``); returns the minimum-distance candidate, breaking distance
    ties toward the lexicographically smallest active set.  Raises
    EmptySet when no subset yields a feasible point, which for affine
    constraints certifies an empty intersection.
    """
    xv = checked_point(sets, x)
    if any(is_empty(s) for s in sets):
        raise EmptySet("empty intersection")
    eq, ineq = _split(sets)
    m = len(ineq)
    if m > MAX_INEQUALITIES:
        raise TooManyConstraints(
            f"{m} inequality constraints exceed the enumeration limit of {MAX_INEQUALITIES}"
        )

    ne = len(eq)
    rows = [s for _, s in eq] + [s.boundary() for _, s in ineq]
    normals = np.array([s.u for s in rows]).reshape(len(rows), xv.shape[0])
    offsets = np.array([s.eta for s in rows])
    rhs = np.array([float(np.dot(xv, s.u)) for s in rows]) - offsets
    slack_base = 1.0 + np.abs(offsets)
    normal_norms = np.array([float(np.linalg.norm(s.u)) for s in rows])
    basis = np.empty_like(normals)

    best: tuple[float, tuple[int, ...], np.ndarray, np.ndarray, np.ndarray] | None = None

    def consider(active: tuple[int, ...], kept: np.ndarray, beta: np.ndarray) -> None:
        nonlocal best
        point = xv.copy()
        for b, row in zip(beta, kept):
            point -= b * normals[row]
        # membership_bound's arithmetic for all rows at once; per-row
        # np.dot, since a matrix product rounds differently
        gaps = np.array([np.dot(point, s.u) for s in rows]) - offsets
        gaps[:ne] = np.abs(gaps[:ne])
        bounds = tol * (slack_base + normal_norms * float(np.linalg.norm(point)))
        if (gaps > bounds).any():
            return
        dist = float(np.linalg.norm(point - xv))
        if best is None or (dist, active) < best[:2]:
            is_eq = kept < ne
            lam_full = np.zeros(m)
            lam_full[kept[~is_eq] - ne] = np.maximum(beta[~is_eq], 0.0)
            beta_full = np.zeros(ne)
            beta_full[kept[is_eq]] = beta[is_eq]
            best = (dist, active, point, lam_full, beta_full)

    # visited active sets, grouped by how many rows they keep
    stacks: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}

    def solve_stack(r: int) -> None:
        group = stacks.pop(r)
        kept = np.array([k for _, k in group])
        beta, ok = solve_gram_stack(normals[kept], rhs[kept])
        ok &= ~((beta < -tol) & (kept >= ne)).any(axis=1)
        for i in np.flatnonzero(ok):
            consider(group[i][0], kept[i], beta[i])

    def visit(active: tuple[int, ...], kept: tuple[int, ...]) -> None:
        stack = stacks.setdefault(len(kept), [])
        stack.append((active, kept))
        if len(stack) == GRAM_STACK:
            solve_stack(len(kept))

    def walk(active: tuple[int, ...], kept: tuple[int, ...], depth_left: int) -> None:
        for i in range(active[-1] + 1 if active else 0, m):
            child_kept = add_row(basis, kept, normals, offsets, ne + i)
            if child_kept is None:
                continue  # every superset keeps this contradiction
            child = active + (i,)
            # a dependent row keeps the parent's rows: same candidate, larger key
            if len(child_kept) > len(kept):
                visit(child, child_kept)
            if depth_left > 1:
                walk(child, child_kept, depth_left - 1)

    kept_eq: tuple[int, ...] | None = ()
    for row in range(ne):
        kept_eq = add_row(basis, kept_eq, normals, offsets, row)
        if kept_eq is None:
            raise EmptySet("empty intersection")
    if kept_eq:
        visit((), kept_eq)
    else:
        consider((), np.zeros(0, dtype=int), np.zeros(0))
    depth = min(m, xv.shape[0] - len(kept_eq))
    if depth > 0:
        walk((), kept_eq, depth)
    for r in sorted(stacks):
        solve_stack(r)

    if best is None:
        raise EmptySet("empty intersection")

    _, _, point, lam_full, beta_full = best
    certificate = kkt_check(sets, xv, point, lam_full, beta_full, tol)
    return OracleResult(point, certificate)
