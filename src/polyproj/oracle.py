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

The subsets are walked one level at a time, in groups of at most
``GRAM_STACK``.  The hyperplanes are scanned once by ``sets.add_row``;
each group's children, one boundary larger, then extend their parents'
orthonormal bases of kept rows in one stacked Gram-Schmidt step
(``linalg._extend_bases``), and each group of children is walked before
the next is built, so at most one group per level, ``MAX_INEQUALITIES``
in all, is held.  A dependent boundary keeps its parent's rows when
``add_row``'s offset rule accepts it, and otherwise ends its branch,
since every superset keeps the contradiction.  The Gram systems of the
visited subsets are solved, and their candidates checked, in stacks of
at most ``GRAM_STACK`` that keep the same number of rows
(``linalg.solve_gram_stack``); every step is elementwise, a per-row dot
or a per-item LAPACK call, so the results are bit for bit those of
reducing and solving each subset on its own.

:func:`kkt_check` evaluates the first-order optimality residuals of a
proposed projection: stationarity of the quadratic objective, primal
feasibility, dual nonnegativity, and complementary slackness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, EmptySet, TooManyConstraints
from .linalg import _extend_bases, _norm, _row_norms, as_vector, row_dots, solve_gram_stack
from .sets import Halfspace, Hyperplane, LinearSet, _consistent, add_row, checked_point, is_empty

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
    stationarity = _norm(grad)

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
    rows = [s for _, s in eq + ineq]  # a halfspace row stands for its boundary
    normals = np.array([s.u for s in rows]).reshape(len(rows), xv.shape[0])
    offsets = np.array([s.eta for s in rows])
    rhs = np.array([float(np.dot(xv, s.u)) for s in rows]) - offsets
    slack_base = 1.0 + np.abs(offsets)
    normal_norms = np.array([s.norm for s in rows])

    best: tuple[float, tuple[int, ...], np.ndarray, np.ndarray, np.ndarray] | None = None

    def consider(actives: list, kept: np.ndarray, beta: np.ndarray) -> None:
        # candidate i is x - sum_j beta[i, j] u_kept[i, j]; each step is
        # elementwise or a per-row dot, so it gets the bits it gets alone
        nonlocal best
        points = np.repeat(xv[None], len(kept), axis=0)
        for j in range(kept.shape[1]):
            points -= beta[:, j, None] * normals[kept[:, j]]
        # membership_bound's arithmetic for all rows at once
        gaps = row_dots(points[:, None, :], normals) - offsets
        gaps[:, :ne] = np.abs(gaps[:, :ne])
        bounds = tol * (slack_base + normal_norms * _row_norms(points)[:, None])
        feasible = np.flatnonzero(~(gaps > bounds).any(axis=1))
        if not len(feasible):
            return
        dists = _row_norms(points[feasible] - xv).tolist()
        dist, active, i = min(zip(dists, [actives[i] for i in feasible], feasible))
        if best is None or (dist, active) < best[:2]:
            is_eq = kept[i] < ne
            lam_full = np.zeros(m)
            lam_full[kept[i][~is_eq] - ne] = np.maximum(beta[i][~is_eq], 0.0)
            beta_full = np.zeros(ne)
            beta_full[kept[i][is_eq]] = beta[i][is_eq]
            best = (dist, active, points[i].copy(), lam_full, beta_full)

    # visited (active set, kept rows) pairs, grouped by how many rows they keep
    stacks: dict[int, list[tuple[tuple[int, ...], list[int]]]] = {}

    def solve_stack(stack: list, n: int) -> None:
        group, stack[:n] = stack[:n], []
        kept = np.array([k for _, k in group])
        beta, ok = solve_gram_stack(normals[kept], rhs[kept])
        ok = np.flatnonzero(ok & ~((beta < -tol) & (kept >= ne)).any(axis=1))
        if len(ok):
            consider([group[i][0] for i in ok], kept[ok], beta[ok])

    def visit(actives: list, kept: np.ndarray) -> None:
        stack = stacks.setdefault(kept.shape[1], [])
        stack += zip(actives, kept.tolist())
        while len(stack) >= GRAM_STACK:
            solve_stack(stack, GRAM_STACK)

    def walk(actives: list, lasts: np.ndarray, kept: np.ndarray, basis: np.ndarray, depth: int):
        # children of a group of active sets that keep the same rows count:
        # pair c adds boundary child[c] > the last of actives[parent[c]]
        counts = m - 1 - lasts
        parent = np.repeat(np.arange(len(actives)), counts)
        child = np.repeat(lasts + 1 - np.cumsum(counts) + counts, counts) + np.arange(len(parent))
        for start in range(0, len(parent), GRAM_STACK):
            par, i = parent[start : start + GRAM_STACK], child[start : start + GRAM_STACK]
            dependent, units = _extend_bases(basis[par], normals[ne + i])
            children = [actives[a] + (b,) for a, b in zip(par.tolist(), i.tolist())]
            grew = np.flatnonzero(~dependent)
            if len(grew):
                p, c = par[grew], i[grew]
                grown = [children[j] for j in grew]
                grown_kept = np.concatenate([kept[p], ne + c[:, None]], axis=1)
                visit(grown, grown_kept)
                if depth > 1:
                    grown_basis = np.concatenate([basis[p], units[:, None]], axis=1)
                    walk(grown, c, grown_kept, grown_basis, depth - 1)
            if depth > 1 and dependent.any():
                # a dependent row keeps its parent's rows, so its candidate is
                # the parent's (with a larger key) but its supersets are new;
                # one that contradicts the kept rows ends its branch
                fits = np.flatnonzero(dependent)
                fits = [j for j in fits if _consistent(kept[par[j]], normals, offsets, ne + i[j])]
                p = par[fits]
                walk([children[j] for j in fits], i[fits], kept[p], basis[p], depth - 1)

    basis = np.empty_like(normals)
    kept_eq: tuple[int, ...] | None = ()
    for row in range(ne):
        kept_eq = add_row(basis, kept_eq, normals, offsets, row)
        if kept_eq is None:
            raise EmptySet("empty intersection")
    root_kept = np.array([kept_eq], dtype=np.intp)
    if kept_eq:
        visit([()], root_kept)
    else:
        consider([()], root_kept, np.zeros((1, 0)))
    depth = min(m, xv.shape[0] - len(kept_eq))
    if depth > 0:
        walk([()], np.array([-1]), root_kept, basis[None, : len(kept_eq)], depth)
    for r in sorted(stacks):
        if stacks[r]:
            solve_stack(stacks[r], len(stacks[r]))

    if best is None:
        raise EmptySet("empty intersection")

    _, _, point, lam_full, beta_full = best
    certificate = kkt_check(sets, xv, point, lam_full, beta_full, tol)
    return OracleResult(point, certificate)
