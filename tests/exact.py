"""Exact projection onto an intersection of hyperplanes and halfspaces.

A referee for ``polyproj.oracle_project`` that shares none of its linear
algebra.  Every float input converts to a ``Fraction`` exactly, and every
solve, feasibility test and sign test below is exact, with no tolerance.

Why the enumeration is complete.  The projection p of x is the unique
feasible point with x - p = sum_i lam_i u_i + w, where lam_i >= 0 runs over
inequalities active at p and w lies in the span W of the hyperplane
normals.  Carathéodory's theorem for cones, applied modulo W, lets the
u_i with lam_i > 0 be chosen linearly independent modulo W.  Together
with a basis of the hyperplane normals they form independent rows, so p is
the projection onto the affine set of those rows, with nonnegative
multipliers on the inequality rows.  Conversely, a feasible candidate of
that form satisfies the KKT conditions of the convex problem, so it is p.
The referee therefore tries every inequality subset whose rows, with the
hyperplane basis, are independent (at most d rows), and returns the first
feasible candidate with nonnegative multipliers.  When there is none, the
intersection is empty.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def exact_vector(v) -> list[Fraction]:
    return [Fraction(float(c)) for c in v]


def _dot(a, b) -> Fraction:
    return sum((p * q for p, q in zip(a, b)), Fraction(0))


def _solve(matrix, rhs):
    """Solve ``matrix @ y = rhs`` by exact Gauss-Jordan elimination; None when singular."""
    n = len(rhs)
    aug = [list(row) + [r] for row, r in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def _affine_projection(rows, x):
    """Projection of x onto {y : <n, y> = eta for (n, eta) in rows} and its
    multipliers, for independent rows; None when the rows are dependent."""
    gram = [[_dot(a, b) for b, _ in rows] for a, _ in rows]
    mu = _solve(gram, [_dot(n, x) - eta for n, eta in rows])
    if mu is None:
        return None
    point = list(x)
    for m, (n, _) in zip(mu, rows):
        point = [p - m * c for p, c in zip(point, n)]
    return point, mu


def exact_project(sets, x) -> list[Fraction] | None:
    """The exact projection of ``x`` onto the intersection of ``sets``, or
    None when the intersection is empty.

    ``sets`` are objects with ``kind`` ("hyperplane" or "halfspace"),
    ``u`` and ``eta``, read as the exact rationals their floats denote.
    """
    xs = exact_vector(x)
    eq = [(exact_vector(s.u), Fraction(float(s.eta))) for s in sets if s.kind == "hyperplane"]
    ineq = [(exact_vector(s.u), Fraction(float(s.eta))) for s in sets if s.kind == "halfspace"]

    basis = []
    for row in eq:
        if _affine_projection(basis + [row], xs) is not None:
            basis.append(row)

    def feasible(p):
        return all(_dot(n, p) == eta for n, eta in eq) and all(
            _dot(n, p) <= eta for n, eta in ineq
        )

    for k in range(len(xs) - len(basis) + 1):
        for subset in combinations(ineq, k):
            solved = _affine_projection(basis + list(subset), xs)
            if solved is None:
                continue
            point, mu = solved
            if all(m >= 0 for m in mu[len(basis):]) and feasible(point):
                return point
    return None
