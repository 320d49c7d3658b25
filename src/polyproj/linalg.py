"""Inner-product primitives with one dependence tolerance.

Vectors are one-dimensional numpy arrays of finite floats.  Linear
dependence of a pair is decided relative to the Cauchy-Schwarz gap:
``u1`` and ``u2`` count as dependent when

    |u1| |u2| - |<u1, u2>|  <=  DEPENDENCE_TOL * |u1| |u2|

which is scale invariant and reduces to the exact criterion as the
tolerance goes to 0.  The residual test of :func:`extend_basis` reads
the same constant; no function takes an override.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, SingularGram

DEPENDENCE_TOL = 1e-10

SOLVE_RESIDUAL_TOL = 1e-10


def as_vector(x) -> np.ndarray:
    """Coerce to a 1-D float array, rejecting NaN/Inf and empty input."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty one-dimensional coordinate array")
    if not np.isfinite(arr).all():
        raise ValueError("coordinates must be finite")
    return arr


def check_same_dim(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:
        raise DimensionMismatch(
            f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}"
        )


def _as_block(vectors: Sequence) -> np.ndarray:
    """Stack vectors as the rows of a 2-D float array, checked as :func:`as_vector` checks one."""
    try:
        block = np.array(vectors, dtype=float)
    except ValueError:
        if len({np.shape(v) for v in vectors}) > 1:
            raise DimensionMismatch("vectors must share one dimension") from None
        raise
    if block.ndim != 2 or block.size == 0 or not np.isfinite(block).all():
        raise ValueError("expected a nonempty list of nonempty finite coordinate arrays")
    return block


def inner(x, y) -> float:
    """Euclidean inner product of two vectors of equal length."""
    xv = as_vector(x)
    yv = as_vector(y)
    check_same_dim(xv, yv)
    return float(np.dot(xv, yv))


class PairTag(enum.Enum):
    """How a pair of vectors relates: zero members, dependence, or the
    sign of their inner product when independent."""

    BOTH_ZERO = "BothZero"
    FIRST_ZERO = "FirstZero"
    SECOND_ZERO = "SecondZero"
    DEPENDENT_POSITIVE = "DependentPositive"
    DEPENDENT_NEGATIVE = "DependentNegative"
    INDEPENDENT_ORTHOGONAL = "IndependentOrthogonal"
    INDEPENDENT_POSITIVE = "IndependentPositive"
    INDEPENDENT_NEGATIVE = "IndependentNegative"


@dataclass(frozen=True)
class PairClass:
    """Classification of a vector pair plus the cosine of their angle.

    ``gamma`` is |<u1,u2>| / (|u1| |u2|), defined as 0 when either
    vector is zero and reported as exactly 1 for pairs classified
    dependent (the ratio itself can land a few ulps off 1).  It doubles
    as the linear convergence factor of the composed projections built
    on the pair.
    """

    tag: PairTag
    gamma: float

    @property
    def linearly_dependent(self) -> bool:
        """True for dependent pairs, including pairs with a zero member."""
        return self.tag in (
            PairTag.BOTH_ZERO,
            PairTag.FIRST_ZERO,
            PairTag.SECOND_ZERO,
            PairTag.DEPENDENT_POSITIVE,
            PairTag.DEPENDENT_NEGATIVE,
        )


def classify_pair(u1, u2) -> PairClass:
    """Classify a pair of vectors by dependence and inner-product sign.

    A vector is "zero" only when all coordinates are exactly zero; the
    relative tolerance governs the dependent/independent boundary only.
    """
    v1 = as_vector(u1)
    v2 = as_vector(u2)
    check_same_dim(v1, v2)
    n1 = float(np.linalg.norm(v1))
    n2 = float(np.linalg.norm(v2))
    if n1 == 0.0 and n2 == 0.0:
        return PairClass(PairTag.BOTH_ZERO, 0.0)
    if n1 == 0.0:
        return PairClass(PairTag.FIRST_ZERO, 0.0)
    if n2 == 0.0:
        return PairClass(PairTag.SECOND_ZERO, 0.0)
    ip = float(np.dot(v1, v2))
    scale = n1 * n2
    gamma = min(abs(ip) / scale, 1.0)
    if scale - abs(ip) <= DEPENDENCE_TOL * scale:
        # dependent within tolerance: report the exact-arithmetic cosine
        tag = PairTag.DEPENDENT_POSITIVE if ip > 0 else PairTag.DEPENDENT_NEGATIVE
        return PairClass(tag, 1.0)
    if abs(ip) <= DEPENDENCE_TOL * scale:
        return PairClass(PairTag.INDEPENDENT_ORTHOGONAL, gamma)
    tag = PairTag.INDEPENDENT_POSITIVE if ip > 0 else PairTag.INDEPENDENT_NEGATIVE
    return PairClass(tag, gamma)


def _gram(a: np.ndarray) -> np.ndarray:
    """Symmetrized ``a @ aᵀ`` of one block (r, d) or of a stack of blocks (n, r, d)."""
    g = a @ np.swapaxes(a, -1, -2)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def gram_matrix(vectors: Sequence) -> np.ndarray:
    """Matrix of pairwise inner products <a_i, a_j>.

    Symmetric positive semidefinite; positive definite exactly when the
    generators are linearly independent (testable via Cholesky).
    """
    if len(vectors) == 0:
        return np.zeros((0, 0))
    return _gram(_as_block(vectors))


def solve_gram_stack(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the Gram systems G(a[i]) beta[i] = b[i] of a stack of generator blocks.

    ``a`` has shape (n, r, d) and ``b`` shape (n, r), r >= 1.  Returns
    ``beta`` (n, r) and a boolean mask ``ok`` (n,).  Each system is
    solved by Cholesky; an item whose Gram matrix does not factor, or
    whose residual exceeds ``SOLVE_RESIDUAL_TOL * (1 + |b[i]|)``, has
    numerically dependent generators and gets ``ok`` False.  The stacked
    LAPACK calls give each item the bits a stack of one gives it, so
    stacking changes no result.
    """
    g = _gram(a)
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full(b.shape, np.nan), np.zeros(1, dtype=bool)
        # some item does not factor: solve the items one by one to find which
        parts = [solve_gram_stack(a[i : i + 1], b[i : i + 1]) for i in range(len(a))]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])
    # b[..., None] reads b as a stack of columns under every numpy >= 1.24
    y = np.linalg.solve(chol, b[..., None])
    beta = np.linalg.solve(np.swapaxes(chol, -1, -2), y)
    residual = (g @ beta)[..., 0] - b
    ok = np.sqrt((residual * residual).sum(-1)) <= SOLVE_RESIDUAL_TOL * (
        1.0 + np.sqrt((b * b).sum(-1))
    )
    return beta[..., 0], ok


def solve_gram(generators: Sequence, rhs) -> np.ndarray:
    """Solve G(a_1..a_m) beta = rhs for linearly independent generators.

    :func:`solve_gram_stack` on a stack of one; dependent generators
    raise SingularGram.
    """
    b = np.asarray(rhs, dtype=float)
    if b.ndim != 1 or b.shape[0] != len(generators):
        raise DimensionMismatch(
            f"rhs length {b.shape} does not match {len(generators)} generators"
        )
    if len(generators) == 0:
        return np.zeros(0)
    beta, ok = solve_gram_stack(_as_block(generators)[None], b[None])
    if not ok[0]:
        raise SingularGram("Gram matrix is singular; generators are numerically dependent")
    return beta[0]


def extend_basis(q: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """Unit residual of ``v`` against the orthonormal rows of ``q``, or None.

    ``v`` counts as dependent on the rows, and None is returned, when its
    residual is at most ``DEPENDENCE_TOL`` times its own norm.  The
    residual is ``v - (q v)ᵀ q``, taken twice (classical Gram-Schmidt
    with reorthogonalization).
    """
    r = v
    if len(q):
        r = v - (q @ v) @ q
        r = r - (q @ r) @ q
    # sqrt of a dot product: np.linalg.norm's arithmetic without its overhead
    rnorm = math.sqrt(r.dot(r))
    if rnorm <= DEPENDENCE_TOL * math.sqrt(v.dot(v)):
        return None
    return r / rnorm


def expansion_coefficients(basis: Sequence[np.ndarray], v: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of ``v`` over the vectors ``basis``, in their order."""
    if len(basis) == 0:
        return np.zeros(0)
    coeff, *_ = np.linalg.lstsq(np.stack(basis, axis=1), v, rcond=None)
    return coeff


@dataclass(frozen=True)
class IndependentSubset:
    """Greedy maximal independent subfamily of a vector list.

    ``indices`` are positions of the retained vectors, in input order.
    ``coefficients`` maps each excluded position to its expansion over
    the retained vectors (aligned with ``indices``): the least-squares
    expansion over the vectors retained before it, and zero on those
    retained after it.  Zero vectors get all-zero coefficients.
    """

    indices: tuple[int, ...]
    coefficients: dict[int, np.ndarray] = field(default_factory=dict)


def max_independent_subset(vectors: Sequence) -> IndependentSubset:
    """Greedily select a maximal linearly independent subfamily.

    Scans in input order (first vector wins ties), extending an
    orthonormal basis of the retained vectors with :func:`extend_basis`.
    """
    vecs = _as_block(vectors)
    basis = np.empty_like(vecs)
    indices: list[int] = []
    prefix: dict[int, np.ndarray] = {}
    for i, v in enumerate(vecs):
        unit = extend_basis(basis[: len(indices)], v)
        if unit is None:
            prefix[i] = expansion_coefficients([vecs[j] for j in indices], v)
        else:
            basis[len(indices)] = unit
            indices.append(i)
    coefficients = {
        i: np.concatenate([c, np.zeros(len(indices) - len(c))]) for i, c in prefix.items()
    }
    return IndependentSubset(tuple(indices), coefficients)
