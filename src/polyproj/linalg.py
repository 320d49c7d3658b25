"""Inner-product primitives, one dependence tolerance, and the row step.

Vectors are one-dimensional numpy arrays of finite floats, and rows are
prescaled by the one power-of-two rule of :mod:`polyproj.sets`
(:func:`_prescaled`).  Linear dependence is decided relative to the
Cauchy-Schwarz gap:
``u1`` and ``u2`` count as dependent when

    |u1| |u2| - |<u1, u2>|  <=  DEPENDENCE_TOL * |u1| |u2|

which is scale invariant and reduces to the exact criterion as the
tolerance goes to 0.  The one greedy row scan :func:`_scan_rows` keeps a
row when its residual against the kept rows (:func:`_residual`)
exceeds the same constant times its norm; a kept row updates the
multipliers by one bordered step, with no Gram matrix and no LAPACK
call.  The scan borders in place on buffers it allocates once
(:func:`_border_row`) and checks a dropped row's offset with the one
rule :func:`_consistent`; the oracle's stacked walk grows its stacks
with :func:`_extend_bases` and :func:`_border`, which give each item
the bits of the scan's one-row step, and drops a dependent row without
an offset check.  No function takes a tolerance override.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, SingularGram

DEPENDENCE_TOL = 1e-10


def as_vector(x) -> np.ndarray:
    """Coerce to a 1-D float array, rejecting NaN/Inf and empty input."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty one-dimensional coordinate array")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError("coordinates must be finite")
    return arr


def _as_block(vectors: Sequence) -> np.ndarray:
    """Stack vectors as the rows of a 2-D float array, checked as :func:`as_vector` checks one."""
    try:
        block = np.array(vectors, dtype=float)
    except ValueError:
        if len({np.shape(v) for v in vectors}) > 1:
            raise DimensionMismatch("vectors must share one dimension") from None
        raise
    if block.ndim != 2 or block.size == 0 or np.count_nonzero(np.isfinite(block)) != block.size:
        raise ValueError("expected a nonempty list of nonempty finite coordinate arrays")
    return block


def inner(x, y) -> float:
    """Euclidean inner product of two vectors of equal length."""
    xv = as_vector(x)
    yv = as_vector(y)
    if xv.shape != yv.shape:
        raise DimensionMismatch(f"dimension mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    return float(np.dot(xv, yv))


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` of a 1-D float array, bit for bit, without its overhead.

    A square that overflows (and warns) is taken again on ``v / max |v_i|``.
    """
    norm = math.sqrt(float(v.dot(v)))
    if norm == math.inf:
        scale = float(np.abs(v).max())
        norm = scale * _norm(v / scale)
    return norm


def _ldexp(v: float, k: int) -> float:
    """``v * 2**k``, exact as ``math.ldexp`` is, but a signed inf where that raises OverflowError."""
    try:
        return math.ldexp(v, k)
    except OverflowError:
        return math.copysign(math.inf, v)


def _prescaled(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, k): row i of ``block`` times ``2**k[i]``, putting its largest entry in [0.5, 1)."""
    k = -np.frexp(np.abs(block).max(axis=1))[1]
    return np.ldexp(block, k[:, None]), k


def _row_norms(v: np.ndarray) -> np.ndarray:
    """:func:`_norm` of each row of a 2-D float array, bit for bit (see :func:`row_dots`)."""
    norms = np.sqrt(row_dots(v, v))
    if np.maximum.reduce(norms, initial=0.0) == math.inf:
        big = np.isinf(norms)
        norms[big] = [_norm(row) for row in v[big]]
    return norms


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product of each row pair: ``out[i] == a[i].dot(b[i])``, bit for bit.

    The row kernels rest on this (see :mod:`polyproj.atomic`).  numpy's
    matmul runs each (1, d) @ (d, 1) item as one BLAS ``ddot``, the call
    ``ndarray.dot`` makes for a pair of vectors, so every row gets the
    bits of the per-row dot.  ``(a * b).sum(-1)`` and ``einsum``
    add in other orders and differ in the last bits on many rows;
    ``np.vecdot`` matches too but needs numpy >= 2.0.  A one-element
    ``dot`` is a plain product, which keeps a -0.0 that matmul's sum from
    +0.0 would lose, so a single column is multiplied instead.  Two 1-D
    arguments of more than one element are one row: ``a.dot(b)`` itself,
    without the stacked call's overhead.
    """
    if a.shape[-1] == 1:
        return a[..., 0] * b[..., 0]
    if a.ndim == 1 and b.ndim == 1:
        return a.dot(b)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


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


def _dependent(n1, n2, q):
    """The module's dependence rule for norms ``n1``, ``n2`` and inner product ``q``.

    True for a zero member too; floats or arrays that broadcast.
    """
    scale = n1 * n2
    return (n1 == 0.0) | (n2 == 0.0) | (scale - abs(q) <= DEPENDENCE_TOL * scale)


def classify_pair(u1, u2) -> PairClass:
    """Classify a pair of vectors by dependence and inner-product sign.

    A vector is "zero" only when all coordinates are exactly zero; the
    relative tolerance governs the dependent/independent boundary only.
    """
    v1 = as_vector(u1)
    v2 = as_vector(u2)
    if v1.shape != v2.shape:
        raise DimensionMismatch(f"dimension mismatch: {v1.shape[0]} vs {v2.shape[0]}")
    n1 = _norm(v1)
    n2 = _norm(v2)
    if n1 == 0.0 and n2 == 0.0:
        return PairClass(PairTag.BOTH_ZERO, 0.0)
    if n1 == 0.0:
        return PairClass(PairTag.FIRST_ZERO, 0.0)
    if n2 == 0.0:
        return PairClass(PairTag.SECOND_ZERO, 0.0)
    ip = float(np.dot(v1, v2))
    scale = n1 * n2
    gamma = min(abs(ip) / scale, 1.0)
    if _dependent(n1, n2, ip):
        # dependent within tolerance: report the exact-arithmetic cosine
        tag = PairTag.DEPENDENT_POSITIVE if ip > 0 else PairTag.DEPENDENT_NEGATIVE
        return PairClass(tag, 1.0)
    if abs(ip) <= DEPENDENCE_TOL * scale:
        return PairClass(PairTag.INDEPENDENT_ORTHOGONAL, gamma)
    tag = PairTag.INDEPENDENT_POSITIVE if ip > 0 else PairTag.INDEPENDENT_NEGATIVE
    return PairClass(tag, gamma)


def solve_gram(generators: Sequence, rhs) -> np.ndarray:
    """Solve G(a_1..a_m) beta = rhs for linearly independent generators.

    ``beta`` is the row scan's (:func:`_scan_rows`) for ``rhs``, on the
    prescaled rows; a generator the scan drops raises SingularGram.
    """
    b = np.asarray(rhs, dtype=float)
    if b.ndim != 1 or b.shape[0] != len(generators):
        raise DimensionMismatch(
            f"rhs length {b.shape} does not match {len(generators)} generators"
        )
    if len(generators) == 0:
        return np.zeros(0)
    rows, k = _prescaled(_as_block(generators))
    kept, (_, _, _, beta), _ = _scan_rows(rows, rhs=np.ldexp(b, k))
    if len(kept) < len(generators):
        raise SingularGram("Gram matrix is singular; generators are numerically dependent")
    return np.ldexp(beta, k)


def _residual(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v - (q v)ᵀ q``, taken twice (classical Gram-Schmidt with reorthogonalization).

    ``q`` is (k, d) with ``v`` (d,), or a stack (..., k, d) with columns
    ``v`` (..., d, 1).  Written as ``v - qᵀ (q v)``, each product is one
    BLAS ``gemv`` call per item: the call ``ndarray.dot`` makes for one
    row, without matmul's overhead, and matmul makes for each item of a
    stack, so every item gets the bits of the one-row call.
    """
    qt = q.swapaxes(-1, -2)
    if v.ndim == 1:
        r = v - qt.dot(q.dot(v))
        return r - qt.dot(q.dot(r))
    r = v - qt @ (q @ v)
    return r - qt @ (q @ r)


def _extend_bases(q: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extend the basis ``q[i]`` (n, k, d) by ``v[i]`` (n, d), as the scan extends its own.

    ``v[i]`` counts as dependent when its residual (:func:`_residual`) is
    at most ``DEPENDENCE_TOL`` times its own norm; each item gets the bits
    of the scan's one-row test.  Returns the mask of the dependent rows
    and the others' unit residuals.
    """
    r = _residual(q, v[..., None])[..., 0]
    rnorm = _row_norms(r)
    dependent = rnorm <= DEPENDENCE_TOL * _row_norms(v)
    independent = ~dependent
    return dependent, r[independent] / rnorm[independent, None]


def _border(w: np.ndarray, p: np.ndarray, beta: np.ndarray, q: np.ndarray, v: np.ndarray, rhs):
    """Add row ``v``, with unit residual ``q``, to the state (W, p, beta) of rows A.

    W Aᵀ = I, p = -Aᵀ beta and <p, a_i> = -rhs_i.  With a = <q, v>,
    c = W v, s = (<p, v> + rhs_v) / a and t = s / a (Greville's
    bordering), W' = [W - c ⊗ q/a; q/a], p' = p - s q and
    beta' = [beta - t c, t]: O(kd), and no normal is squared.  Shapes
    are ``w`` (..., k, d), ``p``, ``q``, ``v`` (..., d), ``beta``
    (..., k), ``rhs`` (...); every operation is elementwise, a per-row
    dot or a per-item ``gemv``, so a stack gets the one-row bits.
    """
    a = row_dots(q, v)
    c = (w @ v[..., None])[..., 0]
    s = (row_dots(p, v) + rhs) / a
    t = s / a
    wq = (q / a[..., None])[..., None, :]
    w = np.concatenate([w - c[..., None] * wq, wq], axis=-2)
    return w, p - s[..., None] * q, np.concatenate([beta - t[..., None] * c, t[..., None]], axis=-1)


def _border_row(
    w: np.ndarray, p: np.ndarray, beta: np.ndarray, k: int, q: np.ndarray, v: np.ndarray, rhs: float
) -> None:
    """:func:`_border` of one row, in place: row ``v`` becomes row ``k`` of the buffers.

    ``w`` and ``beta`` hold the state of k rows in their first k rows and
    entries, and ``p`` is stepped in place.  Every entry takes
    ``_border``'s operations on the same operands, so the state gets the
    bits of ``_border``'s result; the first row skips the empty updates.
    """
    a = row_dots(q, v)
    s = (row_dots(p, v) + rhs) / a
    t = s / a
    wq = q / a
    if k:
        c = w[:k].dot(v)
        w[:k] -= c[:, None] * wq
        beta[:k] -= t * c
    w[k] = wq
    beta[k] = t
    p -= s * q


def _consistent(w: np.ndarray, v: np.ndarray, kept_offsets: np.ndarray, offset: float) -> bool:
    """Whether a row ``v`` that depends on rows A, whose W is ``w``, has a matching offset.

    A's rows combine to v by c = W v (:func:`_border`), so the offset
    must be <c, kept_offsets> within ``DEPENDENCE_TOL * (1 + |offset|)``,
    or exactly zero for a zero normal.  Decided on floats.
    """
    if not v.any():
        return offset == 0.0
    implied = float(row_dots(w.dot(v), kept_offsets))
    return not abs(offset - implied) > DEPENDENCE_TOL * (1.0 + abs(offset))


def _scan_rows(normals: np.ndarray, offsets: np.ndarray | None = None, rhs: np.ndarray | None = None):
    """Keep each row of ``normals`` (n, d), in order, that grows the basis of those kept.

    A row is kept when its residual against the kept rows is above
    ``DEPENDENCE_TOL`` times its norm.  Returns the kept indices, their
    state ``(q, w, p, beta)``, q the orthonormal basis and the rest as in
    :func:`_border` for ``rhs`` (zeros by default), and whether every
    dropped row passed :func:`_consistent` (run only with ``offsets``, up
    to the first that fails).  On prescaled rows no product overflows,
    so at most min(n, d) rows are kept, in buffers allocated once; each
    is bordered in place (:func:`_border_row`).
    """
    n, d = normals.shape
    m = min(n, d)
    q, w, p, beta = np.empty((m, d)), np.empty((m, d)), np.zeros(d), np.empty(m)
    rhs = [0.0] * n if rhs is None else rhs.tolist()
    kept: list[int] = []
    consistent = True
    norms = _row_norms(normals).tolist()
    for row, v in enumerate(normals):
        k = len(kept)
        r = _residual(q[:k], v) if k else v
        rnorm = _norm(r)
        if rnorm <= DEPENDENCE_TOL * norms[row]:
            if consistent and offsets is not None:
                consistent = _consistent(w[:k], v, offsets[kept], float(offsets[row]))
            continue
        q[k] = r / rnorm
        _border_row(w, p, beta, k, q[k], v, rhs[row])
        kept.append(row)
    k = len(kept)
    return tuple(kept), (q[:k], w[:k], p, beta[:k]), consistent


@dataclass(frozen=True)
class IndependentSubset:
    """Greedy maximal independent subfamily of a vector list.

    ``indices`` are positions of the retained vectors, in input order.
    """

    indices: tuple[int, ...]


def max_independent_subset(vectors: Sequence) -> IndependentSubset:
    """Greedily select a maximal linearly independent subfamily.

    Scans in input order (first vector wins ties), extending an
    orthonormal basis of the prescaled vectors kept (:func:`_scan_rows`).
    """
    return IndependentSubset(_scan_rows(_prescaled(_as_block(vectors))[0])[0])
