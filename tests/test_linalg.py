import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyproj import (
    DimensionMismatch,
    Halfspace,
    Hyperplane,
    PairTag,
    SingularGram,
    classify_pair,
    inner,
    max_independent_subset,
    project_hyperplanes,
    solve_gram,
)
from polyproj.atomic import SetBlock
from polyproj.linalg import (
    DEPENDENCE_TOL,
    _as_block,
    _border,
    _consistent,
    _extend_bases,
    _norm,
    _prescaled,
    _residual,
    _row_norms,
    _scan_rows,
    as_vector,
    row_dots,
)

finite_coord = st.floats(min_value=-100.0, max_value=100.0).map(
    lambda v: 0.0 if abs(v) < 1e-6 else v
)
vectors = st.lists(finite_coord, min_size=2, max_size=6).map(np.array)
scales = st.floats(min_value=1e-2, max_value=1e2)


class TestInner:
    def test_orthogonal_axes(self):
        assert inner([1, 0], [0, 1]) == 0.0

    def test_against_direct_summation(self):
        # expected values frozen from a plain python summation loop
        cases = [(((1, 2), (3, 4)), 11.0), (((2, 3), (2, 3)), 13.0)]
        for (x, y), expected in cases:
            assert sum(a * b for a, b in zip(x, y)) == expected
            assert inner(x, y) == expected

    def test_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.normal(size=4)
            y = rng.normal(size=4)
            assert inner(x, y) == pytest.approx(inner(y, x), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inner([1, 2], [1, 2, 3])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            inner([1, float("nan")], [1, 2])


class TestFiniteCoordinates:
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_each_non_finite_position_rejected(self, dim):
        # one vector, a block of rows, and a point block for a SetBlock
        block = SetBlock([Halfspace(np.ones(dim), 0.0), Hyperplane(np.ones(dim), 0.0)])
        checks = (as_vector, lambda x: _as_block([np.ones(dim), x]), lambda x: block.points([np.ones(dim), x]))
        for bad in (math.nan, math.inf, -math.inf):
            for i in range(dim):
                x = np.ones(dim)
                x[i] = bad
                for check in checks:
                    with pytest.raises(ValueError):
                        check(x)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_huge_finite_coordinates_pass_without_warning(self, dim):
        # the square of 1e308 overflows, so a test on |x|^2 would warn or reject
        block = SetBlock([Halfspace(np.ones(dim), 0.0), Hyperplane(np.ones(dim), 0.0)])
        x = np.full(dim, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert as_vector(x).tobytes() == x.tobytes()
            assert _as_block([x, -x]).tobytes() == np.array([x, -x]).tobytes()
            assert block.points([x, -x]).tobytes() == np.array([x, -x]).tobytes()


class TestClassifyPair:
    def test_scaled_copy_is_dependent(self):
        pc = classify_pair([1, 2], [2, 4])
        assert pc.tag is PairTag.DEPENDENT_POSITIVE
        assert pc.gamma == pytest.approx(1.0, abs=1e-15)

    def test_axes_are_orthogonal(self):
        pc = classify_pair([1, 0], [0, 1])
        assert pc.tag is PairTag.INDEPENDENT_ORTHOGONAL
        assert pc.gamma == 0.0

    def test_negative_cosine(self):
        # cosine checked by hand: |<(1,0),(-1,2)>| / (1 * sqrt(5))
        pc = classify_pair([1, 0], [-1, 2])
        assert pc.tag is PairTag.INDEPENDENT_NEGATIVE
        assert pc.gamma == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-15)

    def test_zero_members(self):
        z = [0.0, 0.0]
        assert classify_pair(z, z).tag is PairTag.BOTH_ZERO
        assert classify_pair(z, [1, 0]).tag is PairTag.FIRST_ZERO
        assert classify_pair([1, 0], z).tag is PairTag.SECOND_ZERO

    @given(vectors, st.floats(min_value=-10, max_value=10).map(lambda v: v if abs(v) >= 1e-3 else 0.0))
    @settings(max_examples=200)
    def test_multiples_classified_dependent(self, u, c):
        if not np.any(u) or c == 0.0:
            return
        pc = classify_pair(u, c * u)
        if c > 0:
            assert pc.tag is PairTag.DEPENDENT_POSITIVE
        else:
            assert pc.tag is PairTag.DEPENDENT_NEGATIVE

    @given(vectors, vectors, scales, scales)
    @settings(max_examples=200)
    def test_gamma_scale_invariant(self, u1, u2, s, t):
        if u1.shape != u2.shape:
            return
        base = classify_pair(u1, u2).gamma
        scaled = classify_pair(s * u1, t * u2).gamma
        assert abs(base - scaled) <= 1e-12


class TestSolveGram:
    def test_identity_gram(self):
        beta = solve_gram([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [3.0, 4.0])
        np.testing.assert_allclose(beta, [3.0, 4.0])

    def test_two_by_two_hand_solved(self):
        # G = [[1,1],[1,2]]; G @ (0,1) = (1,2)
        beta = solve_gram([np.array([1.0, 0.0]), np.array([1.0, 1.0])], [1.0, 2.0])
        np.testing.assert_allclose(beta, [0.0, 1.0], atol=1e-12)

    def test_scalar_division(self):
        beta = solve_gram([np.array([2.0, 0.0])], [6.0])
        np.testing.assert_allclose(beta, [1.5])

    def test_round_trip_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = rng.integers(1, 4)
            dim = rng.integers(m, m + 4)
            gens = [rng.normal(size=dim) for _ in range(m)]
            rhs = rng.normal(size=m)
            beta = solve_gram(gens, rhs)
            g = np.array(gens) @ np.array(gens).T
            assert np.linalg.norm(g @ beta - rhs) <= 1e-10 * (1 + np.linalg.norm(rhs))

    def test_dependent_generators_rejected(self):
        with pytest.raises(SingularGram):
            solve_gram([np.array([1.0, 2.0]), np.array([2.0, 4.0])], [1.0, 1.0])

    def test_rhs_length_checked(self):
        with pytest.raises(DimensionMismatch):
            solve_gram([np.array([1.0, 0.0])], [1.0, 2.0])


class TestRowDots:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 9, 17])
    def test_each_row_has_the_bits_of_its_dot(self, dim):
        # a summation in another order, (a * b).sum(1) or einsum, differs
        # from the per-row dot in the last bits on many of these rows
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(2000, dim)) * 10.0 ** rng.uniform(-3, 3, size=(2000, 1))
        b = rng.normal(size=(2000, dim))
        expected = np.array([a[i].dot(b[i]) for i in range(len(a))])
        assert row_dots(a, b).tobytes() == expected.tobytes()
        assert row_dots(a, a).tobytes() == np.array([v.dot(v) for v in a]).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_signed_zeros_match_the_dot(self, dim):
        # a one-element dot of -0.0 and 1.0 is -0.0; a sum started at +0.0 gives +0.0
        rng = np.random.default_rng(dim)
        a = rng.choice([0.0, -0.0, 1.0, -2.5], size=(500, dim))
        b = rng.choice([0.0, -0.0, 1.0, -2.5], size=(500, dim))
        expected = np.array([a[i].dot(b[i]) for i in range(len(a))])
        assert row_dots(a, b).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", ["signed_zeros", "length_one", "subnormal", "overflow"])
    def test_one_dimensional_pair_has_the_stacked_bits(self, case):
        # two 1-D arguments take a.dot(b); a one-row block takes the stacked
        # matmul, or the product for a single column
        rng = np.random.default_rng(len(case))
        for _ in range(300):
            dim = 1 if case == "length_one" else int(rng.integers(2, 10))
            a, b = rng.normal(size=(2, dim))
            if case in ("signed_zeros", "length_one"):
                a = rng.choice([0.0, -0.0, 1.0, -2.5], size=dim)
                b = rng.choice([0.0, -0.0, 1.0, -2.5, rng.normal()], size=dim)
            elif case == "subnormal":
                a = a * 1e-310
            else:
                a, b = a * 1e200, b * 1e200
            with np.errstate(over="ignore", invalid="ignore"):
                got = row_dots(a, b)
                stacked = row_dots(a[None], b[None])[0]
                if dim > 1:
                    assert stacked.tobytes() == np.matmul(a[None, :], b[:, None])[0, 0].tobytes()
            assert type(got) is type(stacked) is np.float64
            assert got.tobytes() == stacked.tobytes()


class TestRowNorms:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 9])
    def test_bits_of_the_per_row_norm(self, dim):
        # the row and per-point kernels share one norm: each row of
        # _row_norms is _norm of that row, which is np.linalg.norm
        rng = np.random.default_rng(dim)
        v = rng.normal(size=(1000, dim)) * 10.0 ** rng.uniform(-150, 150, size=(1000, 1))
        v[::7] = 0.0
        v[3::11, 0] = -0.0
        got = _row_norms(v)
        assert got.tobytes() == np.array([_norm(row) for row in v]).tobytes()
        assert got.tobytes() == np.array([np.linalg.norm(row) for row in v]).tobytes()

    def test_empty_block(self):
        assert _row_norms(np.zeros((0, 3))).shape == (0,)


def extend_basis(q, v):
    """Unit residual of ``v`` against the orthonormal rows of ``q``, or None when dependent."""
    r = _residual(q, v) if len(q) else v
    rnorm = _norm(r)
    if rnorm <= DEPENDENCE_TOL * _norm(v):
        return None
    return r / rnorm


def one_row_unit(q, v):
    """The one-row basis step as a loop of 1-D products: v - (q v) q, taken twice."""
    r = v
    if len(q):
        r = v - (q @ v) @ q
        r = r - (q @ r) @ q
    rnorm = _norm(r)
    return None if rnorm <= DEPENDENCE_TOL * _norm(v) else r / rnorm


class TestExtendBases:
    @pytest.mark.parametrize("dim", [2, 5, 9])
    def test_each_row_has_the_bits_of_the_one_row_step(self, dim):
        # every k < d; a third of the rows lie in the span of their basis
        # (zero rows when k = 0) and a sixth lie 1e-12 off it
        rng = np.random.default_rng(100 + dim)
        n = 60
        for k in range(dim):
            q = np.stack([np.linalg.qr(rng.normal(size=(dim, dim)))[0][:k] for _ in range(n)])
            v = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
            v[::3] = (rng.normal(size=(n, k))[:, :, None] * q).sum(axis=1)[::3]
            v[1::6] = v[::3][: len(v[1::6])] + 1e-12 * rng.normal(size=(len(v[1::6]), dim))
            dependent, units = _extend_bases(q, v)
            for step in (extend_basis, one_row_unit):
                expected = [step(q[i], v[i]) for i in range(n)]
                assert dependent.tolist() == [e is None for e in expected]
                kept = [e for e in expected if e is not None]
                assert units.tobytes() == np.array(kept).reshape(-1, dim).tobytes()
            assert dependent[::3].all() and not dependent.all()


def scanned_states(rng, n, k, dim):
    """The states of n random stacks of k independent rows, each from a one-row scan."""
    rows = rng.normal(size=(n, k, dim)) * 10.0 ** rng.uniform(-3, 3, size=(n, k, 1))
    rhs = rng.normal(size=(n, k))
    scans = [_scan_rows(rows[i], rhs=rhs[i]) for i in range(n)]
    assert all(kept == tuple(range(k)) for kept, _, _ in scans)
    return rows, rhs, [state for _, state, _ in scans]


class TestBorderedStep:
    @pytest.mark.parametrize("dim", [2, 5, 9])
    def test_each_item_has_the_bits_of_the_one_row_step(self, dim):
        # every k < d: a stack of steps against the step of each item alone,
        # which is also the step the scan takes when it keeps the row
        rng = np.random.default_rng(200 + dim)
        n = 40
        for k in range(dim):
            rows, rows_rhs, states = scanned_states(rng, n, k, dim)
            v = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
            rhs = rng.normal(size=n)
            q, w, p, beta = (np.stack(a) for a in zip(*states))
            dependent, units = _extend_bases(q, v)
            assert not dependent.any()
            stacked = _border(w, p, beta, units, v, rhs)
            for i, (qi, wi, pi, bi) in enumerate(states):
                single = _border(wi, pi, bi, extend_basis(qi, v[i]), v[i], rhs[i])
                for got, want in zip(stacked, single):
                    assert got[i].tobytes() == want.tobytes()
                _, (_, *scanned), _ = _scan_rows(np.vstack([rows[i], v[i]]), rhs=np.append(rows_rhs[i], rhs[i]))
                for got, want in zip(single, scanned):
                    assert got.tobytes() == want.tobytes()

    def test_state_invariants(self):
        # W Aᵀ = I, <p, a_i> = -rhs_i and p = -Aᵀ beta, to rounding
        rng = np.random.default_rng(210)
        for dim in (2, 5, 9):
            for k in range(1, dim + 1):
                a = rng.normal(size=(k, dim))
                rhs = rng.normal(size=k)
                kept, (q, w, p, beta), _ = _scan_rows(a, rhs=rhs)
                assert kept == tuple(range(k))
                np.testing.assert_allclose(q @ q.T, np.eye(k), atol=1e-13)
                np.testing.assert_allclose(w @ a.T, np.eye(k), atol=1e-12)
                np.testing.assert_allclose(a @ p, -rhs, atol=1e-12)
                np.testing.assert_allclose(p, -a.T @ beta, atol=1e-12)


class TestConsistent:
    @pytest.mark.parametrize("dim", [2, 5, 9])
    def test_verdict_on_the_implied_offset(self, dim):
        # every 0 < k < d: v combines k scanned rows, each row and its offset
        # scaled alike; the implied offset, or one shifted by a tenth of the
        # tolerance, is consistent, and one shifted by ten times it is not
        rng = np.random.default_rng(300 + dim)
        n = 60
        for k in range(1, dim):
            rows, _, states = scanned_states(rng, n, k, dim)
            scale = np.linalg.norm(rows, axis=2)
            kept_offsets = rng.normal(size=(n, k)) * scale
            coeffs = rng.normal(size=(n, k)) / scale
            v = (coeffs[:, :, None] * rows).sum(axis=1)
            implied = (coeffs * kept_offsets).sum(axis=1)
            for i, (_, w, _, _) in enumerate(states):
                band = DEPENDENCE_TOL * (1.0 + abs(implied[i]))
                assert _consistent(w, v[i], kept_offsets[i], float(implied[i]))
                assert _consistent(w, v[i], kept_offsets[i], float(implied[i] + 0.1 * band))
                assert not _consistent(w, v[i], kept_offsets[i], float(implied[i] + 10.0 * band))
                assert not _consistent(w, v[i], kept_offsets[i], float(implied[i] - 10.0 * band))

    def test_zero_row_needs_a_zero_offset(self):
        w = np.eye(2)[:1]
        assert _consistent(w, np.zeros(2), np.array([3.0]), 0.0)
        assert not _consistent(w, np.zeros(2), np.array([3.0]), 1e-300)


def reference_scan(normals, offsets=None, rhs=None):
    """The row scan that regrows its state with the stacked step, one row at a time.

    Each kept row concatenates onto q and is bordered by ``_border``; a
    dropped row is checked by ``_consistent``.
    """
    d = normals.shape[1]
    q, w, p, beta = np.empty((0, d)), np.empty((0, d)), np.zeros(d), np.zeros(0)
    rhs = np.zeros(len(normals)) if rhs is None else rhs
    kept = []
    consistent = True
    with np.errstate(over="ignore"):
        for row, v in enumerate(normals):
            unit = extend_basis(q, v)
            if unit is not None:
                w, p, beta = _border(w, p, beta, unit, v, rhs[row])
                q = np.concatenate([q, unit[None]])
                kept.append(row)
            elif consistent and offsets is not None:
                consistent = _consistent(w, v, offsets[kept], float(offsets[row]))
    return tuple(kept), (q, w, p, beta), consistent


def degenerate_system(rng, dim):
    """Rows in R^dim with offsets: random rows, then zero, scaled, opposed and
    combined copies of earlier rows, each offset consistent with the copied
    rows' or shifted by 1e-12 or 0.5.  A third of the systems have zero
    offsets before the shifts; two thirds have every row and offset scaled
    by 10^[-150, 150]."""
    n = int(rng.integers(1, dim + 4))
    kind = rng.integers(3)
    offset = (lambda: 0.0) if kind == 0 else rng.normal
    rows, offsets = [rng.normal(size=dim)], [offset()]
    for i in range(1, n):
        copy = rng.choice(["random", "zero", "scaled", "opposed", "combined"])
        if copy == "random":
            rows.append(rng.normal(size=dim))
            offsets.append(offset())
            continue
        if copy == "zero":
            coeffs = np.zeros(i)
        elif copy == "combined":
            coeffs = rng.normal(size=i)
        else:
            coeffs = np.zeros(i)
            coeffs[rng.integers(i)] = rng.uniform(0.1, 10.0) * (-1.0 if copy == "opposed" else 1.0)
        rows.append(coeffs @ np.array(rows))
        offsets.append(float(coeffs @ np.array(offsets)) + rng.choice([0.0, 0.0, 1e-12, 0.5]))
    scale = 10.0 ** rng.uniform(-150, 150, size=n) if kind else np.ones(n)
    return np.array(rows) * scale[:, None], np.array(offsets) * scale


class TestScanAgainstReference:
    def assert_same_scan(self, normals, offsets=None, rhs=None):
        got_kept, got_state, got_consistent = _scan_rows(normals, offsets, rhs)
        kept, state, consistent = reference_scan(normals, offsets, rhs)
        assert got_kept == kept
        for got, want in zip(got_state, state):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got_consistent == consistent
        return kept, consistent

    @pytest.mark.parametrize("dim", range(1, 10))
    def test_degenerate_systems_have_the_reference_bits(self, dim):
        rng = np.random.default_rng(400 + dim)
        seen = {"dropped": 0, True: 0, False: 0}
        with np.errstate(over="ignore"):
            for _ in range(80):
                normals, offsets = degenerate_system(rng, dim)
                rhs = row_dots(normals, rng.normal(size=dim)) - offsets
                self.assert_same_scan(normals)
                self.assert_same_scan(normals, rhs=rhs)
                kept, consistent = self.assert_same_scan(normals, offsets, rhs)
                seen["dropped"] += len(kept) < len(normals)
                seen[consistent] += 1
        assert min(seen.values()) > 0, seen

    def test_prescaled_rows_never_overflow(self):
        # in the caller's scale <q, v> overflows on the second row, and its
        # NaN residual would count as independent; prescaled, the scan keeps
        # two rows in two dimensions and drops the rest
        normals = np.array([[0.6, 0.8], [1e308, 1.7e308], [1.0, 2.0], [3.0, 1.0]])
        kept, _ = self.assert_same_scan(_prescaled(normals)[0], np.zeros(4), np.ones(4))
        assert kept == max_independent_subset(normals).indices == (0, 1)
        point = project_hyperplanes([Hyperplane(u, 0.0) for u in normals], [1.0, 2.0]).point
        np.testing.assert_allclose(point, [0.0, 0.0], rtol=0, atol=1e-14)


class TestOverflowSafeNorms:
    def test_finite_norm_of_rows_whose_square_overflows(self):
        # the plain square overflows and warns; the rescaled norm is finite
        rng = np.random.default_rng(220)
        v = rng.normal(size=(50, 4)) * 10.0 ** rng.uniform(155, 300, size=(50, 1))
        with np.errstate(over="ignore"):
            got = _row_norms(v)
            single = [_norm(row) for row in v]
        assert got.tobytes() == np.array(single).tobytes()
        want = [math.hypot(*row) for row in v]
        np.testing.assert_allclose(got, want, rtol=1e-15)


class TestMaxIndependentSubset:
    def test_sum_of_axes(self):
        res = max_independent_subset([[1, 0], [0, 1], [1, 1]])
        assert res.indices == (0, 1)

    def test_zero_vector_excluded(self):
        res = max_independent_subset([[0, 0], [1, 0]])
        assert res.indices == (1,)

    def test_all_zero_input(self):
        res = max_independent_subset([[0, 0], [0, 0]])
        assert res.indices == ()

    def test_scaled_duplicate_excluded(self):
        # rank check oracle: (v0, v1) has rank 1, (v0, v2) rank 2
        vecs = [np.array([1.0, 2.0]), np.array([2.0, 4.0]), np.array([0.0, 1.0])]
        assert np.linalg.matrix_rank(np.array(vecs[:2])) == 1
        assert np.linalg.matrix_rank(np.array([vecs[0], vecs[2]])) == 2
        res = max_independent_subset(vecs)
        assert res.indices == (0, 2)

    def test_retained_cholesky_passes_excluded_fails(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            base = [rng.normal(size=dim) for _ in range(rng.integers(1, dim + 1))]
            vecs = list(base)
            coeffs = rng.normal(size=len(base))
            vecs.append(sum(c * v for c, v in zip(coeffs, base)))
            order = rng.permutation(len(vecs))
            vecs = [vecs[i] for i in order]
            res = max_independent_subset(vecs)
            retained = [vecs[i] for i in res.indices]
            rhs = rng.normal(size=len(retained))
            solve_gram(retained, rhs)
            excluded = [i for i in range(len(vecs)) if i not in res.indices]
            # one vector is a combination of the others, so exactly one is excluded
            assert len(excluded) == 1
            for i in excluded:
                # the positive-definiteness gate must reject the grown family
                with pytest.raises(SingularGram):
                    solve_gram(retained + [vecs[i]], rng.normal(size=len(retained) + 1))

    def test_greedy_keeps_first(self):
        res = max_independent_subset([[2, 0], [1, 0], [0, 3]])
        assert res.indices == (0, 2)


BLOCK_KERNELS = {
    "solve_gram": lambda vecs: solve_gram(vecs, np.ones(len(vecs))),
    "max_independent_subset": lambda vecs: np.array(max_independent_subset(vecs).indices),
}


@pytest.mark.parametrize("kernel", BLOCK_KERNELS.values(), ids=BLOCK_KERNELS.keys())
class TestBlockValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_row_rejected(self, kernel, bad):
        with pytest.raises(ValueError):
            kernel([np.array([1.0, 0.0]), np.array([0.0, bad])])

    def test_ragged_rows_rejected(self, kernel):
        with pytest.raises(DimensionMismatch):
            kernel([np.array([1.0, 0.0]), np.array([0.0, 1.0, 2.0])])
        with pytest.raises(DimensionMismatch):
            kernel([[1, 0], [0, 1, 2]])

    def test_empty_vectors_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel([np.array([]), np.array([])])

    def test_integer_lists_accepted(self, kernel):
        for vecs in ([[1, 0], [0, 2]], [[1, 0, 0], [1, 1, 0], [0, 2, 3]]):
            floats = [np.array(v, dtype=float) for v in vecs]
            np.testing.assert_array_equal(kernel(vecs), kernel(floats))
