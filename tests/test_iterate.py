import numpy as np
import pytest

from polyproj import (
    BehaviorTag,
    DimensionMismatch,
    EmptySet,
    Halfspace,
    Hyperplane,
    PairClass,
    PairTag,
    StopReason,
    ZeroNormal,
    classify_pair,
    compose_iterate,
    dykstra,
    predict_behavior,
    project_halfspace,
    project_halfspace_pair,
    project_hyperplane,
    project_hyperplane_halfspace,
    project_onto,
    rate_gamma,
    verify_bam,
)
from polyproj.instances import pair_of_normals, random_offset, random_point
from polyproj.cli import canonical_json, write_csv

from helpers import (
    ld_pair_case,
    li_halfspace_pair,
    pair_with_cosine,
    plane_halfspace_ld,
    plane_halfspace_li,
)


def _projector(s):
    return lambda x: project_onto(s, x)


class TestComposeIterate:
    def test_orthogonal_one_step(self):
        trace = compose_iterate(
            [_projector(Halfspace([1, 0], 0.0)), _projector(Halfspace([0, 1], 0.0))],
            [2, 3],
            max_k=1,
        )
        np.testing.assert_allclose(trace.iterates[1], [0, 0])

    def test_plane_then_halfspace_hand_values(self):
        # P_H1 (2,2) = (1,2); P_W2 (1,2) = (1,2) - (3/2)(1,1) = (-0.5, 0.5)
        trace = compose_iterate(
            [_projector(Hyperplane([1, 0], 1.0)), _projector(Halfspace([1, 1], 0.0))],
            [2, 2],
            max_k=1,
        )
        np.testing.assert_allclose(trace.iterates[1], [-0.5, 0.5])

    def test_fixed_point_constant_trace(self):
        projs = [_projector(Halfspace([1, 0], 1.0)), _projector(Hyperplane([0, 1], 0.0))]
        trace = compose_iterate(projs, [0.5, 0.0], max_k=10)
        assert trace.stop_reason is StopReason.CONVERGED
        for p in trace.iterates:
            np.testing.assert_allclose(p, [0.5, 0.0])

    def test_errors_against_reference(self):
        w1, w2 = Halfspace([1, 0], 0.0), Halfspace([0, 1], 0.0)
        ref = project_halfspace_pair(w1, w2, [2, 3]).point
        trace = compose_iterate([_projector(w1), _projector(w2)], [2, 3], max_k=5)
        errors = [np.linalg.norm(p - ref) for p in trace.iterates]
        assert errors[0] > 0.0
        assert errors[-1] <= 1e-12

    def test_propagates_empty_set(self):
        with pytest.raises(EmptySet):
            compose_iterate([_projector(Halfspace([0, 0], -1.0))], [1, 1], max_k=1)


class TestDykstra:
    def test_orthant_corner(self):
        trace = dykstra([Halfspace([1, 0], 0.0), Halfspace([0, 1], 0.0)], [2, 3])
        np.testing.assert_allclose(trace.final, [0, 0], atol=1e-10)
        assert trace.stop_reason is StopReason.CONVERGED

    def test_pair_limit_matches_closed_form(self):
        w1, w2 = Halfspace([1, 0], 1.0), Halfspace([1, 1], 0.0)
        trace = dykstra([w1, w2], [2, 2])
        np.testing.assert_allclose(trace.final, [0, 0], atol=1e-6)

    def test_single_set_single_sweep(self):
        trace = dykstra([Halfspace([1, 0], 1.0)], [2, 0])
        np.testing.assert_allclose(trace.iterates[1], [1, 0])

    def test_empty_member_raises(self):
        with pytest.raises(EmptySet):
            dykstra([Halfspace([0, 0], -1.0)], [1, 1])

    def test_limit_on_random_pairs(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            if rng.uniform() < 0.25:
                w1, w2 = ld_pair_case(rng, dim, "slab" if rng.uniform() < 0.5 else "merged_halfspace")
                reference = project_halfspace_pair(w1, w2, np.zeros(dim)).point
                sets = [w1, w2]
            else:
                while True:
                    flavor = ["orthogonal", "negative", "positive"][int(rng.integers(3))]
                    w1, w2 = li_halfspace_pair(rng, dim, flavor)
                    if rate_gamma(w1.u, w2.u) <= 0.95:
                        break
                sets = [w1, w2]
            x = random_point(rng, dim)
            reference = project_halfspace_pair(w1, w2, x).point
            trace = dykstra(sets, x, max_sweeps=10_000, tol=1e-12)
            assert np.linalg.norm(trace.final - reference) <= 1e-6

    def test_mixed_plane_halfspace(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            while True:
                flavor = ["orthogonal", "negative", "positive"][int(rng.integers(3))]
                h1, w2 = plane_halfspace_li(rng, dim, flavor)
                if rate_gamma(h1.u, w2.u) <= 0.95:
                    break
            x = random_point(rng, dim)
            reference = project_hyperplane_halfspace(h1, w2, x).point
            trace = dykstra([h1, w2], x, max_sweeps=10_000, tol=1e-12)
            assert np.linalg.norm(trace.final - reference) <= 1e-6

    def test_three_halfspaces_against_oracle(self):
        # no closed form exists for three halfspaces; the correction
        # buffer must cycle over all of them
        from polyproj import oracle_project
        from polyproj.instances import unit_vector

        rng = np.random.default_rng(68)
        done = 0
        while done < 50:
            dim = int(rng.integers(2, 5))
            sets = [
                Halfspace(unit_vector(rng, dim), rng.uniform(-0.5, 2.0))
                for _ in range(3)
            ]
            gammas = [
                rate_gamma(a.u, b.u)
                for a, b in [(sets[0], sets[1]), (sets[0], sets[2]), (sets[1], sets[2])]
            ]
            if max(gammas) > 0.95:
                continue
            x = random_point(rng, dim)
            try:
                reference, _ = oracle_project(sets, x)
            except EmptySet:
                continue
            trace = dykstra(sets, x, max_sweeps=10_000, tol=1e-12)
            assert np.linalg.norm(trace.final - reference) <= 1e-6
            done += 1


class TestRateGamma:
    def test_orthogonal(self):
        assert rate_gamma([1, 0], [0, 1]) == 0.0

    def test_hand_checked_cosine(self):
        assert rate_gamma([1, 0], [-1, 2]) == pytest.approx(1 / np.sqrt(5))

    def test_dependent_pair_is_one(self):
        assert rate_gamma([1, 2], [2, 4]) == 1.0

    def test_zero_normal(self):
        with pytest.raises(ZeroNormal):
            rate_gamma([0, 0], [1, 0])

    def test_zero_second_normal(self):
        with pytest.raises(ZeroNormal):
            rate_gamma([1, 0], [0.0, 0.0])

    def test_lengths_checked_before_zero_normals(self):
        with pytest.raises(DimensionMismatch):
            rate_gamma([0.0, 0.0, 0.0], [1, 0])


class TestVerifyBam:
    def test_negative_pair_contracts(self):
        rng = np.random.default_rng(53)
        w1, w2 = li_halfspace_pair(rng, 3, "negative")
        gamma = rate_gamma(w1.u, w2.u)
        samples = [random_point(rng, 3, 4.0) for _ in range(25)]
        report = verify_bam(
            lambda x: project_halfspace(w2, project_halfspace(w1, x)),
            lambda x: project_halfspace_pair(w1, w2, x).point,
            gamma,
            samples,
            k_max=25,
        )
        assert report.all_hold

    def test_plane_halfspace_contracts(self):
        rng = np.random.default_rng(54)
        h1, w2 = plane_halfspace_li(rng, 3, "positive")
        gamma = rate_gamma(h1.u, w2.u)
        samples = [random_point(rng, 3, 4.0) for _ in range(25)]
        report = verify_bam(
            lambda x: project_halfspace(w2, project_hyperplane(h1, x)),
            lambda x: project_hyperplane_halfspace(h1, w2, x).point,
            gamma,
            samples,
            k_max=25,
        )
        assert report.all_hold

    def test_identity_trivially_passes(self):
        rng = np.random.default_rng(55)
        samples = [random_point(rng, 2) for _ in range(5)]
        report = verify_bam(lambda x: x, lambda x: x, 0.0, samples, k_max=3)
        assert report.all_hold

    def test_wrong_gamma_reported_not_raised(self):
        # a rotation toward the plane contracts slower than gamma = 0
        w1, w2 = Halfspace([1, 0], 0.0), Halfspace([-0.8, 0.6], 0.0)
        gamma_true = rate_gamma(w1.u, w2.u)
        report = verify_bam(
            lambda x: project_halfspace(w2, project_halfspace(w1, x)),
            lambda x: project_halfspace_pair(w1, w2, x).point,
            0.0,
            [np.array([3.0, 1.0])],
            k_max=5,
        )
        assert gamma_true > 0
        assert not report.results[0].rate_bound_holds

    def test_gamma_domain_checked(self):
        with pytest.raises(ValueError):
            verify_bam(lambda x: x, lambda x: x, 1.0, [np.zeros(2)], k_max=1)


class TestPredictBehavior:
    def test_dependent_halfspaces(self):
        pc = classify_pair([1, 0], [2, 0])
        case = predict_behavior(Halfspace, Halfspace, pc)
        assert case.tag is BehaviorTag.EXACT_COMPOSITION

    def test_positive_halfspaces(self):
        pc = classify_pair([1, 0], [1, 1])
        case = predict_behavior(Halfspace, Halfspace, pc)
        assert case.tag is BehaviorTag.ONE_STEP_FEASIBLE

    def test_negative_halfspaces(self):
        pc = classify_pair([1, 0], [-1, 1])
        case = predict_behavior(Halfspace, Halfspace, pc)
        assert case.tag is BehaviorTag.LINEAR_RATE_BAM
        assert case.gamma == pytest.approx(pc.gamma)

    def test_orthogonal_halfspaces(self):
        pc = classify_pair([1, 0], [0, 1])
        assert predict_behavior(Halfspace, Halfspace, pc).tag is BehaviorTag.EXACT_COMPOSITION

    def test_plane_halfspace_negative(self):
        pc = classify_pair([1, 0], [-1, 1])
        case = predict_behavior(Hyperplane, Halfspace, pc)
        assert case.tag is BehaviorTag.LINEAR_RATE_BAM

    def test_plane_halfspace_dependent_or_orthogonal(self):
        dep = classify_pair([1, 0], [3, 0])
        orth = classify_pair([1, 0], [0, 1])
        assert predict_behavior(Hyperplane, Halfspace, dep).tag is BehaviorTag.EXACT_BOTH_ORDERS
        assert predict_behavior(Halfspace, Hyperplane, orth).tag is BehaviorTag.EXACT_BOTH_ORDERS

    def test_accepts_instances(self):
        pc = classify_pair([1, 0], [0, 1])
        case = predict_behavior(Halfspace([1, 0], 0.0), Halfspace([0, 1], 0.0), pc)
        assert case.tag is BehaviorTag.EXACT_COMPOSITION


class TestExactCompositionFamilies:
    def test_dependent_halfspace_pairs(self):
        rng = np.random.default_rng(56)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            case = ["whole_space", "first_only", "second_only", "merged_halfspace", "slab"][
                int(rng.integers(5))
            ]
            w1, w2 = ld_pair_case(rng, dim, case)
            x = random_point(rng, dim, 4.0)
            expected = project_halfspace_pair(w1, w2, x).point
            composed = project_halfspace(w2, project_halfspace(w1, x))
            assert np.linalg.norm(composed - expected) <= 1e-10

    def test_orthogonal_halfspace_pairs(self):
        rng = np.random.default_rng(57)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            w1, w2 = li_halfspace_pair(rng, dim, "orthogonal")
            x = random_point(rng, dim, 4.0)
            expected = project_halfspace_pair(w1, w2, x).point
            composed = project_halfspace(w2, project_halfspace(w1, x))
            assert np.linalg.norm(composed - expected) <= 1e-10

    def test_plane_halfspace_both_orders(self):
        rng = np.random.default_rng(58)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            if rng.uniform() < 0.5:
                h1, w2 = plane_halfspace_ld(rng, dim, contained=True)
            else:
                h1, w2 = plane_halfspace_li(rng, dim, "orthogonal")
            x = random_point(rng, dim, 4.0)
            expected = project_hyperplane_halfspace(h1, w2, x).point
            forward = project_halfspace(w2, project_hyperplane(h1, x))
            backward = project_hyperplane(h1, project_halfspace(w2, x))
            assert np.linalg.norm(forward - expected) <= 1e-10
            assert np.linalg.norm(backward - expected) <= 1e-10


class TestRateBoundFamilies:
    def test_negative_halfspace_pairs(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            w1, w2 = li_halfspace_pair(rng, dim, "negative")
            gamma = rate_gamma(w1.u, w2.u)
            samples = [random_point(rng, dim, 4.0) for _ in range(5)]
            report = verify_bam(
                lambda x: project_halfspace(w2, project_halfspace(w1, x)),
                lambda x: project_halfspace_pair(w1, w2, x).point,
                gamma,
                samples,
                k_max=50,
            )
            assert report.all_hold

    def test_plane_halfspace_pairs(self):
        rng = np.random.default_rng(60)
        for _ in range(100):
            dim = int(rng.integers(2, 6))
            flavor = "negative" if rng.uniform() < 0.5 else "positive"
            h1, w2 = plane_halfspace_li(rng, dim, flavor)
            gamma = rate_gamma(h1.u, w2.u)
            samples = [random_point(rng, dim, 4.0) for _ in range(5)]
            report = verify_bam(
                lambda x: project_halfspace(w2, project_hyperplane(h1, x)),
                lambda x: project_hyperplane_halfspace(h1, w2, x).point,
                gamma,
                samples,
                k_max=50,
            )
            assert report.all_hold


class TestOneStepFeasibility:
    def test_composition_lands_feasible(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            w1, w2 = li_halfspace_pair(rng, dim, "positive")
            x = random_point(rng, dim, 4.0)
            composed = project_halfspace(w2, project_halfspace(w1, x))
            scale = 1e-9 * (1 + abs(w1.eta) + np.linalg.norm(x))
            assert np.dot(composed, w1.u) - w1.eta <= scale
            assert np.dot(composed, w2.u) - w2.eta <= scale
            if (
                np.dot(x, w1.u) - w1.eta <= 0.0
                or np.dot(x, w2.u) - w2.eta <= 0.0
            ):
                expected = project_halfspace_pair(w1, w2, x).point
                assert np.linalg.norm(composed - expected) <= 1e-10

    def test_constructed_witnesses_have_gap(self):
        # outside both sets with the plane projection infeasible, the
        # composition lands feasible but strictly misses the projection
        rng = np.random.default_rng(62)
        witnesses = 0
        attempts = 0
        while witnesses < 50 and attempts < 20_000:
            attempts += 1
            dim = int(rng.integers(2, 6))
            w1, w2 = li_halfspace_pair(rng, dim, "positive")
            x = random_point(rng, dim, 4.0)
            if np.dot(x, w1.u) - w1.eta <= 0 or np.dot(x, w2.u) - w2.eta <= 0:
                continue
            plane_proj = project_hyperplane(w1.boundary(), x)
            if np.dot(plane_proj, w2.u) - w2.eta <= 0:
                continue
            composed = project_halfspace(w2, project_halfspace(w1, x))
            expected = project_halfspace_pair(w1, w2, x).point
            assert np.linalg.norm(composed - expected) > 1e-6
            witnesses += 1
        assert witnesses == 50


class TestReverseOrderComposition:
    def test_rate_bounds_split_by_membership(self):
        rng = np.random.default_rng(63)
        inside = outside = 0
        while inside < 50 or outside < 50:
            dim = int(rng.integers(2, 6))
            flavor = "negative" if rng.uniform() < 0.5 else "positive"
            h1, w2 = plane_halfspace_li(rng, dim, flavor)
            gamma = rate_gamma(h1.u, w2.u)
            x = random_point(rng, dim, 4.0)
            first = project_hyperplane(h1, project_halfspace(w2, x))
            if np.dot(first, w2.u) - w2.eta <= 0:
                continue
            reference = project_hyperplane_halfspace(h1, w2, x).point
            base = np.linalg.norm(x - reference)
            x_in_w2 = np.dot(x, w2.u) - w2.eta <= 0
            if x_in_w2:
                inside += 1
            else:
                outside += 1
            current = np.asarray(x, dtype=float)
            for k in range(1, 51):
                current = project_hyperplane(h1, project_halfspace(w2, current))
                if x_in_w2:
                    settled = project_halfspace(w2, current)
                    assert (
                        np.linalg.norm(settled - reference)
                        <= gamma**k * base + 1e-9
                    )
                else:
                    assert (
                        np.linalg.norm(current - reference)
                        <= gamma**k * base + 1e-9
                    )

    def test_feasible_first_step_lands_in_intersection(self):
        rng = np.random.default_rng(64)
        found = 0
        while found < 50:
            dim = int(rng.integers(2, 6))
            flavor = "negative" if rng.uniform() < 0.5 else "positive"
            h1, w2 = plane_halfspace_li(rng, dim, flavor)
            x = random_point(rng, dim, 4.0)
            first = project_hyperplane(h1, project_halfspace(w2, x))
            if np.dot(first, w2.u) - w2.eta > 0:
                continue
            assert abs(np.dot(first, h1.u) - h1.eta) <= 1e-9
            found += 1


class TestTrapping:
    def test_iterates_stay_outside(self):
        rng = np.random.default_rng(65)
        done = 0
        while done < 50:
            dim = int(rng.integers(2, 5))
            cosine = float(rng.uniform(0.6, 0.9)) * (1 if rng.uniform() < 0.5 else -1)
            u1, u2 = pair_with_cosine(rng, dim, cosine)
            h1 = Hyperplane(u1, random_offset(rng))
            w2 = Halfspace(u2, random_offset(rng))
            x = project_hyperplane(h1, random_point(rng, dim, 4.0))
            if np.dot(x, w2.u) - w2.eta <= 0.5:
                continue
            current = x
            for _ in range(20):
                current = project_halfspace(w2, project_hyperplane(h1, current))
                assert abs(np.dot(current, h1.u) - h1.eta) > 0.0
                pulled_back = project_hyperplane(h1, current)
                assert np.dot(pulled_back, w2.u) - w2.eta > 0.0
            done += 1


class TestTraceExport:
    @staticmethod
    def _reference_csv(path, header, rows):
        # the per-cell loop write_csv replaced, kept as its reference
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                cells = []
                for value in row:
                    if isinstance(value, (bool, np.bool_)):
                        cells.append("true" if value else "false")
                    elif isinstance(value, (float, np.floating)):
                        cells.append(format(float(value), ".17g"))
                    else:
                        cells.append(str(value))
                fh.write(",".join(cells) + "\n")

    def test_csv_writer_matches_the_reference_loop(self, tmp_path):
        header = ["a", "b", "c", "d"]
        cells = [
            True, False, np.bool_(True), np.bool_(False), 0, -7, np.int64(3), 2**70,
            0.1, 1 / 3, np.float64(2.0) / 3, np.float64(-1e-17), -0.0, np.float64(-0.0),
            1e-300, 5e-324, 1.7976931348623157e308, "", "fam,ily", "x",
        ]
        rng = np.random.default_rng(97)
        # one type per column, so each row is one %-template
        floats = [0.1, 1 / 3, -0.0, 0.0, 1e-300, 5e-324, 1.7976931348623157e308, -2.5]
        ints = [0, -7, 2**70, -(2**70), 12]
        strs = ["", "fam,ily", "x", "dependent_halfspace_pair"]
        cases = [
            [],
            [[]],
            [[], [], []],
            [cells[i : i + 4] for i in range(0, len(cells), 4)],
            [[cells[j] for j in rng.integers(len(cells), size=4)] for _ in range(200)],
            [[ints[i % 5], floats[i % 8], strs[i % 4], floats[(3 * i) % 8]] for i in range(40)],
            [(floats[i % 8],) for i in range(8)],
            [[ints[i % 5], strs[i % 4], floats[i % 8], i % 3 == 0] for i in range(40)],
        ]
        for rows in cases:
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            write_csv(got, header, rows)
            self._reference_csv(want, header, rows)
            assert got.read_bytes() == want.read_bytes()

    def test_csv_cells_are_canonical_json_scalars(self, tmp_path):
        # one scalar format: a CSV cell is what canonical_json writes for it
        cells = [np.True_, np.False_, np.float32(0.1), np.float16(-0.5), np.int8(-3), None, 0.1, True]
        out = tmp_path / "rows.csv"
        write_csv(out, ["c"], [[c] for c in cells])
        assert out.read_text().splitlines()[1:] == [canonical_json(c) for c in cells]
        assert out.read_text().splitlines()[1:4] == ["true", "false", "0.10000000149011612"]

    def test_csv_bytes(self, tmp_path):
        # 17 significant digits, true/false, numpy numbers like their python kin
        out = tmp_path / "rows.csv"
        rows = [
            (0, 0.1, True, "a"),
            (1, np.float64(1.0) / 3, False, "b,c"),
            (np.int64(2), -0.0, False, ""),
        ]
        write_csv(out, ["k", "x", "ok", "name"], rows)
        assert out.read_bytes() == (
            b"k,x,ok,name\n"
            b"0,0.10000000000000001,true,a\n"
            b"1,0.33333333333333331,false,b,c\n"
            b"2,-0,false,\n"
        )

    def test_errors_nonincreasing_for_contracting_pairs(self):
        rng = np.random.default_rng(66)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            w1, w2 = li_halfspace_pair(rng, dim, "negative")
            x = random_point(rng, dim, 4.0)
            ref = project_halfspace_pair(w1, w2, x).point
            trace = compose_iterate([_projector(w1), _projector(w2)], x, max_k=30)
            errors = [np.linalg.norm(p - ref) for p in trace.iterates]
            for earlier, later in zip(errors, errors[1:]):
                assert later <= earlier + 1e-12
