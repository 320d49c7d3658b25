import json
import math

import numpy as np
import pytest

from polyproj import classify_pair
from polyproj.atomic import project_onto
from polyproj.cli import (
    DYKSTRA_MATCH_TOL,
    EXACTNESS_TOL,
    ExperimentConfig,
    _experiment_dykstra,
    _experiment_exactness,
    _experiment_rates,
    main,
)
from polyproj.closed_form import project_halfspace_pair, project_hyperplane_halfspace
from polyproj.instances import (
    generate_instance,
    halfspace_pair,
    hyperplane_halfspace,
    pair_of_normals,
    random_offset,
    random_point,
)
from polyproj.iterate import RATE_SLACK, BehaviorTag, dykstra, rate_gamma
from polyproj.sets import Halfspace, Membership, contains


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            code, _, _ = run(
                ["generate", "--seed", "1", "--dim", "2", "--kind", "pair_halfspace", "--out", str(out)],
                capsys,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seventeen_digit_floats_parse_back(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code, _, _ = run(
            ["generate", "--seed", "7", "--dim", "3", "--kind", "hyperplane_halfspace", "--out", str(out)],
            capsys,
        )
        assert code == 0
        data = json.loads(out.read_text())
        inst = generate_instance(7, 3, "hyperplane_halfspace")
        for parsed, built in zip(data["sets"], inst.sets):
            np.testing.assert_array_equal(parsed["u"], built.u)
            assert parsed["eta"] == built.eta

    def test_hyperplane_system_has_redundancy(self, capsys):
        code, out, _ = run(
            ["generate", "--seed", "2", "--dim", "5", "--kind", "hyperplane_system"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["sets"]) == 3
        normals = [np.array(s["u"]) for s in data["sets"]]
        assert np.linalg.matrix_rank(np.stack(normals)) == 2

    def test_dependent_mix_rate(self):
        # the documented mix puts one dependent pair in ten on average
        dependent = 0
        for seed in range(1000):
            inst = generate_instance(seed, 2, "hyperplane_halfspace")
            if classify_pair(inst.sets[0].u, inst.sets[1].u).linearly_dependent:
                dependent += 1
        assert 60 <= dependent <= 140

    def test_bad_dim_rejected(self, capsys):
        code, _, err = run(
            ["generate", "--seed", "1", "--dim", "1", "--kind", "pair_halfspace"], capsys
        )
        assert code == 1
        assert "dim" in err


class TestProject:
    def _write_instance(self, tmp_path, data):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_closed_form_pair(self, tmp_path, capsys):
        path = self._write_instance(
            tmp_path,
            {
                "dim": 2,
                "sets": [
                    {"kind": "halfspace", "u": [1.0, 0.0], "eta": 0.0},
                    {"kind": "halfspace", "u": [0.0, 1.0], "eta": 0.0},
                ],
                "points": [[2.0, 3.0]],
            },
        )
        code, out, _ = run(["project", "--instance", path, "--method", "closed_form"], capsys)
        assert code == 0
        result = json.loads(out)
        assert result["point"] == [0.0, 0.0]
        assert result["region_or_case"] == "C3"
        assert result["multipliers"] == [2.0, 3.0]
        assert result["certificate"]["valid"] is True

    def test_one_halfspace_by_every_method(self, tmp_path, capsys):
        # the instance schema's own example: one halfspace, x1 <= 1, at (2, 0)
        path = self._write_instance(
            tmp_path,
            {"dim": 2, "sets": [{"kind": "halfspace", "u": [1.0, 0.0], "eta": 1.0}], "points": [[2.0, 0.0]]},
        )
        results = {}
        for method in ("closed_form", "oracle", "dykstra"):
            code, out, _ = run(["project", "--instance", path, "--method", method], capsys)
            assert code == 0
            results[method] = json.loads(out)
            assert results[method]["point"] == [1.0, 0.0]
        assert results["closed_form"]["multipliers"] == results["oracle"]["multipliers"] == [1.0]
        assert results["closed_form"]["certificate"]["valid"] is True

    def test_underflowing_normal_rejected(self, tmp_path, capsys):
        # |u|^2 of a nonzero u underflows to 0: a typed input error, exit 1
        path = self._write_instance(
            tmp_path,
            {
                "dim": 2,
                "sets": [
                    {"kind": "halfspace", "u": [1e-200, 0.0], "eta": -1.0},
                    {"kind": "halfspace", "u": [0.0, 1.0], "eta": 0.0},
                ],
                "points": [[0.0, 1.0]],
            },
        )
        for method in ("closed_form", "oracle", "dykstra"):
            code, out, err = run(["project", "--instance", path, "--method", method], capsys)
            assert code == 1
            assert out == ""
            assert "underflows" in err

    def test_underflowing_determinant_is_an_error_line(self, tmp_path, capsys):
        # legal normals whose 2x2 determinant underflows: a typed error, exit 1
        for kind in ("halfspace", "hyperplane"):
            path = self._write_instance(
                tmp_path,
                {
                    "dim": 2,
                    "sets": [
                        {"kind": kind, "u": [1e-100, 0.0], "eta": 0.0},
                        {"kind": "halfspace", "u": [-0.6e-100, 0.8e-100], "eta": 0.0},
                    ],
                    "points": [[3.0, 2.0]],
                },
            )
            code, out, err = run(["project", "--instance", path], capsys)
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and "determinant" in err

    def test_oracle_multipliers_follow_the_set_order(self, tmp_path, capsys):
        out_file = tmp_path / "inst.json"
        run(
            ["generate", "--seed", "1", "--dim", "3", "--kind", "hyperplane_halfspace",
             "--out", str(out_file)],
            capsys,
        )
        results = {}
        for method in ("closed_form", "oracle"):
            code, out, _ = run(["project", "--instance", str(out_file), "--method", method], capsys)
            assert code == 0
            results[method] = json.loads(out)["multipliers"]
        np.testing.assert_allclose(results["oracle"], results["closed_form"], rtol=1e-9)
        # hyperplanes and halfspaces interleaved: x - p = (2, 5, 7) = 2 e1 + 5 e2 + 7 e3
        path = self._write_instance(
            tmp_path,
            {
                "dim": 3,
                "sets": [
                    {"kind": "hyperplane", "u": [1.0, 0.0, 0.0], "eta": 1.0},
                    {"kind": "halfspace", "u": [0.0, 1.0, 0.0], "eta": 0.0},
                    {"kind": "hyperplane", "u": [0.0, 0.0, 1.0], "eta": 0.0},
                ],
                "points": [[3.0, 5.0, 7.0]],
            },
        )
        code, out, _ = run(["project", "--instance", path, "--method", "oracle"], capsys)
        assert code == 0
        assert json.loads(out)["multipliers"] == pytest.approx([2.0, 5.0, 7.0])

    def test_closed_form_multipliers_follow_the_set_order(self, tmp_path, capsys):
        # the halfspace is listed first; the closed form projects onto
        # (plane, halfspace), and x - p = (3, 5) - (1, 0) = 2 e1 + 5 e2
        path = self._write_instance(
            tmp_path,
            {
                "dim": 2,
                "sets": [
                    {"kind": "halfspace", "u": [0.0, 1.0], "eta": 0.0},
                    {"kind": "hyperplane", "u": [1.0, 0.0], "eta": 1.0},
                ],
                "points": [[3.0, 5.0]],
            },
        )
        for method in ("closed_form", "oracle"):
            code, out, _ = run(["project", "--instance", path, "--method", method], capsys)
            assert code == 0
            assert json.loads(out)["multipliers"] == [5.0, 2.0]

    def test_too_many_constraints_exit_3(self, tmp_path, capsys):
        sets = [{"kind": "halfspace", "u": list(row), "eta": 1.0} for row in np.eye(21, 25)]
        path = self._write_instance(
            tmp_path, {"dim": 25, "sets": sets, "points": [[0.0] * 25]}
        )
        code, out, err = run(["project", "--instance", path, "--method", "oracle"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "enumeration limit" in err

    def test_oracle_multipliers_of_single_kind_families(self, tmp_path, capsys):
        # with one kind of set the set order is the oracle's own order
        for seed, kind in [(2, "pair_halfspace"), (6, "hyperplane_system")]:
            out_file = tmp_path / f"{kind}.json"
            run(
                ["generate", "--seed", str(seed), "--dim", "3", "--kind", kind,
                 "--out", str(out_file)],
                capsys,
            )
            results = {}
            for method in ("closed_form", "oracle"):
                code, out, _ = run(
                    ["project", "--instance", str(out_file), "--method", method], capsys
                )
                assert code == 0
                results[method] = json.loads(out)["multipliers"]
            np.testing.assert_allclose(
                results["oracle"], results["closed_form"], rtol=1e-9, atol=1e-12
            )

    def test_round_trip_generated_instances(self, tmp_path, capsys):
        for seed, kind in [(3, "pair_halfspace"), (4, "hyperplane_halfspace"), (5, "hyperplane_system")]:
            out_file = tmp_path / f"{kind}.json"
            code, _, _ = run(
                ["generate", "--seed", str(seed), "--dim", "3", "--kind", kind, "--out", str(out_file)],
                capsys,
            )
            assert code == 0
            for point in ("0", "1", "2"):
                code, _, _ = run(
                    ["project", "--instance", str(out_file), "--point", point], capsys
                )
                assert code == 0

    def test_set_order_in_file_is_free(self, tmp_path, capsys):
        # the hyperplane may be listed after the halfspace
        path = self._write_instance(
            tmp_path,
            {
                "dim": 2,
                "sets": [
                    {"kind": "halfspace", "u": [0.0, 1.0], "eta": 0.0},
                    {"kind": "hyperplane", "u": [1.0, 0.0], "eta": 1.0},
                ],
                "points": [[3.0, 2.0]],
            },
        )
        code, out, _ = run(["project", "--instance", path], capsys)
        assert code == 0
        result = json.loads(out)
        assert result["point"] == [1.0, 0.0]
        assert result["region_or_case"] == "InC"

    def test_methods_agree(self, tmp_path, capsys):
        out_file = tmp_path / "inst.json"
        run(
            ["generate", "--seed", "11", "--dim", "3", "--kind", "pair_halfspace", "--out", str(out_file)],
            capsys,
        )
        points = {}
        for method in ("closed_form", "oracle", "dykstra"):
            code, out, _ = run(
                ["project", "--instance", str(out_file), "--method", method], capsys
            )
            assert code == 0
            points[method] = np.array(json.loads(out)["point"])
        assert np.linalg.norm(points["closed_form"] - points["oracle"]) <= 1e-9
        assert np.linalg.norm(points["closed_form"] - points["dykstra"]) <= 1e-6

    def test_closed_form_dependent_pairs_are_certified(self, tmp_path, capsys):
        merged = [
            {"kind": "halfspace", "u": [1.0, 0.0], "eta": 1.0},
            {"kind": "halfspace", "u": [2.0, 0.0], "eta": 1.0},
        ]
        slab = [
            {"kind": "halfspace", "u": [1.0, 0.0], "eta": 1.0},
            {"kind": "halfspace", "u": [-2.0, 0.0], "eta": 1.0},
        ]
        for sets, case in ((merged, "merged_halfspace"), (slab, "slab")):
            path = self._write_instance(
                tmp_path, {"dim": 2, "sets": sets, "points": [[3.0, 1.0], [-3.0, 0.0]]}
            )
            for point in ("0", "1"):
                code, out, _ = run(
                    ["project", "--instance", path, "--point", point, "--method", "closed_form"],
                    capsys,
                )
                assert code == 0
                result = json.loads(out)
                assert result["region_or_case"] == case
                assert result["certificate"]["valid"] is True
                if case == "merged_halfspace":
                    assert len(result["multipliers"]) == 1
                    assert result["multipliers"] == result["certificate"]["lambda"]

    def test_near_dependent_merge_is_checked_against_the_input_sets(self, tmp_path, capsys):
        # 1 - cos(1e-5) is within the dependence tolerance, so the closed
        # form merges the pair into x0 <= 0; the merged point (0, 100)
        # violates the second input set by 100 sin(1e-5) ~ 1e-3
        theta = 1e-5
        sets = [
            {"kind": "halfspace", "u": [1.0, 0.0], "eta": 0.0},
            {"kind": "halfspace", "u": [math.cos(theta), math.sin(theta)], "eta": 0.0},
        ]
        path = self._write_instance(tmp_path, {"dim": 2, "sets": sets, "points": [[5.0, 100.0]]})
        results = {}
        for method in ("closed_form", "oracle"):
            code, out, _ = run(["project", "--instance", path, "--method", method], capsys)
            assert code == 0
            results[method] = json.loads(out)
        merged = results["closed_form"]
        assert merged["region_or_case"] == "merged_halfspace"
        assert merged["point"] == [0.0, 100.0]
        assert merged["certificate"]["valid"] is False
        assert merged["certificate"]["feasibility_residual"] == pytest.approx(100 * math.sin(theta))
        # the projection lies on the second boundary alone
        x, u2 = np.array([5.0, 100.0]), np.array(sets[1]["u"])
        oracle = results["oracle"]
        assert oracle["certificate"]["valid"] is True
        np.testing.assert_allclose(oracle["point"], x - (x @ u2) * u2, rtol=0, atol=1e-12)

    def test_empty_intersection_exit_code(self, tmp_path, capsys):
        path = self._write_instance(
            tmp_path,
            {
                "dim": 2,
                "sets": [
                    {"kind": "halfspace", "u": [1.0, 0.0], "eta": -2.0},
                    {"kind": "halfspace", "u": [-1.0, 0.0], "eta": -2.0},
                ],
                "points": [[0.0, 0.0]],
            },
        )
        code, _, err = run(["project", "--instance", path], capsys)
        assert code == 2
        assert "empty intersection" in err

    def test_malformed_instance_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "sets": "nope"}')
        code, _, err = run(["project", "--instance", str(path)], capsys)
        assert code == 1
        assert err

    def test_point_index_checked(self, tmp_path, capsys):
        path = self._write_instance(
            tmp_path,
            {
                "dim": 2,
                "sets": [{"kind": "halfspace", "u": [1.0, 0.0], "eta": 0.0}],
                "points": [[1.0, 1.0]],
            },
        )
        code, _, err = run(["project", "--instance", path, "--point", "5"], capsys)
        assert code == 1

    def test_membership_tol_env(self, tmp_path, capsys, monkeypatch):
        path = self._write_instance(
            tmp_path,
            {
                "dim": 2,
                "sets": [
                    {"kind": "halfspace", "u": [1.0, 0.0], "eta": 0.0},
                    {"kind": "halfspace", "u": [0.0, 1.0], "eta": 0.0},
                ],
                "points": [[2.0, 3.0]],
            },
        )
        monkeypatch.setenv("POLYPROJ_TOL", "1e-6")
        code, out, _ = run(["project", "--instance", path, "--method", "oracle"], capsys)
        assert code == 0
        assert json.loads(out)["certificate"]["tol"] == 1e-6

        monkeypatch.setenv("POLYPROJ_TOL", "banana")
        code, _, err = run(["project", "--instance", path], capsys)
        assert code == 1
        assert "POLYPROJ_TOL" in err


class TestExperiment:
    def _write_config(self, tmp_path, **overrides):
        config = {"seed": 9, "dim": 2, "trials": 4, "k_max": 10}
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_zero_trials_empty_outputs(self, tmp_path, capsys):
        path = self._write_config(tmp_path, trials=0)
        out_dir = tmp_path / "out"
        code, out, _ = run(["experiment", "--config", path, "--out", str(out_dir)], capsys)
        assert code == 0
        assert (out_dir / "rates.csv").read_text() == "trial,gamma,k,observed_error,bound_gamma_pow_k,ok\n"
        assert (out_dir / "exactness.csv").read_text() == "trial,family,deviation,ok\n"
        assert (out_dir / "dykstra.csv").read_text() == "trial,sweeps,deviation,ok\n"
        summary = json.loads(out)
        assert summary["pass_counts"] == {}
        assert summary["all_ok"] is True

    def test_small_run_all_ok(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        out_dir = tmp_path / "out"
        code, out, _ = run(["experiment", "--config", path, "--out", str(out_dir)], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["all_ok"] is True
        rates = (out_dir / "rates.csv").read_text().strip().splitlines()
        assert len(rates) == 1 + 4 * 10
        assert all(line.endswith("true") for line in rates[1:])

    def test_case_filter_limits_families(self, tmp_path, capsys):
        path = self._write_config(tmp_path, case_filter="LinearRateBAM")
        out_dir = tmp_path / "filtered"
        code, out, _ = run(["experiment", "--config", path, "--out", str(out_dir)], capsys)
        assert code == 0
        assert len((out_dir / "rates.csv").read_text().strip().splitlines()) > 1
        assert (out_dir / "exactness.csv").read_text().strip().splitlines() == [
            "trial,family,deviation,ok"
        ]
        summary = json.loads(out)
        assert set(summary["pass_counts"]) == {"halfspace_pair_rate", "plane_halfspace_rate"}

    def test_exact_composition_filter_deviation_bound(self, tmp_path, capsys):
        path = self._write_config(tmp_path, case_filter="ExactComposition", trials=25)
        out_dir = tmp_path / "exact"
        code, _, _ = run(["experiment", "--config", path, "--out", str(out_dir)], capsys)
        assert code == 0
        rows = (out_dir / "exactness.csv").read_text().strip().splitlines()[1:]
        assert rows
        assert max(float(r.split(",")[2]) for r in rows) <= 1e-10

    def test_deterministic_summary(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        outs = []
        for name in ("one", "two"):
            out_dir = tmp_path / name
            code, out, _ = run(["experiment", "--config", path, "--out", str(out_dir)], capsys)
            assert code == 0
            outs.append((out_dir / "rates.csv").read_bytes() + (out_dir / "summary.json").read_bytes())
        assert outs[0] == outs[1]

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = self._write_config(tmp_path, case_filter="NotACase")
        code, _, err = run(["experiment", "--config", path, "--out", str(tmp_path / "x")], capsys)
        assert code == 1
        assert "case_filter" in err

    def test_tolerances_key_rejected(self, tmp_path, capsys):
        # the removed thresholds key, and a misspelt "trials", which would
        # otherwise be ignored: every key outside the five is an error
        for key, value in (("tolerances", {"exactness": 1e-3}), ("trails", 2)):
            path = self._write_config(tmp_path, **{key: value})
            out_dir = tmp_path / "x"
            code, out, err = run(["experiment", "--config", path, "--out", str(out_dir)], capsys)
            assert code == 1
            assert out == ""
            assert repr(key) in err
            assert not out_dir.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("trials", 2.7), ("k_max", 3.9), ("seed", 7.0), ("dim", 3.5), ("trials", True), ("seed", "7")],
    )
    def test_non_integer_numbers_rejected(self, tmp_path, capsys, key, value):
        path = self._write_config(tmp_path, **{key: value})
        out_dir = tmp_path / "x"
        code, out, err = run(["experiment", "--config", path, "--out", str(out_dir)], capsys)
        assert code == 1
        assert out == ""
        assert key in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("key, value", [("trials", 2.0), ("seed", True), ("k_max", None)])
    def test_config_checks_integers_when_built(self, key, value):
        with pytest.raises(ValueError, match=f"config key {key!r} must be an integer"):
            ExperimentConfig(**{key: value})

    @pytest.mark.parametrize("content", ["[]", "3", '"seed"', "null"])
    def test_non_object_config_rejected(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        path.write_text(content)
        out_dir = tmp_path / "x"
        code, out, err = run(["experiment", "--config", str(path), "--out", str(out_dir)], capsys)
        assert code == 1
        assert out == ""
        assert "JSON object" in err
        assert not out_dir.exists()


def _per_point_rates(rng, config, rows, counts):
    """The rate sweep as one loop of per-point projections per trial."""
    for trial in range(config.trials):
        x = random_point(rng, config.dim)
        if trial % 2 == 0:
            family = "halfspace_pair_rate"
            first, second = halfspace_pair(rng, config.dim, "negative")
            reference = project_halfspace_pair(first, second, x).point
        else:
            family = "plane_halfspace_rate"
            flavor = "negative" if rng.uniform() < 0.5 else "positive"
            first, second = hyperplane_halfspace(rng, config.dim, flavor)
            reference = project_hyperplane_halfspace(first, second, x).point
        gamma = rate_gamma(first.u, second.u)
        base = math.sqrt(float((x - reference).dot(x - reference)))
        current = x
        all_ok = True
        for k in range(1, config.k_max + 1):
            current = project_onto(second, project_onto(first, current))
            observed = math.sqrt(float((current - reference).dot(current - reference)))
            bound = gamma**k * base
            ok = observed <= bound + RATE_SLACK
            all_ok = all_ok and ok
            rows.append([trial, gamma, k, observed, bound, ok])
        total_ok = counts.setdefault(family, [0, 0])
        total_ok[0] += 1
        total_ok[1] += 1 if all_ok else 0


class TestRateSweep:
    @pytest.mark.parametrize("seed", [1, 7, 12345])
    @pytest.mark.parametrize("dim", [2, 5])
    def test_rows_match_the_per_point_loop(self, seed, dim):
        for trials in (0, 1, 2, 25):
            for k_max in (1, 50):
                config = ExperimentConfig(seed=seed, dim=dim, trials=trials, k_max=k_max)
                results = []
                for sweep in (_experiment_rates, _per_point_rates):
                    rng = np.random.default_rng(seed)
                    rows, counts = [], {}
                    sweep(rng, config, rows, counts)
                    results.append((rows, counts, rng.bit_generator.state))
                (rows, counts, state), (ref_rows, ref_counts, ref_state) = results
                assert len(rows) == trials * k_max
                # equal values with equal Python types, so the CSV cells are equal
                assert [[type(c) for c in r] for r in rows] == [[type(c) for c in r] for r in ref_rows]
                # repr tells every float apart that the CSV writer does, -0.0 included
                assert [[repr(c) for c in r] for r in rows] == [[repr(c) for c in r] for r in ref_rows]
                assert counts == ref_counts
                assert state == ref_state


def _norm(v):
    return math.sqrt(float(v.dot(v)))


def _per_point_exactness(rng, config, rows, counts, include_exact, include_feasible):
    """The exactness sweep as one loop of per-point projections per trial."""
    dim = config.dim
    for trial in range(config.trials):
        x = random_point(rng, dim)
        subrows = []
        if include_exact:
            dependent = "dependent_positive" if rng.uniform() < 0.5 else "dependent_negative"
            for flavor, label in (
                (dependent, "dependent_halfspace_pair"),
                ("orthogonal", "orthogonal_halfspace_pair"),
            ):
                w1, w2 = halfspace_pair(rng, dim, flavor)
                ref = project_halfspace_pair(w1, w2, x).point
                dev = _norm(project_onto(w2, project_onto(w1, x)) - ref)
                subrows.append((label, dev, dev <= EXACTNESS_TOL))
            for flavor, label in (
                ("dependent_positive", "dependent_plane_halfspace"),
                ("orthogonal", "orthogonal_plane_halfspace"),
            ):
                h1, w2 = hyperplane_halfspace(rng, dim, flavor)
                ref = project_hyperplane_halfspace(h1, w2, x).point
                dev_f = _norm(project_onto(w2, project_onto(h1, x)) - ref)
                dev_r = _norm(project_onto(h1, project_onto(w2, x)) - ref)
                subrows.append((label + "_fwd", dev_f, dev_f <= EXACTNESS_TOL))
                subrows.append((label + "_rev", dev_r, dev_r <= EXACTNESS_TOL))
        if include_feasible:
            w1, w2 = halfspace_pair(rng, dim, "positive")
            composed = project_onto(w2, project_onto(w1, x))
            violation = max(
                float(np.dot(composed, w1.u)) - w1.eta,
                float(np.dot(composed, w2.u)) - w2.eta,
                0.0,
            )
            ok = (
                contains(w1, composed) is not Membership.OUTSIDE
                and contains(w2, composed) is not Membership.OUTSIDE
            )
            subrows.append(("one_step_feasible", violation, ok))
        for family, dev, ok in subrows:
            rows.append([trial, family, dev, ok])
            total_ok = counts.setdefault(family, [0, 0])
            total_ok[0] += 1
            total_ok[1] += 1 if ok else 0


def _per_point_dykstra(rng, config, rows, counts):
    """The Dykstra sweep with a per-point closed-form reference per trial."""
    dim = config.dim
    for trial in range(config.trials):
        while True:
            flavor = rng.choice(["negative", "positive", "orthogonal"])
            u1, u2 = pair_of_normals(rng, dim, str(flavor))
            if rate_gamma(u1, u2) <= 0.95:
                break
        w1 = Halfspace(u1, random_offset(rng))
        w2 = Halfspace(u2, random_offset(rng))
        x = random_point(rng, dim)
        reference = project_halfspace_pair(w1, w2, x).point
        trace = dykstra([w1, w2], x, max_sweeps=10_000, tol=1e-12)
        deviation = _norm(trace.final - reference)
        ok = deviation <= DYKSTRA_MATCH_TOL
        rows.append([trial, len(trace.iterates) - 1, deviation, ok])
        total_ok = counts.setdefault("dykstra_pair", [0, 0])
        total_ok[0] += 1
        total_ok[1] += 1 if ok else 0


def _same_rows(sweep, reference, config, *flags):
    results = []
    for run_sweep in (sweep, reference):
        rng = np.random.default_rng(config.seed)
        rows, counts = [], {}
        run_sweep(rng, config, rows, counts, *flags)
        results.append((rows, counts, rng.bit_generator.state))
    (rows, counts, state), (ref_rows, ref_counts, ref_state) = results
    assert [[type(c) for c in r] for r in rows] == [[type(c) for c in r] for r in ref_rows]
    assert [[repr(c) for c in r] for r in rows] == [[repr(c) for c in r] for r in ref_rows]
    assert counts == ref_counts
    assert state == ref_state
    return rows


class TestExactnessAndDykstraSweeps:
    @pytest.mark.parametrize("seed", [1, 7, 12345])
    @pytest.mark.parametrize("dim", [2, 5])
    def test_rows_match_the_per_point_loops(self, seed, dim):
        for trials in (0, 1, 2, 25):
            config = ExperimentConfig(seed=seed, dim=dim, trials=trials)
            # the phases each case_filter runs, as cmd_experiment picks them
            for case_filter in (None, *sorted(t.value for t in BehaviorTag)):
                include_exact = case_filter in (None, "ExactComposition", "ExactBothOrders")
                include_feasible = case_filter in (None, "OneStepFeasible")
                if include_exact or include_feasible:
                    rows = _same_rows(
                        _experiment_exactness, _per_point_exactness, config,
                        include_exact, include_feasible,
                    )
                    assert len(rows) == trials * (6 * include_exact + include_feasible)
            rows = _same_rows(_experiment_dykstra, _per_point_dykstra, config)
            assert len(rows) == trials
