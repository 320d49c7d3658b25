import numpy as np
import pytest

from polyproj import (
    EmptySet,
    PairTag,
    classify_pair,
    project_halfspace_pair,
    project_hyperplane_halfspace,
)
from polyproj.instances import generate_instance, halfspace_pair, hyperplane_halfspace, pair_of_normals

FLAVORS = ("dependent_positive", "dependent_negative", "orthogonal", "negative", "positive")


class TestPairOfNormals:
    def test_dependent_flavors_classify_as_their_tag(self):
        # the builders resample offsets by flavor, which is sound only if
        # the flavor and the classification of the drawn normals agree
        rng = np.random.default_rng(81)
        expected = {
            "dependent_positive": PairTag.DEPENDENT_POSITIVE,
            "dependent_negative": PairTag.DEPENDENT_NEGATIVE,
        }
        for trial in range(2000):
            dim = 2 + trial % 6
            for flavor, tag in expected.items():
                u1, u2 = pair_of_normals(rng, dim, flavor)
                assert classify_pair(u1, u2).tag is tag

    def test_independent_flavors_never_classify_dependent(self):
        rng = np.random.default_rng(82)
        for trial in range(2000):
            dim = 2 + trial % 6
            for flavor in ("orthogonal", "negative", "positive"):
                u1, u2 = pair_of_normals(rng, dim, flavor)
                assert not classify_pair(u1, u2).linearly_dependent

    def test_independent_flavors_need_two_dimensions(self):
        # in one dimension every pair is dependent: these flavours would
        # redraw forever, so they raise; the dependent ones still draw
        rng = np.random.default_rng(84)
        for flavor in ("orthogonal", "negative", "positive"):
            with pytest.raises(ValueError, match="dim >= 2"):
                pair_of_normals(rng, 1, flavor)
        for flavor in ("dependent_positive", "dependent_negative"):
            assert classify_pair(*pair_of_normals(rng, 1, flavor)).linearly_dependent
        outcomes = set()
        for seed in range(40):
            for kind in ("pair_halfspace", "hyperplane_halfspace"):
                try:
                    sets = generate_instance(seed, 1, kind).sets
                except ValueError:
                    outcomes.add("raised")
                else:
                    assert classify_pair(sets[0].u, sets[1].u).linearly_dependent
                    outcomes.add("dependent")
        assert outcomes == {"raised", "dependent"}


class TestPairBuilders:
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_never_empty(self, flavor):
        rng = np.random.default_rng(83)
        for trial in range(300):
            dim = 2 + trial % 4
            for build, project in (
                (halfspace_pair, project_halfspace_pair),
                (hyperplane_halfspace, project_hyperplane_halfspace),
            ):
                s1, s2 = build(rng, dim, flavor)
                try:
                    project(s1, s2, np.zeros(dim))
                except EmptySet:
                    pytest.fail(f"{build.__name__} built an empty {flavor} pair")
