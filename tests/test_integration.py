"""Cross-module integration tests: full pipelines on one database."""

import random

from repro.core.access import DirectAccess
from repro.core.counting import (
    CountingFromDirectAccess,
    DirectAccessFromCounting,
    PrefixConstraint,
)
from repro.core.selfjoins import SelfJoinFreeAccess
from repro.core.tasks import boxplot, median, sample
from repro.data.database import Database
from repro.data.generators import random_database
from repro.joins.generic_join import evaluate
from repro.lowerbounds.setdisjointness import (
    SetSystem,
    StarSetIntersection,
)
from repro.lowerbounds.zeroclique import (
    MultipartiteInstance,
    ZeroCliqueViaSetIntersection,
    brute_force_zero_clique,
)
from repro.query.catalog import example18_query, example5_order
from repro.query.parser import parse_query
from repro.query.transforms import self_join_free_version
from repro.query.variable_order import VariableOrder


class TestOrderStatisticsPipeline:
    """The §1 motivation: median/boxplot on a join without materializing."""

    def test_median_of_cyclic_query(self):
        query = example18_query()
        db = random_database(query, 40, 6, seed=5)
        order = example5_order()
        access = DirectAccess(query, order, db)
        if len(access) == 0:
            raise AssertionError("workload produced no answers")
        answers = sorted(
            order.key_of_tuple(tuple(r), query.variables)
            for r in evaluate(query, db, list(query.variables)).rows
        )
        assert median(access) == answers[(len(answers) - 1) // 2]
        summary = boxplot(access)
        assert summary["min"] == answers[0]
        assert summary["max"] == answers[-1]

    def test_sampling_distribution_support(self):
        query = parse_query("Q(x, y) :- R(x, y)")
        db = Database({"R": {(i, i % 3) for i in range(30)}})
        access = DirectAccess(query, VariableOrder(["x", "y"]), db)
        samples = sample(access, 30, seed=1)
        assert sorted(samples) == [
            access.tuple_at(i) for i in range(30)
        ]


class TestFullSelfJoinRoundtrip:
    """Q with self-joins -> counting -> colored -> Q^sf access (Thm 33),
    then re-derive counting from the produced access (Prop 35)."""

    def test_roundtrip(self):
        query = parse_query("Q(x, y) :- R(x), R(y)")
        db_sf = Database(
            {"R__x": {(1,), (3,)}, "R__y": {(2,), (3,)}}
        )
        order = VariableOrder(["x", "y"])
        access = SelfJoinFreeAccess(query, order, db_sf)
        expected = sorted(
            tuple(r)
            for r in evaluate(
                self_join_free_version(query), db_sf, ["x", "y"]
            ).rows
        )
        got = [access.tuple_at(i) for i in range(len(access))]
        assert got == expected

        counter = CountingFromDirectAccess(access)
        # count answers with x = 1
        assert counter.count(PrefixConstraint((), 1, 1)) == sum(
            1 for a in expected if a[0] == 1
        )
        rebuilt = DirectAccessFromCounting(
            counter, 2, sorted(db_sf.domain())
        )
        assert [
            rebuilt.tuple_at(i) for i in range(len(rebuilt))
        ] == expected


class TestHardnessPipeline:
    """Zero-3-Clique solved through the paper's full reduction chain,
    with the set-intersection oracle realized by star direct access."""

    def test_end_to_end(self):
        instance = MultipartiteInstance.random(
            3, 6, weight_bound=25, plant_zero=True, seed=13
        )
        expected = brute_force_zero_clique(instance)
        assert expected is not None
        reduction = ZeroCliqueViaSetIntersection(
            instance,
            intervals=4,
            oracle_factory=StarSetIntersection,
            seed=3,
        )
        clique = reduction.find_zero_clique()
        assert clique is not None
        assert instance.clique_weight(clique) == 0

    def test_star_oracle_against_merge(self):
        rng = random.Random(3)
        instance = SetSystem.random(3, 5, 4, 9, seed=4)
        oracle = StarSetIntersection(instance)
        for _ in range(20):
            indices = tuple(rng.randrange(5) for _ in range(3))
            expected = sorted(
                instance.families[0][indices[0]]
                & instance.families[1][indices[1]]
                & instance.families[2][indices[2]]
            )
            assert oracle.intersect(indices, 50) == expected
