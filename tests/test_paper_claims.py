"""End-to-end checks of the paper's concrete, checkable claims.

Each test cites the statement it validates. These are the "figures and
tables" of a theory paper: worked examples and theorem-level facts that
can be executed.
"""

import importlib
import math
from collections import Counter
from fractions import Fraction
from statistics import linear_regression

import pytest

import repro.core.access as access_module
from repro.core.access import DirectAccess
from repro.core.counting import CountingFromDirectAccess, PrefixConstraint
from repro.core.decomposition import (
    DisruptionFreeDecomposition,
    incompatibility_number,
)
from repro.core.enumeration import ranked_enumerator
from repro.core.htw import fractional_hypertree_width
from repro.core.orderless import OrderlessFourCycleAccess
from repro.core.preprocessing import Preprocessing
from repro.core.projections import partial_order_access
from repro.core.tasks import boxplot, median
from repro.data.database import Database
from repro.data.generators import (
    agm_worstcase_triangle_database,
    bipartite_path_database,
    functional_path_database,
    random_database,
)
from repro.engine import available_engines, use_engine
from repro.hypergraph.disruptive_trios import has_disruptive_trio
from repro.hypergraph.gyo import is_acyclic
from repro.hypergraph.hypergraph import Hypergraph
from repro.joins.generic_join import evaluate, tables_of_query
from repro.lowerbounds.star_queries import StarEmbedding
from repro.query.catalog import (
    example5_order,
    example5_query,
    example18_query,
    four_cycle_query,
    loomis_whitney_query,
    path_query,
    projected_star_query,
    star_bad_order,
    star_good_order,
    star_query,
    triangle_query,
)
from repro.query.variable_order import VariableOrder, all_orders


class TestFigure1AndExample5:
    """Figure 1: the hypergraph of Example 5 with its added edges."""

    def test_original_edges(self):
        h = Hypergraph.of_query(example5_query())
        assert h.edges == {
            frozenset({"v1", "v5"}),
            frozenset({"v2", "v4"}),
            frozenset({"v3", "v4"}),
            frozenset({"v3", "v5"}),
        }

    def test_dashed_edges_of_figure1(self):
        d = DisruptionFreeDecomposition(
            example5_query(), example5_order()
        )
        added = {bag.edge for bag in d.bags}
        assert added == {
            frozenset({"v1", "v3", "v5"}),
            frozenset({"v2", "v3", "v4"}),
            frozenset({"v1", "v2", "v3"}),
            frozenset({"v1", "v2"}),
            frozenset({"v1"}),
        }


class TestExample8:
    """Example 8: the S_i components behind Lemma 7's closed form."""

    def test_components(self):
        q = example5_query()
        h = Hypergraph.of_query(q)
        order = list(example5_order())
        # S_5 = {v5}, S_3 = {v3, v4, v5}, S_2 = {v2, v3, v4, v5}
        def component(i):
            suffix = set(order[i:])
            return h.induced(suffix).connected_component(order[i])

        assert component(4) == frozenset({"v5"})
        assert component(2) == frozenset({"v3", "v4", "v5"})
        assert component(1) == frozenset({"v2", "v3", "v4", "v5"})


class TestTheorem1Regime:
    """Theorem 1: acyclic + trio-free pairs have ι = 1."""

    def test_iota_one_iff_tractable_for_acyclic_queries(self):
        for query in (example5_query(), star_query(3)):
            h = Hypergraph.of_query(query)
            assert is_acyclic(h)
            for order in all_orders(query):
                iota = incompatibility_number(query, order)
                tractable = not has_disruptive_trio(h, order)
                assert (iota == 1) == tractable, (query.name, order)


class TestLemma15IntegralityClaim:
    """Lemma 15: for acyclic queries the incompatibility number is integral."""

    def test_acyclic_integral(self):
        for query in (example5_query(), star_query(2), star_query(4)):
            for order in all_orders(query):
                assert (
                    incompatibility_number(query, order).denominator
                    == 1
                )


class TestExample16And18Embeddings:
    def test_example16_star_size(self):
        assert (
            StarEmbedding(
                example5_query(), example5_order()
            ).star_size
            == 3
        )

    def test_example18_lambda(self):
        embedding = StarEmbedding(example18_query(), example5_order())
        assert embedding.iota == Fraction(3, 2)
        assert embedding.blowup == 2


class TestSection8Claims:
    def test_four_cycle_fhtw_is_2(self):
        """§8.2: 'the query Q◦ has fractional hypertree width 2'."""
        width, _ = fractional_hypertree_width(four_cycle_query())
        assert width == 2

    def test_all_lexicographic_orders_need_iota_2(self):
        """Corollary 46 premise: every order of Q◦ has ι >= 2."""
        q = four_cycle_query()
        for order in all_orders(q):
            assert incompatibility_number(q, order) >= 2

    def test_orderless_beats_lexicographic_budget(self):
        """Lemma 48: orderless preprocessing stays within |D|^{3/2}."""
        n = 10
        full = {(a, b) for a in range(n) for b in range(n)}
        db = Database(
            {"R1": full, "R2": full, "R3": full, "R4": full}
        )
        access = OrderlessFourCycleAccess(db)
        assert len(access) == n ** 4
        assert access.bag_budget <= len(db) ** 1.5
        # a lexicographic engine materializes an ι=2-sized bag instead
        prep = Preprocessing(
            four_cycle_query(),
            VariableOrder(["x1", "x2", "x3", "x4"]),
            db,
        )
        assert max(len(p.table) for p in prep.bags) >= n ** 3


class TestAGMBound:
    """Theorem 2 (AGM): output size <= |D|^{ρ*}, tight on worst cases."""

    def test_triangle_worst_case_is_tight(self):
        """Theorem 53's instance: exactly ``side³ = (|D|/3)^{3/2}``
        answers at ``|D| = 3·side²``, on every engine."""
        sides = [2, 4, 6, 8]
        for engine in available_engines():
            with use_engine(engine):
                counts = [
                    len(evaluate(
                        triangle_query(), agm_worstcase_triangle_database(s)
                    ))
                    for s in sides
                ]
            assert counts == [s ** 3 for s in sides]

    def test_loomis_whitney_output_bounded(self):
        q = loomis_whitney_query(3)
        db = random_database(q, 30, 6, seed=1)
        output = evaluate(q, db)
        bound = (3 * 30) ** (1 + 1 / 2)
        assert len(output) <= bound


class TestSelfJoinInvariance:
    """Theorem 33's statement at the ι level: the incompatibility number
    depends only on the hypergraph, hence is blind to self-joins."""

    def test_selfjoin_free_version_has_same_iota(self):
        from repro.query.parser import parse_query
        from repro.query.transforms import self_join_free_version

        q = parse_query("Q(x, y, z) :- R(x, y), R(y, z)")
        sf = self_join_free_version(q)
        for order in all_orders(q):
            assert incompatibility_number(
                q, order
            ) == incompatibility_number(sf, order)


# -- The experiments (E1–E13), counted: on every engine, on operation
# counts (rows, tables, bisections, walks), never on wall-clock time.

ENGINES = available_engines()
X3 = VariableOrder(["x1", "x2", "x3"])
SCALES = [4, 8, 16, 32]


def _slope(sizes, counts) -> float:
    """The least-squares slope of log(count) on log(size)."""
    return linear_regression(
        [math.log(s) for s in sizes], [math.log(c) for c in counts]
    ).slope


def _grid(rows: int, cols: int) -> set:
    return {(a, b) for a in range(rows) for b in range(cols)}


def _dense_cycle(scale: int) -> Database:
    """The 4-cycle with ``x2``, ``x4`` over 4 values: lexicographic bags
    hold ``4·scale²`` rows, Lemma 48's subqueries ``O(scale)``."""
    tall, wide = _grid(scale, 4), _grid(4, scale)
    return Database({"R1": tall, "R2": wide, "R3": tall, "R4": wide})


FAMILIES = {  # name: (ι, scale -> (query, order, database))
    "2-path": (1, lambda s: (
        path_query(2), X3, functional_path_database(2, s, seed=3))),
    "star, centre first": (1, lambda s: (
        star_query(2), star_good_order(2),
        Database({"R1": _grid(s, 12), "R2": _grid(s, 12)}))),
    "triangle grid": (1.5, lambda s: (
        triangle_query(), X3, agm_worstcase_triangle_database(s))),
    "star, centre last": (2, lambda s: (
        star_query(2), star_bad_order(2),
        Database({"R1": _grid(s, 12), "R2": _grid(s, 12)}))),
    "4-cycle, lexicographic": (2, lambda s: (
        four_cycle_query(), VariableOrder(["x1", "x2", "x3", "x4"]),
        _dense_cycle(s))),
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("engine", ENGINES)
def test_largest_bag_grows_as_iota(engine, family):
    """Theorem 10 / Corollary 46: the largest bag grows as |D|^ι, so
    the order alone decides the exponent (the star's two orders)."""
    iota, case = FAMILIES[family]
    sizes, bags = [], []
    with use_engine(engine):
        for query, order, database in map(case, SCALES):
            prep = Preprocessing(query, order, database)
            sizes.append(len(database))
            bags.append(max(len(p.table) for p in prep.bags))
    assert _slope(sizes, bags) == pytest.approx(iota, abs=0.1)


@pytest.mark.parametrize("engine", ENGINES)
def test_orderless_four_cycle_stays_linear(engine):
    """Lemma 48: where every lexicographic bag of the 4-cycle is
    quadratic, the orderless structure's bags grow linearly."""
    with use_engine(engine):
        budgets = [
            OrderlessFourCycleAccess(_dense_cycle(s)).bag_budget
            for s in SCALES
        ]
    assert _slope(SCALES, budgets) == pytest.approx(1, abs=0.1)


@pytest.mark.parametrize("engine", ENGINES)
def test_bags_never_build_a_pairwise_intermediate(engine, monkeypatch):
    """Theorem 10 joins bags with Generic Join: on hub-shaped data (each
    relation the star K_{1,n} both ways) no table preprocessing builds
    outgrows |D|, while a pairwise plan's first join is quadratic."""
    peak = [0]
    sizes, peaks, pairwise = [], [], []
    with use_engine(engine) as active:
        for name in ("join", "natural_join", "semijoin", "project", "select"):
            def counted(*args, _method=getattr(active, name)):
                table = _method(*args)
                peak[0] = max(peak[0], len(table))
                return table

            monkeypatch.setattr(active, name, counted)
        for n in (25, 50, 100, 200):
            star = {(0, i) for i in range(1, n + 1)}
            star |= {(i, 0) for _, i in star}
            database = Database({"R1": star, "R2": star, "R3": star})
            peak[0] = 0
            Preprocessing(triangle_query(), X3, database)
            sizes.append(len(database))
            peaks.append(peak[0])
            first, second, _ = tables_of_query(triangle_query(), database)
            pairwise.append(len(first.natural_join(second)))
    assert _slope(sizes, peaks) == pytest.approx(1, abs=0.1)
    assert _slope(sizes, pairwise) > 1.9


BAG_INDEX_MODULES = {
    "python": "repro.engine.base",
    "numpy": "repro.engine.numpy_engine",
}


@pytest.mark.parametrize("engine", ENGINES)
def test_access_bisects_per_level_at_any_size(engine, monkeypatch):
    """Theorems 1 and 50: one access is one bisection or two per level
    of the order, as many at |D| as at 8·|D| (the 2-path's 3 levels,
    the projected star's 2 free ones)."""
    module = importlib.import_module(BAG_INDEX_MODULES[engine])
    calls = [0]
    for name in ("bisect_left", "bisect_right"):
        def counted(*args, _bisect=getattr(module, name)):
            calls[0] += 1
            return _bisect(*args)

        monkeypatch.setattr(module, name, counted)
    seen = {3: set(), 2: set()}
    with use_engine(engine):
        for rows in (100, 800):
            cases = {
                3: DirectAccess(
                    path_query(2), X3, functional_path_database(2, rows)
                ),
                2: partial_order_access(
                    projected_star_query(2), VariableOrder(["x1", "x2"]),
                    Database({"R1": _grid(3, rows), "R2": _grid(3, rows)}),
                ),
            }
            for levels, access in cases.items():
                for index in (0, len(access) // 2, len(access) - 1):
                    calls[0] = 0
                    access.tuple_at(index)
                    seen[levels].add(calls[0])
    for levels, counts in seen.items():
        (count,) = counts  # every index, at |D| and at 8·|D|
        assert levels <= count <= 2 * levels, (levels, count)


@pytest.mark.parametrize("engine", ENGINES)
def test_enumeration_delay_is_an_odometer_step(engine, monkeypatch):
    """[10] from Theorem 1: ordered enumeration is one descent per
    window, then an odometer step per answer — a full enumeration of
    the 2-path bisects at most twice per level per answer, at |D| as at
    8·|D|, and yields the materialised sort."""
    modules = {
        importlib.import_module(BAG_INDEX_MODULES[engine]), access_module
    }
    calls = Counter()
    for module in modules:
        for name in ("bisect_left", "bisect_right"):
            if hasattr(module, name):
                def counted(*args, _bisect=getattr(module, name)):
                    calls["bisect"] += 1
                    return _bisect(*args)

                monkeypatch.setattr(module, name, counted)
    with use_engine(engine) as active:
        for rows in (300, 2400):
            query, database = path_query(2), functional_path_database(
                2, rows, seed=5
            )
            enumerator = ranked_enumerator(query, X3, database)
            answers = []
            calls.clear()
            walks = _delta(active.counters, lambda: answers.extend(enumerator))
            assert answers == sorted(evaluate(query, database, list(X3)).rows)
            assert calls["bisect"] <= 2 * 3 * len(answers), calls
            windows = -(-len(answers) // DirectAccess.ITER_CHUNK)
            assert walks == {
                "access_batches": windows, "access_indices": len(answers)
            }


def _delta(counters, action) -> Counter:
    before = counters.snapshot()
    action()
    return Counter(counters.snapshot()) - Counter(before)


@pytest.mark.parametrize("engine", ENGINES)
def test_order_statistics_take_logarithmically_many_walks(engine):
    """Proposition 35: a median is one access, a boxplot one batch of
    five, and a prefix count two binary searches of access walks."""
    with use_engine(engine) as active:
        for rows in (500, 4000):
            access = DirectAccess(
                path_query(2), X3, functional_path_database(2, rows, seed=2)
            )
            counter = CountingFromDirectAccess(access)
            constraint = PrefixConstraint((), rows // 4, rows // 2)
            walks = _delta(active.counters, lambda: counter.count(constraint))
            assert set(walks) == {"answer_walks"}
            assert walks["answer_walks"] <= 2 * math.ceil(math.log2(rows)) + 2
            assert _delta(active.counters, lambda: median(access)) == {
                "answer_walks": 1
            }
            assert _delta(active.counters, lambda: boxplot(access)) == {
                "access_batches": 1, "access_indices": 5
            }


@pytest.mark.parametrize("engine", ENGINES)
def test_direct_access_skips_the_output_blowup(engine):
    """§1: on a 2-path whose output is 150× its input, the bags stay
    linear in |D| and sampled answers equal the materialized sort."""
    database = bipartite_path_database(300, 1)
    with use_engine(engine):
        access = DirectAccess(path_query(2), X3, database)
        assert len(access) == 150 * len(database)
        assert access.preprocessing.materialized_size() <= 2 * len(database)
        answers = sorted(evaluate(path_query(2), database, list(X3)).rows)
    for index in range(0, len(answers), 997):
        assert access.tuple_at(index) == answers[index]
