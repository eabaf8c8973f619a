"""Unit tests of the ledger's helpers: ``pytest benchmarks/ledger``.

Only the pure parts — statistics, seeded inputs, the oracle; the
end-to-end smoke run is ``run.py --check``.
"""

import random

import pytest

import ledger_inputs as inputs
import ledger_stats as stats


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert stats.percentile(values, 50) == 50
        assert stats.percentile(values, 99) == 99
        assert stats.percentile(values, 100) == 100
        assert stats.percentile([7], 99) == 7

    def test_order_does_not_matter(self):
        values = [5, 1, 4, 2, 3]
        assert stats.percentile(values, 50) == 3

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            stats.percentile([], 50)

    def test_tail_needs_ten_samples_beyond(self):
        q, value = stats.tail_percentile(list(range(1000)))
        assert (q, value) == (99.0, 989)
        q, _value = stats.tail_percentile(list(range(40)))
        assert q == 75.0  # 10 of 40 samples lie beyond p75
        q, _value = stats.tail_percentile(list(range(12)))
        assert q == 50.0  # never below the median


class TestQuietest:
    def test_median_within_the_quietest_block(self):
        samples = [
            value
            for b in (30, 11, 50, 12, 13)
            for value in (b, b, b + 1, b + 2, 99)
        ]
        value, blocks = stats.quietest(samples, size=5)
        assert value == 12  # block medians 31, 12, 51, 13, 14
        assert blocks == 5

    def test_the_last_block_takes_the_remainder(self):
        samples = list(range(20, 0, -1))
        # 20..12 and the remaining eleven, 11..1.
        assert stats.quietest(samples, size=9) == (6.0, 2)

    def test_too_few_samples_are_one_block(self):
        assert stats.quietest([1, 100, 3], size=9) == (3.0, 1)

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            stats.quietest([])


class TestExponentFit:
    @pytest.mark.parametrize("exponent", [1.0, 1.5, 2.0])
    def test_recovers_a_power_law(self, exponent):
        sizes = [1000, 4000, 16000]
        seconds = [3e-7 * size**exponent for size in sizes]
        assert stats.fit_exponent(sizes, seconds) == pytest.approx(exponent)

    def test_needs_two_distinct_sizes(self):
        with pytest.raises(ValueError):
            stats.fit_exponent([10], [1.0])
        with pytest.raises(ValueError):
            stats.fit_exponent([10, 10], [1.0, 2.0])


class TestSelfTimes:
    def test_span_minus_children(self):
        spans = [
            stats.span("front", 0, None, 0, 100),
            stats.span("session", 0, "front", 200, 260),
            stats.span("facade", 0, "session", 300, 340),
            stats.span("front", 1, None, 400, 450),
        ]
        own = stats.self_times(spans)
        assert own["front"] == [40, 50]  # op 1 has no child span
        assert own["session"] == [20]
        assert own["facade"] == [40]

    def test_negative_self_time_is_not_clamped(self):
        spans = [
            stats.span("facade", 7, None, 0, 10),
            stats.span("engine", 7, "facade", 20, 35),
        ]
        assert stats.self_times(spans)["facade"] == [-5]

    def test_children_of_other_operations_do_not_count(self):
        spans = [
            stats.span("facade", 0, None, 0, 10),
            stats.span("engine", 1, "facade", 20, 28),
        ]
        assert stats.self_times(spans)["facade"] == [10]


class TestSpread:
    def test_interquartile_distance_over_median(self):
        values = [float(v) for v in range(1, 11)]
        # statistics.quantiles(n=4) on 1..10: 2.75 and 8.25.
        assert stats.spread(values) == pytest.approx(5.5 / 5.5)

    def test_steady_values_have_no_spread(self):
        assert stats.spread([3.0] * 10) == 0.0
        assert stats.spread([3.0]) == 0.0


class TestInputs:
    ROWS = 400

    def relations(self, seed=5):
        return inputs.star_relations(seed, self.ROWS)

    def test_same_seed_same_input(self):
        assert self.relations() == self.relations()
        assert self.relations(5) != self.relations(6)

    def test_sizes_and_even_domain(self):
        relations = self.relations()
        assert {len(rows) for rows in relations.values()} == {self.ROWS}
        assert all(y % 2 == 0 for _x, y in relations["R"])
        assert all(u % 2 == 0 and w % 2 == 0 for u, w in relations["T"])

    def test_oracle_matches_a_brute_force_join(self):
        relations = self.relations()
        oracle = inputs.StarOracle(relations["R"], relations["S"])
        joined = sorted(
            (x, y, z)
            for x, y in relations["R"]
            for x2, z in relations["S"]
            if x == x2
        )
        assert len(oracle) == len(joined)
        assert oracle.answers(0, len(joined)) == joined
        for index in (0, len(joined) // 2, len(joined) - 1):
            assert oracle.rank(joined[index]) == index
        x, y, z = joined[0]
        assert oracle.rank((x, y + 1, z)) is None  # y values are even

    def test_oracle_tracks_inserts(self):
        relations = self.relations()
        oracle = inputs.StarOracle(relations["R"], relations["S"])
        deltas = inputs.delta_stream(5, self.ROWS, oracle)
        ceiling = 2 * self.ROWS
        for cycle in range(8):
            before = len(oracle)
            row, probe = next(deltas)
            assert row not in relations["R"]
            assert oracle.rank(probe) is None
            oracle.insert_r(row)
            relations["R"].add(row)
            assert len(oracle) > before
            assert oracle.answer(oracle.rank(probe)) == probe
            if cycle % 4 == 3:  # interior: odd, inside the domain
                assert row[1] % 2 == 1 and row[1] < ceiling
            else:  # past the domain maximum
                assert row[1] >= ceiling

    def test_point_pool_holds_the_exact_mix(self):
        relations = self.relations()
        oracle = inputs.StarOracle(relations["R"], relations["S"])
        pool = inputs.point_pool(oracle, random.Random(1), 200)
        kinds = [kind for kind, _arg in pool]
        assert kinds.count(inputs.ACCESS) == 120
        assert kinds.count(inputs.RANK) == 50
        assert kinds.count(inputs.PAGE) == 20
        assert kinds.count(inputs.OTHER) == 10
        for start in range(0, 200, 10):  # every half-group of ten
            half = kinds[start : start + 10]
            assert inputs.PAGE in half and inputs.RANK in half
        for kind, arg in pool:
            if kind == inputs.RANK:
                assert oracle.rank(arg) is not None

    def test_grid_answer_is_lexicographic(self):
        dims = (3, 4, 5)
        listed = [
            (a, b, c)
            for a in range(3)
            for b in range(4)
            for c in range(5)
        ]
        assert [
            inputs.grid_answer(index, dims) for index in range(60)
        ] == listed
