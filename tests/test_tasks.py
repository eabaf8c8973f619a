"""Tests for the order-sensitive task layer (median, sampling, ...)."""

import pytest

from repro.core.access import DirectAccess
from repro.core.tasks import (
    boxplot,
    enumerate_in_order,
    median,
    page,
    quantile,
    sample,
)
from repro.data.database import Database
from repro.errors import OutOfBoundsError
from repro.query.parser import parse_query
from repro.query.variable_order import VariableOrder
from tests.conftest import lex_answers, random_database_for


@pytest.fixture
def access(rng):
    query = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
    db = random_database_for(query, rng, rows=25, domain=5)
    order = VariableOrder(["x", "y", "z"])
    return (
        DirectAccess(query, order, db),
        lex_answers(query, db, order),
    )


class TestOrderStatistics:
    def test_median(self, access):
        da, answers = access
        assert median(da) == answers[(len(answers) - 1) // 2]

    def test_quantiles(self, access):
        da, answers = access
        n = len(answers)
        assert quantile(da, 0) == answers[0]
        assert quantile(da, 1) == answers[-1]
        assert quantile(da, 0.25) == answers[(n - 1) // 4]

    def test_quantile_bounds(self, access):
        da, _ = access
        with pytest.raises(ValueError):
            quantile(da, 1.5)

    def test_boxplot(self, access):
        da, answers = access
        summary = boxplot(da)
        assert summary["min"] == answers[0]
        assert summary["max"] == answers[-1]
        assert summary["median"] == median(da)

    def test_empty_access_raises(self):
        from repro.data.relation import Relation

        q = parse_query("Q(x) :- R(x)")
        da = DirectAccess(
            q,
            VariableOrder(["x"]),
            Database({"R": Relation([], arity=1)}),
        )
        with pytest.raises(OutOfBoundsError):
            median(da)


class TestSamplingAndPagination:
    def test_sample_without_repetition(self, access):
        da, answers = access
        drawn = sample(da, 10, seed=3)
        assert len(drawn) == len(set(drawn)) == 10
        assert set(drawn) <= set(answers)

    def test_sample_too_large(self, access):
        da, _ = access
        with pytest.raises(OutOfBoundsError):
            sample(da, len(da) + 1)

    def test_sample_negative_k(self, access):
        """A negative k is the same caller bug as k > n: the library's
        OutOfBoundsError, not random.Random.sample's bare ValueError."""
        da, _ = access
        with pytest.raises(OutOfBoundsError):
            sample(da, -1)

    def test_sample_zero_k(self, access):
        da, _ = access
        assert sample(da, 0) == []

    def test_pagination(self, access):
        da, answers = access
        size = 7
        collected = []
        number = 0
        while True:
            chunk = page(da, number, size)
            if not chunk:
                break
            collected.extend(chunk)
            number += 1
        assert collected == answers

    def test_negative_page_raises(self, access):
        """Regression: negative pages used to clamp silently to page 0."""
        da, answers = access
        with pytest.raises(OutOfBoundsError):
            page(da, -1, 5)
        with pytest.raises(OutOfBoundsError):
            page(da, -100, 5)
        # Pages past the end stay empty (they end forward scans).
        assert page(da, len(answers), 5) == []

    def test_bad_page_size_raises(self, access):
        da, _ = access
        with pytest.raises(OutOfBoundsError):
            page(da, 0, 0)
        with pytest.raises(OutOfBoundsError):
            page(da, 2, -3)

    def test_enumeration(self, access):
        da, answers = access
        assert list(enumerate_in_order(da)) == answers
        assert len(da) == len(answers)

    def test_enumeration_chunked(self, access):
        """Chunk boundaries are invisible in the enumeration order."""
        da, answers = access
        assert list(enumerate_in_order(da, chunk=3)) == answers
        assert list(enumerate_in_order(da, chunk=10**6)) == answers

    def test_enumeration_rejects_bad_chunk(self, access):
        da, _ = access
        with pytest.raises(ValueError):
            list(enumerate_in_order(da, chunk=0))
        with pytest.raises(ValueError):
            list(enumerate_in_order(da, chunk=-5))


class TestBatchedTaskLayer:
    """The task helpers resolve index sets through one batch access."""

    def test_tasks_route_through_batch_api(self, access):
        da, _ = access

        calls = {"batch": 0, "scalar": 0}

        class Spy:
            def __len__(self):
                return len(da)

            def tuple_at(self, index):
                calls["scalar"] += 1
                return da.tuple_at(index)

            def tuples_at(self, indices):
                calls["batch"] += 1
                return da.tuples_at(indices)

        spy = Spy()
        boxplot(spy)
        sample(spy, min(5, len(da)), seed=0)
        page(spy, 0, 5)
        list(enumerate_in_order(spy))
        assert calls["batch"] >= 4
        assert calls["scalar"] == 0

    def test_batched_results_match_scalar(self, access):
        """Bit-identical to resolving every index with tuple_at."""
        da, answers = access

        class ScalarOnly:
            def __len__(self):
                return len(da)

            def tuple_at(self, index):
                return da.tuple_at(index)

        scalar = ScalarOnly()
        assert boxplot(da) == boxplot(scalar)
        assert sample(
            da, 8, seed=11
        ) == sample(scalar, 8, seed=11)
        assert page(da, 1, 6) == page(scalar, 1, 6)
        assert list(enumerate_in_order(da)) == list(
            enumerate_in_order(scalar)
        )

    def test_direct_access_iter_is_chunked_and_lazy(self, access):
        da, answers = access
        assert DirectAccess.ITER_CHUNK > 0
        expected = [
            {v: value for v, value in zip(da.free_variables, row)}
            for row in answers
        ]
        assert list(iter(da)) == expected
        # A tiny chunk size must not change the stream.
        old = DirectAccess.ITER_CHUNK
        try:
            DirectAccess.ITER_CHUNK = 2
            assert list(iter(da)) == expected
        finally:
            DirectAccess.ITER_CHUNK = old

    def test_tuples_at_matches_tuple_at(self, access):
        da, answers = access
        n = len(da)
        indices = [0, n // 2, n - 1, -1, -n]
        assert da.tuples_at(indices) == [
            da.tuple_at(i % n) for i in indices
        ]
