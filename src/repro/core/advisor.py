"""The order advisor: choosing a lexicographic order wisely.

Theorem 44 makes the preprocessing exponent an exact function of the
query and the order, so the cost of every ordering can be known *before
touching the data*. This module ranks orders by incompatibility number,
answers "what is the cheapest order extending my required prefix?"
(Definition 49's minimization, exposed as a planning tool) and surfaces
which variables are responsible for the hardness (the witness bag and
its disruptive structure).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from repro.core.decomposition import DisruptionFreeDecomposition
from repro.hypergraph.disruptive_trios import find_disruptive_trio
from repro.hypergraph.hypergraph import Hypergraph
from repro.query.query import JoinQuery
from repro.query.variable_order import VariableOrder


@dataclass(frozen=True)
class OrderReport:
    """One ranked ordering and why it costs what it costs.

    Attributes:
        order: the variable order.
        iota: its incompatibility number (the preprocessing exponent).
        witness_edge: the bag realizing ι.
        disruptive_trio: a trio witnessing incompatibility with the
            original hypergraph, or None.
        decomposition: optional slot (excluded from equality/repr) a
            cache-aware planner can fill — e.g. the store attaches
            decompositions to the few head reports it keeps, so serving
            the planned order needs no recomputation.  Rankings leave
            it ``None`` to avoid retaining factorial-many
            decompositions.
    """

    order: VariableOrder
    iota: Fraction
    witness_edge: frozenset[str]
    disruptive_trio: tuple[str, str, str] | None
    decomposition: DisruptionFreeDecomposition | None = field(
        default=None, compare=False, repr=False
    )

    def describe(self) -> str:
        trio = (
            f"disruptive trio {self.disruptive_trio}"
            if self.disruptive_trio
            else "no disruptive trio"
        )
        return (
            f"{list(self.order)}: ι = {self.iota} "
            f"(witness bag {sorted(self.witness_edge)}; {trio})"
        )


def rank_orders(
    query: JoinQuery, limit: int | None = None
) -> list[OrderReport]:
    """All variable orders of ``query``, cheapest first.

    Ties are broken lexicographically on the order itself, so the
    ranking is deterministic. ``limit`` truncates the output (the number
    of orders is factorial in the query size) and streams: only the
    best ``limit`` reports are retained while iterating.
    """
    return _rank(query, permutations(query.variables), limit)


def _rank(
    query: JoinQuery, candidate_orders, limit: int | None
) -> list[OrderReport]:
    """Rank candidate orders; decompositions are dropped per candidate
    so only small report tuples accumulate (cache-aware planners
    rebuild them for the few reports they actually use)."""
    hypergraph = Hypergraph.of_query(query)

    def reports():
        for perm in candidate_orders:
            order = VariableOrder(perm)
            decomposition = DisruptionFreeDecomposition(query, order)
            yield OrderReport(
                order=order,
                iota=decomposition.incompatibility_number,
                witness_edge=decomposition.witness_bag().edge,
                disruptive_trio=find_disruptive_trio(
                    hypergraph, order
                ),
            )

    def sort_key(report: OrderReport):
        return (report.iota, report.order.variables)

    if limit is not None:
        return heapq.nsmallest(limit, reports(), key=sort_key)
    return sorted(reports(), key=sort_key)


def cheapest_order(query: JoinQuery) -> OrderReport:
    """The globally cheapest order — ι equals fhtw (Proposition 45)."""
    return rank_orders(query, limit=1)[0]


def rank_orders_with_prefix(
    query: JoinQuery,
    prefix: VariableOrder,
    limit: int | None = None,
) -> list[OrderReport]:
    """All orders extending ``prefix``, cheapest first.

    The planning face of Definition 49 (without projections): the user
    needs the answers sorted primarily by ``prefix`` and does not care
    how ties are broken; the ranking lists every completion by its
    preprocessing exponent so a cache-aware planner (the store) can
    trade a marginally higher exponent for an already-cached
    decomposition.
    """
    prefix.validate_for(query, partial=True)
    listed = set(prefix)
    rest = [v for v in query.variables if v not in listed]
    return _rank(
        query,
        (
            tuple(prefix) + completion
            for completion in permutations(rest)
        ),
        limit,
    )


def cheapest_order_with_prefix(
    query: JoinQuery, prefix: VariableOrder
) -> OrderReport:
    """The cheapest order starting with ``prefix``."""
    return rank_orders_with_prefix(query, prefix, limit=1)[0]


def order_cost_spread(query: JoinQuery) -> tuple[Fraction, Fraction]:
    """(min, max) incompatibility number over all orders.

    Quantifies how much the choice of order matters for the query: the
    max/min gap is the polynomial price of asking for the wrong order.
    """
    reports = rank_orders(query)
    return reports[0].iota, reports[-1].iota
