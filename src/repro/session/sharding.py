"""Shard-by-code-range execution: partition one relation, merge by rank.

Lexicographic direct access composes over a *range partition* of the
leading variable: if every served order starts with variable ``x`` and
``x`` is bound at column ``c`` of a relation ``R`` that occurs exactly
once in the query, then splitting ``R`` into contiguous ``x``-ranges
splits the answer array itself into contiguous runs — shard ``k``
holds exactly the answers whose ``x`` falls in chunk ``k``, already in
global order.  The merge layer is therefore pure rank arithmetic:

* ``count``  — sum of shard counts;
* ``access`` — binary-search the prefix-count array for the owning
  shard, ask it for the *local* index;
* ``rank``   — route the tuple by its leading value, add the owning
  shard's prefix count to the local rank;
* ``median`` / ``page`` — the same index arithmetic the task kernels
  use (:mod:`repro.core.tasks`), re-done over global counts.

The merged results are **bit-identical** to unsharded execution (the
differential law in ``tests/test_sharding.py``), because chunks are
contiguous in the same plain ``<`` order the shared
:class:`~repro.data.columnar.Dictionary` sorts by, and each shard
serves its local answers in that order.

This is a library, not a serving mode: ``repro serve`` runs one
process over the whole database.  :class:`ShardedExecutor` is
transport-agnostic — it fans out
:class:`~repro.session.protocol.SessionRequest` objects through a
``(shard_index, request) -> response dict`` callable.  The
:class:`ShardExecutor` base class names that seam;
:class:`LocalShardExecutor` implements it over in-process connections.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass

from repro.errors import OrderError, QueryError
from repro.query.parser import parse_query
from repro.session.protocol import (
    PROTOCOL_VERSION,
    SessionRequest,
    SessionResponse,
)

#: Ops a sharded deployment can serve.  Mutations are excluded by
#: construction (a delta could move tuples across chunk boundaries, so
#: sharded serving is read-only), ``plan``/``db_version`` pass through
#: to shard 0, ``stats`` fans out.
SHARDABLE_OPS = frozenset(
    {"access", "count", "median", "page", "rank", "plan", "stats",
     "db_version", "quit"}
)


@dataclass(frozen=True)
class ShardPlan:
    """A fixed range partition of one relation's column.

    ``cuts`` holds the smallest value owned by each of shards
    ``1..shards-1`` (shard 0 owns everything below ``cuts[0]``), so
    routing a value is one :func:`bisect.bisect_right`.
    """

    relation: str
    column: int
    variable: str
    cuts: tuple
    shards: int

    def shard_of(self, value) -> int:
        """The shard owning ``value`` of the leading variable."""
        return bisect_right(self.cuts, value)

    def describe(self) -> dict:
        return {
            "relation": self.relation,
            "column": self.column,
            "variable": self.variable,
            "shards": self.shards,
            "cuts": list(self.cuts),
        }


def plan_shards(
    database,
    query,
    shards: int,
    variable: str,
    relation: str | None = None,
) -> ShardPlan:
    """Choose and balance a range partition for ``variable``.

    The partitioned relation must bind ``variable`` and occur exactly
    once in the query (filtering one atom of a self-join would filter
    the other occurrence too).  Among the candidates, the largest
    relation is partitioned — that is where the counting forests are
    worth splitting.  Chunks are contiguous in plain ``<`` order over
    the column's distinct values and balanced by row count.
    """
    if shards < 1:
        raise QueryError(f"need at least one shard, got {shards}")
    if isinstance(query, str):
        query = parse_query(query)
    candidates = []  # (name, column)
    for atom in query.atoms:
        if variable in atom.variables:
            if relation is not None and atom.relation != relation:
                continue
            occurrences = sum(
                1 for a in query.atoms if a.relation == atom.relation
            )
            if occurrences != 1:
                continue
            candidates.append(
                (atom.relation, atom.variables.index(variable))
            )
    if not candidates:
        detail = (
            f" on relation {relation!r}" if relation is not None else ""
        )
        raise QueryError(
            f"no shardable atom binds variable {variable!r}{detail}: "
            f"the partitioned relation must bind the leading variable "
            f"and occur exactly once in the query"
        )
    name, column = max(
        candidates, key=lambda pair: len(database[pair[0]])
    )
    counts: dict = {}
    for row in database[name].sorted_tuples():
        value = row[column]
        counts[value] = counts.get(value, 0) + 1
    values = sorted(counts)
    total = sum(counts.values())
    cuts = []
    accumulated = 0
    position = 0
    for boundary in range(1, shards):
        target = total * boundary // shards
        while position < len(values) and accumulated < target:
            accumulated += counts[values[position]]
            position += 1
        if position < len(values):
            cuts.append(values[position])
        # fewer distinct values than shards: trailing shards stay
        # empty (no cut), which the merge handles as count 0.
    return ShardPlan(
        relation=name,
        column=column,
        variable=variable,
        cuts=tuple(cuts),
        shards=max(len(cuts) + 1, shards) if cuts else shards,
    )


def shard_databases(database, plan: ShardPlan) -> list[dict]:
    """Materialize per-shard relation mappings.

    Shard ``k`` gets the partitioned relation filtered to its chunk
    and every other relation whole.  Returned as plain mappings so
    each shard's connection builds its own encoded database over its
    subset.
    """
    out: list[dict] = []
    partitioned = [set() for _ in range(plan.shards)]
    for row in database[plan.relation].sorted_tuples():
        partitioned[plan.shard_of(row[plan.column])].add(row)
    whole = {
        name: set(rel.sorted_tuples())
        for name, rel in database.relations.items()
        if name != plan.relation
    }
    for index in range(plan.shards):
        mapping = dict(whole)
        mapping[plan.relation] = partitioned[index]
        out.append(mapping)
    return out


def _error(request: SessionRequest, error: Exception) -> dict:
    return SessionResponse(
        op=request.op,
        ok=False,
        error=str(error),
        error_type=type(error).__name__,
    ).to_dict()


class ShardedExecutor:
    """Fan one request out over shard executors; merge by rank.

    ``execute_fn(index, request) -> response dict`` is the only
    coupling to a transport.  Count vectors are cached per
    ``(query, order)`` — sharded serving is read-only, so counts can
    never go stale.
    """

    def __init__(
        self,
        plan: ShardPlan,
        execute_fn,
        default_query: str | None = None,
    ):
        self.plan = plan
        self._execute = execute_fn
        self._default_query = default_query
        self._counts_lock = threading.Lock()
        self._counts: dict = {}

    # -- plumbing ----------------------------------------------------------

    def _fan(self, request: SessionRequest, indexes=None) -> list[dict]:
        """The same request on every shard (or ``indexes``); raises the
        first shard error as a ready-to-return response via
        :class:`_ShardFailure`."""
        replies = []
        for index in indexes if indexes is not None else range(
            self.plan.shards
        ):
            reply = self._execute(index, request)
            if not reply.get("ok"):
                raise _ShardFailure(reply, request.op)
            replies.append(reply)
        return replies

    def _cums(self, request: SessionRequest):
        """Per-shard prefix counts for the request's (query, order)."""
        cache_key = (request.query, request.order)
        with self._counts_lock:
            cached = self._counts.get(cache_key)
        if cached is not None:
            return cached
        count_request = SessionRequest(
            op="count",
            query=request.query,
            order=request.order,
            db_version=request.db_version,
        )
        replies = self._fan(count_request)
        counts = [reply["result"]["count"] for reply in replies]
        served = replies[0]["result"]
        cums = [0]
        for count in counts:
            cums.append(cums[-1] + count)
        entry = (
            cums,
            {
                "order": served["order"],
                **(
                    {"db_version": served["db_version"]}
                    if "db_version" in served
                    else {}
                ),
            },
        )
        with self._counts_lock:
            self._counts[cache_key] = entry
        return entry

    def _answers_at(
        self, request: SessionRequest, positions: list[int]
    ) -> list[list]:
        """Global ``positions`` (validated, non-negative) resolved by
        per-shard batch access, merged back into request order."""
        cums, _served = self._cums(request)
        by_shard: dict[int, list[tuple[int, int]]] = {}
        for slot, position in enumerate(positions):
            shard = bisect_right(cums, position) - 1
            shard = min(shard, self.plan.shards - 1)
            by_shard.setdefault(shard, []).append(
                (slot, position - cums[shard])
            )
        out: list = [None] * len(positions)
        for shard, pairs in by_shard.items():
            shard_request = SessionRequest(
                op="access",
                query=request.query,
                order=request.order,
                indices=tuple(local for _slot, local in pairs),
                db_version=request.db_version,
            )
            reply = self._fan(shard_request, indexes=(shard,))[0]
            answers = reply["result"]["answers"]
            for (slot, _local), answer in zip(pairs, answers):
                out[slot] = answer
        return out

    # -- the merged executor ----------------------------------------------

    def execute(self, request: SessionRequest) -> dict:
        """Serve ``request`` over the shards; a response dict with the
        same shape, values, and error types as unsharded
        :func:`~repro.session.protocol.execute`."""
        from repro.errors import (
            OutOfBoundsError,
            ProtocolError,
            ReadOnlyError,
            ReproError,
        )

        op = request.op
        if request.query is None and self._default_query is not None:
            request = SessionRequest(
                **{
                    **{
                        f: getattr(request, f)
                        for f in request.__dataclass_fields__
                    },
                    "query": self._default_query,
                }
            )
        try:
            if request.version > PROTOCOL_VERSION:
                raise ProtocolError(
                    f"request speaks protocol {request.version}, this "
                    f"server speaks {PROTOCOL_VERSION}"
                )
            if op in ("insert", "delete"):
                raise ReadOnlyError(
                    "sharded serving is read-only: a delta could move "
                    "tuples across shard boundaries"
                )
            if op == "quit":
                return SessionResponse(op=op, ok=True).to_dict()
            if op == "stats":
                replies = self._fan(request)
                return SessionResponse(
                    op=op,
                    ok=True,
                    result={
                        "sharded": self.plan.describe(),
                        "shards": [r["result"] for r in replies],
                    },
                ).to_dict()
            if op in ("plan", "db_version"):
                return self._fan(request, indexes=(0,))[0]
            if op not in SHARDABLE_OPS:
                raise ProtocolError(
                    f"unknown command {op!r} (try 'help')"
                )
            # view ops from here on
            if (
                request.order is None
                or request.order[0] != self.plan.variable
            ):
                raise OrderError(
                    f"sharded serving partitions variable "
                    f"{self.plan.variable!r}: every order must start "
                    f"with it (got {request.order!r})"
                )
            cums, served = self._cums(request)
            total = cums[-1]
            if op == "count":
                return SessionResponse(
                    op=op, ok=True, result=dict(served, count=total)
                ).to_dict()
            if op == "median":
                if total == 0:
                    raise OutOfBoundsError(
                        "no answers: quantiles undefined"
                    )
                answer = self._answers_at(request, [(total - 1) // 2])[0]
                return SessionResponse(
                    op=op, ok=True, result=dict(served, answer=answer)
                ).to_dict()
            if op == "access":
                if not request.indices:
                    raise ProtocolError(
                        "access needs at least one index"
                    )
                positions = []
                for index in request.indices:
                    position = index + total if index < 0 else index
                    if not 0 <= position < total:
                        raise OutOfBoundsError(
                            f"index {index} out of range "
                            f"[-{total}, {total})"
                        )
                    positions.append(position)
                answers = self._answers_at(request, positions)
                return SessionResponse(
                    op=op,
                    ok=True,
                    result=dict(
                        served,
                        indices=list(request.indices),
                        answers=answers,
                    ),
                ).to_dict()
            if op == "page":
                number, size = request.page_number, request.page_size
                if number is None or size is None:
                    raise ProtocolError(
                        "page needs page_number and page_size"
                    )
                if number < 0:
                    raise OutOfBoundsError(
                        f"page number must be non-negative, "
                        f"got {number}"
                    )
                if size <= 0:
                    raise OutOfBoundsError(
                        f"page size must be positive, got {size}"
                    )
                start = number * size
                stop = min(start + size, total)
                positions = list(range(start, stop))
                answers = (
                    self._answers_at(request, positions)
                    if positions
                    else []
                )
                return SessionResponse(
                    op=op,
                    ok=True,
                    result=dict(
                        served,
                        page_number=number,
                        page_size=size,
                        answers=answers,
                    ),
                ).to_dict()
            if op == "rank":
                rows = (
                    [list(row) for row in request.answers]
                    if request.answers is not None
                    else None
                )
                if rows is None:
                    if request.answer is None:
                        raise ProtocolError(
                            "rank needs an answer tuple"
                        )
                    ranks = self._ranks(
                        request, [list(request.answer)], cums
                    )
                    return SessionResponse(
                        op=op,
                        ok=True,
                        result=dict(
                            served,
                            answer=list(request.answer),
                            rank=ranks[0],
                        ),
                    ).to_dict()
                ranks = self._ranks(request, rows, cums)
                return SessionResponse(
                    op=op,
                    ok=True,
                    result=dict(served, answers=rows, ranks=ranks),
                ).to_dict()
            raise ProtocolError(
                f"unknown command {op!r} (try 'help')"
            )  # pragma: no cover - SHARDABLE_OPS is exhaustive
        except _ShardFailure as failure:
            return failure.reply
        except (ReproError, ValueError) as error:
            return _error(request, error)

    def _ranks(
        self, request: SessionRequest, rows: list[list], cums
    ) -> list:
        by_shard: dict[int, list[int]] = {}
        for slot, row in enumerate(rows):
            if not row:
                continue
            shard = min(
                self.plan.shard_of(row[0]), self.plan.shards - 1
            )
            by_shard.setdefault(shard, []).append(slot)
        ranks: list = [None] * len(rows)
        for shard, slots in by_shard.items():
            shard_request = SessionRequest(
                op="rank",
                query=request.query,
                order=request.order,
                answers=tuple(tuple(rows[slot]) for slot in slots),
                db_version=request.db_version,
            )
            reply = self._fan(shard_request, indexes=(shard,))[0]
            for slot, local in zip(slots, reply["result"]["ranks"]):
                ranks[slot] = (
                    None if local is None else local + cums[shard]
                )
        return ranks


class _ShardFailure(Exception):
    """A shard answered ``ok=False``; surface its response verbatim
    (same error type and message a single-node server would send)."""

    def __init__(self, reply: dict, op: str):
        super().__init__(reply.get("error"))
        self.reply = dict(reply, op=op)


class ShardExecutor:
    """The transport seam of sharded serving.

    One method: :meth:`execute` takes ``(shard_index, request)`` and
    returns the shard's :class:`~repro.session.SessionResponse` *as a
    dict* — exactly what single-node
    :func:`~repro.session.protocol.execute` would produce for that
    shard's database.  Where the shard lives is the subclass's
    business; the merge math in :class:`ShardedExecutor`
    never changes.  Instances are callable, so plain
    ``execute_fn(index, request)`` functions and executor objects are
    interchangeable.
    """

    def execute(self, index: int, request: SessionRequest) -> dict:
        raise NotImplementedError

    def __call__(self, index: int, request: SessionRequest) -> dict:
        return self.execute(index, request)

    def close(self) -> None:
        """Release transport resources (sockets, connections)."""


class LocalShardExecutor(ShardExecutor):
    """In-process shards: one :func:`repro.connect` per shard mapping.

    Whatever answers these connections give *is* the specification of
    sharded execution.
    """

    def __init__(self, databases: list[dict], engine: str):
        from repro.facade import connect

        self._connections = [
            connect(mapping, engine=engine) for mapping in databases
        ]

    def execute(self, index: int, request: SessionRequest) -> dict:
        from repro.session.protocol import execute

        return execute(self._connections[index], request).to_dict()

    def close(self) -> None:
        self._connections = []


def local_shard_executor(
    databases: list[dict], engine: str
) -> LocalShardExecutor:
    """An in-process ``execute_fn`` over per-shard connections — the
    reference the differential suite compares the merge against."""
    return LocalShardExecutor(databases, engine)


__all__ = [
    "SHARDABLE_OPS",
    "LocalShardExecutor",
    "ShardExecutor",
    "ShardPlan",
    "ShardedExecutor",
    "local_shard_executor",
    "plan_shards",
    "shard_databases",
]
