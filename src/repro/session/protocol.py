"""The session wire protocol: versioned, JSON-serializable requests.

One request/response shape shared by every transport: the ``repro
session`` CLI reads one :class:`SessionRequest` JSON object per stdin
line, ``repro serve`` one per HTTP POST, and a single executor
(:func:`execute`) serves both against a facade
:class:`~repro.facade.Connection` — there is exactly one codepath from
a request to an answer.

The protocol is versioned (:data:`PROTOCOL_VERSION`): requests carry
the version they speak, a server rejects versions newer than its own
with a clean error response, and responses echo the version so clients
can do the same.  All payloads are plain JSON types (tuples become
lists on the wire).

    >>> from repro.session.protocol import SessionRequest
    >>> request = SessionRequest(op="access", order=("x", "y"), indices=(0, -1))
    >>> SessionRequest.from_json(request.to_json()) == request
    True
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from repro.errors import ProtocolError, ReproError

#: Version of the request/response shapes this module speaks.
#: Version 2 added live mutations (``insert`` / ``delete`` /
#: ``db_version`` ops, the ``db_version`` staleness pin on read ops)
#: and batched inverse access (``answers`` on ``rank``).  Version 3
#: added the atomic multi-relation ``apply`` op (``inserts`` /
#: ``deletes`` request fields, one version bump for the whole delta)
#: and MVCC pin semantics: a read op pinned to a retained
#: ``db_version`` is *served from that snapshot* instead of raising
#: ``StaleViewError`` — the error remains for evicted versions.
PROTOCOL_VERSION = 3

#: Operations a server understands.  ``quit`` is included so clients can
#: end a stream in-band; transports decide what to do after its ack.
OPS = frozenset(
    {
        "access",
        "apply",
        "count",
        "db_version",
        "delete",
        "insert",
        "median",
        "page",
        "plan",
        "rank",
        "stats",
        "quit",
    }
)

#: Ops that serve a prepared view and therefore honour the request's
#: ``db_version`` pin (served from that MVCC snapshot while retained).
VIEW_OPS = frozenset({"access", "count", "median", "page", "rank"})

#: Ops that mutate the served database (refused on read-only servers).
MUTATION_OPS = frozenset({"apply", "delete", "insert"})

#: One-line summary per op — the machine-checkable core of
#: ``docs/protocol.md`` (the sync test diffs the doc against this and
#: against :data:`OPS`, so neither can rot).
OP_SUMMARIES = {
    "access": "answer tuples at the given indices (batch direct access)",
    "apply": "apply a multi-relation delta atomically (one version bump)",
    "count": "the number of answers, never enumerated",
    "db_version": "the served database's current version",
    "delete": "remove rows from one relation (bumps db_version)",
    "insert": "add rows to one relation (bumps db_version)",
    "median": "the middle answer under the served order",
    "page": "one page of ranked answers (page_number, page_size)",
    "plan": "the order the cache-aware advisor would serve with",
    "rank": "inverse access: the index of an answer tuple, or null",
    "stats": "the store's request, work and cache counters",
    "quit": "end an in-band stream (transports decide what follows)",
}
assert set(OP_SUMMARIES) == OPS


def _string_tuple(value, name: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise ProtocolError(f"{name} must be a list of variable names")
    return tuple(value)


@dataclass(frozen=True)
class SessionRequest:
    """One serving request, independent of transport.

    ``query`` is optional: the CLI session binds one query for its whole
    lifetime and fills it in, but a standalone client may send it per
    request.  ``order=None`` lets the cache-aware planner choose.
    """

    op: str
    query: str | None = None
    order: tuple[str, ...] | None = None
    prefix: tuple[str, ...] | None = None
    indices: tuple[int, ...] = ()
    page_number: int | None = None
    page_size: int | None = None
    answer: tuple | None = None
    answers: tuple[tuple, ...] | None = None
    relation: str | None = None
    rows: tuple[tuple, ...] | None = None
    inserts: dict | None = None
    deletes: dict | None = None
    db_version: int | None = None
    version: int = PROTOCOL_VERSION

    def __post_init__(self):
        if self.op not in OPS:
            raise ProtocolError(
                f"unknown command {self.op!r} (try 'help')"
            )

    # -- wire form ---------------------------------------------------------

    def to_dict(self) -> dict:
        """The JSON-ready form (defaults omitted, tuples as lists)."""
        out: dict = {"version": self.version, "op": self.op}
        if self.query is not None:
            out["query"] = self.query
        if self.order is not None:
            out["order"] = list(self.order)
        if self.prefix is not None:
            out["prefix"] = list(self.prefix)
        if self.indices:
            out["indices"] = list(self.indices)
        if self.page_number is not None:
            out["page_number"] = self.page_number
        if self.page_size is not None:
            out["page_size"] = self.page_size
        if self.answer is not None:
            out["answer"] = list(self.answer)
        if self.answers is not None:
            out["answers"] = [list(row) for row in self.answers]
        if self.relation is not None:
            out["relation"] = self.relation
        if self.rows is not None:
            out["rows"] = [list(row) for row in self.rows]
        for name, side in (
            ("inserts", self.inserts),
            ("deletes", self.deletes),
        ):
            if side is not None:
                out[name] = {
                    relation: [list(row) for row in rows]
                    for relation, rows in side.items()
                }
        if self.db_version is not None:
            out["db_version"] = self.db_version
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data) -> "SessionRequest":
        if not isinstance(data, dict):
            raise ProtocolError("request must be a JSON object")
        unknown = data.keys() - _REQUEST_FIELDS
        if unknown:
            raise ProtocolError(
                f"unknown request fields: {sorted(unknown)}"
            )
        version = data.get("version", PROTOCOL_VERSION)
        if not isinstance(version, int) or isinstance(version, bool):
            raise ProtocolError("version must be an integer")
        if version > PROTOCOL_VERSION:
            raise ProtocolError(
                f"request speaks protocol {version}, this server "
                f"speaks {PROTOCOL_VERSION}"
            )
        op = data.get("op")
        if not isinstance(op, str):
            raise ProtocolError("request needs a string 'op'")
        query = data.get("query")
        if query is not None and not isinstance(query, str):
            raise ProtocolError("query must be a string")
        order = data.get("order")
        if order is not None:
            order = _string_tuple(order, "order")
        prefix = data.get("prefix")
        if prefix is not None:
            prefix = _string_tuple(prefix, "prefix")
        indices = data.get("indices", ())
        if not isinstance(indices, (list, tuple)) or not all(
            isinstance(i, int) and not isinstance(i, bool)
            for i in indices
        ):
            raise ProtocolError("indices must be a list of integers")
        answer = data.get("answer")
        if answer is not None:
            if not isinstance(answer, (list, tuple)):
                raise ProtocolError("answer must be a list of values")
            answer = tuple(answer)

        def row_batch(name: str):
            value = data.get(name)
            if value is None:
                return None
            if not isinstance(value, (list, tuple)) or not all(
                isinstance(row, (list, tuple)) for row in value
            ):
                raise ProtocolError(
                    f"{name} must be a list of rows (lists of values)"
                )
            return tuple(tuple(row) for row in value)

        answers = row_batch("answers")
        rows = row_batch("rows")

        def delta_side(name: str):
            value = data.get(name)
            if value is None:
                return None
            if not isinstance(value, dict) or not all(
                isinstance(relation, str)
                and isinstance(side_rows, (list, tuple))
                and all(
                    isinstance(row, (list, tuple)) for row in side_rows
                )
                for relation, side_rows in value.items()
            ):
                raise ProtocolError(
                    f"{name} must map relation names to lists of rows"
                )
            return {
                relation: tuple(tuple(row) for row in side_rows)
                for relation, side_rows in value.items()
            }

        inserts = delta_side("inserts")
        deletes = delta_side("deletes")
        relation = data.get("relation")
        if relation is not None and not isinstance(relation, str):
            raise ProtocolError("relation must be a string")
        page_number = data.get("page_number")
        page_size = data.get("page_size")
        db_version = data.get("db_version")
        for name, value in (
            ("page_number", page_number),
            ("page_size", page_size),
            ("db_version", db_version),
        ):
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                raise ProtocolError(f"{name} must be an integer")
        return cls(
            op=op,
            query=query,
            order=order,
            prefix=prefix,
            indices=tuple(indices),
            page_number=page_number,
            page_size=page_size,
            answer=answer,
            answers=answers,
            relation=relation,
            rows=rows,
            inserts=inserts,
            deletes=deletes,
            db_version=db_version,
            version=version,
        )

    @classmethod
    def from_json(cls, text: str) -> "SessionRequest":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ProtocolError(f"bad JSON request: {error}") from None
        return cls.from_dict(data)


_REQUEST_FIELDS = frozenset(f.name for f in fields(SessionRequest))

#: ``json.dumps(..., default=str)`` builds a new encoder per call; one
#: shared encoder writes the same bytes.  ``default=str`` keeps exotic
#: (non-JSON) constants printable instead of failing the response.
_RESPONSE_ENCODER = json.JSONEncoder(default=str)


@dataclass(frozen=True)
class SessionResponse:
    """The answer to one :class:`SessionRequest`.

    ``ok`` distinguishes served results from request errors; a failed
    request carries the error message in ``error`` and ``result=None``,
    plus the library's exception class name in ``error_type`` (e.g.
    ``"OutOfBoundsError"``) so remote clients can re-raise the same
    exception a local call would have raised.  ``result`` holds only
    JSON types — answer tuples arrive as lists.
    """

    op: str
    ok: bool
    result: object = None
    error: str | None = None
    error_type: str | None = None
    version: int = PROTOCOL_VERSION

    def to_dict(self) -> dict:
        out: dict = {
            "version": self.version,
            "op": self.op,
            "ok": self.ok,
        }
        if self.ok:
            out["result"] = self.result
        else:
            out["error"] = self.error
            if self.error_type is not None:
                out["error_type"] = self.error_type
        return out

    def to_json(self) -> str:
        return _RESPONSE_ENCODER.encode(self.to_dict())

    @classmethod
    def from_dict(cls, data) -> "SessionResponse":
        if not isinstance(data, dict):
            raise ProtocolError("response must be a JSON object")
        version = data.get("version", PROTOCOL_VERSION)
        if not isinstance(version, int) or isinstance(version, bool):
            raise ProtocolError("version must be an integer")
        if version > PROTOCOL_VERSION:
            raise ProtocolError(
                f"response speaks protocol {version}, this client "
                f"speaks {PROTOCOL_VERSION}"
            )
        op = data.get("op")
        ok = data.get("ok")
        if not isinstance(op, str) or not isinstance(ok, bool):
            raise ProtocolError(
                "response needs a string 'op' and boolean 'ok'"
            )
        return cls(
            op=op,
            ok=ok,
            result=data.get("result"),
            error=data.get("error"),
            error_type=data.get("error_type"),
            version=version,
        )

    @classmethod
    def from_json(cls, text: str) -> "SessionResponse":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ProtocolError(f"bad JSON response: {error}") from None
        return cls.from_dict(data)


# -- the one executor ------------------------------------------------------


def delta_from_request(request: SessionRequest):
    """The :class:`~repro.data.delta.Delta` a mutation request names.

    Raises :class:`~repro.errors.ProtocolError` on malformed requests.
    """
    from repro.data.delta import Delta

    op = request.op
    if op in ("insert", "delete"):
        if request.relation is None or request.rows is None:
            raise ProtocolError(
                f"{op} needs a relation and a list of rows"
            )
        side = "inserts" if op == "insert" else "deletes"
        return Delta(**{side: {request.relation: request.rows}})
    if op == "apply":
        if request.inserts is None and request.deletes is None:
            raise ProtocolError(
                "apply needs inserts and/or deletes "
                "(relation -> rows mappings)"
            )
        return Delta(
            inserts=request.inserts or {},
            deletes=request.deletes or {},
        )
    raise ProtocolError(f"{op!r} is not a mutation op")


def mutation_result(
    request: SessionRequest, delta, db_version: int
) -> dict:
    """The wire result for a served mutation (shape depends on op:
    single-relation ops keep their v2 ``relation``/``rows`` form,
    ``apply`` reports every touched relation and the delta size)."""
    if request.op in ("insert", "delete"):
        return {
            "relation": request.relation,
            "rows": len(request.rows),
            "db_version": db_version,
        }
    return {
        "relations": sorted(delta.touched),
        "rows": delta.size(),
        "db_version": db_version,
    }


def execute(
    connection, request: SessionRequest, default_query=None
) -> SessionResponse:
    """Serve ``request`` against a facade ``Connection``.

    Every transport (JSON lines, HTTP, tests) funnels through here.
    ``default_query`` backs requests that carry no query of their own
    (the CLI session's bound query).  Library errors come back as
    ``ok=False`` responses — the serving loop never dies on a bad
    request.
    """

    def respond(result) -> SessionResponse:
        return SessionResponse(op=request.op, ok=True, result=result)

    try:
        if request.version > PROTOCOL_VERSION:
            raise ProtocolError(
                f"request speaks protocol {request.version}, this "
                f"server speaks {PROTOCOL_VERSION}"
            )
        op = request.op
        if op == "quit":
            return respond(None)
        if op == "stats":
            return respond(connection.stats())
        if op == "db_version":
            return respond({"db_version": connection.db_version})
        if op in MUTATION_OPS:
            delta = delta_from_request(request)
            new_version = connection.apply(delta)
            return respond(
                mutation_result(request, delta, new_version)
            )
        query = (
            request.query if request.query is not None else default_query
        )
        if query is None:
            raise ProtocolError(f"{op} needs a query")
        if op == "plan":
            report = connection.plan(query, prefix=request.prefix)
            return respond(
                {
                    "order": list(report.order),
                    "iota": str(report.iota),
                }
            )
        # A db_version pin on a view op means "serve exactly that
        # version" — the head or a retained MVCC snapshot, resolved in
        # one step, so an apply landing mid-request cannot move the
        # read to a newer version.  Once the version is evicted the
        # read raises the same structured StaleViewError a local stale
        # view raises.
        view = connection._read(
            query,
            order=request.order,
            prefix=request.prefix,
            at_version=request.db_version,
        )
        served = {"order": list(view.order)}
        if view.db_version is not None:
            served["db_version"] = view.db_version
        if op == "count":
            return respond(dict(served, count=len(view)))
        if op == "median":
            return respond(dict(served, answer=list(view.median())))
        if op == "access":
            if not request.indices:
                raise ProtocolError("access needs at least one index")
            answers = view.tuples_at(request.indices)
            return respond(
                dict(
                    served,
                    indices=list(request.indices),
                    answers=[list(answer) for answer in answers],
                )
            )
        if op == "page":
            if request.page_number is None or request.page_size is None:
                raise ProtocolError(
                    "page needs page_number and page_size"
                )
            answers = view.page(request.page_number, request.page_size)
            return respond(
                dict(
                    served,
                    page_number=request.page_number,
                    page_size=request.page_size,
                    answers=[list(answer) for answer in answers],
                )
            )
        if op == "rank":
            if request.answers is not None:
                # Batch form: one wire op ranks many tuples (the HTTP
                # client's RemoteAnswerView.ranks rides this).
                ranks = view.ranks(
                    [tuple(row) for row in request.answers]
                )
                return respond(
                    dict(
                        served,
                        answers=[list(row) for row in request.answers],
                        ranks=ranks,
                    )
                )
            if request.answer is None:
                raise ProtocolError("rank needs an answer tuple")
            rank = view.ranks([tuple(request.answer)])[0]
            return respond(
                dict(
                    served,
                    answer=list(request.answer),
                    rank=rank,
                )
            )
        raise ProtocolError(f"unknown command {op!r} (try 'help')")
    except (ReproError, ValueError) as error:
        return SessionResponse(
            op=request.op,
            ok=False,
            error=str(error),
            error_type=type(error).__name__,
        )
    except TypeError as error:
        # Order-sensitive structures need a totally ordered domain; a
        # database mixing incomparable constants in one column surfaces
        # as a TypeError deep in preprocessing.  A serving loop must
        # answer that with an error response, not die with a traceback.
        return SessionResponse(
            op=request.op,
            ok=False,
            error=f"domain not totally ordered: {error}",
            error_type="TypeError",
        )


__all__ = [
    "MUTATION_OPS",
    "OPS",
    "OP_SUMMARIES",
    "PROTOCOL_VERSION",
    "VIEW_OPS",
    "SessionRequest",
    "SessionResponse",
    "delta_from_request",
    "execute",
    "mutation_result",
]
