"""repro — lexicographic direct access on join queries.

A faithful, executable reproduction of *Tight Fine-Grained Bounds for
Direct Access on Join Queries* (Bringmann, Carmeli & Mengel, PODS 2022),
grown into a serving system behind one prepared-query facade.

Quickstart — the public API is ``connect`` → ``prepare`` → a view with
``Sequence`` semantics and inverse access:

    >>> import repro
    >>> conn = repro.connect({"R": {(1, 2), (3, 2)}, "S": {(2, 7), (2, 9)}})
    >>> view = conn.prepare("Q(x, y, z) :- R(x, y), S(y, z)",
    ...                     order=["x", "y", "z"])
    >>> len(view), view[0], view[-1]
    (4, (1, 2, 7), (3, 2, 9))
    >>> view.rank((3, 2, 7))        # inverse access: answer -> index
    2
    >>> view[view.rank((3, 2, 7))]  # ... and it round-trips
    (3, 2, 7)
    >>> [tuple(answer) for answer in view[1:3]]   # slices are lazy views
    [(1, 2, 9), (3, 2, 7)]
"""

from repro.core import (
    AnswerTester,
    TightBounds,
    cheapest_order,
    classify,
    rank_orders,
    DisruptionFreeDecomposition,
    OrderlessFourCycleAccess,
    SelfJoinFreeAccess,
    fractional_hypertree_width,
    incompatibility_number,
    partial_order_access,
)
from repro.data import (
    Database,
    Delta,
    EncodedDatabase,
    Relation,
    WriteAheadLog,
)
from repro.facade import AnswerView, Connection, connect
from repro.session import SessionRequest, SessionResponse
from repro.engine import (
    available_engines,
    get_engine,
    set_engine,
    use_engine,
)
from repro.errors import (
    EngineError,
    NotAnAnswerError,
    OutOfBoundsError,
    ProtocolError,
    ReproError,
    StaleViewError,
)
from repro.query import (
    Atom,
    ConjunctiveQuery,
    JoinQuery,
    VariableOrder,
    parse_query,
)

__version__ = "2.0.0"

__all__ = [
    "AnswerTester",
    "AnswerView",
    "Atom",
    "Connection",
    "TightBounds",
    "cheapest_order",
    "classify",
    "connect",
    "rank_orders",
    "ConjunctiveQuery",
    "Database",
    "Delta",
    "DisruptionFreeDecomposition",
    "EncodedDatabase",
    "EngineError",
    "JoinQuery",
    "NotAnAnswerError",
    "OrderlessFourCycleAccess",
    "OutOfBoundsError",
    "ProtocolError",
    "Relation",
    "ReproError",
    "SelfJoinFreeAccess",
    "SessionRequest",
    "SessionResponse",
    "StaleViewError",
    "VariableOrder",
    "WriteAheadLog",
    "__version__",
    "available_engines",
    "fractional_hypertree_width",
    "get_engine",
    "incompatibility_number",
    "parse_query",
    "partial_order_access",
    "set_engine",
    "use_engine",
]
