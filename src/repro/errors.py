"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing the common cases.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class QueryError(ReproError):
    """Malformed query: arity mismatch, unknown variable, bad syntax."""


class DatabaseError(ReproError):
    """Malformed database: arity mismatch, unknown relation symbol."""


class OrderError(ReproError):
    """A variable ordering does not match the query it is used with."""


class OutOfBoundsError(ReproError, IndexError):
    """A direct-access index is outside ``[0, number of answers)``.

    Also an :class:`IndexError` so that direct-access objects behave like
    sequences (``for`` loops over them terminate correctly).
    """


class NotAnAnswerError(ReproError, ValueError):
    """Inverse access was asked for a tuple that is not an answer.

    Also a :class:`ValueError` so that :meth:`AnswerView.index` keeps
    the :class:`collections.abc.Sequence` contract (``list.index``
    raises ``ValueError`` for missing values).
    """


class StaleViewError(ReproError):
    """A version-pinned answer view lost its snapshot.

    Prepared views pin the database version they were preprocessed
    against.  Under MVCC (the default) a pinned view keeps serving its
    snapshot across later mutations; this error is the fallback for the
    two cases where that is impossible — the snapshot was evicted from
    the store's retention window, or the store runs in opt-in *strict*
    mode where any read of a non-head version must fail loudly.
    Re-prepare the query to get a fresh view.
    """


class ProtocolError(ReproError, ValueError):
    """A malformed or unsupported session request (text or JSON form)."""


class EngineError(ReproError):
    """An execution engine is unknown or unavailable in this environment."""


class ReadOnlyError(ReproError):
    """A mutation was sent to a server running with ``--read-only``.

    The server answers with HTTP 403 carrying this error type, so the
    HTTP client re-raises it like any other library error.
    """


class OverloadedError(ReproError):
    """Admission control refused a request: the server is full.

    Admission is *bounded* — at most ``workers × queue_depth``
    requests are admitted at once, so a burst beyond that is rejected
    immediately instead of piling up unboundedly.
    The server answers HTTP 503 with a ``Retry-After`` header carrying
    this error type; retrying after a short backoff is always safe
    (the request was never started).
    """


class WalError(ReproError):
    """A write-ahead log file is unreadable, corrupt, or inconsistent.

    Torn tails (a crash mid-append) are *not* errors — the reader drops
    the incomplete record and recovery proceeds from the last durable
    one.  This error means the log cannot be trusted at all: a bad
    header, a checksum failure before the tail, or a replay that needs
    a base database no caller supplied.
    """


class InfeasibleError(ReproError):
    """A linear program has no feasible solution."""


class UnboundedError(ReproError):
    """A linear program is unbounded."""
