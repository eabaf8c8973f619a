"""Order-sensitive task kernels on top of direct access (the §1 motivation).

Direct access turns ``Q(D)`` into a virtual sorted array, which makes
order statistics, boxplots, uniform sampling without repetition, and
paginated/ranked retrieval logarithmic-per-item after preprocessing.

Every multi-index kernel here resolves its whole index set through the
batch API (:meth:`~repro.core.access.DirectAccess.tuples_at` /
``answers_at``) in one call instead of one access walk per index — the
numpy engine then answers the batch level-synchronously with vectorized
binary searches.  Access structures that only implement the scalar
:class:`~repro.core.counting.SupportsDirectAccess` protocol (e.g. the
Proposition 35 reductions) degrade transparently to per-index calls.

These kernels are what :class:`repro.AnswerView` runs: application
code calls the view's methods (``view.median()``, ``view.page(n, s)``,
``iter(view)``) on a view prepared through :func:`repro.connect`.
"""

from __future__ import annotations

import random
from fractions import Fraction

from repro.core.counting import SupportsDirectAccess
from repro.errors import OutOfBoundsError


def _tuples_at(access: SupportsDirectAccess, indices: list[int]) -> list[tuple]:
    """Batch resolve ``indices``, via ``tuples_at`` when available."""
    batch = getattr(access, "tuples_at", None)
    if batch is not None:
        return batch(indices)
    return [access.tuple_at(i) for i in indices]


def _quantile_rank(n: int, fraction: Fraction | float) -> int:
    if n == 0:
        raise OutOfBoundsError("no answers: quantiles undefined")
    if not 0 <= fraction <= 1:
        raise ValueError("quantile fraction must be within [0, 1]")
    return int(Fraction(fraction) * (n - 1))


def quantile(
    access: SupportsDirectAccess, fraction: Fraction | float
) -> tuple:
    """The answer at rank ``⌊fraction * (n-1)⌋`` (nearest-rank, 0-based)."""
    return access.tuple_at(_quantile_rank(len(access), fraction))


def median(access: SupportsDirectAccess) -> tuple:
    """The middle answer of the sorted answer array."""
    return quantile(access, Fraction(1, 2))


def boxplot(access: SupportsDirectAccess) -> dict[str, tuple]:
    """Five-number summary: min, lower quartile, median, upper quartile, max.

    All five ranks are resolved in one batch access.
    """
    n = len(access)
    fractions = (
        ("min", Fraction(0)),
        ("q1", Fraction(1, 4)),
        ("median", Fraction(1, 2)),
        ("q3", Fraction(3, 4)),
        ("max", Fraction(1)),
    )
    ranks = [_quantile_rank(n, f) for _, f in fractions]
    answers = _tuples_at(access, ranks)
    return {
        name: answer
        for (name, _), answer in zip(fractions, answers)
    }


def sample(
    access: SupportsDirectAccess, k: int, seed: int | None = None
) -> list[tuple]:
    """``k`` uniform answers without repetition ([19]'s application).

    Draws ``k`` distinct indices uniformly and resolves them with one
    batch access.  Raises :class:`~repro.errors.OutOfBoundsError` when
    ``k`` is negative or exceeds the answer count.
    """
    n = len(access)
    if k < 0:
        # random.Random.sample would leak a bare ValueError here;
        # surface the same error type as the k > n path instead.
        raise OutOfBoundsError(f"cannot sample {k} answers")
    if k > n:
        raise OutOfBoundsError(f"cannot sample {k} of {n} answers")
    rng = random.Random(seed)
    return _tuples_at(access, rng.sample(range(n), k))


def page(
    access: SupportsDirectAccess, page_number: int, page_size: int
) -> list[tuple]:
    """Ranked pagination: answers ``[page*size, (page+1)*size)``.

    Raises :class:`~repro.errors.OutOfBoundsError` for a negative
    ``page_number`` (pages past the end are simply empty, which ends a
    forward scan cleanly — but a negative page is a caller bug, not an
    empty page).
    """
    if page_number < 0:
        raise OutOfBoundsError(
            f"page number must be non-negative, got {page_number}"
        )
    if page_size <= 0:
        raise OutOfBoundsError(
            f"page size must be positive, got {page_size}"
        )
    n = len(access)
    start = page_number * page_size
    stop = min(start + page_size, n)
    return _tuples_at(access, list(range(start, stop)))


def enumerate_in_order(access: SupportsDirectAccess, chunk: int = 1024):
    """Full ordered enumeration by consecutive accesses ([10]).

    Lazily yields tuples, resolving ``chunk`` indices per batch so the
    numpy engine vectorizes the scan without materializing the output.
    """
    if chunk <= 0:
        raise ValueError(f"chunk size must be positive, got {chunk}")
    n = len(access)
    for start in range(0, n, chunk):
        yield from _tuples_at(
            access, list(range(start, min(start + chunk, n)))
        )
