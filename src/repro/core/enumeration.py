"""Ranked enumeration with delay instrumentation (§2.2, [10]).

Enumeration lists all answers; its efficiency is measured by the
*preprocessing time* (before the first answer) and the *delay* between
consecutive answers. Direct access yields ordered enumeration by
consecutive accesses — after one descent to the first answer, each next
answer is an ``O(ℓ)`` odometer step over the counting forest
(:meth:`~repro.core.access.DirectAccess.answers_range`); this module
wraps both the direct-access-backed enumerator and the materializing
baseline behind one instrumented interface so benchmarks and tests can
compare their profiles.
"""

from __future__ import annotations

import time
from collections.abc import Iterator


class DelayInstrumentedEnumerator:
    """Wraps an answer iterator, recording preprocessing time and delays.

    Args:
        setup: zero-argument callable performing the preprocessing and
            returning an iterable of answers.
    """

    def __init__(self, setup):
        start = time.perf_counter()
        self._answers = setup()
        self.preprocessing_seconds = time.perf_counter() - start
        self.delays: list[float] = []

    def __iter__(self) -> Iterator:
        previous = time.perf_counter()
        for answer in self._answers:
            now = time.perf_counter()
            self.delays.append(now - previous)
            previous = now
            yield answer

    @property
    def max_delay_seconds(self) -> float:
        return max(self.delays, default=0.0)

    @property
    def mean_delay_seconds(self) -> float:
        if not self.delays:
            return 0.0
        return sum(self.delays) / len(self.delays)


def ranked_enumerator(query, order, database):
    """Ordered enumeration through direct access.

    Linear-ish preprocessing on tractable pairs, then the window walk:
    one ``O(ℓ log |D|)`` descent per window and ``O(ℓ)`` per further
    answer, within the logarithmic delay Theorem 1 guarantees; answers
    arrive in ``order``-lex order.
    """
    from repro.core.access import DirectAccess
    from repro.core.tasks import enumerate_in_order

    def setup():
        return enumerate_in_order(DirectAccess(query, order, database))

    return DelayInstrumentedEnumerator(setup)


def materializing_enumerator(query, order, database):
    """The baseline: compute and sort everything during preprocessing.

    Preprocessing pays for the whole (possibly huge) output; the delay
    afterwards is a list read.
    """
    from repro.joins.generic_join import evaluate

    def setup():
        table = evaluate(query, database, list(order))
        return iter(table.sorted_rows())

    return DelayInstrumentedEnumerator(setup)
