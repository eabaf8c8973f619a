"""Pure statistics helpers of the ledger (no ``repro`` imports).

Everything the driver reports goes through these few functions, so
they are unit-tested in ``test_ledger.py``: percentiles with the
"ten samples beyond" rule, quietest-block medians, the log-log exponent fit,
span self times and the run-to-run spread the acceptance rule uses.
"""

from __future__ import annotations

import math
import statistics

#: Consecutive samples per block of :func:`quietest`.
BLOCK_SAMPLES = 9

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(values, wanted: float = 99.0) -> tuple[float, float]:
    """``(q, value)`` for the highest ``q <= wanted`` that still has
    :data:`TAIL_BEYOND` samples beyond it (never below the median)."""
    n = len(values)
    supported = 100.0 * (n - TAIL_BEYOND) / n if n else 0.0
    q = max(50.0, min(wanted, supported))
    return q, percentile(values, q)


def quietest(samples, size: int = BLOCK_SAMPLES) -> tuple[float, int]:
    """The lowest block median of ``samples``, and the block count.

    ``samples`` are in the order they were taken and are cut into
    blocks of ``size`` consecutive samples (the last takes the
    remainder; fewer than ``size`` samples are one block).  This box's
    neighbours slow the processor by a quarter to nearly a half, for
    anything from milliseconds to a minute at a time, and in the bad
    minutes the quiet moments between are milliseconds long: the median
    *within* a block keeps the metric a p50 of the operation rather
    than one lucky call, and reading it off the quietest block keeps
    the slowed stretches out of it as long as one block of the run fell
    between them — which a short block does far more often than a long
    one.
    """
    count = len(samples)
    if not count:
        raise ValueError("quietest of no samples")
    medians = [
        statistics.median(
            samples[start:] if start + 2 * size > count
            else samples[start : start + size]
        )
        for start in range(0, max(1, count - size + 1), size)
    ]
    return float(min(medians)), len(medians)


def fit_exponent(sizes, seconds) -> float:
    """Least-squares slope of ``log(seconds)`` against ``log(size)``:
    the measured analogue of the paper's ``|D|^ι``."""
    if len(sizes) < 2 or len(sizes) != len(seconds):
        raise ValueError("need two or more (size, seconds) points")
    xs = [math.log(size) for size in sizes]
    ys = [math.log(max(second, 1e-9)) for second in seconds]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    variance = sum((x - mean_x) ** 2 for x in xs)
    if variance == 0:
        raise ValueError("sweep sizes must differ")
    return (
        sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        / variance
    )


def span(name, op_id, parent, start_ns, end_ns) -> dict:
    """One trace record; ``parent`` names the causing span of the same
    ``op_id`` (``None`` for the top level)."""
    return {
        "name": name,
        "op_id": op_id,
        "parent": parent,
        "start_ns": start_ns,
        "end_ns": end_ns,
    }


def self_times(spans) -> dict[str, list[int]]:
    """Per span name, each span's duration minus its children's.

    Children are the spans of the same ``op_id`` whose ``parent`` is
    this span's name.  Levels are replayed one after the other, so a
    child can measure *longer* than its parent; the negative self time
    is returned as measured, never clamped.
    """
    child_ns: dict[tuple, int] = {}
    for record in spans:
        if record["parent"] is not None:
            key = (record["op_id"], record["parent"])
            child_ns[key] = child_ns.get(key, 0) + (
                record["end_ns"] - record["start_ns"]
            )
    out: dict[str, list[int]] = {}
    for record in spans:
        own = record["end_ns"] - record["start_ns"]
        key = (record["op_id"], record["name"])
        out.setdefault(record["name"], []).append(
            own - child_ns.get(key, 0)
        )
    return out


def spread(values) -> float:
    """Inter-quartile distance over the median — the run-to-run spread
    the acceptance rule compares with a metric's bound."""
    if len(values) < 2:
        return 0.0
    first, _middle, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(third - first) / abs(middle) if middle else math.inf
