"""Shared utilities for the experiment benchmarks.

Each ``bench_e*.py`` file regenerates one experiment of DESIGN.md §4: it
prints a table (and writes it under ``benchmarks/out/``) with the paper's
claimed exponent/shape next to the measured one, and registers at least
one ``pytest-benchmark`` timing for the experiment's key operation.

Every report records the active execution engine (``python`` /
``numpy``, see :mod:`repro.engine`): the table header names it, and a
machine-readable ``<name>.<engine>.json`` sidecar is written next to the
``.txt`` table so runs under ``REPRO_ENGINE=python`` and
``REPRO_ENGINE=numpy`` can be diffed to track the speedup.

Absolute times are CPython times and are *not* comparable to the paper's
word-RAM model; the meaningful outputs are the fitted exponents (log-log
slopes over a geometric size sweep) and who-wins comparisons.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

OUT_DIR = Path(__file__).parent / "out"


def active_engine() -> str:
    """Name of the execution engine benchmarks are running under."""
    try:
        from repro.engine import get_engine

        return get_engine().name
    except Exception:  # pragma: no cover - repro not importable
        return "unknown"


def timed(callable_, *args, **kwargs):
    """Run ``callable_`` once, returning ``(result, seconds)``."""
    start = time.perf_counter()
    result = callable_(*args, **kwargs)
    return result, time.perf_counter() - start


def fit_exponent(sizes, seconds) -> float:
    """Least-squares slope of log(seconds) against log(size).

    The empirical analogue of the ``|D|^ι`` exponent. Noise-sensitive for
    very fast operations; sweep sizes are chosen so each point takes at
    least a few milliseconds.
    """
    if len(sizes) < 2:
        raise ValueError("need at least two sweep points")
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-9)) for t in seconds]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    covariance = sum(
        (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
    )
    variance = sum((x - mean_x) ** 2 for x in xs)
    return covariance / variance


def median_seconds(callable_, repeats: int = 5) -> float:
    """Median wall-clock time of ``repeats`` runs (for fast operations)."""
    times = []
    for _ in range(repeats):
        _, seconds = timed(callable_)
        times.append(seconds)
    times.sort()
    return times[len(times) // 2]


def format_table(title: str, headers: list[str], rows: list[list]) -> str:
    widths = [
        max([len(str(h))] + [len(str(row[i])) for row in rows])
        for i, h in enumerate(headers)
    ]
    lines = [title, ""]
    lines.append(
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(
                str(cell).ljust(w) for cell, w in zip(row, widths)
            )
        )
    return "\n".join(lines)


def report(name: str, title: str, headers: list[str], rows: list[list]):
    """Print the experiment table and persist it under benchmarks/out/.

    The active engine is stamped into the table title, the ``.txt``
    artifact, and a per-engine ``.json`` sidecar.
    """
    engine = active_engine()
    table = format_table(f"{title} [engine={engine}]", headers, rows)
    print("\n" + table + "\n")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(table + "\n")
    payload = {
        "name": name,
        "title": title,
        "engine": engine,
        "headers": headers,
        "rows": rows,
    }
    (OUT_DIR / f"{name}.{engine}.json").write_text(
        json.dumps(payload, indent=2, default=str) + "\n"
    )
    return table
