"""Seeded, shrinkable delta generation.

Shared between the chaos workload (:mod:`repro.chaos.workload`) and
the mutation property tests (``tests/test_mutations.py``): one
generator, one distribution, so a failure found by either harness
replays in the other.  :func:`shrink_deltas` turns a failing sequence
into a minimal one — the reported reproduction is the smallest delta
list (fewest deltas, then fewest rows) that still trips the predicate.
"""

from __future__ import annotations

import random

from repro.data.delta import Delta


def uniform_draw(rng: random.Random, max_value: int) -> int:
    return rng.randint(0, max_value)


def zipf_draw(rng: random.Random, max_value: int) -> int:
    """A Zipf-flavoured value in ``[0, max_value]``: low values are
    drawn far more often (log-uniform inverse CDF — cheap, seeded,
    and skewed enough to model hot keys)."""
    return int((max_value + 1) ** rng.random()) - 1


def random_delta(
    rng: random.Random,
    database,
    max_value: int = 40,
    draw=None,
    max_inserts: int = 3,
) -> Delta:
    """One random delta against ``database``.

    Each relation is touched with probability one half; a touched
    relation gets up to ``max_inserts`` inserted rows (values via
    ``draw``, uniform by default) and, with probability 0.6, a random
    non-empty subset of its existing rows deleted.  Inserts may
    duplicate existing rows and deletes may race inserts — the
    *effective* delta computation downstream is exactly what this
    distribution exercises.
    """
    if draw is None:
        draw = uniform_draw
    inserts: dict = {}
    deletes: dict = {}
    for name, relation in database.relations.items():
        if rng.random() < 0.5:
            continue
        inserts[name] = {
            tuple(draw(rng, max_value) for _ in range(relation.arity))
            for _ in range(rng.randint(0, max_inserts))
        }
        existing = sorted(relation.tuples)
        if existing and rng.random() < 0.6:
            deletes[name] = set(
                rng.sample(existing, rng.randint(1, len(existing)))
            )
    return Delta(inserts=inserts, deletes=deletes)


def delta_sequence(
    seed: int,
    database,
    length: int,
    max_value: int = 40,
    draw=None,
) -> list[Delta]:
    """A seeded sequence of deltas, each generated against the
    database state the previous ones produced (so deletes keep finding
    rows as the history evolves)."""
    rng = random.Random(seed)
    out: list[Delta] = []
    current = database
    for _ in range(length):
        delta = random_delta(rng, current, max_value=max_value, draw=draw)
        out.append(delta)
        current = current.apply(delta)
    return out


def _drop_row(delta: Delta, side: str, name: str, row) -> Delta:
    """``delta`` without ``row`` in ``side``'s ``name`` relation."""
    sides = {
        "inserts": {k: set(v) for k, v in delta.inserts.items()},
        "deletes": {k: set(v) for k, v in delta.deletes.items()},
    }
    sides[side][name] = sides[side][name] - {row}
    if not sides[side][name]:
        del sides[side][name]
    return Delta(inserts=sides["inserts"], deletes=sides["deletes"])


def shrink_deltas(deltas: list[Delta], fails) -> list[Delta]:
    """Minimize a failing delta sequence.

    ``fails(sequence)`` must be a deterministic predicate that is True
    for ``deltas``.  Two greedy passes: drop contiguous chunks of the
    sequence (ddmin-style, halving chunk sizes), then drop individual
    rows inside the surviving deltas.  The result still fails and is
    locally minimal — no single delta and no single row can be removed
    without the failure disappearing.
    """
    if not fails(deltas):
        raise ValueError("shrink_deltas needs a failing sequence")
    current = list(deltas)
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        index = 0
        while index < len(current):
            candidate = current[:index] + current[index + chunk :]
            if fails(candidate):
                current = candidate
            else:
                index += chunk
        chunk //= 2
    for index in range(len(current)):
        for side in ("inserts", "deletes"):
            # Snapshot the rows up front: successful drops rewrite
            # ``current[index]``, so re-check membership as we go.
            snapshot = {
                name: sorted(rows)
                for name, rows in getattr(current[index], side).items()
            }
            for name in sorted(snapshot):
                for row in snapshot[name]:
                    live = getattr(current[index], side).get(name, ())
                    if row not in live:
                        continue
                    slim = _drop_row(current[index], side, name, row)
                    candidate = (
                        current[:index]
                        + [slim]
                        + current[index + 1 :]
                    )
                    if fails(candidate):
                        current = candidate
    return current


__all__ = [
    "delta_sequence",
    "random_delta",
    "shrink_deltas",
    "uniform_draw",
    "zipf_draw",
]
