"""Seeded inputs of the ledger, and an independent answer oracle.

The same seed gives the same relations, the same operation pools and
the same delta stream; the engines under test only ever see the
generated inputs.  Nothing here imports ``repro``: the oracle resolves
star-query answers from first principles (sorted adjacency lists and
prefix sums), so a bug shared by both engines still shows as a wrong
answer.
"""

from __future__ import annotations

import bisect
import itertools
import random

STAR_QUERY = "Q(x, y, z) :- R(x, y), S(x, z)"
STAR_ORDER = ("x", "y", "z")
#: Induces the same decomposition as :data:`STAR_ORDER`, so preparing
#: it after the star is a cross-order cache hit.
SIBLING_ORDER = ("x", "z", "y")
#: Touches no relation a delta on ``R`` mutates: its artifacts must be
#: carried across every apply, never rebuilt.
CARRIED_QUERY = "P(u, w) :- T(u, w)"
CARRIED_ORDER = ("u", "w")

FULL_ROWS = 100_000
PAGE_SIZE = 20
SLICE_ROWS = 1000

#: Operation kinds of the point mix.  Every 20 consecutive operations
#: hold 60 % ``view[i]``, 25 % ``view.rank(t)``, 10 % ``view.page(n,
#: 20)`` and 5 % len/median/quantile, as two half-groups of ten that
#: each hold every gated kind: 20 operations are enough for a sample
#: of each, however slow the deployment.
ACCESS, RANK, PAGE, OTHER = range(4)
KIND_NAMES = ("access", "rank", "page", "other")
POINT_HALF_GROUPS = (
    [ACCESS] * 6 + [RANK] * 3 + [PAGE],
    [ACCESS] * 6 + [RANK] * 2 + [PAGE] + [OTHER],
)
#: The "other" kind cycles through these view calls.
LEN, MEDIAN, QUANTILE = range(3)
QUANTILE_FRACTION = 0.9

#: Size sweeps of the build workload: (ι=1 star rows, ι=3/2 triangle
#: grid side, ι=2 bad-order star sets), smallest to top size.
STAR_SWEEP = (10_000, 32_000, FULL_ROWS)
TRIANGLE_SWEEP = (40, 80, 120)
BAD_STAR_SWEEP = (100, 200, 400)
BAD_STAR_UNIVERSE = 12


def scaled_rows(scale: float, full: int = FULL_ROWS) -> int:
    return max(200, int(full * scale))


def scaled_sweep(sweep, scale: float, linear: bool = False):
    """A sweep shrunk for ``--check`` (``|D|`` is quadratic in a grid
    side, linear in a row count)."""
    factor = scale if linear else scale ** 0.5
    return tuple(max(4, round(size * factor)) for size in sweep)


def star_relations(seed: int, rows: int) -> dict[str, set]:
    """``R(x,y)``, ``S(x,z)`` with skewed fan-out, plus unrelated ``T``.

    ``x`` ranges over ``rows / 10`` values with density falling like
    ``1/sqrt(x)``, so ``sum_x deg_R(x) * deg_S(x)`` is 30-odd times the
    input.  ``y``, ``z``, ``u``, ``w`` are *even*: an odd value above
    the ``x`` range is guaranteed absent from the shared dictionary
    yet interior to it, which is what forces a re-encode on insert.
    """
    rng = random.Random(seed)
    x_values = max(rows // 10, 4)

    def relation(left) -> set:
        out: set = set()
        while len(out) < rows:
            out.add((left(), 2 * rng.randrange(rows)))
        return out

    def skewed() -> int:
        return int(x_values * rng.random() ** 2)

    return {
        "R": relation(skewed),
        "S": relation(skewed),
        "T": relation(lambda: 2 * rng.randrange(rows)),
    }


def triangle_relations(side: int) -> dict[str, set]:
    """The AGM worst case for the triangle query: three full grids."""
    grid = set(itertools.product(range(side), repeat=2))
    return {"R1": grid, "R2": set(grid), "R3": set(grid)}


def bad_star_relations(sets: int) -> dict[str, set]:
    """``sets`` copies of one small universe: under the centre-last
    order the decomposition bag holds ``universe * sets^2`` tuples."""
    full = set(
        itertools.product(range(sets), range(BAD_STAR_UNIVERSE))
    )
    return {"R1": full, "R2": set(full)}


def grid_answer(index: int, dims) -> tuple:
    """The ``index``-th tuple of the full grid ``dims``, lexicographic
    (the closed-form answers of the two worst-case builds)."""
    out = []
    for dim in reversed(dims):
        index, digit = divmod(index, dim)
        out.append(digit)
    return tuple(reversed(out))


class StarOracle:
    """Sorted answers of the star query under ``x, y, z``, by hand.

    For each ``x`` present on both sides the answers are the product
    ``sorted(R[x]) x sorted(S[x])``; a prefix sum over ``x`` turns an
    index into ``(x, offset)`` and back.
    """

    def __init__(self, r_rows, s_rows):
        self._ys: dict = {}
        self._zs: dict = {}
        for x, y in r_rows:
            self._ys.setdefault(x, []).append(y)
        for x, z in s_rows:
            self._zs.setdefault(x, []).append(z)
        for values in itertools.chain(
            self._ys.values(), self._zs.values()
        ):
            values.sort()
        self._reindex()

    def _reindex(self) -> None:
        self._xs = sorted(x for x in self._ys if x in self._zs)
        self._starts = [0]
        for x in self._xs:
            self._starts.append(
                self._starts[-1]
                + len(self._ys[x]) * len(self._zs[x])
            )

    def __len__(self) -> int:
        return self._starts[-1]

    def joined_xs(self) -> list:
        """Every ``x`` with answers, ascending."""
        return list(self._xs)

    def first_z(self, x):
        return self._zs[x][0]

    def answer(self, index: int) -> tuple:
        group = bisect.bisect_right(self._starts, index) - 1
        x = self._xs[group]
        zs = self._zs[x]
        y_index, z_index = divmod(index - self._starts[group], len(zs))
        return (x, self._ys[x][y_index], zs[z_index])

    def answers(self, start: int, stop: int) -> list[tuple]:
        return [
            self.answer(i) for i in range(start, min(stop, len(self)))
        ]

    def rank(self, row: tuple) -> int | None:
        x, y, z = row
        group = bisect.bisect_left(self._xs, x)
        if group == len(self._xs) or self._xs[group] != x:
            return None
        ys, zs = self._ys[x], self._zs[x]
        y_index = bisect.bisect_left(ys, y)
        z_index = bisect.bisect_left(zs, z)
        if (
            y_index == len(ys)
            or ys[y_index] != y
            or z_index == len(zs)
            or zs[z_index] != z
        ):
            return None
        return self._starts[group] + y_index * len(zs) + z_index

    def insert_r(self, row: tuple) -> None:
        x, y = row
        bisect.insort(self._ys.setdefault(x, []), y)
        self._reindex()


def point_pool(oracle: StarOracle, rng: random.Random, count: int):
    """``count`` seeded operations of the point mix, as ``(kind, arg)``.

    Each half-group of ten is shuffled on its own.  Indices are
    uniform over the view, rank tuples are answers at uniform indices,
    pages start at uniform page numbers.
    """
    n = len(oracle)
    ops = []
    while len(ops) < count:
        half = list(POINT_HALF_GROUPS[(len(ops) // 10) % 2])
        rng.shuffle(half)
        for kind in half:
            if kind == ACCESS:
                ops.append((kind, rng.randrange(n)))
            elif kind == RANK:
                ops.append((kind, oracle.answer(rng.randrange(n))))
            elif kind == PAGE:
                ops.append((kind, rng.randrange(max(1, n // PAGE_SIZE))))
            else:
                ops.append((kind, (len(ops) // 20) % 3))
    return ops[:count]


def slice_starts(oracle: StarOracle, rng: random.Random, count: int):
    limit = max(1, len(oracle) - SLICE_ROWS)
    return [rng.randrange(limit) for _ in range(count)]


def delta_stream(seed: int, rows: int, oracle: StarOracle):
    """Endless ``(row, probe)``: a row to insert into ``R`` and the
    first answer it must make visible.

    Three of four rows carry a fresh ``y`` past the domain maximum
    (the shared dictionary is extended in place); every fourth carries
    a fresh odd ``y`` inside the domain (order preservation forces a
    re-encode).  ``x`` is always a value with ``S`` partners, so every
    insert creates answers.
    """
    rng = random.Random(f"{seed}:deltas")
    xs = oracle.joined_xs()
    x_values = max(rows // 10, 4)
    interior_used: set = set()
    for cycle in itertools.count():
        x = xs[rng.randrange(len(xs))]
        if cycle % 4 == 3:
            while True:
                y = (x_values | 1) + 2 * rng.randrange(
                    max(1, rows - x_values // 2 - 1)
                )
                if y not in interior_used:
                    interior_used.add(y)
                    break
        else:
            y = 2 * rows + cycle
        yield (x, y), (x, y, oracle.first_z(x))
