"""E10 — Proposition 35 applications: counting, median, boxplot.

After linear preprocessing of a tractable pair, every order-sensitive
operation (prefix-constraint count, median, quantiles) costs a
logarithmic number of accesses. We verify the per-operation time stays
flat across a geometric data sweep.
"""

from harness import median_seconds, report, timed

from repro.core.access import DirectAccess
from repro.core.counting import (
    CountingFromDirectAccess,
    PrefixConstraint,
)
from repro.core.tasks import boxplot, median
from repro.data.generators import functional_path_database
from repro.query.catalog import path_query
from repro.query.variable_order import VariableOrder

SIZES = [2000, 4000, 8000, 16000]


def test_e10_order_statistics(benchmark):
    query = path_query(2)
    order = VariableOrder(query.variables)
    rows = []
    op_times = {"count": [], "median": [], "boxplot": []}
    for size in SIZES:
        database = functional_path_database(2, size, seed=2)
        access, prep = timed(DirectAccess, query, order, database)
        counter = CountingFromDirectAccess(access)
        constraint = PrefixConstraint((), size // 4, size // 2)

        count_time = median_seconds(
            lambda: counter.count(constraint), repeats=7
        )
        median_time = median_seconds(lambda: median(access), repeats=7)
        boxplot_time = median_seconds(
            lambda: boxplot(access), repeats=7
        )
        op_times["count"].append(count_time)
        op_times["median"].append(median_time)
        op_times["boxplot"].append(boxplot_time)
        rows.append(
            [
                len(database),
                f"{prep * 1e3:.0f} ms",
                f"{count_time * 1e6:.0f} us",
                f"{median_time * 1e6:.0f} us",
                f"{boxplot_time * 1e6:.0f} us",
            ]
        )

    growths = {
        name: times[-1] / max(times[0], 1e-9)
        for name, times in op_times.items()
    }
    rows.append(
        [
            "growth over 8x data (paper: ~log)",
            "",
            f"{growths['count']:.1f}x",
            f"{growths['median']:.1f}x",
            f"{growths['boxplot']:.1f}x",
        ]
    )
    report(
        "e10_tasks",
        "E10: per-operation cost of counting / median / boxplot",
        ["|D|", "preprocessing", "count", "median", "boxplot"],
        rows,
    )
    for name, growth in growths.items():
        assert growth < 8, (name, growth)

    database = functional_path_database(2, SIZES[0], seed=2)
    access = DirectAccess(query, order, database)
    benchmark(median, access)
