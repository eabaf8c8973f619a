"""The layered ledger: one command per workload.

    python3 benchmarks/ledger/run.py --workload serve --seed 7

builds the workload's inputs from the seed, runs its closed loop for
``--seconds``, checks the answers, prints every metric by name with
its unit and ends with the one-line JSON result the benchmark contract
asks for.  ``--trace 1`` runs the layer ladder instead and prints the
per-layer metrics; ``--check`` smoke-runs everything at 1/50 scale and
diffs the emitted names against ``BENCHMARK.json``; ``--repeat K``
reports the run-to-run spread of every end-to-end metric next to its
bound.  See ``README.md`` beside this file.

Everything runs inside this one process — servers on threads, no
``multiprocessing``, no ``subprocess`` — and the run fails if anything
it started is still there at the end (``ledger_guard``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
DECLARATION = ROOT / "BENCHMARK.json"

#: ``--check`` shrinks inputs and run length by these factors.
CHECK_SCALE = 1 / 50
CHECK_SECONDS = 1.0


def load_declaration() -> dict:
    with open(DECLARATION, encoding="utf-8") as handle:
        return json.load(handle)


def commit() -> str:
    """The checked-out commit, read from ``.git`` by hand (the driver's
    checkout has none, and this process may start no ``git``)."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text(encoding="ascii").strip()
        if not text.startswith("ref: "):
            return text[:12]
        ref = text[len("ref: ") :]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text(encoding="ascii").strip()[:12]
        for line in (ROOT / ".git" / "packed-refs").read_text(
            encoding="ascii"
        ).splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def header(args, numpy_version: str) -> str:
    return (
        f"# ledger: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace} "
        f"commit={commit()}\n"
        f"# nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy_version}\n"
        "# closed loop; 10% warm-up (discarded), then 15 rounds that "
        "deal point mix, scans, write cycles and cold prepares their "
        "shares in 5 ms units; p50 within the quietest block of 9 "
        "consecutive samples (5 slices); quietest write cycle and "
        "prepare; gc enabled, one gc.collect() per round, write cycle "
        "and prepare; op pools seeded per client"
    )


def run_once(name: str, seed: int, seconds: float, trace: int, scale: float):
    """One run of one workload, and what it left behind.

    The workload's own ``ExitStack`` closes every server, connection
    and client thread; the temporary directory here holds its WAL.
    The guard runs after both have unwound.
    """
    import ledger_guard
    import ledger_ladder
    import ledger_workloads

    OUT.mkdir(exist_ok=True)
    shm_before = ledger_guard.shared_memory()
    tally = None
    try:
        with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
            if trace:
                tally = ledger_ladder.run(
                    name, seed, seconds, scale, tmp,
                    OUT / f"trace-{name}.json",
                )
            else:
                tally = ledger_workloads.run(
                    name, seed, seconds, scale, tmp
                )
    finally:
        leaks = ledger_guard.leaks(shm_before)
    return tally, leaks


def declared_metrics(declaration: dict, trace: int) -> dict[str, dict]:
    return {
        metric["name"]: metric
        for metric in declaration["per_layer" if trace else "end_to_end"]
    }


def report(tally, declared: dict[str, dict]) -> dict:
    """Print every metric by name and return the contract's result."""
    width = max(len(name) for name in declared)
    metrics = {}
    for name, metric in declared.items():
        if name not in tally.values:
            reason = tally.notes.get(name, "not emitted")
            print(f"{name:<{width}}  omitted: {reason}")
            continue
        value = tally.values[name]
        note = tally.notes.get(name, "")
        print(
            f"{name:<{width}}  {value:>16.6f} {metric['unit']:<8}"
            + (f"  # {note}" if note else "")
        )
        metrics[name] = {"value": value, "unit": metric["unit"]}
    print(
        f"{'operations':<{width}}  attempted {tally.attempted}, "
        f"failed {tally.failed}, error_rate "
        f"{tally.failed / max(1, tally.attempted):.6f}"
    )
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    return {
        "correct": tally.failed == 0 and len(metrics) == len(declared),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def fail_on_leaks(leaks) -> None:
    if leaks:
        for leak in leaks:
            print(f"LEFT BEHIND: {leak}", file=sys.stderr)
        sys.exit(3)


def check(declaration: dict) -> int:
    """All workloads, traced and untraced, at 1/50 scale; the emitted
    names must equal the declared ones, both ways."""
    import ledger_workloads

    problems = []
    declared_workloads = [w["name"] for w in declaration["workloads"]]
    if sorted(declared_workloads) != sorted(ledger_workloads.WORKLOADS):
        problems.append(
            f"workloads declared {sorted(declared_workloads)} != "
            f"implemented {sorted(ledger_workloads.WORKLOADS)}"
        )
    began = time.perf_counter()
    for name in ledger_workloads.WORKLOADS:
        for trace in (0, 1):
            tally, leaks = run_once(
                name, 1, CHECK_SECONDS, trace, CHECK_SCALE
            )
            fail_on_leaks(leaks)
            declared = set(declared_metrics(declaration, trace))
            emitted = set(tally.values)
            for missing in sorted(declared - emitted):
                problems.append(
                    f"{name} trace={trace}: declared, not emitted: "
                    f"{missing} ({tally.notes.get(missing, 'no reason')})"
                )
            for extra in sorted(emitted - declared):
                problems.append(
                    f"{name} trace={trace}: emitted, not declared: {extra}"
                )
            if tally.failed:
                problems.append(
                    f"{name} trace={trace}: {tally.failed} failed of "
                    f"{tally.attempted}: {tally.problems}"
                )
            print(
                f"check {name:<9} trace={trace}: {len(emitted)} metrics, "
                f"{tally.attempted} ops, {tally.failed} failed"
            )
    print(f"check took {time.perf_counter() - began:.1f} s")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return 1 if problems else 0


def repeat(args, declaration: dict) -> int:
    """``--repeat K``: the spread of each end-to-end metric over K runs
    (seeds ``seed .. seed+K-1``) next to its bound."""
    import ledger_stats
    import ledger_workloads

    declared = declared_metrics(declaration, 0)
    runs: dict[str, list[float]] = {name: [] for name in declared}
    failed = 0
    for k in range(args.repeat):
        ledger_workloads.reset_peak_rss()
        tally, leaks = run_once(
            args.workload, args.seed + k, args.seconds, 0, 1.0
        )
        fail_on_leaks(leaks)
        failed += tally.failed
        for name in declared:
            runs[name].append(tally.values[name])
        print(f"# run {k + 1}/{args.repeat} seed={args.seed + k} done")
    print(
        f"{'metric':<20}{'unit':<7}{'min':>14}{'median':>14}{'max':>14}"
        f"{'spread':>9}{'bound':>8}  verdict"
    )
    unresolved = 0
    for name, values in runs.items():
        spread = ledger_stats.spread(values)
        bound = declared[name]["bound"]
        # setup_s is gated on its median only, never on its spread.
        resolved = spread <= bound or name == "setup_s"
        unresolved += not resolved
        print(
            f"{name:<20}{declared[name]['unit']:<7}{min(values):>14.4f}"
            f"{statistics.median(values):>14.4f}{max(values):>14.4f}"
            f"{spread:>9.4f}{bound:>8.2f}  "
            f"{'ok' if resolved else 'unresolved'}"
        )
    print(f"# failed operations over all runs: {failed}")
    return 1 if unresolved or failed else 0


def main(argv=None) -> int:
    declaration = load_declaration()
    names = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=declaration["run_seconds"]
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--repeat", type=int, default=0, metavar="K")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
    except ImportError:
        # Never fall back to the python engine in silence: half the
        # ledger would then measure the wrong thing.
        print("the ledger needs numpy", file=sys.stderr)
        return 2

    if args.check:
        return check(declaration)
    if args.workload is None:
        parser.error("--workload is required (or --check)")
    print(header(args, numpy.__version__))
    if args.repeat:
        return repeat(args, declaration)
    tally, leaks = run_once(
        args.workload, args.seed, args.seconds, args.trace, 1.0
    )
    fail_on_leaks(leaks)
    result = report(tally, declared_metrics(declaration, args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
