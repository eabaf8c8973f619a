"""The three workloads of the ledger (the untraced, end-to-end run).

Every workload emits every end-to-end metric: each one opens its own
deployment of the shared star input (which engine; in-process, or
behind the default HTTP front with a write-ahead log), reads it with
the closed-loop point mix and 1000-row scans, writes to it with apply
→ prepare → first-answer cycles, prepares it cold, and checks what it
read against :class:`ledger_inputs.StarOracle`.  What differs is where the
time goes — see ``README.md`` for why each exists and which
optimisation it is the control for.

All callers wait for their reply before sending the next request (a
closed loop): that is what callers of a ``Sequence`` do.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import tempfile
import threading
import time
from array import array
from contextlib import ExitStack
from dataclasses import dataclass, field

import repro
from repro import Delta, WriteAheadLog
from repro.errors import ReproError
from repro.server import ReproServer

import ledger_inputs as inputs
import ledger_stats as stats

#: A run sets up until it has spent this long on it, three times at
#: least and 25 at most; ``setup_s`` is the median and the last set-up
#: is the one the run uses.  One set-up moves by a third and more
#: between identical runs; ``local_py``'s takes 0.2 s, so it can
#: afford 25.
SETUP_SECONDS = 5.0
MIN_SETUPS = 3
MAX_SETUPS = 25

#: A run spends this share of each read phase warming up (discarded),
#: then deals every phase its share of the rest over this many rounds,
#: so the samples of every metric are spread over the whole run: a
#: slowed stretch of this box can last half a minute, and the quietest
#: block of a metric has to lie outside it.
WARM_SHARE = 0.10
ROUNDS = 15

#: A phase spends its share one unit of work at a time.  A unit of the
#: point mix or of the scans runs this long (``ops_per_s`` is the rate
#: of the best unit, and a short unit fits into the quiet moments of
#: this box); a unit of the point mix at least one whole group of the
#: mix (a sample of every kind, however slow the deployment), a unit
#: of the scans at least five slices.  ``scan_row_us`` is the median
#: of five consecutive slices, from the quietest such block: a slice
#: takes a millisecond and more, and the first slice or two that the
#: threaded front serves after a pause skip one of its two 44 ms
#: stalls — two of five leave the median alone.  A write cycle and a
#: cold prepare are one unit each.
BLOCK_SECONDS = 0.005
MIN_BLOCK_OPS = 20
MIN_BLOCK_SLICES = 5

#: Units every phase completes, whatever its share paid for (one unit
#: of the point mix takes a second behind the threaded front).
MIN_UNITS = 3

#: Seeded operations per client of the point mix, and slice offsets of
#: the scans (cycled through when a phase gets further).
POOL_OPS = 20_000

#: Workers of the served front: the ``repro serve`` default shape
#: scaled to this 2-core box.
SERVER_WORKERS = 2

#: One-at-a-time calls per operation type that the checker re-resolves
#: (on top of its 1000-row batches); a remote call costs a round-trip.
LOCAL_SINGLES = 1000
REMOTE_SINGLES = 4

#: Failures whose text is kept for the report (all are counted).
KEPT_PROBLEMS = 10


@dataclass(frozen=True)
class Workload:
    """One deployment of the shared input and its split of the run."""

    name: str
    engine: str
    #: Behind ``ReproServer`` with a write-ahead log, read and written
    #: through ``repro.connect(url)``, instead of in-process.
    served: bool = False
    #: Rows per relation at full scale.
    rows: int = inputs.FULL_ROWS
    #: Shares of ``--seconds`` per phase.
    points: float = 0.0
    multi: float = 0.0  #: point mix again, with two clients
    scans: float = 0.0
    writes: float = 0.0
    prepares: float = 0.0


WORKLOADS = {
    workload.name: workload
    for workload in (
        # A cold python prepare of 100 000 rows takes two seconds: a
        # run would hold five of them, and the quietest of five moves
        # by a fifth between identical runs.  At 10 000 rows it takes
        # an eighth of a second, as the numpy engine does at 100 000,
        # and a run holds sixty.
        Workload(
            "local_py", "python", rows=10_000,
            points=0.10, scans=0.10, writes=0.45, prepares=0.35,
        ),
        Workload(
            "local_np", "numpy",
            points=0.10, scans=0.10, writes=0.55, prepares=0.25,
        ),
        Workload(
            "serve", "numpy", served=True,
            points=0.08, multi=0.09, scans=0.05, writes=0.48,
            prepares=0.30,
        ),
    )
}


@dataclass
class Tally:
    """Metric values, operation counts and failed checks of one run."""

    values: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def put(self, name: str, value: float, note: str = "") -> None:
        self.values[name] = value
        if note:
            self.notes[name] = note

    def count(self, attempted: int, failed: int, what: str) -> None:
        """``attempted`` operations ran, ``failed`` of them in error."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            if len(self.problems) < KEPT_PROBLEMS:
                self.problems.append(f"{failed} x {what}")

    def expect(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)


@dataclass
class Target:
    """One opened deployment: what the timed phases read and write."""

    conn: object
    view: object
    relations: dict
    clear: object = None  #: drops every cached artifact of the deployment
    wal_path: str | None = None
    url: str | None = None


def peak_rss_mb() -> float:
    """The process's peak resident set (``VmHWM``, what ``ru_maxrss``
    reports), read from ``/proc`` so ``--repeat`` can reset it."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def reset_peak_rss() -> None:
    """Restart the peak-RSS high-water mark (best effort: without the
    permission, later runs of ``--repeat`` report the first's peak)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def close_view(view) -> None:
    """Release a local view's snapshot pin (remote views hold none)."""
    close = getattr(view, "close", None)
    if close is not None:
        close()


# -- set-up -----------------------------------------------------------------


def open_target(
    workload: Workload, seed: int, rows: int, stack: ExitStack, tmp: str
) -> tuple[Target, float]:
    """Generate the input and open the workload's deployment on it:
    encode, boot, cold ``prepare``, first answer.

    Returns the target and how long all of that took.  Everything
    opened is registered on ``stack``: clients close before the server
    they talk to.
    """
    begin = time.perf_counter()
    relations = inputs.star_relations(seed, rows)
    wal_path = url = None
    if workload.served:
        handle, wal_path = tempfile.mkstemp(
            dir=tmp, prefix="ledger-", suffix=".wal"
        )
        os.close(handle)
        os.unlink(wal_path)  # the log writes its own header
        server = stack.enter_context(
            ReproServer(
                relations,
                engine=workload.engine,
                workers=SERVER_WORKERS,
                wal=wal_path,
            )
        )
        url = server.url
        conn = repro.connect(url)
        clear = server.store.clear
    else:
        conn = repro.connect(relations, engine=workload.engine)
        clear = conn.clear_cache
    stack.callback(conn.close)
    view = conn.prepare(inputs.STAR_QUERY, order=inputs.STAR_ORDER)
    view[0]
    target = Target(conn, view, relations, clear, wal_path, url)
    return target, time.perf_counter() - begin


def set_up(workload, seed, rows, budget, stack, tmp, tally) -> Target:
    """Set up again and again for ``budget`` seconds (see
    :data:`SETUP_SECONDS`) and keep the last deployment; ``setup_s`` is
    the median."""
    setup_s: list[float] = []
    while True:
        with ExitStack() as scratch:
            target, whole = open_target(workload, seed, rows, scratch, tmp)
            setup_s.append(whole)
            if len(setup_s) >= MAX_SETUPS or (
                len(setup_s) >= MIN_SETUPS and sum(setup_s) >= budget
            ):
                stack.enter_context(scratch.pop_all())
                break
        gc.collect()
    tally.put(
        "setup_s", statistics.median(setup_s), f"median of {len(setup_s)}"
    )
    return target


# -- timed loops ------------------------------------------------------------


def run_point_block(view, ops, first: int, duration_ns: int):
    """Closed loop over ``ops``, from position ``first``, for
    ``duration_ns`` and :data:`MIN_BLOCK_OPS`.

    Returns per-kind latency samples (ns), operations done, elapsed ns
    and the number that raised.
    """
    clock = time.perf_counter_ns
    samples = [array("q") for _kind in inputs.KIND_NAMES]
    errors = 0
    position = first
    count = len(ops)
    started = now = clock()
    deadline = started + duration_ns
    while now < deadline or position - first < MIN_BLOCK_OPS:
        kind, arg = ops[position % count]
        position += 1
        begin = clock()
        try:
            if kind == inputs.ACCESS:
                view[arg]
            elif kind == inputs.RANK:
                view.rank(arg)
            elif kind == inputs.PAGE:
                view.page(arg, inputs.PAGE_SIZE)
            elif arg == inputs.LEN:
                len(view)
            elif arg == inputs.MEDIAN:
                view.median()
            else:
                view.quantile(inputs.QUANTILE_FRACTION)
        except (ReproError, OSError):
            errors += 1
        now = clock()
        samples[kind].append(now - begin)
    return samples, position - first, now - started, errors


def run_scan_block(view, starts, duration_ns: int):
    """Closed loop of 1000-row slices for ``duration_ns`` and
    :data:`MIN_BLOCK_SLICES`; ns-per-row samples and errors."""
    clock = time.perf_counter_ns
    samples = array("d")
    errors = position = 0
    now = clock()
    deadline = now + duration_ns
    while now < deadline or position < MIN_BLOCK_SLICES:
        start = starts[position % len(starts)]
        position += 1
        begin = clock()
        try:
            fetched = view[start : start + inputs.SLICE_ROWS].to_list()
        except (ReproError, OSError):
            errors += 1
            now = clock()
            continue
        now = clock()
        samples.append((now - begin) / len(fetched))
    return samples, errors


class Phase:
    """One phase's share of the run, spent a unit of work at a time."""

    def __init__(self, share: float, unit):
        self.share = share
        self.unit = unit
        self.budget = 0.0
        self.units = 0

    def spend(self, seconds: float) -> None:
        """Add this phase's share of ``seconds`` to its budget and run
        units until it is used up; a unit that overruns is paid back
        out of the next rounds' share."""
        self.budget += seconds * self.share
        while self.share and self.budget > 0:
            self.run()

    def run(self) -> None:
        began = time.perf_counter()
        self.unit()
        self.budget -= time.perf_counter() - began
        self.units += 1


class ReadWriteLoop:
    """Interleaved units of point mix, scans, write cycles and cold
    prepares over one deployment (see :data:`ROUNDS`)."""

    def __init__(self, workload, target, oracle, seed, rows, stack, tally):
        self.target = target
        self.oracle = oracle
        self.stack = stack
        self.tally = tally
        clients = min(2, os.cpu_count() or 1) if workload.multi else 1
        self.pools = [
            inputs.point_pool(
                oracle, random.Random(f"{seed}:points:{client}"), POOL_OPS
            )
            for client in range(clients)
        ]
        self.positions = [0] * clients
        self.starts = inputs.slice_starts(
            oracle, random.Random(f"{seed}:scans"), POOL_OPS
        )
        self.scanned = 0
        self.deltas = inputs.delta_stream(seed, rows, oracle)
        self.extra_conns: list = []  #: the other clients' connections
        self.timed = False  #: warm-up samples are dropped
        #: Latency samples (ns) per point kind, in the order taken.
        self.point_ns = [array("q") for _kind in inputs.KIND_NAMES]
        self.rates: list[float] = []  #: ops/s of each point-mix unit
        self.scan_ns = array("d")  #: ns per row, one per slice
        self.apply_ns: list[int] = []
        self.fresh_ns: list[int] = []
        self.prepare_ns: list[int] = []
        self.acked: list = []  #: (db_version, inserted row)
        self.phases = [
            Phase(workload.points, self._single),
            Phase(workload.multi, self._multi),
            Phase(workload.scans, self._scans),
            Phase(workload.writes, self._write),
            Phase(workload.prepares, self._prepare),
        ]

    def _points(self, views, rated: bool) -> None:
        """One point-mix unit per view: the first on this thread, the
        others on threads of their own."""
        duration_ns = int(BLOCK_SECONDS * 1e9)
        results: list = [None] * len(views)

        def client(index: int) -> None:
            block = run_point_block(
                views[index], self.pools[index], self.positions[index],
                duration_ns,
            )
            self.positions[index] += block[1]
            results[index] = block

        threads = [
            threading.Thread(
                target=client, args=(index,),
                name=f"ledger-client-{index}",
            )
            for index in range(1, len(views))
        ]
        for thread in threads:
            thread.start()
        try:
            client(0)
        finally:
            for thread in threads:
                thread.join(timeout=60)
        if any(result is None for result in results):
            raise RuntimeError("a point-mix client did not finish")
        self.tally.count(
            sum(block[1] for block in results),
            sum(block[3] for block in results),
            "point op raised",
        )
        if not self.timed:
            return
        if len(views) == 1:
            for kept, taken in zip(self.point_ns, results[0][0]):
                kept.extend(taken)
        if rated:
            self.rates.append(
                sum(block[1] / block[2] * 1e9 for block in results)
            )

    def _single(self) -> None:
        # Without a multi-client phase the single client's rate counts.
        self._points([self.target.view], rated=len(self.pools) == 1)

    def _multi(self) -> None:
        """The first client's view plus a fresh one per extra client
        (a remote view goes stale a few versions after it was made)."""
        while len(self.extra_conns) < len(self.pools) - 1:
            conn = repro.connect(self.target.url)
            self.stack.callback(conn.close)
            self.extra_conns.append(conn)
        views = [self.target.view] + [
            conn.prepare(inputs.STAR_QUERY, order=inputs.STAR_ORDER)
            for conn in self.extra_conns
        ]
        self._points(views, rated=True)

    def _scans(self) -> None:
        offset = self.scanned % POOL_OPS
        samples, errors = run_scan_block(
            self.target.view,
            self.starts[offset:] + self.starts[:offset],
            int(BLOCK_SECONDS * 1e9),
        )
        self.scanned += len(samples) + errors
        self.tally.count(len(samples) + errors, errors, "slice raised")
        if self.timed:
            self.scan_ns.extend(samples)

    def _write(self) -> None:
        gc.collect()
        target = self.target
        timed = write_cycle(target, self.deltas, self.oracle, self.tally)
        if timed is None:
            return
        self.apply_ns.append(timed[0])
        self.fresh_ns.append(timed[1])
        self.acked.append((target.view.db_version, timed[2][:2]))
        self.tally.expect(
            target.view.rank(timed[2]) == self.oracle.rank(timed[2]),
            f"inserted answer {timed[2]} not visible",
        )

    def _prepare(self) -> None:
        """Cold ``prepare`` + first answer on an emptied artifact store."""
        target = self.target
        target.clear()
        gc.collect()
        begin = time.perf_counter_ns()
        view = target.conn.prepare(
            inputs.STAR_QUERY, order=inputs.STAR_ORDER
        )
        view[0]
        self.prepare_ns.append(time.perf_counter_ns() - begin)
        close_view(target.view)
        target.view = view
        self.tally.expect(
            len(view) == len(self.oracle), "answer count after a cold prepare"
        )
        if target.url:
            self._carry()

    def _carry(self) -> None:
        """Something every delta on ``R`` must carry, not rebuild."""
        self.target.conn.prepare(
            inputs.CARRIED_QUERY, order=inputs.CARRIED_ORDER
        )[0]

    def run(self, seconds: float) -> None:
        if self.target.url:
            self._carry()
        reads = self.phases[:3]
        for phase in reads:
            phase.spend(seconds * WARM_SHARE)
        self.timed = True
        for phase in reads:
            phase.budget, phase.units = 0.0, 0
        for _round in range(ROUNDS):
            gc.collect()
            for phase in self.phases:
                phase.spend(seconds * (1 - WARM_SHARE) / ROUNDS)
        for phase in self.phases:
            while phase.share and phase.units < MIN_UNITS:
                phase.run()
        self.report()

    def report(self) -> None:
        tally = self.tally
        for metric, kind in (
            ("access_p50_us", inputs.ACCESS),
            ("rank_p50_us", inputs.RANK),
            ("page_p50_us", inputs.PAGE),
        ):
            samples = self.point_ns[kind]
            value, blocks = stats.quietest(samples)
            tally.put(
                metric, value / 1e3,
                f"{len(samples)} samples, quietest of {blocks} blocks",
            )
        tally.put(
            "ops_per_s", max(self.rates),
            f"{len(self.pools)} closed-loop client(s), best of "
            f"{len(self.rates)} units",
        )
        value, blocks = stats.quietest(self.scan_ns, MIN_BLOCK_SLICES)
        tally.put(
            "scan_row_us", value / 1e3,
            f"{len(self.scan_ns)} slices, quietest of {blocks} blocks",
        )
        # A write cycle or a cold prepare is a fifth of a second of
        # deterministic work (two seconds under the python engine) and
        # a run has tens of them at most, so a median over them mostly
        # measures how many fell into a slowed stretch of the box: the
        # quietest one is reported.  One insert in four re-encodes (3-5x
        # slower), so the quietest cycle is always an in-place
        # extension, like the median would be.
        for metric, samples, divisor in (
            ("apply_ms", self.apply_ns, 1e6),
            ("fresh_read_ms", self.fresh_ns, 1e6),
            ("prepare_s", self.prepare_ns, 1e9),
        ):
            tally.put(
                metric, min(samples) / divisor,
                f"quietest of {len(samples)}",
            )


def write_cycle(target: Target, deltas, oracle, tally: Tally):
    """One ``apply`` → ``prepare`` → first answer on the new version.

    Returns ``(apply ns, fresh-read ns, probe)`` or ``None`` when the
    cycle raised (counted as failed).  The visibility checks run after
    the clocks have stopped.
    """
    clock = time.perf_counter_ns
    row, probe = next(deltas)
    begin = clock()
    try:
        version = target.conn.apply(Delta(inserts={"R": {row}}))
        acked = clock()
        fresh = target.conn.prepare(
            inputs.STAR_QUERY, order=inputs.STAR_ORDER
        )
        first = fresh[0]
        answered = clock()
    except (ReproError, OSError) as error:
        tally.expect(False, f"write cycle raised {error!r}")
        return None
    oracle.insert_r(row)
    tally.expect(
        fresh.db_version == version
        and len(fresh) == len(oracle)
        and first == oracle.answer(0),
        f"insert {row} not served at acked db_version {version}",
    )
    close_view(target.view)
    target.view = fresh
    return acked - begin, answered - acked, probe


# -- checking ---------------------------------------------------------------


def singles_for(served: bool, scale: float) -> int:
    """One-at-a-time checks per operation type (fewer under --check)."""
    full = REMOTE_SINGLES if served else LOCAL_SINGLES
    return max(2, int(full * scale))


def verify_reads(view, oracle, seed: int, singles: int, tally: Tally):
    """Re-resolve a seeded sample of every operation type against the
    oracle: ``singles`` one-at-a-time calls per type plus one batch of
    1000 positional reads and 1000 ranks."""
    rng = random.Random(f"{seed}:verify")
    n = len(oracle)
    tally.expect(len(view) == n, f"len(view) != {n}")
    for _ in range(singles):
        index = rng.randrange(n)
        expected = oracle.answer(index)
        tally.expect(view[index] == expected, f"view[{index}]")
        tally.expect(view.rank(expected) == index, f"rank({expected})")
        tally.expect(
            view[view.rank(expected)] == expected, "rank round-trip"
        )
        page = rng.randrange(max(1, n // inputs.PAGE_SIZE))
        first = page * inputs.PAGE_SIZE
        tally.expect(
            view.page(page, inputs.PAGE_SIZE)
            == oracle.answers(first, first + inputs.PAGE_SIZE),
            f"page({page})",
        )
    indices = [rng.randrange(n) for _ in range(1000)]
    expected_rows = [oracle.answer(index) for index in indices]
    fetched = view.tuples_at(indices)
    tally.count(
        len(indices),
        sum(a != b for a, b in zip(fetched, expected_rows))
        + abs(len(fetched) - len(indices)),
        "batch access",
    )
    ranks = view.ranks(expected_rows)
    tally.count(
        len(indices),
        sum(a != b for a, b in zip(ranks, indices)),
        "batch rank",
    )
    starts = [0] + inputs.slice_starts(oracle, rng, max(1, singles // 100))
    for start in starts:
        rows = view[start : start + inputs.SLICE_ROWS].to_list()
        tally.expect(
            rows == oracle.answers(start, start + inputs.SLICE_ROWS),
            f"slice at {start}",
        )
        tally.expect(
            all(a < b for a, b in zip(rows, rows[1:])),
            f"slice at {start} not strictly increasing",
        )
    tally.expect(view.median() == oracle.answer((n - 1) // 2), "median")
    tally.expect(
        view.quantile(inputs.QUANTILE_FRACTION)
        == view[int(inputs.QUANTILE_FRACTION * (n - 1))],
        "quantile",
    )
    x, y, z = oracle.answer(rng.randrange(n))
    tally.expect((x, y + 1, z) not in view, "non-answer found in view")


def verify_wal(wal_path: str, acked, oracle, tally: Tally) -> None:
    """Boot from the log alone: every acknowledged insert is there, at
    the acknowledged version."""
    with WriteAheadLog(wal_path) as log:
        database, version = log.recover()
    recovered = database.relations["R"].tuples
    tally.expect(
        version == (acked[-1][0] if acked else 0),
        f"WAL recovers to db_version {version}",
    )
    for acked_version, row in acked:
        tally.expect(
            row in recovered,
            f"acked insert {row} (db_version {acked_version}) not in WAL",
        )
    replayed = inputs.StarOracle(
        recovered, database.relations["S"].tuples
    )
    tally.expect(
        len(replayed) == len(oracle), "WAL replay answer count differs"
    )


# -- the workloads ----------------------------------------------------------


def run(name: str, seed: int, seconds: float, scale: float, tmp: str):
    """One untraced run of workload ``name``; returns its :class:`Tally`.

    One ``ExitStack`` owns every connection, server and client opened
    on the way; it is unwound before this returns, whatever happened.
    """
    workload = WORKLOADS[name]
    tally = Tally()
    rows = inputs.scaled_rows(scale, workload.rows)
    with ExitStack() as stack:
        target = set_up(
            workload, seed, rows, SETUP_SECONDS * scale, stack, tmp, tally
        )
        oracle = inputs.StarOracle(
            target.relations["R"], target.relations["S"]
        )
        loop = ReadWriteLoop(
            workload, target, oracle, seed, rows, stack, tally
        )
        loop.run(seconds)
        verify_reads(
            target.view,
            oracle,
            seed,
            singles_for(workload.served, scale),
            tally,
        )
        tally.put("peak_rss_mb", peak_rss_mb())
    if target.wal_path:
        # The server is down and its log closed: recover from the
        # bytes on disk alone.
        verify_wal(target.wal_path, loop.acked, oracle, tally)
    return tally
