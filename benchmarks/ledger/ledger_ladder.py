"""The traced run: one layer ladder over the shared star input.

The same seeded operations are replayed level by level — core descent,
engine batch kernel, ``AnswerView``, ``protocol.execute`` without a
socket, raw HTTP on each front, ``RemoteAnswerView`` — each timed from
outside around its public call.  Every timed call is a span ``{name,
op_id, parent, start_ns, end_ns}``; spans of one seeded operation share
its ``op_id`` and name the level above as ``parent``, so a level's self
time is its span minus its child's.  Spans stay in memory and are
written out when the run ends.

The ladder runs under the traced workload's engine; the size sweep
behind the ``core.exponent.*`` / ``core.preprocess.*`` /
``core.forest.*`` / ``core.access_growth`` metrics is always numpy (plus
one python point per ι for ``ratio.np_over_py.prepare``), because only
numpy reaches the top sizes within a run.  End-to-end numbers never
come from here.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import statistics
import time
from contextlib import ExitStack

import repro
from repro import Delta, WriteAheadLog
from repro.core.access import DirectAccess
from repro.core.preprocessing import Preprocessing
from repro.engine import use_engine
from repro.errors import ReproError
from repro.query.catalog import (
    star_bad_order,
    star_query,
    triangle_query,
)
from repro.query.parser import parse_query
from repro.query.variable_order import VariableOrder
from repro.server import ReproServer
from repro.server.http import SESSION_ROUTE
from repro.session.protocol import (
    SessionRequest,
    SessionResponse,
    execute,
)

import ledger_inputs as inputs
import ledger_stats as stats
from ledger_workloads import (
    SERVER_WORKERS,
    WORKLOADS,
    Tally,
    close_view,
    singles_for,
    verify_reads,
)

try:
    from repro.server import AsyncReproServer
except ImportError:  # the front may be retired by a later change
    AsyncReproServer = None

#: Spans are kept for the first operations of every level only: enough
#: for self times, small enough to write out.
SPAN_OPS = 200

#: Seeded operations prepared per level: the most any level samples.
LEVEL_OPS = 4000

#: Shares of ``--seconds`` a sampled level may spend.
LOCAL_SHARE = 0.012
THREADS_ACCESS_SHARE = 0.12
THREADS_SLICE_SHARE = 0.05
AIO_ACCESS_SHARE = 0.05
AIO_SLICE_SHARE = 0.03
CLIENT_SHARE = 0.08
CYCLES_SHARE = 0.20
OVERHEAD_SHARE = 0.05

MIN_SAMPLES = 5
MIN_CYCLES = 2
WAL_APPENDS = 20
ITER_ROWS = 20_000
GROWTH_SAMPLES = 300
BATCH_SIZES = (1, 16, 256, 4096)
RANK_BATCH_SIZES = (1, 256)
TRIANGLE_ORDER = ("x1", "x2", "x3")
GRID_CHECKS = 100


class RawClient:
    """One kept-alive ``http.client`` socket to one front."""

    def __init__(self, host: str, port: int):
        self._conn = http.client.HTTPConnection(host, port, timeout=30)
        self.opened = 0
        self.bytes_in = 0

    def post(self, payload: bytes) -> bytes:
        if self._conn.sock is None:
            self._conn.connect()
            self.opened += 1
        self._conn.request(
            "POST",
            SESSION_ROUTE,
            body=payload,
            headers={"Content-Type": "application/json"},
        )
        response = self._conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise OSError(f"HTTP {response.status} from the front")
        self.bytes_in = len(body)
        return body

    def close(self) -> None:
        self._conn.close()


class Ladder:
    """State of one traced run: the tally, the spans, the time budget."""

    def __init__(self, engine: str, seed: int, seconds: float, scale: float):
        self.engine = engine
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.tally = Tally()
        self.spans: list[dict] = []
        self.p50: dict[str, float] = {}  #: µs, by span name

    def sample(
        self, name, parent, call, args, share, per_call: int = 1,
        at_most: int = LEVEL_OPS,
    ) -> list[float]:
        """Time ``call(arg)`` over ``args`` for ``share`` of the run.

        Returns the ns-per-item samples (a call covers ``per_call``
        items) and records the first :data:`SPAN_OPS` calls as spans.
        """
        clock = time.perf_counter_ns
        samples: list[float] = []
        errors = 0
        deadline = clock() + int(self.seconds * share * 1e9)
        for op_id, arg in enumerate(itertools.islice(args, at_most)):
            begin = clock()
            try:
                call(arg)
            except (ReproError, OSError):
                errors += 1
            end = clock()
            samples.append((end - begin) / per_call)
            if op_id < SPAN_OPS:
                self.spans.append(
                    stats.span(name, op_id, parent, begin, end)
                )
            if end >= deadline and len(samples) >= MIN_SAMPLES:
                break
        self.tally.count(len(samples), errors, f"{name} raised")
        self.p50[name] = statistics.median(samples) / 1e3
        return samples

    def put_p50(self, metric: str, name: str) -> None:
        self.tally.put(metric, self.p50[name])

    def put_tail(self, metric: str, samples) -> None:
        q, value = stats.tail_percentile(samples)
        note = f"{len(samples)} samples"
        if q < 99.0:
            note += f": too few for p99, this is p{q:.1f}"
        self.tally.put(metric, value / 1e3, note)


def build_point(relations, query, order, engine: str):
    """One cold build split at the core seams: ``(|D|, preprocess s,
    forest s, access structure)``."""
    with repro.connect(relations, engine=engine) as conn:
        database = conn.database
        order = VariableOrder(list(order))
        with use_engine(conn.session.engine):
            begin = time.perf_counter()
            preprocessing = Preprocessing(query, order, database)
            middle = time.perf_counter()
            access = DirectAccess(
                query, order, database, preprocessing=preprocessing
            )
            access.tuple_at(0)
            end = time.perf_counter()
    return len(database), middle - begin, end - middle, access


def verify_grid(access, dims, seed: int, tally: Tally) -> None:
    """The worst-case builds have closed-form answers: full grids."""
    total = dims[0] * dims[1] * dims[2]
    tally.expect(len(access) == total, f"grid build has {len(access)} answers")
    rng = random.Random(f"{seed}:grid")
    for index in [0, total - 1] + [
        rng.randrange(total) for _ in range(GRID_CHECKS)
    ]:
        tally.expect(
            access.tuple_at(index) == inputs.grid_answer(index, dims),
            f"grid answer {index}",
        )


def sweep(ladder: Ladder) -> None:
    """The paper side: cold builds over three sizes per ι."""
    scale, seed = ladder.scale, ladder.seed
    star = parse_query(inputs.STAR_QUERY)
    cases = (
        (
            "iota1",
            inputs.scaled_sweep(inputs.STAR_SWEEP, scale, linear=True),
            lambda rows: inputs.star_relations(seed, rows),
            star,
            inputs.STAR_ORDER,
            None,
        ),
        (
            "iota1_5",
            inputs.scaled_sweep(inputs.TRIANGLE_SWEEP, scale),
            inputs.triangle_relations,
            triangle_query(),
            TRIANGLE_ORDER,
            lambda side: (side, side, side),
        ),
        (
            "iota2",
            inputs.scaled_sweep(inputs.BAD_STAR_SWEEP, scale),
            inputs.bad_star_relations,
            star_query(2),
            tuple(star_bad_order(2)),
            lambda sets: (sets, sets, inputs.BAD_STAR_UNIVERSE),
        ),
    )
    numpy_s = python_s = 0.0
    for label, sizes, make, query, order, dims in cases:
        tuples, seconds = [], []
        for position, size in enumerate(sizes):
            relations = make(size)
            count, preprocess_s, forest_s, access = build_point(
                relations, query, order, "numpy"
            )
            tuples.append(count)
            seconds.append(preprocess_s + forest_s)
            if label == "iota1" and position in (0, len(sizes) - 1):
                rng = random.Random(f"{seed}:growth")
                indices = [
                    rng.randrange(len(access))
                    for _ in range(GROWTH_SAMPLES)
                ]
                ladder.sample(
                    f"core.access@{size}", None, access.tuple_at,
                    indices, LOCAL_SHARE,
                )
            if position == 0:
                # The one size the python engine also builds.
                numpy_s += preprocess_s + forest_s
                python_s += sum(
                    build_point(relations, query, order, "python")[1:3]
                )
        if dims is not None:
            verify_grid(access, dims(sizes[-1]), seed, ladder.tally)
        ladder.tally.put(f"core.preprocess.s.{label}", preprocess_s)
        ladder.tally.put(f"core.forest.s.{label}", forest_s)
        ladder.tally.put(
            f"core.exponent.{label}",
            stats.fit_exponent(tuples, seconds),
            f"|D| {tuples}, seconds {[round(s, 3) for s in seconds]}",
        )
    star_sizes = cases[0][1]
    ladder.tally.put(
        "core.access_growth",
        ladder.p50[f"core.access@{star_sizes[-1]}"]
        / ladder.p50[f"core.access@{star_sizes[0]}"],
        f"rows {star_sizes[-1]} over {star_sizes[0]}, numpy",
    )
    ladder.tally.put(
        "ratio.np_over_py.prepare",
        numpy_s / python_s,
        f"numpy {numpy_s:.3f} s over python {python_s:.3f} s at the "
        "smallest size of each sweep",
    )


def local_levels(ladder: Ladder, conn, view, oracle):
    """core → engine → facade → session, no socket anywhere; returns
    the seeded indices and protocol payloads the server levels replay."""
    tally, seed = ladder.tally, ladder.seed
    rng = random.Random(f"{seed}:ladder")
    n = len(oracle)
    # Enough indices for the widest batch kernel call, eight times over;
    # the first LEVEL_OPS of them are the ops every level replays.
    many = [rng.randrange(n) for _ in range(8 * max(BATCH_SIZES))]
    indices = many[:LEVEL_OPS]
    rows = [oracle.answer(index) for index in indices]
    pages = [index // inputs.PAGE_SIZE for index in indices]
    starts = inputs.slice_starts(oracle, rng, LEVEL_OPS)
    access = conn.session.access(
        inputs.STAR_QUERY, order=inputs.STAR_ORDER
    )

    # core: one scalar descent per call.
    samples = ladder.sample(
        "core.access", "engine.batch1", access.tuple_at, indices,
        LOCAL_SHARE,
    )
    ladder.put_p50("core.access.p50_us", "core.access")
    ladder.put_tail("core.access.p99_us", samples)
    ladder.sample(
        "core.rank", "engine.rank_batch1", access.rank_of, rows,
        LOCAL_SHARE,
    )
    ladder.put_p50("core.rank.p50_us", "core.rank")

    # engine: the batch kernels at fixed batch sizes.
    for size in BATCH_SIZES:
        batches = [
            many[start : start + size]
            for start in range(0, size * max(8, LEVEL_OPS // size), size)
        ]
        name = f"engine.batch{size}"
        ladder.sample(
            name, "facade.access" if size == 1 else None,
            access.tuples_at, batches, LOCAL_SHARE, per_call=size,
        )
        ladder.put_p50(f"{name}.row_us", name)
    for size in RANK_BATCH_SIZES:
        batches = [
            rows[start : start + size]
            for start in range(0, LEVEL_OPS - size + 1, size)
        ]
        name = f"engine.rank_batch{size}"
        ladder.sample(
            name, "facade.rank" if size == 1 else None,
            access.ranks_of, batches, LOCAL_SHARE, per_call=size,
        )
        ladder.put_p50(f"{name}.row_us", name)
    windows = [
        range(start, start + inputs.SLICE_ROWS) for start in starts
    ]
    ladder.sample(
        "engine.batch1000", "facade.slice", access.tuples_at, windows,
        LOCAL_SHARE, per_call=inputs.SLICE_ROWS,
    )

    # facade: the Sequence surface callers use.
    samples = ladder.sample(
        "facade.access", "session.execute.access", view.__getitem__,
        indices, LOCAL_SHARE,
    )
    ladder.put_p50("facade.access.p50_us", "facade.access")
    ladder.put_tail("facade.access.p99_us", samples)
    ladder.sample(
        "facade.rank", "session.execute.rank", view.rank, rows,
        LOCAL_SHARE,
    )
    ladder.put_p50("facade.rank.p50_us", "facade.rank")
    ladder.sample(
        "facade.page", "session.execute.page",
        lambda page: view.page(page, inputs.PAGE_SIZE), pages,
        LOCAL_SHARE,
    )
    ladder.put_p50("facade.page.p50_us", "facade.page")
    ladder.sample(
        "facade.median", None, lambda _: view.median(), indices,
        LOCAL_SHARE,
    )
    ladder.put_p50("facade.median.p50_us", "facade.median")
    ladder.sample(
        "facade.slice", "session.execute.slice",
        lambda start: view[start : start + inputs.SLICE_ROWS].to_list(),
        starts, LOCAL_SHARE, per_call=inputs.SLICE_ROWS,
    )
    ladder.put_p50("facade.slice.row_us", "facade.slice")
    window = min(max(1000, int(ITER_ROWS * ladder.scale)), n)

    def iterate(start: int) -> None:
        for _row in view[start : start + window]:
            pass

    ladder.sample(
        "facade.iter", None, iterate,
        [min(start, n - window) for start in starts], LOCAL_SHARE,
        per_call=window, at_most=MIN_SAMPLES,
    )
    ladder.put_p50("facade.iter.row_us", "facade.iter")

    # Exact engine work per 1000 facade operations of the point mix.
    pool = inputs.point_pool(oracle, random.Random(f"{seed}:counts"), 1000)
    before = view.op_counters()
    for kind, arg in pool:
        if kind == inputs.ACCESS:
            view[arg]
        elif kind == inputs.RANK:
            view.rank(arg)
        elif kind == inputs.PAGE:
            view.page(arg, inputs.PAGE_SIZE)
    after = view.op_counters()
    tally.count(len(pool), 0, "counted point op")
    for counter in ("access_batches", "access_indices", "rank_tuples"):
        tally.put(
            f"engine.{counter}",
            after.get(counter, 0) - before.get(counter, 0),
            "per 1000 operations of the point mix",
        )

    # session: parse → execute → encode, no socket.
    base = {
        "query": inputs.STAR_QUERY,
        "order": list(inputs.STAR_ORDER),
    }
    payloads = {
        "access": [
            dict(base, op="access", indices=[index]) for index in indices
        ],
        "rank": [dict(base, op="rank", answer=list(row)) for row in rows],
        "page": [
            dict(
                base, op="page", page_number=page,
                page_size=inputs.PAGE_SIZE,
            )
            for page in pages
        ],
        "slice": [
            dict(
                base, op="access",
                indices=list(range(start, start + inputs.SLICE_ROWS)),
            )
            for start in starts[:200]
        ],
    }

    def serve(payload: dict) -> str:
        return execute(conn, SessionRequest.from_dict(payload)).to_json()

    for kind, parent in (
        ("access", "server.threads.access"),
        ("rank", None),
        ("page", None),
    ):
        name = f"session.execute.{kind}"
        ladder.sample(name, parent, serve, payloads[kind], LOCAL_SHARE)
        ladder.put_p50(f"{name}.p50_us", name)
    ladder.sample(
        "session.execute.slice", "server.threads.slice", serve,
        payloads["slice"], LOCAL_SHARE, per_call=inputs.SLICE_ROWS,
    )
    ladder.put_p50("session.execute.slice.row_us", "session.execute.slice")
    ladder.sample(
        "session.prepare_warm", None,
        lambda _: conn.prepare(
            inputs.STAR_QUERY, order=inputs.STAR_ORDER
        ),
        indices, LOCAL_SHARE,
    )
    ladder.put_p50("session.prepare_warm.p50_us", "session.prepare_warm")
    begin = time.perf_counter()
    sibling = conn.prepare(inputs.STAR_QUERY, order=inputs.SIBLING_ORDER)
    sibling[0]
    tally.put(
        "session.prepare_sibling.ms",
        (time.perf_counter() - begin) * 1e3,
        f"order {','.join(inputs.SIBLING_ORDER)} after "
        f"{','.join(inputs.STAR_ORDER)}",
    )
    close_view(sibling)

    # codec: encode a captured response and decode it as the client does.
    for metric, kind, per_call in (
        ("session.codec.point.p50_us", "access", 1),
        ("session.codec.slice.row_us", "slice", inputs.SLICE_ROWS),
    ):
        response = execute(
            conn, SessionRequest.from_dict(payloads[kind][0])
        )
        tally.expect(response.ok, f"captured {kind} response not ok")
        name = f"session.codec.{kind}"
        ladder.sample(
            name, None,
            lambda _, response=response: SessionResponse.from_json(
                response.to_json()
            ),
            indices, LOCAL_SHARE, per_call=per_call,
        )
        ladder.put_p50(metric, name)

    tally.put(
        "ratio.facade_over_engine.access",
        ladder.p50["facade.access"] / ladder.p50["engine.batch1"],
    )
    tally.put(
        "ratio.facade_over_engine.slice",
        ladder.p50["facade.slice"] / ladder.p50["engine.batch1000"],
    )
    tally.put(
        "ratio.session_over_facade.access",
        ladder.p50["session.execute.access"] / ladder.p50["facade.access"],
    )
    return indices, payloads


def server_levels(ladder, relations, indices, payloads, stack):
    """The same payloads over one kept-alive socket to each front;
    returns the ``RemoteAnswerView`` on the default (threaded) front."""
    tally = ladder.tally
    access_bodies = [
        json.dumps(payload).encode("utf-8")
        for payload in payloads["access"]
    ]
    slice_bodies = [
        json.dumps(payload).encode("utf-8")
        for payload in payloads["slice"]
    ]
    fronts = [("threads", ReproServer)]
    if AsyncReproServer is not None:
        fronts.append(("aio", AsyncReproServer))
    else:
        for metric in ("access.p50_us", "access.p99_us", "slice.row_us"):
            tally.notes[f"server.aio.{metric}"] = (
                "repro.server.AsyncReproServer does not import"
            )
    requests = http_errors = sockets = 0
    remote = None
    for front, factory in fronts:
        with ExitStack() as serving:
            # The default front stays up for the run: the served
            # workloads' top level is the remote view on it.
            owner = stack if front == "threads" else serving
            server = owner.enter_context(
                factory(
                    relations, engine=ladder.engine,
                    workers=SERVER_WORKERS,
                )
            )
            raw = RawClient(server.host, server.port)
            serving.callback(raw.close)
            raw.post(access_bodies[0])  # cold prepare, not sampled
            point_bytes = raw.bytes_in
            name = f"server.{front}.access"
            share = (
                THREADS_ACCESS_SHARE if front == "threads"
                else AIO_ACCESS_SHARE
            )
            samples = ladder.sample(
                name,
                "server.client.access" if front == "threads" else None,
                raw.post, access_bodies[1:], share,
            )
            ladder.put_p50(f"{name}.p50_us", name)
            ladder.put_tail(f"{name}.p99_us", samples)
            name = f"server.{front}.slice"
            ladder.sample(
                name, None, raw.post, slice_bodies,
                THREADS_SLICE_SHARE if front == "threads"
                else AIO_SLICE_SHARE,
                per_call=inputs.SLICE_ROWS,
            )
            ladder.put_p50(f"{name}.row_us", name)
            if front == "threads":
                tally.put(
                    "server.wire.bytes_per_point", point_bytes,
                    "response body of the first seeded access",
                )
                tally.put(
                    "server.wire.bytes_per_row",
                    raw.bytes_in / inputs.SLICE_ROWS,
                    "response body of the last 1000-row access",
                )
                client = repro.connect(server.url)
                stack.callback(client.close)
                remote = client.prepare(
                    inputs.STAR_QUERY, order=inputs.STAR_ORDER
                )
                ladder.sample(
                    "server.client.access", None, remote.__getitem__,
                    indices[1:], CLIENT_SHARE,
                )
            counters = server.stats()["server"]
            requests += counters["requests"]
            http_errors += sum(counters["http_errors"].values())
            sockets += raw.opened
    own = stats.self_times(ladder.spans)["server.client.access"]
    tally.put(
        "server.client.self_us",
        statistics.median(own) / 1e3,
        f"RemoteAnswerView minus raw POST, {len(own)} ops",
    )
    tally.put(
        "ratio.server_over_session.access",
        ladder.p50["server.threads.access"]
        / ladder.p50["session.execute.access"],
    )
    tally.put("server.requests", requests)
    tally.put("server.http_errors", http_errors)
    tally.put(
        "server.sockets_opened", sockets,
        "raw keep-alive clients, one per front",
    )
    return remote


def write_levels(ladder: Ladder, conn, oracle, rows: int) -> None:
    """apply → pinned read of the old version → rebuild → carried."""
    tally = ladder.tally
    clock = time.perf_counter_ns
    deltas = inputs.delta_stream(ladder.seed, rows, oracle)
    names = ("apply", "pinned", "rebuild", "carried")
    samples: dict[str, list[int]] = {name: [] for name in names}
    deadline = time.perf_counter() + ladder.seconds * CYCLES_SHARE
    cycles = 0
    while cycles < MIN_CYCLES or time.perf_counter() < deadline:
        cycles += 1
        row, probe = next(deltas)
        old_version = conn.db_version
        pinned = SessionRequest(
            op="access", query=inputs.STAR_QUERY,
            order=inputs.STAR_ORDER, indices=(0,),
            db_version=old_version,
        )
        expected_old = oracle.answer(0)
        t0 = clock()
        conn.apply(Delta(inserts={"R": {row}}))
        t1 = clock()
        response = execute(conn, pinned)
        t2 = clock()
        fresh = conn.prepare(inputs.STAR_QUERY, order=inputs.STAR_ORDER)
        fresh[0]
        t3 = clock()
        carried = conn.prepare(
            inputs.CARRIED_QUERY, order=inputs.CARRIED_ORDER
        )
        t4 = clock()
        oracle.insert_r(row)
        tally.expect(
            response.ok
            and tuple(response.result["answers"][0]) == expected_old,
            f"pinned read at db_version {old_version}",
        )
        tally.expect(
            fresh.rank(probe) == oracle.rank(probe),
            f"inserted answer {probe} not visible",
        )
        close_view(fresh)
        close_view(carried)
        for name, begin, end in zip(
            names, (t0, t1, t2, t3), (t1, t2, t3, t4)
        ):
            samples[name].append(end - begin)
            ladder.spans.append(
                stats.span(f"write.{name}", cycles, None, begin, end)
            )
    for metric, name, divisor in (
        ("data.apply_local.p50_ms", "apply", 1e6),
        ("session.pinned_first_read.p50_ms", "pinned", 1e6),
        ("session.rebuild.p50_ms", "rebuild", 1e6),
        ("session.carried_prepare.p50_us", "carried", 1e3),
    ):
        tally.put(
            metric,
            statistics.median(samples[name]) / divisor,
            f"{cycles} cycles",
        )
    counters = conn.stats()
    store = counters["store"]
    for metric, value in (
        ("session.artifacts_carried", store["artifacts_carried"]),
        ("session.artifacts_invalidated", store["artifacts_invalidated"]),
        ("session.bag_materializations", counters["bag_materializations"]),
        ("session.forest_builds", counters["forest_builds"]),
        ("session.database_encodes", store["database_encodes"]),
        ("data.incremental_encodes", store["incremental_encodes"]),
        ("data.full_reencodes", store["full_reencodes"]),
    ):
        tally.put(metric, value)


def wal_levels(ladder: Ladder, relations, oracle, rows, tmp) -> None:
    """Append deltas to a log on a temporary file, then boot from it."""
    tally = ladder.tally
    path = os.path.join(tmp, "ladder.wal")
    deltas = inputs.delta_stream(ladder.seed + 1, rows, oracle)
    appended = []
    with WriteAheadLog(path) as log:
        log.recover(relations, seed=True)
        before = log.stats.bytes_written

        def append(version: int) -> None:
            row, _probe = next(deltas)
            appended.append(row)
            log.append_delta(Delta(inserts={"R": {row}}), version)

        ladder.sample(
            "data.wal_append", None, append,
            list(range(1, WAL_APPENDS + 1)), 1.0,
        )
        written = log.stats.bytes_written - before
    ladder.put_p50("data.wal_append.p50_us", "data.wal_append")
    tally.put(
        "data.wal.bytes_per_row", written / len(appended),
        f"{len(appended)} one-row deltas",
    )
    begin = time.perf_counter()
    with WriteAheadLog(path) as log:
        database, version = log.recover()
    tally.put("data.recover.s", time.perf_counter() - begin)
    recovered = database.relations["R"].tuples
    tally.expect(
        version == len(appended)
        and all(row in recovered for row in appended),
        "boot from the WAL lost an appended delta",
    )


def overhead(ladder: Ladder, view, indices) -> None:
    """Traced against untraced p50 of the workload's top-level access."""
    clock = time.perf_counter_ns
    budget = int(ladder.seconds * OVERHEAD_SHARE * 1e9)
    untraced = []
    deadline = clock() + budget
    for index in indices:
        begin = clock()
        view[index]
        end = clock()
        untraced.append(end - begin)
        if end >= deadline and len(untraced) >= MIN_SAMPLES:
            break
    traced = ladder.sample(
        "top.access", None, view.__getitem__, indices, OVERHEAD_SHARE,
        at_most=len(untraced),
    )
    ladder.tally.count(len(untraced), 0, "untraced access")
    ladder.tally.put(
        "trace.overhead_frac",
        statistics.median(traced) / statistics.median(untraced) - 1.0,
        f"{len(traced)} traced over {len(untraced)} untraced accesses",
    )


def run(name, seed, seconds, scale, tmp, trace_path) -> Tally:
    """The traced run of workload ``name``; writes the span file."""
    workload = WORKLOADS[name]
    ladder = Ladder(workload.engine, seed, seconds, scale)
    tally = ladder.tally
    rows = inputs.scaled_rows(scale)
    try:
        sweep(ladder)
        relations = inputs.star_relations(seed, rows)
        oracle = inputs.StarOracle(relations["R"], relations["S"])
        with ExitStack() as stack:
            begin = time.perf_counter()
            conn = repro.connect(relations, engine=workload.engine)
            stack.callback(conn.close)
            tally.put("data.encode.s", time.perf_counter() - begin)
            view = conn.prepare(inputs.STAR_QUERY, order=inputs.STAR_ORDER)
            conn.prepare(inputs.CARRIED_QUERY, order=inputs.CARRIED_ORDER)
            indices, payloads = local_levels(ladder, conn, view, oracle)
            remote = server_levels(
                ladder, relations, indices, payloads, stack
            )
            own = stats.self_times(ladder.spans)["facade.access"]
            tally.put(
                "facade.access.self_us",
                statistics.median(own) / 1e3,
                f"facade.access minus engine.batch1, {len(own)} ops",
            )
            overhead(ladder, remote if workload.served else view, indices)
            begin = time.perf_counter()
            verify_reads(
                view, oracle, seed, singles_for(False, scale), tally
            )
            tally.put("verify.s", time.perf_counter() - begin)
            wal_levels(ladder, relations, oracle, rows, tmp)
            # Protocol views are transient: no open view may keep the
            # old version's artifacts alive when the cycles start.
            close_view(view)
            write_levels(ladder, conn, oracle, rows)
        tally.put("trace.spans", len(ladder.spans))
        tally.put(
            "error_rate", tally.failed / max(1, tally.attempted),
            f"{tally.failed} of {tally.attempted}",
        )
    finally:
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(ladder.spans, handle)
    return tally
