"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``analyze`` — classify a query/order pair: acyclicity, disruptive
  trios, the disruption-free decomposition, and the incompatibility
  number (the preprocessing exponent of Theorem 44).
* ``fhtw`` — the fractional hypertree width and a witness order
  (Proposition 45).
* ``access`` — prepare a query over relations read from CSV-ish files
  (through the :func:`repro.connect` facade) and serve indices /
  medians from the command line.
* ``session`` — load the relations once, then serve repeated requests
  read from stdin against one :class:`~repro.Connection`: one
  :class:`~repro.session.SessionRequest` JSON object per input line,
  one :class:`~repro.session.SessionResponse` per output line, run
  through :func:`repro.session.protocol.execute` — the grammar
  ``repro serve`` speaks over HTTP.
* ``serve`` — the same protocol over HTTP: one connection over one
  artifact store, ``--workers`` requests at a time (``POST
  /v1/session``, ``GET /healthz``, ``GET /stats``; spec in
  ``docs/protocol.md``), behind either the threaded stdlib front or,
  with ``--async``, an asyncio event loop multiplexing thousands of
  keep-alive connections onto the same admission gate.  ``--wal PATH`` makes serving
  durable: every applied delta is logged before it runs, and a
  restarted server replays the log back to the pre-crash version.
  Query it with ``curl`` or from Python via
  ``repro.connect("http://host:port")``.
* ``wal`` — inspect, truncate, or compact a write-ahead log produced
  by ``serve --wal`` (compaction folds the whole history into one
  snapshot record).

The global ``--engine {python,numpy}`` flag selects the execution
engine (default: the ``REPRO_ENGINE`` environment variable, else
``python``).

Examples::

    python -m repro analyze "Q(x,y,z) :- R(x,y), S(y,z)" --order x,y,z
    python -m repro fhtw "Q(a,b,c) :- R(a,b), S(b,c), T(c,a)"
    python -m repro --engine numpy access "Q(x,y) :- R(x,y)" --order y,x \\
        --relation R=data/r.csv --index 0 --median
    printf '{"op": "count"}\\n{"op": "quit"}\\n' | \\
        python -m repro session "Q(x,y) :- R(x,y)" --relation R=data/r.csv
    python -m repro serve --port 8080 --workers 8 \\
        --relation R=data/r.csv --query "Q(x,y) :- R(x,y)"
"""

from __future__ import annotations

import argparse
import sys

from repro.core.decomposition import DisruptionFreeDecomposition
from repro.engine import available_engines, set_engine
from repro.core.htw import fractional_hypertree_width
from repro.data.database import Database
from repro.data.relation import Relation  # noqa: F401 (re-export)
from repro.facade import connect
from repro.hypergraph.disruptive_trios import find_disruptive_trio
from repro.hypergraph.gyo import is_acyclic
from repro.hypergraph.hypergraph import Hypergraph
from repro.query.parser import parse_query
from repro.query.variable_order import VariableOrder


def _parse_order(text: str) -> VariableOrder:
    return VariableOrder([v.strip() for v in text.split(",")])


def _load_relation(spec: str) -> tuple[str, Relation]:
    """Parse ``NAME=path``; the file format is that of repro.data.io."""
    from repro.data.io import load_relation
    from repro.errors import DatabaseError

    name, _, path = spec.partition("=")
    if not path:
        raise SystemExit(f"--relation needs NAME=path, got {spec!r}")
    try:
        return name, load_relation(path)
    except DatabaseError as error:
        raise SystemExit(str(error)) from None


def cmd_analyze(args) -> int:
    """Dual-mode ``repro analyze``.

    With ``--order`` (or a query-shaped positional containing ``:-``)
    this is the original query/order classifier.  Otherwise it is the
    project linter: the static-analysis pass of
    :mod:`repro.analysis` over the given paths (default ``src``),
    ``--strict`` failing on warnings and unjustified suppressions,
    ``--json`` emitting the deterministic report.
    """
    targets = args.targets
    query_shaped = bool(targets) and ":-" in targets[0]
    if args.order is not None or query_shaped:
        if args.order is None:
            raise SystemExit(
                "query classification needs --order (or pass paths "
                "to run the static-analysis linter)"
            )
        if len(targets) != 1:
            raise SystemExit(
                "query classification takes exactly one query"
            )
        return _analyze_query(targets[0], args)
    return _analyze_paths(targets, args)


def _analyze_paths(targets: list[str], args) -> int:
    """The linter half of ``repro analyze``."""
    import json as json_module
    from pathlib import Path

    from repro.analysis import analyze_paths

    paths = [Path(target) for target in (targets or ["src"])]
    for path in paths:
        if not path.exists():
            raise SystemExit(f"no such path: {path}")
    try:
        report = analyze_paths(
            paths,
            root=Path.cwd(),
            rules=args.rule or None,
            strict=args.strict,
        )
    except (ValueError, SyntaxError) as error:
        raise SystemExit(str(error)) from None
    if args.json:
        print(json_module.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        for line in report.render_text():
            print(line)
    return report.exit_code(strict=args.strict)


def _analyze_query(query_text: str, args) -> int:
    query = parse_query(query_text)
    hypergraph = Hypergraph.of_query(query)
    print(f"query:        {query}")
    print(f"acyclic:      {is_acyclic(hypergraph)}")
    order = _parse_order(args.order)
    trio = find_disruptive_trio(hypergraph, order)
    print(f"order:        {list(order)}")
    print(
        "disruptive trio: "
        + (f"{trio}" if trio else "none")
    )
    decomposition = DisruptionFreeDecomposition(query, order)
    print("disruption-free decomposition bags:")
    for bag in decomposition.bags:
        cover = ", ".join(
            f"{set(edge)}:{weight}" for edge, weight in bag.cover
        )
        print(
            f"  e_{bag.index + 1} ({bag.variable}): "
            f"{sorted(bag.edge)}  ρ* = {bag.cover_number}  "
            f"[cover: {cover}]"
        )
    iota = decomposition.incompatibility_number
    print(f"incompatibility number ι = {iota}")
    print(
        f"=> direct access: O(|D|^{iota}) preprocessing, "
        "O(log |D|) access (tight under Zero-Clique)"
    )
    return 0


def cmd_fhtw(args) -> int:
    query = parse_query(args.query)
    width, order = fractional_hypertree_width(query)
    print(f"query: {query}")
    print(f"fractional hypertree width: {width}")
    print(f"witness order: {list(order)}")
    return 0


def cmd_access(args) -> int:
    query = parse_query(args.query)
    order = _parse_order(args.order)
    relations = dict(
        _load_relation(spec) for spec in args.relation
    )
    view = connect(Database(relations)).prepare(query, order=order)
    print(f"{len(view)} answers over {list(order)}")
    for index in args.index or []:
        print(f"answers[{index}] = {view[index]}")
    if args.median:
        print(f"median = {view.median()}")
    return 0


def cmd_session(args) -> int:
    """Serve repeated stdin requests against one facade Connection.

    Each input line is one :class:`~repro.session.SessionRequest` JSON
    object, each output line its
    :class:`~repro.session.SessionResponse`, via the protocol executor.
    """
    from repro.errors import ProtocolError, ReproError
    from repro.session.protocol import (
        SessionRequest,
        SessionResponse,
        execute,
    )

    if args.capacity < 0:
        raise SystemExit("--capacity must be non-negative")
    query = parse_query(args.query)
    relations = dict(_load_relation(spec) for spec in args.relation)
    # The connection's engine does the right database preparation
    # itself (shared dictionary under numpy, warm sort caches under
    # python).
    database = Database(relations)
    try:
        # Fail fast at startup, not once per request.
        database.validate_for(query)
    except ReproError as error:
        raise SystemExit(str(error)) from None
    connection = connect(database, cache=args.capacity)

    stream = args.commands if args.commands is not None else sys.stdin
    for line in stream:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            request = SessionRequest.from_json(stripped)
        except ProtocolError as error:
            response = SessionResponse(
                op="?", ok=False, error=str(error)
            )
            print(response.to_json())
            continue
        response = execute(connection, request, default_query=query)
        print(response.to_json())
        if request.op == "quit" and response.ok:
            break
    return 0


def cmd_chaos(args) -> int:
    """Run the crash/recovery chaos harness (``repro chaos``)."""
    import json as json_module

    from repro.chaos.runner import run_chaos

    faults_spec = args.faults
    if faults_spec is not None and faults_spec.strip().lower() == "none":
        faults_spec = ""
    try:
        report = run_chaos(
            seed=args.seed,
            ops=args.ops,
            faults_spec=faults_spec,
            engine=args.engine,
            quick=args.quick,
            workers=args.workers,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from None
    if args.json:
        print(json_module.dumps(report.as_dict(), indent=2))
    else:
        print(
            f"chaos seed={report.seed} ops={report.ops} "
            f"engine={report.engine}: {report.verdict.upper()}"
        )
        print(
            f"  executed={report.executed} crashes={report.crashes} "
            f"restarts={report.restarts} "
            f"ops_survived={report.ops_survived}"
        )
        for site in sorted(report.fault_counters):
            counts = report.fault_counters[site]
            if counts["calls"] or counts["fired"]:
                print(
                    f"  {site}: fired {counts['fired']} of "
                    f"{counts['calls']} passes"
                )
        for violation in report.violations:
            print(
                f"  VIOLATION at op {violation.op_index}: "
                f"{violation.kind}: {violation.detail}"
            )
        if report.repro:
            print(f"  reproduce: {report.repro}")
    return 0 if report.verdict == "pass" else 1


def cmd_serve(args) -> int:
    """Serve the JSON session protocol over HTTP (``repro serve``)."""
    import signal

    from repro.errors import ReproError

    if args.capacity < 0:
        raise SystemExit("--capacity must be non-negative")
    relations = dict(_load_relation(spec) for spec in args.relation)
    database = Database(relations)
    try:
        # Bad worker counts, unparsable/unsatisfiable default queries,
        # and unavailable engines must die at startup with one clean
        # line, not one traceback per request.
        common = dict(
            workers=args.workers,
            capacity=args.capacity,
            default_query=args.query,
            host=args.host,
            port=args.port,
            verbose=args.verbose,
            read_only=args.read_only,
            queue_depth=args.queue_depth,
            wal=args.wal,
            retain_versions=args.retain_versions,
            request_timeout=args.request_timeout,
            chaos=args.chaos,
        )
        if args.async_front:
            from repro.server.aio import AsyncReproServer

            server = AsyncReproServer(
                database,
                max_connections=args.max_connections,
                **common,
            )
        else:
            from repro.server.http import ReproServer

            server = ReproServer(database, **common)
    except (ValueError, ReproError) as error:
        raise SystemExit(str(error)) from None
    # SIGTERM must drain exactly like Ctrl-C: stop accepting, let
    # in-flight requests finish, close the WAL.  Both fronts expose
    # request_shutdown() because the blocking shutdown path cannot run
    # on this main thread — the threaded front's httpd.shutdown() *blocks* until serve_forever
    # (below, on this same thread) exits, and the async front's stop
    # event lives on the loop thread.  Installing a handler is only
    # legal on the main thread — embedded callers (tests drive main()
    # on a thread) rely on their own shutdown path instead.  Installed
    # *before* the server answers its first request: the async front
    # serves as soon as start() returns, so a supervisor that probes
    # /healthz and immediately signals must not beat the handler.

    def _drain(*_signal_args) -> None:
        server.request_shutdown()

    try:
        signal.signal(signal.SIGTERM, _drain)
    except ValueError:
        pass
    if args.async_front:
        # The async front binds on start (the threaded one binds in
        # its constructor); bind now so the banner prints the real
        # port — and a taken port dies here with one clean line.
        try:
            server.start()
        except OSError as error:
            raise SystemExit(str(error)) from None
    front = "async" if args.async_front else "threads"
    bound = "" if args.query is None else f"  query: {args.query}"
    flags = "  read-only" if server.read_only else ""
    print(
        f"repro serving on {server.url}  |D|={len(database)}  "
        f"engine={server.store.engine.name}  front={front}  "
        f"workers={server.workers}{flags}{bound}",
        flush=True,
    )
    print(
        f"  POST {server.url}/v1/session   "
        "(GET /healthz, GET /stats; SIGTERM/Ctrl-C drains)",
        flush=True,
    )
    if args.wal is not None:
        print(
            f"  wal: {args.wal}  recovered db_version="
            f"{server.store.db_version}",
            flush=True,
        )

    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    if args.async_front and not server.clean_shutdown:
        # The threaded front always drains: it joins, never cancels.
        print(
            "unclean drain: an in-flight request was cancelled",
            flush=True,
        )
        return 1
    return 0


def cmd_wal(args) -> int:
    """Inspect / truncate / compact a ``serve --wal`` log."""
    from repro.data.wal import WriteAheadLog
    from repro.errors import WalError

    try:
        wal = WriteAheadLog(args.path)
    except WalError as error:
        raise SystemExit(str(error)) from None
    try:
        if args.wal_command == "truncate":
            dropped = wal.truncate(args.keep_through)
            print(
                f"dropped {dropped} record(s) after seq "
                f"{args.keep_through}; last_seq = {wal.last_seq}, "
                f"db_version = {wal.last_db_version}"
            )
            return 0
        if args.wal_command == "compact":
            subsumed = wal.compact()
            print(
                f"compacted {subsumed} record(s) into one snapshot; "
                f"last_seq = {wal.last_seq}, "
                f"db_version = {wal.last_db_version}"
            )
            return 0
        # inspect (the default)
        stats = wal.wal_stats()
        records = wal.records()
        print(
            f"wal {args.path}: format {stats['format']}, "
            f"{len(records)} record(s), last_seq = {stats['last_seq']}, "
            f"db_version = {stats['last_db_version']}"
        )
        if stats["torn_tail_dropped"]:
            print(
                f"  (dropped {stats['torn_tail_dropped']} torn "
                "record(s) at the tail)"
            )
        for record in records:
            if record.kind == "snapshot":
                rows = sum(
                    len(side) for side in record.relations.values()
                )
                print(
                    f"  seq {record.seq}: snapshot @ db_version "
                    f"{record.db_version} "
                    f"({len(record.relations)} relation(s), "
                    f"{rows} row(s))"
                )
            else:
                print(
                    f"  seq {record.seq}: delta -> db_version "
                    f"{record.db_version} "
                    f"({record.delta.size()} row(s) across "
                    f"{sorted(record.delta.touched)})"
                )
        return 0
    except WalError as error:
        raise SystemExit(str(error)) from None
    finally:
        wal.close()


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__
    from repro.data.wal import WAL_FORMAT_VERSION
    from repro.session.protocol import PROTOCOL_VERSION

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lexicographic direct access on join queries "
        "(Bringmann, Carmeli & Mengel, PODS 2022).",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=(
            f"repro {__version__} (protocol {PROTOCOL_VERSION}, "
            f"wal format {WAL_FORMAT_VERSION})"
        ),
        help="print package, protocol, and wal-format versions "
        "and exit",
    )
    parser.add_argument(
        "--engine",
        choices=["python", "numpy"],
        default=None,
        help="execution engine (default: $REPRO_ENGINE or 'python'; "
        f"available here: {', '.join(available_engines())})",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser(
        "analyze",
        help="classify a query/order pair, or lint the project's "
        "invariants statically",
        description="Two modes.  With --order: classify a query/order "
        "pair (acyclicity, disruptive trios, the incompatibility "
        "number).  Without: run the static-analysis pass "
        "(docs/analysis.md) over the given paths — lock-order "
        "deadlock detection, async/exception safety, layering and "
        "registry sync — with per-line '# repro: noqa[RULE-ID] -- "
        "reason' suppressions.",
    )
    analyze.add_argument(
        "targets",
        nargs="*",
        help="a query (with --order) or paths to lint (default: src)",
    )
    analyze.add_argument(
        "--order",
        default=None,
        help="comma-separated variables (selects classifier mode)",
    )
    analyze.add_argument(
        "--strict",
        action="store_true",
        help="linter mode: fail on warnings and on suppressions "
        "without a justification (the CI gate)",
    )
    analyze.add_argument(
        "--json",
        action="store_true",
        help="linter mode: emit the deterministic JSON report",
    )
    analyze.add_argument(
        "--rule",
        action="append",
        default=[],
        metavar="RULE-ID",
        help="linter mode: only report these rule ids (repeatable)",
    )
    analyze.set_defaults(func=cmd_analyze)

    fhtw = commands.add_parser(
        "fhtw", help="fractional hypertree width (Prop. 45)"
    )
    fhtw.add_argument("query")
    fhtw.set_defaults(func=cmd_fhtw)

    access = commands.add_parser(
        "access", help="direct access over CSV relations"
    )
    access.add_argument("query")
    access.add_argument("--order", required=True)
    access.add_argument(
        "--relation",
        action="append",
        default=[],
        help="NAME=path, repeatable",
    )
    access.add_argument(
        "--index", type=int, action="append", help="repeatable"
    )
    access.add_argument("--median", action="store_true")
    access.set_defaults(func=cmd_access)

    session = commands.add_parser(
        "session",
        help="load relations once, serve repeated requests from stdin",
        description="Serve the JSON session protocol "
        "(docs/protocol.md) over stdin/stdout against one cached "
        "connection: one SessionRequest object per input line, e.g. "
        '{"op": "access", "order": ["x", "y"], "indices": [0, -1]}, '
        "one SessionResponse object per output line.",
    )
    session.add_argument("query")
    session.add_argument(
        "--relation",
        action="append",
        default=[],
        help="NAME=path, repeatable",
    )
    session.add_argument(
        "--capacity",
        type=int,
        default=64,
        help="per-artifact-kind cache capacity (default 64)",
    )
    session.set_defaults(func=cmd_session, commands=None)

    serve = commands.add_parser(
        "serve",
        help="serve the JSON session protocol over HTTP",
        description="Serve the versioned JSON session protocol "
        "(docs/protocol.md) at POST /v1/session, with GET /healthz "
        "and GET /stats, from one connection over one artifact store.",
    )
    serve.add_argument(
        "--relation",
        action="append",
        default=[],
        help="NAME=path, repeatable",
    )
    serve.add_argument(
        "--query",
        default=None,
        help="bind a default query for requests that carry none",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port (0 picks an ephemeral one)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="requests doing query work at once (default 4)",
    )
    serve.add_argument(
        "--capacity",
        type=int,
        default=64,
        help="per-artifact-kind cache capacity (default 64)",
    )
    serve.add_argument(
        "--async",
        dest="async_front",
        action="store_true",
        help="serve with the asyncio front: one event loop "
        "multiplexes all connections onto the workers "
        "(same wire protocol)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        help="pending requests per worker (default 16); beyond "
        "workers x queue-depth admitted, answers 503 + Retry-After",
    )
    serve.add_argument(
        "--max-connections",
        type=int,
        default=1024,
        help="async front only: ceiling on open connections "
        "(default 1024); excess connections get a structured 503",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="socket read/write timeout in seconds (default 30); "
        "stalled clients lose the connection, not a worker",
    )
    serve.add_argument(
        "--wal",
        default=None,
        metavar="PATH",
        help="write-ahead log: replayed at startup (crash recovery), "
        "appended before every applied delta (durable mutations); "
        "inspect with 'repro wal'",
    )
    serve.add_argument(
        "--retain-versions",
        type=int,
        default=None,
        help="MVCC snapshot window: how many database versions "
        "pinned views can keep reading (default 4)",
    )
    serve.add_argument(
        "--read-only",
        action="store_true",
        help="refuse insert/delete/apply with a structured HTTP 403",
    )
    serve.add_argument(
        "--verbose",
        action="store_true",
        help="log one line per HTTP request",
    )
    serve.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="arm deterministic fault injection, e.g. "
        "'seed=7,wal.fsync:nth=3,client.timeout:p=0.25' "
        "(testing only; see docs/architecture.md, Failure model)",
    )
    serve.set_defaults(func=cmd_serve)

    chaos = commands.add_parser(
        "chaos",
        help="run the deterministic crash/recovery chaos harness",
        description="Drive a live serving core with seeded mixed "
        "traffic while injecting faults (torn WAL writes, corrupt "
        "records, lost fsyncs), crash and restart it, and model-check "
        "that no acknowledged write is lost, no unacknowledged write "
        "is resurrected, and pinned snapshots stay bit-identical. "
        "Fully deterministic: the same seed replays the same run.",
    )
    chaos.add_argument(
        "--seed",
        type=int,
        default=1,
        help="seed for the op stream and every fault schedule "
        "(default 1)",
    )
    chaos.add_argument(
        "--ops",
        type=int,
        default=300,
        help="operations to drive (default 300)",
    )
    chaos.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="fault plan (default: every WAL site); 'none' disables "
        "injection",
    )
    chaos.add_argument(
        "--engine",
        default=None,
        help="serve with this engine (default: the resolved one)",
    )
    chaos.add_argument(
        "--workers",
        type=int,
        default=2,
        help="requests doing query work at once (default 2)",
    )
    chaos.add_argument(
        "--quick",
        action="store_true",
        help="small seed database (CI smoke size)",
    )
    chaos.add_argument(
        "--json",
        action="store_true",
        help="emit the full report as JSON instead of a summary",
    )
    chaos.set_defaults(func=cmd_chaos)

    wal = commands.add_parser(
        "wal",
        help="inspect, truncate, or compact a serve --wal log",
        description="Operate on a write-ahead log produced by "
        "'repro serve --wal': 'inspect' lists every durable record, "
        "'truncate' drops records after a sequence number, and "
        "'compact' folds the whole history into one snapshot record "
        "(same recovered state, shortest possible replay).",
    )
    wal_commands = wal.add_subparsers(
        dest="wal_command", required=True
    )
    wal_inspect = wal_commands.add_parser(
        "inspect", help="list the log's records and position"
    )
    wal_inspect.add_argument("path", help="path of the log file")
    wal_truncate = wal_commands.add_parser(
        "truncate", help="drop records after --keep-through"
    )
    wal_truncate.add_argument("path", help="path of the log file")
    wal_truncate.add_argument(
        "--keep-through",
        type=int,
        required=True,
        metavar="SEQ",
        help="keep records with seq <= SEQ, drop the rest",
    )
    wal_compact = wal_commands.add_parser(
        "compact",
        help="fold the whole history into one snapshot record",
    )
    wal_compact.add_argument("path", help="path of the log file")
    wal.set_defaults(func=cmd_wal)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.engine import get_engine
    from repro.errors import EngineError

    try:
        if args.engine is not None:
            set_engine(args.engine)
        else:
            get_engine()  # surface a bad $REPRO_ENGINE cleanly
    except EngineError as error:
        raise SystemExit(str(error)) from None
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-stream: normal for
        # a serving CLI. Detach stdout so interpreter shutdown does not
        # try (and fail) to flush it.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
