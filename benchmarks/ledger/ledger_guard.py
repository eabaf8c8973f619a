"""The nothing-left-running guard.

Run after the benchmark's ``try/finally`` has closed everything it
opened: any child process, lingering non-daemon thread, ``repro_*``
shared-memory segment or still-listening socket is a failure of the
benchmark itself, reported before a result could be printed.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

#: How long lingering non-daemon threads get to finish.
THREAD_JOIN_SECONDS = 5.0

#: ``st`` column of ``/proc/net/tcp*`` for a listening socket.
_TCP_LISTEN = "0A"


def _children() -> list[str]:
    pids: list[str] = []
    for path in Path("/proc/self/task").glob("*/children"):
        try:
            pids.extend(path.read_text().split())
        except OSError:
            continue  # the task exited while we were listing
    return pids


def _lingering_threads() -> list[str]:
    main = threading.main_thread()
    others = [
        thread
        for thread in threading.enumerate()
        if thread is not main and not thread.daemon
    ]
    for thread in others:
        thread.join(timeout=THREAD_JOIN_SECONDS / max(1, len(others)))
    return [thread.name for thread in others if thread.is_alive()]


def shared_memory() -> set[str]:
    """The ``repro_*`` segments in ``/dev/shm`` right now (snapshot it
    before a run: only segments that appear *during* it are leaks)."""
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {path.name for path in shm.glob("repro_*")}


def _listening_sockets() -> list[str]:
    """Local addresses of TCP sockets this process still listens on."""
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # closed between listdir and readlink
        if target.startswith("socket:["):
            inodes.add(target[len("socket:[") : -1])
    listening = []
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            lines = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        for line in lines:
            fields = line.split()
            if fields[3] == _TCP_LISTEN and fields[9] in inodes:
                listening.append(fields[1])
    return listening


def leaks(shm_before: set[str]) -> list[str]:
    """One line per thing left behind; empty when the run is clean."""
    found = []
    for label, probe in (
        ("child process", _children),
        ("non-daemon thread", _lingering_threads),
        (
            "shared-memory segment",
            lambda: sorted(shared_memory() - shm_before),
        ),
        ("listening socket", _listening_sockets),
    ):
        found.extend(f"{label}: {item}" for item in probe())
    return found
