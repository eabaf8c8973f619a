"""Deterministic fault injection: named sites, seeded schedules.

Production failure modes — a disk that errors under ``fsync``, a torn
record at the WAL tail, a server that stops answering mid-request —
are rare by construction and therefore almost never exercised.  This module makes them *cheap to
summon and exact to replay*: every injection site in the codebase is a
named entry in :data:`FAULT_POINTS`, and an armed :class:`ChaosPlan`
decides, deterministically from a seed, which calls to a site actually
misbehave.

Design constraints, in order:

* **zero overhead disarmed** — every hook is ``faults.fire("name")``,
  which is a module-global read and a ``None`` check when no plan is
  armed.  Production code pays nothing for carrying the hooks.
* **deterministic** — schedules are counters (``nth=N``, ``once``) or
  draws from a ``random.Random`` seeded by ``(plan seed, site name)``,
  so the same spec + seed fires at exactly the same calls, every run.
* **inheritable** — a fresh interpreter (a ``repro serve`` subprocess,
  say) arms itself from the ``REPRO_CHAOS`` environment variable at
  import, so a plan reaches a process its launcher cannot call into.

The spec grammar (also what ``REPRO_CHAOS`` holds)::

    seed=7,wal.fsync:nth=3,client.timeout:p=0.25,client.disconnect:once

Entries are comma- (or semicolon-) separated.  ``seed=N`` seeds the
probabilistic schedules; each other entry is ``<site>[:<schedule>]``
where the schedule is ``once`` (first call only — the default),
``nth=N`` (every N-th call), or ``p=X`` (each call independently with
probability X).
"""

from __future__ import annotations

import os
import random
import threading
import zlib
from contextlib import contextmanager

#: Every injection site in the codebase, by name.  The docs-sync suite
#: pins this registry against the "Failure model" section of
#: ``docs/architecture.md`` — adding a site here without documenting
#: its invariant there fails the build.
FAULT_POINTS: dict[str, str] = {
    "wal.fsync": (
        "the record is written and flushed, then the process dies "
        "before fsync acknowledges (durable but unacknowledged)"
    ),
    "wal.torn_write": (
        "the process dies midway through writing a record: a partial "
        "line with no trailing newline is left at the tail"
    ),
    "wal.corrupt_crc": (
        "a full record line is written whose checksum does not match "
        "its payload, then the process dies"
    ),
    "client.timeout": (
        "an HTTP client request times out before any byte arrives"
    ),
    "client.disconnect": (
        "the remote peer resets the connection mid-body"
    ),
    "client.http_500": (
        "the remote answers with a 5xx and an unparseable body"
    ),
}

#: Environment variable holding a chaos spec; read once at import so
#: a subprocess inherits the plan with no plumbing.
ENV_VAR = "REPRO_CHAOS"


class ChaosCrash(Exception):
    """A simulated process death at a fault point.

    Deliberately *not* a :class:`~repro.errors.ReproError`: nothing in
    the serving stack may catch and acknowledge past it — it must
    unwind like the process really died (the chaos runner treats it as
    the crash boundary and restarts the server from its WAL).
    """

    def __init__(self, site: str):
        super().__init__(f"chaos: injected crash at fault point {site!r}")
        self.site = site


class _Schedule:
    """One site's firing rule plus its call/fire counters."""

    __slots__ = ("kind", "param", "calls", "fired", "_rng")

    def __init__(self, kind: str, param: float, seed: int, site: str):
        self.kind = kind
        self.param = param
        self.calls = 0
        self.fired = 0
        # Per-site stream: the draw sequence depends only on the plan
        # seed and the site name, never on dict ordering or timing.
        self._rng = random.Random(seed ^ zlib.crc32(site.encode()))

    def fire(self) -> bool:
        self.calls += 1
        if self.kind == "once":
            hit = self.calls == 1
        elif self.kind == "nth":
            hit = self.calls % int(self.param) == 0
        else:  # "p"
            hit = self._rng.random() < self.param
        if hit:
            self.fired += 1
        return hit


def _parse_schedule(text: str, seed: int, site: str) -> _Schedule:
    if text == "once":
        return _Schedule("once", 1, seed, site)
    if text.startswith("nth="):
        nth = int(text[4:])
        if nth < 1:
            raise ValueError(f"chaos schedule {text!r}: nth must be >= 1")
        return _Schedule("nth", nth, seed, site)
    if text.startswith("p="):
        p = float(text[2:])
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"chaos schedule {text!r}: p must be in [0, 1]")
        return _Schedule("p", p, seed, site)
    raise ValueError(
        f"unknown chaos schedule {text!r} (want once, nth=N, or p=X)"
    )


class ChaosPlan:
    """A parsed spec: which sites fire, on which calls.

    Thread-safe: :meth:`fire` serializes on a lock so counters stay
    exact under the threaded front end.
    """

    def __init__(self, spec: str, seed: int | None = None):
        self.spec = spec
        entries = [
            entry.strip()
            for entry in spec.replace(";", ",").split(",")
            if entry.strip()
        ]
        parsed_seed = 0
        site_texts: list[tuple[str, str]] = []
        for entry in entries:
            if entry.startswith("seed="):
                parsed_seed = int(entry[5:])
                continue
            site, _, schedule = entry.partition(":")
            site = site.strip()
            if site not in FAULT_POINTS:
                known = ", ".join(sorted(FAULT_POINTS))
                raise ValueError(
                    f"unknown fault point {site!r} (known: {known})"
                )
            site_texts.append((site, schedule.strip() or "once"))
        self.seed = parsed_seed if seed is None else int(seed)
        self._sites = {
            site: _parse_schedule(schedule, self.seed, site)
            for site, schedule in site_texts
        }
        self._lock = threading.Lock()

    def fire(self, site: str) -> bool:
        schedule = self._sites.get(site)
        if schedule is None:
            return False
        with self._lock:
            return schedule.fire()

    def counters(self) -> dict[str, dict[str, int]]:
        """Per-site ``{"calls": N, "fired": M}`` for reports."""
        with self._lock:
            return {
                site: {"calls": s.calls, "fired": s.fired}
                for site, s in sorted(self._sites.items())
            }

    @property
    def fired_total(self) -> int:
        with self._lock:
            return sum(s.fired for s in self._sites.values())

    def sites(self) -> tuple[str, ...]:
        return tuple(sorted(self._sites))

    def __repr__(self) -> str:
        return f"ChaosPlan({self.spec!r}, seed={self.seed})"


# The armed plan.  ``None`` is the production state: every fire() is a
# global read + None check.  Import-time env arming means a fresh
# interpreter (which imports this module anew) inherits the plan.
_PLAN: ChaosPlan | None = None
if os.environ.get(ENV_VAR):
    _PLAN = ChaosPlan(os.environ[ENV_VAR])


def fire(site: str) -> bool:
    """Should this call to ``site`` misbehave?  False when disarmed."""
    plan = _PLAN
    if plan is None:
        return False
    return plan.fire(site)


def crash(site: str) -> None:
    """Raise :class:`ChaosCrash` if ``site`` fires on this call."""
    if fire(site):
        raise ChaosCrash(site)


def arm(spec: str | ChaosPlan, seed: int | None = None) -> ChaosPlan:
    """Arm a plan process-wide (replacing any armed one); returns it."""
    global _PLAN
    plan = spec if isinstance(spec, ChaosPlan) else ChaosPlan(spec, seed)
    _PLAN = plan
    return plan


def disarm() -> None:
    """Return to the zero-overhead production state."""
    global _PLAN
    _PLAN = None


def active_plan() -> ChaosPlan | None:
    return _PLAN


@contextmanager
def armed(spec: str | ChaosPlan, seed: int | None = None):
    """``with faults.armed("client.timeout:once"):`` — for tests."""
    global _PLAN
    previous = _PLAN
    plan = arm(spec, seed)
    try:
        yield plan
    finally:
        _PLAN = previous


__all__ = [
    "ENV_VAR",
    "FAULT_POINTS",
    "ChaosCrash",
    "ChaosPlan",
    "active_plan",
    "arm",
    "armed",
    "crash",
    "disarm",
    "fire",
]
