"""Engine selection: ``get_engine`` / ``set_engine`` / ``REPRO_ENGINE``.

The active engine is process-global.  It is resolved lazily on first use
from the ``REPRO_ENGINE`` environment variable (``python`` by default)
and can be switched at runtime with :func:`set_engine` or scoped —
per thread, so concurrent threads cannot corrupt each other — with
the :func:`use_engine` context manager.  Long-lived structures such as
:class:`~repro.core.access.DirectAccess` capture the engine active at
construction time, so switching engines never corrupts existing indexes.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

from repro.data.columnar import numpy_available
from repro.engine.base import Engine
from repro.errors import EngineError

_ENV_VAR = "REPRO_ENGINE"
_current: Engine | None = None
# Scoped engine activations (use_engine) are per-thread: each thread
# keeps its own override stack, so a session building under its pinned
# engine can never observe — or leave behind — another thread's engine,
# and no lock (hence no lock-order coupling with session locks) is
# needed.  set_engine() stays process-global.
_scoped = threading.local()


def available_engines() -> list[str]:
    """Engine names usable in this environment, default first."""
    names = ["python"]
    if numpy_available():
        names.append("numpy")
    return names


def _instantiate(name: str) -> Engine:
    if name == "python":
        from repro.engine.python_engine import PythonEngine

        return PythonEngine()
    if name == "numpy":
        if not numpy_available():
            raise EngineError(
                "engine 'numpy' requires numpy, which is not installed; "
                "available engines: " + ", ".join(available_engines())
            )
        from repro.engine.numpy_engine import NumpyEngine

        return NumpyEngine()
    raise EngineError(
        f"unknown engine {name!r}; available engines: "
        + ", ".join(available_engines())
    )


def resolve_engine(engine: str | Engine | None) -> Engine:
    """An engine instance for ``engine``, *without* activating it.

    ``None`` resolves to the process-global active engine; a string is
    instantiated by name; an instance passes through.  Sessions use this
    to pin their own engine independently of the global one.
    """
    if engine is None:
        return get_engine()
    if isinstance(engine, Engine):
        return engine
    return _instantiate(str(engine).strip().lower())


def get_engine() -> Engine:
    """The active engine (resolving ``REPRO_ENGINE`` on first use).

    A :func:`use_engine` scope on the *calling thread* takes precedence
    over the process-global engine.
    """
    stack = getattr(_scoped, "stack", None)
    if stack:
        return stack[-1]
    global _current
    if _current is None:
        name = os.environ.get(_ENV_VAR, "python").strip().lower()
        _current = _instantiate(name or "python")
    return _current


def set_engine(engine: str | Engine) -> Engine:
    """Activate an engine by name or instance; returns it."""
    global _current
    if isinstance(engine, Engine):
        _current = engine
    else:
        _current = _instantiate(str(engine).strip().lower())
    return _current


@contextmanager
def use_engine(engine: str | Engine):
    """Temporarily activate ``engine`` for the calling thread.

    The activation is **thread-local**: concurrent threads pinning
    different engines never observe each other's scope, and no lock is
    involved (so a ``use_engine`` block may freely call into locked
    structures like :class:`~repro.session.ArtifactStore`).  Threads
    spawned inside the block do not inherit it; outside any scope,
    :func:`get_engine` keeps the process-global semantics.
    """
    active = resolve_engine(engine)
    stack = getattr(_scoped, "stack", None)
    if stack is None:
        stack = _scoped.stack = []
    stack.append(active)
    try:
        yield active
    finally:
        stack.pop()
