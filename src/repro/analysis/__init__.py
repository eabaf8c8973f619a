"""Static analysis: the project's invariants, checked at review time.

A serving stack — two HTTP fronts, a shared artifact store, a WAL,
MVCC snapshots — holds together through a small
set of invariants (lock discipline, the ReproError taxonomy, the
ChaosCrash pass-through contract, engine purity, registry/doc sync).
The runtime suites and the chaos harness enforce them *after* the
fact; this package enforces them **statically**, on every file, before
a test ever runs:

    repro analyze --strict src          # the CI gate
    repro analyze --json src/repro/server
    repro analyze --rule LOCK-ORDER src

Each rule is a named entry in :data:`~repro.analysis.registry.RULES`
pinned to the invariant it protects (the docs-sync suite diffs the
registry against ``docs/analysis.md``), findings are suppressed per
line with ``# repro: noqa[RULE-ID] -- justification``, and the JSON
report is byte-identical across runs.  The pass is stdlib-``ast``
only — no install cost, no third-party parser.
"""

from repro.analysis.core import (
    Finding,
    Report,
    SourceFile,
    analyze_paths,
)
from repro.analysis.registry import RULES, Rule

__all__ = [
    "Finding",
    "Report",
    "RULES",
    "Rule",
    "SourceFile",
    "analyze_paths",
]
