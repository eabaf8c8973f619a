"""The docs/ tree cannot rot: the protocol spec is diffed against the
op registry, and the architecture page against the module layout.

``docs/protocol.md`` documents every op under a ``### `op` `` heading
followed by its one-line summary; this suite fails if an op is added
to (or removed from, or re-described in) ``repro.session.protocol``
without the spec following along — the acceptance criterion of the
``repro serve`` PR.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.session.protocol import OPS, OP_SUMMARIES, PROTOCOL_VERSION

DOCS = Path(__file__).resolve().parent.parent / "docs"


@pytest.fixture(scope="module")
def protocol_doc() -> str:
    return (DOCS / "protocol.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def architecture_doc() -> str:
    return (DOCS / "architecture.md").read_text(encoding="utf-8")


class TestProtocolSpecSync:
    def test_documented_ops_match_registry(self, protocol_doc):
        documented = set(
            re.findall(r"^### `(\w+)`", protocol_doc, re.MULTILINE)
        )
        missing = OPS - documented
        unknown = documented - OPS
        assert not missing, (
            f"ops registered in protocol.py but undocumented in "
            f"docs/protocol.md: {sorted(missing)}"
        )
        assert not unknown, (
            f"ops documented in docs/protocol.md but not registered "
            f"in protocol.py: {sorted(unknown)}"
        )

    def test_documented_summaries_match_registry(self, protocol_doc):
        # Each op's heading is followed by its registry summary line —
        # re-describing an op in one place only is also rot.
        for op, summary in OP_SUMMARIES.items():
            heading = protocol_doc.find(f"### `{op}`")
            assert heading != -1, f"op {op!r} has no heading"
            tail = protocol_doc[heading : heading + 400]
            assert summary in tail, (
                f"docs/protocol.md describes {op!r} differently from "
                f"OP_SUMMARIES ({summary!r} not found near its heading)"
            )

    def test_staleness_semantics_documented(self, protocol_doc):
        """The mutation ops ship with staleness semantics: the spec
        must explain the db_version pin and StaleViewError replay."""
        assert "StaleViewError" in protocol_doc
        assert "db_version" in protocol_doc

    def test_documented_version_matches(self, protocol_doc):
        match = re.search(
            r"Protocol version: \*\*(\d+)\*\*", protocol_doc
        )
        assert match, "docs/protocol.md must state the protocol version"
        assert int(match.group(1)) == PROTOCOL_VERSION

    def test_documented_http_statuses_are_served(self, protocol_doc):
        """Every status in the doc's table exists in the server's
        transport layer (and vice versa for the error paths) — on
        *both* fronts: the threaded handler and the asyncio one must
        stay wire-identical, status for status."""
        import inspect

        from repro.server import aio as server_aio
        from repro.server import http as server_http

        table = re.findall(
            r"^\| (\d{3}) \|", protocol_doc, re.MULTILINE
        )
        documented = {int(code) for code in table}
        threaded = {200} | {
            int(code)
            for code in re.findall(
                r"_reply\(\s*(\d{3})",
                inspect.getsource(server_http),
            )
        }
        asynced = {
            int(code)
            for code in re.findall(
                r"_send\(\s*\n?\s*writer,\s*\n?\s*(\d{3})",
                inspect.getsource(server_aio),
            )
        }
        assert documented == threaded, (
            f"docs/protocol.md statuses {sorted(documented)} != "
            f"statuses the threaded front can send {sorted(threaded)}"
        )
        assert documented == asynced, (
            f"docs/protocol.md statuses {sorted(documented)} != "
            f"statuses the async front can send {sorted(asynced)}"
        )

    def test_overload_contract_documented(self, protocol_doc):
        """503 + Retry-After is a protocol promise clients build
        backoff against: the spec must state it, and state that
        --async changes no wire shapes."""
        assert "Retry-After" in protocol_doc
        assert "OverloadedError" in protocol_doc
        assert "--async" in protocol_doc


class TestArchitectureDocSync:
    def test_layers_name_real_modules(self, architecture_doc):
        """Every `src/...` path the architecture page cites, and every
        `benchmarks/...` and `tests/...` path it or the README cites,
        exists."""
        root = DOCS.parent
        readme = (root / "README.md").read_text(encoding="utf-8")
        cited = set(
            re.findall(r"`(src/repro/[\w/.]+)`", architecture_doc)
        )
        assert cited, "architecture.md should cite concrete modules"
        cited |= set(
            re.findall(
                r"`((?:benchmarks|tests)/[\w/.]+)",
                architecture_doc + readme,
            )
        )
        missing = {
            path for path in cited if not (root / path).exists()
        }
        assert not missing, (
            f"architecture.md or README.md cites nonexistent paths: "
            f"{sorted(missing)}"
        )

    def test_paper_concepts_are_tied_to_modules(self, architecture_doc):
        for concept in (
            "counting forest",
            "disruption-free decomposition",
            "lexicographic direct access",
            "artifact store",
            "db_version",
            "staleviewerror",
        ):
            assert concept in architecture_doc.lower(), (
                f"architecture.md no longer explains {concept!r}"
            )


class TestFailureModelSync:
    """The "Failure model" section is diffed against the fault-point
    registry: a site added to :data:`repro.chaos.faults.FAULT_POINTS`
    without a documented invariant (or documented but deleted from the
    code) fails the build."""

    @pytest.fixture(scope="class")
    def failure_model(self, architecture_doc) -> str:
        start = architecture_doc.find("## Failure model")
        assert start != -1, (
            "docs/architecture.md lost its '## Failure model' section"
        )
        end = architecture_doc.find("\n## ", start + 1)
        return architecture_doc[start : end if end != -1 else None]

    def test_every_fault_point_is_documented(self, failure_model):
        from repro.chaos.faults import FAULT_POINTS

        cited = set(
            re.findall(r"`(\w+\.\w+)`", failure_model)
        ) & set(FAULT_POINTS)
        missing = set(FAULT_POINTS) - cited
        assert not missing, (
            f"fault points registered in repro/chaos/faults.py but "
            f"missing from the Failure model table: {sorted(missing)}"
        )

    def test_documented_table_rows_exist_in_the_registry(
        self, failure_model
    ):
        from repro.chaos.faults import FAULT_POINTS

        rows = re.findall(
            r"^\| `(\w+\.\w+)` \|", failure_model, re.MULTILINE
        )
        assert rows, "the Failure model table went missing"
        unknown = set(rows) - set(FAULT_POINTS)
        assert not unknown, (
            f"the Failure model table documents fault points that no "
            f"longer exist: {sorted(unknown)}"
        )

    def test_reproduction_workflow_is_documented(self, failure_model):
        """A seed must be enough to replay a failure: the section has
        to spell out the arming surfaces and the reproduction line."""
        for needle in (
            "REPRO_CHAOS",
            "--chaos",
            "repro chaos --seed",
            "seed=",
        ):
            assert needle in failure_model, (
                f"Failure model section no longer mentions {needle!r}"
            )


@pytest.fixture(scope="module")
def analysis_doc() -> str:
    return (DOCS / "analysis.md").read_text(encoding="utf-8")


class TestAnalysisDocsSync:
    """``docs/analysis.md`` is diffed both ways against the rule
    registry: a rule cannot be added, retired, reclassified, or
    re-described without the documentation following along."""

    def test_rule_table_matches_registry_both_ways(self, analysis_doc):
        from repro.analysis import RULES

        rows = set(
            re.findall(
                r"^\| `([A-Z0-9-]+)` \|", analysis_doc, re.MULTILINE
            )
        )
        assert rows, "the rule table went missing"
        missing = set(RULES) - rows
        unknown = rows - set(RULES)
        assert not missing, (
            f"rules registered in repro.analysis but missing from the "
            f"docs/analysis.md table: {sorted(missing)}"
        )
        assert not unknown, (
            f"docs/analysis.md documents rules that no longer exist: "
            f"{sorted(unknown)}"
        )

    def test_rule_sections_match_registry_both_ways(self, analysis_doc):
        from repro.analysis import RULES

        sections = set(
            re.findall(
                r"^### `([A-Z0-9-]+)`", analysis_doc, re.MULTILINE
            )
        )
        assert sections == set(RULES), (
            f"per-rule sections out of sync: "
            f"missing {sorted(set(RULES) - sections)}, "
            f"stale {sorted(sections - set(RULES))}"
        )

    def test_documented_severities_match_registry(self, analysis_doc):
        from repro.analysis import RULES

        rows = dict(
            re.findall(
                r"^\| `([A-Z0-9-]+)` \| (error|warning) \|",
                analysis_doc,
                re.MULTILINE,
            )
        )
        for rule_id, rule in RULES.items():
            assert rows.get(rule_id) == rule.severity, (
                f"docs/analysis.md lists {rule_id} as "
                f"{rows.get(rule_id)!r}; the registry says "
                f"{rule.severity!r}"
            )

    def test_invariants_are_quoted_verbatim(self, analysis_doc):
        # Re-describing an invariant in one place only is also rot:
        # each rule's registry invariant appears (modulo wrapping) in
        # its doc section.
        from repro.analysis import RULES

        normalized_doc = " ".join(analysis_doc.split())
        for rule in RULES.values():
            needle = " ".join(rule.invariant.split())
            assert needle in normalized_doc, (
                f"docs/analysis.md no longer quotes the registry "
                f"invariant for {rule.id}"
            )
