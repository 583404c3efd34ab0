"""The rule-id registry: one table, globally unique, nothing unregistered.

``repro.diagnostics.RULES`` is the single registry of every rule
id any tool in the workbench can emit.  These tests pin that contract:
ids are well-formed, every family prefix is documented in
``RULE_FAMILIES``, every pass declares only registered rules, and no
``Diagnostic`` construction site anywhere in the source tree uses a
rule-id literal that the registry does not know about.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.bounds.passes import BOUNDS_PASSES
from repro.check import (
    DESCRIPTION_PASSES,
    LINT_PASSES,
    MACHINE_PASSES,
    RULE_FAMILIES,
    RULES,
    TRACE_PASSES,
    rule_family,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

_RULE_ID = re.compile(r"^[A-Z]{2}\d{3}$")
#: A quoted rule-id literal anywhere in source ("PB001", 'TR004', ...).
_RULE_LITERAL = re.compile(r"""["']([A-Z]{2}\d{3})["']""")

ALL_PASS_COLLECTIONS = {
    "TRACE_PASSES": TRACE_PASSES,
    "MACHINE_PASSES": MACHINE_PASSES,
    "DESCRIPTION_PASSES": DESCRIPTION_PASSES,
    "LINT_PASSES": LINT_PASSES,
    "BOUNDS_PASSES": BOUNDS_PASSES,
}


class TestRegistryShape:
    def test_every_id_well_formed(self):
        for rule in RULES:
            assert _RULE_ID.match(rule), f"malformed rule id {rule!r}"

    def test_every_description_nonempty(self):
        for rule, desc in RULES.items():
            assert desc.strip(), f"{rule} has no description"

    def test_every_family_documented(self):
        for rule in RULES:
            family = rule_family(rule)
            assert family in RULE_FAMILIES, (
                f"{rule}: family {family!r} missing from RULE_FAMILIES")

    def test_no_orphan_families(self):
        used = {rule_family(rule) for rule in RULES}
        assert set(RULE_FAMILIES) == used

    def test_rule_family_strips_digits(self):
        assert rule_family("PB001") == "PB"
        assert rule_family("TR006") == "TR"


class TestPassDeclarations:
    def test_every_pass_rule_registered(self):
        for name, passes in ALL_PASS_COLLECTIONS.items():
            for p in passes:
                assert p.rules, f"{name}: pass {p.name} declares no rules"
                for rule in p.rules:
                    assert rule in RULES, (
                        f"{name}: pass {p.name} declares unregistered "
                        f"rule {rule}")

    def test_bounds_passes_cover_pb002(self):
        declared = {r for p in BOUNDS_PASSES for r in p.rules}
        assert "PB002" in declared


class TestNoUnregisteredLiterals:
    def test_every_source_literal_registered(self):
        """Any string literal shaped like a rule id must be in RULES.

        This is the cheap global net: a new pass (or an ad-hoc
        ``Diagnostic(rule="XY001", ...)``) cannot ship an id the
        registry — and hence ``repro check --rules``, the README table,
        and the JSON family counters — does not know about.
        """
        unregistered = []
        for path in sorted(SRC.rglob("*.py")):
            for lineno, line in enumerate(
                    path.read_text().splitlines(), start=1):
                for rule in _RULE_LITERAL.findall(line):
                    if rule not in RULES:
                        unregistered.append(
                            f"{path.relative_to(SRC)}:{lineno}: {rule}")
        assert not unregistered, (
            "rule-id literals missing from RULES:\n  "
            + "\n  ".join(unregistered))
