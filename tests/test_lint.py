"""``repro lint`` — the source-level analyzer over the pearl DSL.

Covers the CFG builder, each rule family on minimal positive/negative
cases, inline ``# repro: noqa`` suppressions, baselines (including a
hypothesis round-trip property), the incremental cache, dogfooding on
the shipped apps/examples, and the CLI surface (``repro lint`` and
``repro check --code``).
"""

from __future__ import annotations

import ast
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import RULES, Severity, lint_source
from repro.check.lint import (
    LINT_PASSES,
    Baseline,
    LintCache,
    build_cfg,
    fingerprint,
    lint_file,
    lint_key,
    lint_paths,
    lint_rules_version,
    parse_module,
)
from repro.cli import main
from tests.test_check import check_golden

REPO = Path(__file__).parent.parent
FIXTURE = Path(__file__).parent / "fixtures" / "broken_model.py"
FIXTURE_LABEL = "tests/fixtures/broken_model.py"


def rules_of(result):
    return sorted(d.rule for d in result.report.diagnostics)


def func_cfg(source: str):
    tree = ast.parse(source)
    func = next(n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef))
    return build_cfg(func)


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------

class TestCFG:
    def test_linear_chain(self):
        cfg = func_cfg("def f():\n    a = 1\n    b = 2\n    return b\n")
        # entry -> a -> b -> return -> exit, single path
        assert cfg.entry.succ and cfg.exit.succ == set()
        stmts = [n.stmt for n in cfg.nodes if n.stmt is not None]
        assert len(stmts) == 3

    def test_if_has_both_edges(self):
        cfg = func_cfg(
            "def f(c):\n    if c:\n        x = 1\n    y = 2\n")
        test_node = next(n for n in cfg.nodes
                         if isinstance(n.stmt, ast.If))
        # Branch taken and fall-through both leave the test node.
        assert len(test_node.succ) == 2

    def test_while_loops_back_and_breaks_out(self):
        cfg = func_cfg(
            "def f(c):\n"
            "    while c:\n"
            "        if c > 2:\n"
            "            break\n"
            "        c += 1\n"
            "    return c\n")
        head = next(n for n in cfg.nodes if isinstance(n.stmt, ast.While))
        body_tail = next(n for n in cfg.nodes
                         if isinstance(n.stmt, ast.AugAssign))
        assert head.index in body_tail.succ          # loop back edge
        ret = next(n for n in cfg.nodes if isinstance(n.stmt, ast.Return))
        break_node = next(n for n in cfg.nodes
                          if isinstance(n.stmt, ast.Break))
        assert ret.index in break_node.succ          # break exits the loop

    def test_finally_inlined_on_return_path(self):
        cfg = func_cfg(
            "def f(res):\n"
            "    try:\n"
            "        if res:\n"
            "            return 1\n"
            "        x = 2\n"
            "    finally:\n"
            "        res.release()\n"
            "    return x\n")
        ret_one = next(n for n in cfg.nodes
                       if isinstance(n.stmt, ast.Return)
                       and isinstance(n.stmt.value, ast.Constant))
        # The early return must flow through a copy of the finally
        # body (a release statement), not jump straight to exit.
        assert cfg.exit.index not in ret_one.succ
        succ_stmt = cfg.nodes[next(iter(ret_one.succ))].stmt
        assert isinstance(succ_stmt, ast.Expr)
        assert "release" in ast.dump(succ_stmt)

    def test_exception_edge_reaches_handler(self):
        cfg = func_cfg(
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except ValueError:\n"
            "        handled = 1\n"
            "    return 0\n")
        risky = next(n for n in cfg.nodes
                     if n.stmt is not None and "risky" in ast.dump(n.stmt))
        handler_heads = [n.index for n in cfg.nodes
                         if n.stmt is None
                         and n.index not in (cfg.entry.index,
                                             cfg.exit.index)]
        assert handler_heads and set(handler_heads) & risky.succ

    def test_preds_inverts_succ(self):
        cfg = func_cfg("def f(c):\n    if c:\n        x = 1\n    y = 2\n")
        preds = cfg.preds()
        for node in cfg.nodes:
            for succ in node.succ:
                assert node.index in preds[succ]


# ---------------------------------------------------------------------------
# Parsed-module model
# ---------------------------------------------------------------------------

class TestSourceModule:
    def test_import_map_resolution(self):
        mod = parse_module(
            "import numpy as np\n"
            "from time import time as walltime\n"
            "import random\n", "m.py")
        tree = ast.parse("np.random.default_rng")
        assert mod.resolve(tree.body[0].value) == \
            "numpy.random.default_rng"
        tree = ast.parse("walltime")
        assert mod.resolve(tree.body[0].value) == "time.time"
        tree = ast.parse("rng.normal")
        assert mod.resolve(tree.body[0].value) is None  # local name

    def test_generator_and_process_classification(self):
        mod = parse_module(
            "def gen():\n    yield 1\n"
            "def plain():\n    return 1\n"
            "def run(sim):\n"
            "    p = sim.process(gen())\n"
            "    return p\n", "m.py")
        info = {f.qualname: f for f in mod.functions}
        assert info["gen"].is_generator and info["gen"].is_process
        assert info["gen"].process_observed
        assert not info["plain"].is_generator

    def test_ordinary_generator_is_not_pearl(self):
        mod = parse_module(
            "def links():\n"
            "    for i in range(4):\n"
            "        yield (i, i + 1)\n", "m.py")
        assert not mod.functions[0].is_pearl

    def test_syntax_error_reports_py000(self):
        result = lint_source("def broken(:\n", "bad.py")
        assert [d.rule for d in result.report.diagnostics] == ["PY000"]
        assert not result.report.ok


# ---------------------------------------------------------------------------
# Rule families: determinism, pearl API, hygiene
# ---------------------------------------------------------------------------

class TestDeterminismRules:
    def test_unseeded_rng_flagged_seeded_ok(self):
        bad = lint_source(
            "import numpy as np\n"
            "def f(chan):\n"
            "    rng = np.random.default_rng()\n"
            "    yield chan.send(rng.integers(4))\n", "m.py")
        assert "PY001" in rules_of(bad)
        good = lint_source(
            "import numpy as np\n"
            "def f(chan, seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    yield chan.send(rng.integers(4))\n", "m.py")
        assert rules_of(good) == []

    def test_global_random_module_flagged(self):
        result = lint_source(
            "import random\n"
            "def f():\n    return random.randint(0, 4)\n", "m.py")
        assert rules_of(result) == ["PY001"]

    def test_wall_clock_flagged(self):
        result = lint_source(
            "import time\n"
            "def f():\n    return time.time()\n", "m.py")
        assert rules_of(result) == ["PY002"]

    def test_set_iteration_feeding_emission(self):
        bad = lint_source(
            "def f(chan):\n"
            "    for p in {1, 2}:\n"
            "        yield chan.send(p)\n", "m.py")
        assert "PY003" in rules_of(bad)
        good = lint_source(
            "def f(chan):\n"
            "    for p in sorted({1, 2}):\n"
            "        yield chan.send(p)\n", "m.py")
        assert rules_of(good) == []


class TestPearlApiRules:
    def test_yield_of_non_event(self):
        result = lint_source(
            "def f(chan):\n"
            "    yield 'nope'\n"
            "    yield chan.receive()\n", "m.py")
        assert "PY010" in rules_of(result)

    def test_discarded_blocking_call(self):
        result = lint_source(
            "def f(chan):\n"
            "    chan.send(1)\n"
            "    yield chan.receive()\n", "m.py")
        assert "PY011" in rules_of(result)

    def test_yielded_blocking_call_is_fine(self):
        result = lint_source(
            "def f(chan):\n    yield chan.send(1)\n", "m.py")
        assert rules_of(result) == []

    def test_acquire_leak_on_branch(self):
        result = lint_source(
            "def f(sim, res):\n"
            "    yield res.acquire()\n"
            "    if sim.now > 5:\n"
            "        return\n"
            "    res.release()\n", "m.py")
        assert "PY012" in rules_of(result)

    def test_try_finally_release_is_fine(self):
        result = lint_source(
            "def f(sim, res):\n"
            "    yield res.acquire()\n"
            "    try:\n"
            "        yield 1.0\n"
            "    finally:\n"
            "        res.release()\n", "m.py")
        assert rules_of(result) == []

    def test_self_contained_use_is_fine(self):
        result = lint_source(
            "def f(res):\n    yield from res.use(3.0)\n", "m.py")
        assert rules_of(result) == []

    def test_two_resources_tracked_independently(self):
        result = lint_source(
            "def f(a, b):\n"
            "    yield a.acquire()\n"
            "    yield b.acquire()\n"
            "    a.release()\n", "m.py")
        flagged = [d for d in result.report.diagnostics
                   if d.rule == "PY012"]
        assert len(flagged) == 1 and "`b`" in flagged[0].message

    def test_negative_hold_literals(self):
        result = lint_source(
            "def f(res, sim):\n"
            "    yield -1\n"
            "    yield from res.use(-2.0)\n"
            "    yield sim.timeout(5)\n", "m.py")
        assert rules_of(result).count("PY013") == 2


class TestHygieneRules:
    def test_fire_and_forget_return_flagged(self):
        result = lint_source(
            "def run(sim, chan):\n"
            "    sim.process(w(chan))\n"
            "def w(chan):\n"
            "    yield chan.receive()\n"
            "    return 42\n", "m.py")
        assert "PY020" in rules_of(result)

    def test_observed_handle_return_is_fine(self):
        result = lint_source(
            "def run(sim, chan):\n"
            "    p = sim.process(w(chan))\n"
            "    return p\n"
            "def w(chan):\n"
            "    yield chan.receive()\n"
            "    return 42\n", "m.py")
        assert rules_of(result) == []

    def test_reyield_of_completed_event(self):
        result = lint_source(
            "def f(res):\n"
            "    ev = res.acquire()\n"
            "    yield ev\n"
            "    yield ev\n"
            "    res.release()\n", "m.py")
        assert "PY021" in rules_of(result)

    def test_rebound_event_in_loop_is_fine(self):
        result = lint_source(
            "def f(chan):\n"
            "    while True:\n"
            "        ev = chan.receive()\n"
            "        yield ev\n", "m.py")
        assert rules_of(result) == []

    def test_repeated_number_yield_is_fine(self):
        result = lint_source(
            "def f(chan, cycles):\n"
            "    for i in range(4):\n"
            "        yield cycles\n"
            "        yield chan.send(i)\n", "m.py")
        assert rules_of(result) == []


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

class TestNoqa:
    SRC = ("import time\n"
           "def f(chan):\n"
           "    t = time.time(){tag}\n"
           "    yield chan.send(t)\n")

    def test_rule_specific_suppression(self):
        result = lint_source(
            self.SRC.format(tag="  # repro: noqa[PY002]"), "m.py")
        assert rules_of(result) == [] and result.suppressed == 1

    def test_blanket_suppression(self):
        result = lint_source(
            self.SRC.format(tag="  # repro: noqa"), "m.py")
        assert rules_of(result) == [] and result.suppressed == 1

    def test_wrong_rule_does_not_suppress(self):
        result = lint_source(
            self.SRC.format(tag="  # repro: noqa[PY001]"), "m.py")
        assert rules_of(result) == ["PY002"] and result.suppressed == 0


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

class TestBaseline:
    def lint_fixture(self):
        return lint_file(FIXTURE, label=FIXTURE_LABEL)

    def test_fingerprint_ignores_location(self):
        result = self.lint_fixture()
        d = result.report.diagnostics[0]
        import dataclasses
        moved = dataclasses.replace(d, location="line 999")
        assert fingerprint(d) == fingerprint(moved)
        other = dataclasses.replace(d, message=d.message + "!")
        assert fingerprint(d) != fingerprint(other)

    def test_round_trip_and_split(self, tmp_path):
        result = self.lint_fixture()
        baseline = Baseline.from_reports([result.report])
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.entries == baseline.entries
        new, known = loaded.split(result.report.diagnostics)
        assert new == [] and len(known) == len(result.report.diagnostics)

    def test_missing_file_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        assert len(baseline) == 0

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            Baseline.load(path)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_baseline_subset_split_is_exact(self, data):
        """Baselining any subset leaves exactly the complement as new,
        and a save/load round trip never changes that split."""
        result = self.lint_fixture()
        diags = result.report.diagnostics
        chosen = data.draw(st.sets(
            st.sampled_from(range(len(diags))),
            max_size=len(diags)))
        baseline = Baseline(entries={
            fingerprint(diags[i]): diags[i].rule for i in chosen})
        new, known = baseline.split(diags)
        expected_new = {fingerprint(diags[i])
                        for i in range(len(diags)) if i not in chosen}
        assert {fingerprint(d) for d in new} == expected_new
        assert len(new) + len(known) == len(diags)

    @settings(max_examples=20, deadline=None)
    @given(st.sets(st.sampled_from(
        ["PY001", "PY002", "PY010", "PY011", "PY013"])))
    def test_noqa_plus_baseline_round_trip(self, suppressed_rules):
        """Suppressing any rule subset inline, then baselining the
        remainder, always leaves zero new findings — and without the
        baseline the new set is exactly the unsuppressed findings."""
        lines = {
            "PY001": "    rng = np.random.default_rng(){}",
            "PY002": "    t = time.time(){}",
            "PY010": "    yield 'bad'{}",
            "PY011": "    chan.send(str(rng) + str(t)){}",
            "PY013": "    yield -1.0{}",
        }
        src = ["import time", "import numpy as np",
               "def f(chan):"]
        for rule, template in lines.items():
            tag = f"  # repro: noqa[{rule}]" \
                if rule in suppressed_rules else ""
            src.append(template.format(tag))
        src.append("    yield chan.receive()")
        result = lint_source("\n".join(src) + "\n", "prop.py")
        seen = {d.rule for d in result.report.diagnostics}
        assert seen == set(lines) - suppressed_rules
        assert result.suppressed == len(suppressed_rules)
        baseline = Baseline.from_reports([result.report])
        new, known = baseline.split(result.report.diagnostics)
        assert new == [] and len(known) == len(result.report.diagnostics)


# ---------------------------------------------------------------------------
# Incremental cache
# ---------------------------------------------------------------------------

class TestLintCache:
    def test_warm_hit_returns_identical_report(self, tmp_path):
        cache = LintCache(tmp_path / "cache")
        cold = lint_file(FIXTURE, cache=cache, label=FIXTURE_LABEL)
        assert not cold.cached and cache.stats.misses == 1
        warm = lint_file(FIXTURE, cache=cache, label=FIXTURE_LABEL)
        assert warm.cached and cache.stats.hits == 1
        assert [d.to_dict() for d in warm.report.diagnostics] == \
            [d.to_dict() for d in cold.report.diagnostics]
        assert warm.suppressed == cold.suppressed

    def test_content_change_invalidates(self, tmp_path):
        cache = LintCache(tmp_path / "cache")
        target = tmp_path / "m.py"
        target.write_text("def f(chan):\n    yield chan.receive()\n")
        lint_file(target, cache=cache)
        target.write_text("def f(chan):\n    yield chan.send(1)\n")
        result = lint_file(target, cache=cache)
        assert not result.cached and cache.stats.misses == 2

    @pytest.mark.parametrize("failing", ["write_text", "replace"])
    def test_failed_put_keeps_the_old_entry(self, tmp_path, monkeypatch,
                                            failing):
        """Regression: ``put`` wrote a hand-rolled ``.tmp.<pid>`` file
        and left it behind when the write or the rename raised."""
        cache = LintCache(tmp_path / "cache")
        key = lint_key(b"x = 1\n", version="v")
        cache.put(key, [], 3)

        def no_space(*args, **kwargs):
            raise OSError(28, "No space left on device")

        if failing == "write_text":
            real_write = Path.write_text

            def partial_then_fail(self, text):
                real_write(self, text[:1])      # the temp file exists
                no_space()
            monkeypatch.setattr(Path, "write_text", partial_then_fail)
        else:
            monkeypatch.setattr(os, "replace", no_space)
        with pytest.raises(OSError, match="No space left"):
            cache.put(key, [], 5)
        monkeypatch.undo()
        assert cache.get(key) == ([], 3)
        assert [p.name for p in (tmp_path / "cache").rglob("*")
                if ".tmp." in p.name] == []

    def test_rule_set_version_changes_key(self):
        raw = FIXTURE.read_bytes()
        assert lint_key(raw, version="v1") != lint_key(raw, version="v2")
        assert lint_key(raw) == lint_key(raw, lint_rules_version())

    def test_lint_paths_cache_rate(self, tmp_path):
        cache = LintCache(tmp_path / "cache")
        targets = [REPO / "src" / "repro" / "apps", REPO / "examples"]
        results, _ = lint_paths(targets, cache=cache)
        assert cache.stats.hits == 0 and len(results) > 5
        results2, _ = lint_paths(targets, cache=cache)
        # Acceptance bar: a second invocation is served from the cache.
        assert cache.stats.hits == len(results2)
        assert all(r.cached for r in results2)


# ---------------------------------------------------------------------------
# Golden snapshot + dogfood
# ---------------------------------------------------------------------------

class TestGoldenAndDogfood:
    def test_broken_fixture_matches_golden(self):
        result = lint_file(FIXTURE, label=FIXTURE_LABEL)
        value = {"report": result.report.to_dict(),
                 "suppressed": result.suppressed}
        check_golden("lint_broken_model", value)

    def test_all_three_families_detected(self):
        rules = set(rules_of(lint_file(FIXTURE, label=FIXTURE_LABEL)))
        assert rules & {"PY001", "PY002", "PY003"}          # determinism
        assert rules & {"PY010", "PY011", "PY012", "PY013"}  # pearl API
        assert rules & {"PY020", "PY021"}                   # hygiene

    def test_shipped_apps_and_examples_are_clean(self):
        results, new = lint_paths(
            [REPO / "src" / "repro" / "apps", REPO / "examples"])
        assert new == []
        assert all(r.report.ok for r in results)

    def test_repo_baseline_covers_full_source_tree(self):
        baseline = Baseline.load(REPO / "lint-baseline.json")
        _results, new = lint_paths(
            [REPO / "src" / "repro", REPO / "examples"], baseline=baseline)
        assert [d.format() for d in new] == []

    def test_every_lint_rule_is_documented(self):
        for p in LINT_PASSES:
            for rule in p.rules:
                assert rule in RULES, f"{p.name} emits undocumented {rule}"
        assert "PY000" in RULES

    def test_introspect_names_exist_on_kernel_classes(self):
        from repro.pearl import (
            BLOCKING_EVENT_METHODS,
            EVENT_RETURNING_METHODS,
            RELEASE_METHODS,
            SELF_CONTAINED_HOLD_METHODS,
        )
        from repro.pearl.channel import Channel
        from repro.pearl.kernel import Simulator
        from repro.pearl.resource import Resource
        owners = {"Resource": Resource, "Channel": Channel,
                  "Simulator": Simulator}
        for method, owner in EVENT_RETURNING_METHODS.items():
            assert callable(getattr(owners[owner], method)), \
                f"{owner}.{method} disappeared; update introspect.py"
        for method in BLOCKING_EVENT_METHODS:
            assert method in EVENT_RETURNING_METHODS
        for method in SELF_CONTAINED_HOLD_METHODS:
            assert callable(getattr(Resource, method))
        for method in RELEASE_METHODS:
            assert callable(getattr(Resource, method))


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestLintCLI:
    def test_exit_one_on_new_errors(self, capsys):
        rc = main(["lint", str(FIXTURE)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "PY012" in out and "suppressed" in out

    def test_json_schema_matches_check(self, capsys):
        rc = main(["lint", str(FIXTURE), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert data["ok"] is False
        assert {"n_errors", "n_warnings", "n_new", "n_baselined",
                "n_suppressed", "reports"} <= set(data)
        assert data["reports"][0]["diagnostics"]

    def test_baseline_gates_only_new_findings(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        rc = main(["lint", str(FIXTURE), "--baseline", str(baseline),
                   "--update-baseline"])
        assert rc == 0
        capsys.readouterr()
        rc = main(["lint", str(FIXTURE), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "(0 new)" in out

    def test_update_baseline_requires_baseline_path(self):
        with pytest.raises(SystemExit):
            main(["lint", str(FIXTURE), "--update-baseline"])

    def test_cache_warm_run_reports_hits(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["lint", str(FIXTURE), "--cache-dir", cache_dir])
        capsys.readouterr()
        main(["lint", str(FIXTURE), "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert "cache: 1 hits, 0 misses" in out

    def test_check_code_merges_lint_reports(self, capsys):
        rc = main(["check", "--preset", "t805-grid-2x2",
                   "--code", str(FIXTURE), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 1
        subjects = [r["subject"] for r in data["reports"]]
        assert any(s.endswith("broken_model.py") for s in subjects)
        assert any(s.startswith("machine:") for s in subjects)

    def test_rules_table_lists_py_rules(self, capsys):
        rc = main(["check", "--rules"])
        out = capsys.readouterr().out
        assert rc == 0 and "PY012" in out


class TestSeverityGating:
    def test_warnings_never_gate(self, tmp_path, capsys):
        target = tmp_path / "warn_only.py"
        target.write_text(
            "def run(sim, chan):\n"
            "    sim.process(w(chan))\n"
            "def w(chan):\n"
            "    yield chan.receive()\n"
            "    return 7\n")
        rc = main(["lint", str(target)])
        out = capsys.readouterr().out
        assert rc == 0 and "PY020" in out

    def test_severity_split(self):
        result = lint_file(FIXTURE, label=FIXTURE_LABEL)
        assert all(d.severity is Severity.ERROR
                   for d in result.report.errors)
        warn_rules = {d.rule for d in result.report.warnings}
        assert warn_rules == {"PY020", "PY021"}
