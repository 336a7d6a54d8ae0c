"""Tests for the static half of repro.lint: engine mechanics, the seven
convention rules against their fixture corpora, and the CLI subcommand.

The fixture corpora under ``tests/lint_fixtures/`` are the proof that no
rule passes vacuously: for every registered rule there is a ``bad/``
tree where the rule must fire (with the exact expected count — a
heuristic that silently widens or narrows shows up here) and a ``good/``
tree that must be completely clean under *all* rules, so look-alike
idioms (dispatch tables, executor lambdas, batched gathers) are pinned
as accepted.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (Finding, LintEngine, all_rules, render_json,
                        render_text, rules_by_name)
from repro.lint.engine import SYNTAX_ERROR_RULE

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: rule name -> findings its bad corpus must produce (exact, so a rule
#: that quietly starts over- or under-matching fails loudly).
EXPECTED_BAD_FINDINGS = {
    "np-load-mmap-mode": 6,
    "answer-shapes-in-shaping": 2,
    "no-ad-hoc-telemetry": 5,
    "no-scalar-sparse-getitem": 3,
    "no-blocking-in-async": 6,
    "registry-names-dotted": 4,
    "no-bare-print": 3,
}


def run_over(path: Path):
    return LintEngine(all_rules()).run(path)


class TestFixtureCorpus:
    def test_corpus_covers_every_registered_rule(self):
        # Satellite 3's anti-vacuity gate: a new rule without fixtures
        # (or a renamed rule orphaning its corpus) fails here.
        names = {rule.name for rule in all_rules()}
        corpora = {p.name for p in FIXTURES.iterdir() if p.is_dir()}
        assert names == corpora == set(EXPECTED_BAD_FINDINGS)

    @pytest.mark.parametrize("rule_name", sorted(EXPECTED_BAD_FINDINGS))
    def test_bad_corpus_fires_exactly_the_rule(self, rule_name):
        report = run_over(FIXTURES / rule_name / "bad")
        fired = [f for f in report.findings if f.rule == rule_name]
        others = [f for f in report.findings if f.rule != rule_name]
        assert len(fired) == EXPECTED_BAD_FINDINGS[rule_name], (
            f"expected {EXPECTED_BAD_FINDINGS[rule_name]} "
            f"{rule_name} findings, got:\n  "
            + "\n  ".join(str(f) for f in fired))
        assert not others, (
            "bad corpus tripped unrelated rules (corpus should isolate "
            "one rule):\n  " + "\n  ".join(str(f) for f in others))

    @pytest.mark.parametrize("rule_name", sorted(EXPECTED_BAD_FINDINGS))
    def test_good_corpus_is_silent_under_all_rules(self, rule_name):
        report = run_over(FIXTURES / rule_name / "good")
        assert report.files_checked > 0
        assert report.ok, (
            "known-good corpus produced findings:\n  "
            + "\n  ".join(str(f) for f in report.findings))

    def test_paren_in_string_regression(self):
        # The old grep's span scan desynced on a ")" inside a string
        # argument and mis-read the call's extent; the AST rule must
        # judge this call by its node extent and see the mmap_mode kw.
        good = FIXTURES / "np-load-mmap-mode" / "good" / "store" / "loads.py"
        text = good.read_text()
        assert 'shard_name(")")' in text, (
            "regression fixture lost the paren-in-string call")
        engine = LintEngine(all_rules())
        assert engine.run_file(good, "store/loads.py") == []

    def test_paren_in_string_still_fires_when_actually_bare(self, tmp_path):
        # ...and the same pathological string must not *hide* a genuine
        # violation on the line after it.
        bad = tmp_path / "store" / "loads.py"
        bad.parent.mkdir()
        bad.write_text(
            "import numpy as np\n"
            "def f(shard_name):\n"
            '    first = np.load(shard_name(")"))\n'
            '    return first, np.load(shard_name("x"))\n')
        findings = LintEngine(all_rules()).run_file(bad, "store/loads.py")
        assert [(f.rule, f.line) for f in findings] == [
            ("np-load-mmap-mode", 3), ("np-load-mmap-mode", 4)]


class TestEngine:
    def test_inline_suppression_silences_only_that_rule(self, tmp_path):
        path = tmp_path / "store" / "x.py"
        path.parent.mkdir()
        path.write_text(
            "import numpy as np\n"
            'a = np.load("a.npy")  # lint: ignore[np-load-mmap-mode]\n'
            'b = np.load("b.npy")  # lint: ignore[some-other-rule]\n')
        findings = LintEngine(all_rules()).run_file(path, "store/x.py")
        assert [f.line for f in findings] == [3]

    def test_syntax_error_reported_as_pseudo_rule(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n    pass\n")
        findings = LintEngine(all_rules()).run_file(path, "broken.py")
        assert len(findings) == 1
        assert findings[0].rule == SYNTAX_ERROR_RULE
        assert findings[0].line == 1

    def test_duplicate_rule_names_rejected(self):
        rule = all_rules()[0]
        with pytest.raises(ValueError, match="duplicate"):
            LintEngine([rule, rule])

    def test_missing_target_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_over(tmp_path / "nope")

    def test_package_root_autodetected_for_real_tree(self):
        # Findings inside src/repro report package-relative paths, so
        # rule layer specs match regardless of checkout location.
        report = run_over(SRC / "store")
        assert report.files_checked > 0
        assert report.ok

    def test_findings_sorted_and_stringified(self):
        report = run_over(FIXTURES / "np-load-mmap-mode" / "bad")
        keys = [(f.path, f.line, f.col) for f in report.findings]
        assert keys == sorted(keys)
        first = report.findings[0]
        assert str(first) == (f"{first.path}:{first.line}:{first.col}: "
                              f"{first.rule}: {first.message}")


class TestReporters:
    def test_text_report_lists_findings_and_summary(self):
        report = run_over(FIXTURES / "registry-names-dotted" / "bad")
        text = render_text(report)
        assert "registry-names-dotted" in text
        assert "4 findings" in text

    def test_json_report_round_trips(self):
        report = run_over(FIXTURES / "no-ad-hoc-telemetry" / "bad")
        payload = json.loads(render_json(report))
        assert payload["files_checked"] == report.files_checked
        assert len(payload["findings"]) == len(report.findings)
        assert set(payload["findings"][0]) == {"rule", "path", "line",
                                               "col", "message"}
        assert payload["rules"] == [rule.name for rule in all_rules()]

    def test_clean_report_renders_zero_summary(self, tmp_path):
        (tmp_path / "empty.py").write_text("x = 1\n")
        text = render_text(run_over(tmp_path))
        assert "0 findings" in text


class TestCli:
    def test_lint_source_tree_exits_zero(self, capsys):
        assert main(["lint", str(SRC)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_lint_default_target_is_the_package(self, capsys):
        assert main(["lint"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        bad = FIXTURES / "np-load-mmap-mode" / "bad"
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "np-load-mmap-mode" in out

    def test_json_output_is_machine_readable(self, capsys):
        bad = FIXTURES / "answer-shapes-in-shaping" / "bad"
        assert main(["lint", str(bad), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in payload["findings"]] == \
            ["answer-shapes-in-shaping"] * 2

    def test_rule_filter_restricts_the_run(self, capsys):
        bad = FIXTURES / "np-load-mmap-mode" / "bad"
        # The bad mmap corpus is clean under the telemetry rule alone.
        assert main(["lint", str(bad), "--rule", "no-ad-hoc-telemetry"]) == 0
        capsys.readouterr()
        assert main(["lint", str(bad), "--rule", "np-load-mmap-mode",
                     "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["rules"] == ["np-load-mmap-mode"]

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--rule", "no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in rules_by_name():
            assert name in out


def test_finding_is_frozen():
    finding = Finding("r", "p.py", 1, 0, "m")
    with pytest.raises(AttributeError):
        finding.line = 2
