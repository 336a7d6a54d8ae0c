"""Repo conventions enforced as a tier-1 test — now a thin driver over
the AST lint engine.

Up to PR 8 this file hand-rolled three grep-level regexes (bare
``np.load``, hand-built answer shapes, ad-hoc telemetry).  Those greps
could not see aliased imports, could not tell call context, and desynced
on a ``)`` inside a string literal; PR 9 moved the conventions into
:mod:`repro.lint` as real AST rules (plus three new ones the greps could
never express).  What remains here:

* the zero-findings gate: the full engine over ``src/repro`` must be
  clean, so a convention regression fails tier-1 exactly like it failed
  under the greps — but through the same engine ``repro-kron lint``
  runs, so the CLI and the suite cannot drift;
* the non-vacuity self-checks on the *real tree*: the layers each rule
  protects must still contain the thing being protected (shaping still
  builds shapes, store/serve still decode shards and import the
  registry), otherwise a refactor could move the code out from under a
  rule and leave it green forever.  (Per-rule firing is proven against
  the fixture corpus in ``test_lint.py``.)
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint import LintEngine, all_rules, collect_imports
from repro.lint.rules_mmap import MmapModeRule
from repro.lint.rules_serve import shape_dict_nodes

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_engine_reports_zero_findings_on_source_tree():
    report = LintEngine(all_rules()).run(SRC)
    assert report.files_checked > 0
    assert report.ok, (
        "convention violations in src/repro (run `repro-kron lint` for the "
        "same listing):\n  "
        + "\n  ".join(str(finding) for finding in report.findings))


def test_every_rule_covers_at_least_one_real_file():
    # A rule whose layers match nothing has silently fallen off the tree
    # (e.g. a directory rename) and would pass vacuously forever.
    rel_paths = [path.relative_to(SRC).as_posix()
                 for path in SRC.rglob("*.py")]
    for rule in all_rules():
        covered = [rel for rel in rel_paths if rule.applies_to(rel)]
        assert covered, f"rule {rule.name} applies to no file under src/repro"


def test_zero_copy_layers_still_decode():
    # The mmap rule is only meaningful while the covered layers actually
    # decode array files (numpy.load, os.preadv, mmap.mmap); zero
    # calls would mean the decodes moved.
    rule = MmapModeRule()
    calls = 0
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rule.applies_to(rel):
            calls += rule.count_decode_calls(ast.parse(path.read_text()))
    assert calls >= 3, (
        f"only {calls} numpy decode calls under the zero-copy layers — the "
        "decode paths this rule protects look gone")


def test_shaping_still_builds_the_answer_shapes():
    tree = ast.parse((SRC / "serve" / "shaping.py").read_text())
    assert len(shape_dict_nodes(tree)) >= 5, (
        "serve/shaping.py no longer builds the answer shapes the "
        "answer-shapes-in-shaping rule protects")


def test_store_and_serve_still_use_the_registry():
    importers = 0
    for layer in ("store", "serve"):
        for path in (SRC / layer).rglob("*.py"):
            imports = collect_imports(ast.parse(path.read_text()))
            modules = set(imports.modules.values())
            members = {name.rsplit(".", 1)[0]
                       for name in imports.members.values()}
            if "repro.obs" in modules | members:
                importers += 1
    assert importers >= 4, (
        f"only {importers} files under src/repro/{{store,serve}} import "
        "repro.obs — the one-registry telemetry convention looks abandoned")
