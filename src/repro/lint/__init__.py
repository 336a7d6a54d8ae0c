"""Dependency-free static analysis for the repo's own conventions.

Eight PRs of conventions — batch-first hot paths, zero-copy
``mmap_mode`` decodes, one answer-shape home, one telemetry registry,
the serve layer's decode-pool discipline — used to be enforced by three
grep-level regexes in the test suite.  This package replaces them with a
real AST-driven engine:

* :mod:`repro.lint.engine` — :class:`Finding`, the :class:`Rule`
  protocol, import-alias resolution, and the :class:`LintEngine` walker;
* :mod:`repro.lint.rules` — the shipped rule set (one module per
  domain: mmap, serve, telemetry, hot-path);
* :mod:`repro.lint.reporters` — text and JSON output
  (``repro-kron lint [PATH] [--json] [--rule NAME]`` is the CLI);
* :mod:`repro.lint.runtime` — the *runtime* half: a
  :class:`~repro.lint.runtime.CheckedLock` lock-order sanitizer the test
  suite installs so the concurrency invariants (store LRU before
  instrument leaf locks, registry lock never held across reads) are
  machine-checked, not just reviewed.

Everything here is stdlib-only: the linter must import (and run) even
where numpy/scipy are absent, because it is the tool that gates commits.
The names below are imported on first access (PEP 562): the store and
obs layers import :mod:`repro.lint.runtime` for ``new_lock``, which runs
this ``__init__`` first, and a server must not load the AST engine and
every rule module with it.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Finding",
    "ImportMap",
    "LintEngine",
    "LintReport",
    "Rule",
    "all_rules",
    "collect_imports",
    "render_json",
    "render_text",
    "resolve_call_target",
    "rules_by_name",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.lint.engine": ("Finding", "ImportMap", "LintEngine", "LintReport",
                          "Rule", "collect_imports", "resolve_call_target"),
    "repro.lint.reporters": ("render_json", "render_text"),
    "repro.lint.rules": ("all_rules", "rules_by_name"),
})
