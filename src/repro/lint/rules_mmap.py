"""The zero-copy decode rule: every ``numpy.load`` in the covered layers
states its memory-mode decision.

AST form of the PR 6 grep, with the two blind spots fixed:

* **aliased imports** — ``from numpy import load as ld`` and
  ``import numpy as xp`` resolve through the module's import map, so
  renaming numpy no longer sneaks a bare load past the rule;
* **parenthesis desync** — the old scanner matched parens textually to
  find the call's end, so a ``)`` inside a string-literal argument
  truncated the span and misjudged calls after it.  This rule reads the
  call's keywords off the AST node; a string argument is just a string.

``mmap_mode=None`` is a *statement* (an eager private copy is the
point), so the rule requires the keyword's presence, not any particular
value.  A ``**kwargs`` splat is treated as stating a decision — the
decision just lives at the call's builder, which the AST cannot see
through.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.engine import Finding, Rule, collect_imports, resolve_call_target

__all__ = ["MmapModeRule"]


class MmapModeRule(Rule):
    name = "np-load-mmap-mode"
    description = ("numpy.load in the store/serve layers (and the shard "
                   "readers in graphs/io.py) must pass mmap_mode explicitly "
                   "(mmap_mode=None when an eager copy is intended)")
    #: PR 6 covered store/ and serve/; PR 9 extends the rule to the shard
    #: readers and run-formation loads that feed them.
    layers = ("store/", "serve/", "graphs/io.py")

    def check(self, tree: ast.Module, rel_path: str,
              text: str) -> List[Finding]:
        imports = collect_imports(tree)
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if resolve_call_target(node.func, imports) != "numpy.load":
                continue
            stated = any(kw.arg == "mmap_mode" or kw.arg is None
                         for kw in node.keywords)
            if not stated:
                findings.append(self.finding(
                    rel_path, node,
                    "numpy.load without an explicit mmap_mode (pass "
                    "mmap_mode=None if an eager copy is intended): "
                    + self.source_of(node, text)))
        return findings

    #: The calls that decode array files: ``numpy.load`` (bundles), and
    #: the two primitives the shard reader uses after its own header check
    #: — ``os.preadv`` for a read into a private array, ``mmap.mmap`` for
    #: the mapping its read-only views sit on.  ``numpy.memmap`` and
    #: ``numpy.fromfile`` stay listed so a decode moved back onto either
    #: is still counted.
    DECODE_CALLS = frozenset({"numpy.load", "numpy.memmap", "numpy.fromfile",
                              "os.preadv", "mmap.mmap"})

    # Exposed for the anti-vacuity self-check in the test driver: the
    # rule is only meaningful while the covered layers actually decode.
    def count_decode_calls(self, tree: ast.Module) -> int:
        imports = collect_imports(tree)
        return sum(1 for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and resolve_call_target(node.func, imports)
                   in self.DECODE_CALLS)
