"""Serving-layer rules: the answer-shape home and the async-handler
blocking discipline.

*Answer shapes* (PR 5): every query answer dict — recognisable by its
``"query": "<op>"`` string-literal discriminator — is built in
``serve/shaping.py`` and nowhere else, so the server, the range router,
and ``query --json`` cannot drift shape by shape.  The AST form checks
dict *literals*, so the CLI's dispatch table (``{"query": _cmd_query}``,
a name value, not a string) is structurally out of scope instead of
special-cased.

*No blocking in async* (PR 5/8): handlers reach the store only through
``_store_call`` (or the coalescer), which drives the call's steps on the
event loop and turns the loop before every shard it must decode and
after every two cached visits.  Store query calls, ``time.sleep``, and
``socket`` module calls directly inside an ``async def`` in ``serve/``
run to the end without yielding — a direct store query decodes every
shard it needs in one turn — and can stall every connection.  Code
inside a nested ``lambda`` or sync ``def`` is exempt: it runs wherever
it is called.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.engine import Finding, ImportMap, Rule, collect_imports, \
    resolve_call_target

__all__ = ["AnswerShapeRule", "BlockingInAsyncRule"]


def shape_dict_nodes(tree: ast.Module) -> List[ast.Dict]:
    """Dict literals carrying a ``"query": "<op>"`` discriminator — the
    structural signature of an answer shape."""
    shapes = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Dict):
            continue
        for key, value in zip(node.keys, node.values):
            if (isinstance(key, ast.Constant) and key.value == "query"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)):
                shapes.append(node)
                break
    return shapes


class AnswerShapeRule(Rule):
    name = "answer-shapes-in-shaping"
    description = ('answer dicts (a literal with a "query": "<op>" '
                   "discriminator) are built only in serve/shaping.py")
    layers = ()  # the whole tree consumes shapes; only shaping builds them
    excludes = ("serve/shaping.py",)

    def check(self, tree: ast.Module, rel_path: str,
              text: str) -> List[Finding]:
        return [self.finding(
            rel_path, node,
            "answer dict hand-built outside serve/shaping.py (add a "
            "shaping function and call it): " + self.source_of(node, text))
            for node in shape_dict_nodes(tree)]


#: Store query-surface methods that decode shards (or take the LRU lock
#: for real work) and therefore go through ``_store_call``, never straight
#: from an async handler.
BLOCKING_STORE_METHODS = frozenset({
    "degree", "degrees", "neighbors", "edges_for_sources", "edges_in_range",
    "egonet", "egonet_edges", "subgraph", "subgraph_edges", "edge_payload",
    "edge_payloads",
})


def _is_store_attr(node: ast.AST) -> bool:
    """``<anything>.store`` / ``<anything>._store`` / bare ``store``."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("store", "_store")
    if isinstance(node, ast.Name):
        return node.id in ("store", "_store")
    return False


class _AsyncBodyVisitor(ast.NodeVisitor):
    def __init__(self, rule: "BlockingInAsyncRule", imports: ImportMap,
                 rel_path: str, text: str):
        self.rule = rule
        self.imports = imports
        self.rel_path = rel_path
        self.text = text
        self.findings: List[Finding] = []
        self._in_async = False

    # Sync scopes inside an async def run wherever they are *called*, so
    # they reset the flag.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node, in_async=False)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_scope(node, in_async=False)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node, in_async=True)

    def _visit_scope(self, node: ast.AST, in_async: bool) -> None:
        previous, self._in_async = self._in_async, in_async
        self.generic_visit(node)
        self._in_async = previous

    def visit_Call(self, node: ast.Call) -> None:
        if self._in_async:
            verdict = self._classify(node)
            if verdict is not None:
                self.findings.append(self.rule.finding(
                    self.rel_path, node,
                    f"{verdict} directly inside an async def — hand it to "
                    "_store_call, which yields to the loop between shard "
                    "decodes: "
                    + self.rule.source_of(node, self.text)))
        self.generic_visit(node)

    def _classify(self, node: ast.Call) -> "str | None":
        target = resolve_call_target(node.func, self.imports)
        if target == "time.sleep":
            return "time.sleep blocks the event loop"
        if target is not None and target.startswith("socket."):
            return f"blocking socket call {target}"
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in BLOCKING_STORE_METHODS
                and _is_store_attr(func.value)):
            return f"store decode call .{func.attr}()"
        return None


class BlockingInAsyncRule(Rule):
    name = "no-blocking-in-async"
    description = ("no store decodes, socket calls, or time.sleep directly "
                   "inside async def handlers in serve/ — store calls go "
                   "through _store_call, which yields between decodes")
    layers = ("serve/",)

    def check(self, tree: ast.Module, rel_path: str,
              text: str) -> List[Finding]:
        visitor = _AsyncBodyVisitor(self, collect_imports(tree), rel_path,
                                    text)
        visitor.visit(tree)
        return visitor.findings
