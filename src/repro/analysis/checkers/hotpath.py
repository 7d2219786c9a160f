"""ATH6xx — hot-path discipline.

Modules marked with a ``# athena-lint: hot-path`` comment sit on the
packet/query fast path (docs/PERF.md): ``repro.openflow.match``,
``repro.dataplane.flowtable``, and the distdb read path.  The overhaul
that made them fast moved reflection to construction time — a match
compiles its predicate once, a flow entry indexes itself once.  This
checker keeps per-call reflection from creeping back in:

* ``ATH601`` — ``dataclasses.fields()`` called at request time.  Field
  introspection costs a dict build per call; hot code must hoist it to
  import or construction time (``__init__`` / ``__post_init__`` /
  ``__setstate__`` are exempt, as is module level).
* ``ATH602`` — ``getattr()`` / ``setattr()`` inside a loop.  A dynamic
  attribute lookup per iteration is the pattern the compiled-match
  rewrite removed; unroll it or precompute a tuple.
* ``ATH603`` — per-row dict construction inside a loop or comprehension,
  in modules marked ``# athena-lint: hot-path columnar``.  The columnar
  batch path exists so bulk data moves as numpy columns; a dict built
  per row re-creates the document churn it replaced.

The reference implementations these modules replaced live in
``tests/oracles.py``, outside the linted tree.  A deliberate exception
in shipped code (the flow table's management-path ``out_port`` probe)
carries an inline ``# athena-lint: disable=...`` so it stays visible.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List

from repro.analysis.astutil import dotted_name, import_map
from repro.analysis.engine import Checker, ParsedModule
from repro.analysis.findings import Finding

#: The opt-in marker; modules without it are never checked.
_HOT_MARKER_RE = re.compile(r"#\s*athena-lint:\s*hot-path\b")

#: The stricter columnar variant additionally opts into ATH603.
_COLUMNAR_MARKER_RE = re.compile(r"#\s*athena-lint:\s*hot-path\s+columnar\b")

#: Construction-time methods where one-off introspection is fine.
_CONSTRUCTION_FUNCS = {"__init__", "__post_init__", "__setstate__", "__init_subclass__"}

_LOOP_NODES = (ast.For, ast.While, ast.AsyncFor)
_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def is_hot_module(module: ParsedModule) -> bool:
    """Whether the module opted into hot-path checking via the marker."""
    return _HOT_MARKER_RE.search(module.source) is not None


def is_columnar_module(module: ParsedModule) -> bool:
    """Whether the module opted into the columnar (ATH603) tier."""
    return _COLUMNAR_MARKER_RE.search(module.source) is not None


def _own_nodes(func: ast.AST) -> Iterable[ast.AST]:
    """Yield the nodes of ``func``'s body, not descending into nested defs."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNC_NODES):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class HotpathChecker(Checker):
    """Flags per-call reflection in modules marked ``hot-path``."""

    name = "hotpath"
    rules = {
        "ATH601": "dataclasses.fields() on a hot path; introspect once at "
        "construction time, not per call",
        "ATH602": "getattr()/setattr() inside a loop on a hot path; "
        "precompute the attribute tuple at construction time",
        "ATH603": "per-row dict construction in a columnar hot-path "
        "module; keep bulk data in numpy columns",
    }

    def check(self, module: ParsedModule) -> Iterable[Finding]:
        if not is_hot_module(module):
            return []
        columnar = is_columnar_module(module)
        imports = import_map(module.tree)
        findings: List[Finding] = []
        for func in ast.walk(module.tree):
            if not isinstance(func, _FUNC_NODES):
                continue
            if func.name in _CONSTRUCTION_FUNCS:
                # One-off construction work; reflection there is the fix,
                # not the problem.  (Nested defs are judged by their own
                # name when the outer walk reaches them.)
                continue
            for node in _own_nodes(func):
                if self._is_fields_call(node, imports):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            "ATH601",
                            "dataclasses.fields() runs per call here; hoist "
                            "the introspection to construction time "
                            "(__post_init__) or module level",
                        )
                    )
                if isinstance(node, _LOOP_NODES):
                    findings.extend(self._check_loop(module, node))
            if columnar:
                findings.extend(self._check_row_dicts(module, func))
        return findings

    @staticmethod
    def _is_fields_call(node: ast.AST, imports) -> bool:
        if not isinstance(node, ast.Call):
            return False
        dotted = dotted_name(node.func)
        if dotted is None:
            return False
        return imports.resolve(dotted) == "dataclasses.fields"

    def _check_loop(self, module: ParsedModule, loop: ast.AST) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted in ("getattr", "setattr"):
                findings.append(
                    self.finding(
                        module,
                        node,
                        "ATH602",
                        f"{dotted}() inside a loop on a hot path; precompute "
                        "the (name, value) tuple at construction time",
                    )
                )
        return findings

    _PER_ROW_CONTEXTS = _LOOP_NODES + (
        ast.ListComp,
        ast.SetComp,
        ast.GeneratorExp,
        ast.DictComp,
    )

    @staticmethod
    def _is_dict_construction(node: ast.AST) -> bool:
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and dotted_name(node.func) == "dict"
        )

    def _check_row_dicts(self, module: ParsedModule, func: ast.AST) -> List[Finding]:
        """ATH603: dicts built once per iteration in a columnar module.

        Any ``{...}`` literal, ``dict(...)`` call, or dict comprehension
        *inside* a loop or comprehension body executes per row; the
        columnar contract says bulk rows travel as arrays.  Each offending
        construction is flagged once, however deeply contexts nest.
        """
        flagged: dict = {}
        for context in _own_nodes(func):
            if not isinstance(context, self._PER_ROW_CONTEXTS):
                continue
            for node in ast.walk(context):
                if node is context:
                    continue
                if self._is_dict_construction(node) and id(node) not in flagged:
                    flagged[id(node)] = node
        return [
            self.finding(
                module,
                node,
                "ATH603",
                "dict constructed per row in a columnar hot-path module; "
                "move the data into frame columns (or copy only post-limit "
                "survivors)",
            )
            for node in flagged.values()
        ]
