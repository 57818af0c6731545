"""Determinism self-lint: the D-rules.

The reproduction's core contract is bit-identical results for a given
seed -- across resumes, across ``jobs`` values, across machines.  The
usual way that contract rots is not a simulator bug but an innocent
convenience in the harness: a wall-clock read that leaks into a
record that gets compared, an unseeded ``random`` call in a fixture,
a ``set`` iterated straight into ordered output.  This module is an
AST pass over the ``repro`` source tree itself that flags those
hazards before they ship:

* ``D001`` -- wall-clock reads (``time.time``, ``time.time_ns``,
  ``datetime.now``/``utcnow``).  Monotonic clocks are fine for
  durations; wall-clock values must never order or key anything.
* ``D002`` -- unseeded randomness: module-level ``random.*`` calls
  and ``random.Random()`` with no seed argument.
* ``D003`` -- iteration over a set expression feeding ordered output
  (a ``for`` target, comprehension source, ``join``/``list``/
  ``tuple`` argument) without a ``sorted()`` wrapper.
* ``D004`` -- unsorted filesystem listings (``os.listdir``,
  ``Path.iterdir``, ``glob.glob``) -- OS-order is arbitrary.

A site that is *deliberately* wall-clock (the ledger's human-facing
``ts`` field, say) carries an inline waiver comment::

    "ts": time.time(),  # selflint: allow(D001) human-facing only

The waiver names the rule it silences, so a reviewer sees both the
hazard and the argument in one line; unexplained hazards fail
``repro lint --self`` (and CI).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from .diagnostics import Diagnostic, Report, Severity

__all__ = ["SELF_RULES", "lint_self", "lint_source"]

#: rule id -> (title, severity)
SELF_RULES: dict[str, tuple[str, Severity]] = {
    "D001": ("wall-clock read", Severity.ERROR),
    "D002": ("unseeded randomness", Severity.ERROR),
    "D003": ("set iteration feeds ordered output", Severity.ERROR),
    "D004": ("unsorted filesystem listing", Severity.WARNING),
}

_WALL_CLOCK = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "ctime"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
}

#: ``random.<fn>()`` module-level calls that consume the shared,
#: process-global Mersenne state.
_GLOBAL_RANDOM = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "getrandbits", "betavariate",
    "expovariate", "normalvariate", "triangular", "vonmisesvariate",
}

_LISTING = {("os", "listdir"), ("glob", "glob"), ("glob", "iglob")}

_WAIVER = re.compile(r"selflint:\s*allow\(([A-Z0-9,\s]+)\)")


def _dotted(node: ast.AST) -> tuple[str, ...]:
    """``a.b.c`` -> ("a", "b", "c"); empty tuple when not a plain
    attribute chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class _Visitor(ast.NodeVisitor):
    """One file's pass; collects (rule, lineno, message) findings."""

    def __init__(self) -> None:
        self.findings: list[tuple[str, int, str]] = []
        self._sorted_depth = 0

    # -- helpers -------------------------------------------------------
    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append((rule, node.lineno, message))

    def _check_call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if len(dotted) >= 2:
            tail = dotted[-2:]
            if tail in _WALL_CLOCK:
                self._flag(
                    "D001", node,
                    f"wall-clock read {'.'.join(dotted)}() -- "
                    "nondeterministic across runs; use "
                    "time.monotonic() for durations, or waive if the "
                    "value is human-facing only",
                )
            if dotted[-2] == "random" and dotted[-1] in _GLOBAL_RANDOM:
                self._flag(
                    "D002", node,
                    f"{'.'.join(dotted)}() uses the process-global "
                    "random state; construct random.Random(seed) "
                    "explicitly",
                )
            if dotted[-2:] == ("random", "Random") and not node.args \
                    and not node.keywords:
                self._flag(
                    "D002", node,
                    "random.Random() without a seed is entropy-"
                    "seeded; pass an explicit seed",
                )
            if tail in _LISTING and self._sorted_depth == 0:
                self._flag(
                    "D004", node,
                    f"{'.'.join(dotted)}() returns entries in "
                    "arbitrary OS order; wrap in sorted()",
                )
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("iterdir", "glob", "rglob") \
                and self._sorted_depth == 0 and not _dotted(node.func):
            # A method call on a non-trivial expression: pathlib-style
            # listing (module-level glob.glob is handled above).
            self._flag(
                "D004", node,
                f".{node.func.attr}() returns entries in arbitrary "
                "OS order; wrap in sorted()",
            )

    def _check_iteration(self, source: ast.AST, what: str) -> None:
        if self._sorted_depth == 0 and _is_set_expr(source):
            self._flag(
                "D003", source,
                f"{what} iterates a set -- hash order feeds the "
                "result; wrap in sorted()",
            )

    # -- visitors ------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._check_call(node)
        is_sorted = (isinstance(node.func, ast.Name)
                     and node.func.id in ("sorted", "len", "sum",
                                          "min", "max", "any", "all"))
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "join":
            # "sep".join(<set>) serialises hash order directly.
            for arg in node.args:
                self._check_iteration(arg, "str.join argument")
        if is_sorted:
            # Order-insensitive consumers: iteration below is fine.
            self._sorted_depth += 1
            self.generic_visit(node)
            self._sorted_depth -= 1
        else:
            self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, "for loop")
        self.generic_visit(node)

    def _comp(self, node) -> None:
        ordered = not isinstance(node, (ast.SetComp, ast.DictComp))
        for gen in node.generators:
            if ordered:
                self._check_iteration(gen.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _comp
    visit_GeneratorExp = _comp


def _waived(lines: list[str], lineno: int) -> set[str]:
    """Rules waived at ``lineno`` (1-based): an inline or
    immediately-preceding ``# selflint: allow(D00x)`` comment."""
    waived: set[str] = set()
    for idx in (lineno - 1, lineno - 2):
        if 0 <= idx < len(lines):
            match = _WAIVER.search(lines[idx])
            if match:
                waived.update(
                    part.strip() for part in match.group(1).split(",")
                )
    return waived


def lint_source(text: str, relpath: str) -> list[Diagnostic]:
    """Run the D-rules over one file's source text."""
    try:
        tree = ast.parse(text, filename=relpath)
    except SyntaxError as exc:
        return [Diagnostic(
            rule="X000", severity=Severity.ERROR,
            message=f"unparseable: {exc}", source=relpath,
        )]
    visitor = _Visitor()
    visitor.visit(tree)
    lines = text.splitlines()
    diags = []
    for rule_id, lineno, message in visitor.findings:
        if rule_id in _waived(lines, lineno):
            continue
        _, severity = SELF_RULES[rule_id]
        diags.append(Diagnostic(
            rule=rule_id, severity=severity, message=message,
            source=relpath, location=f"L{lineno}",
        ))
    return diags


def lint_self() -> Report:
    """Run the D-rules over the installed ``repro`` source tree, one
    deterministic pass."""
    root = Path(__file__).resolve().parents[1]
    report = Report()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root.parent).as_posix()
        report.extend(lint_source(path.read_text(), rel))
    report.dedup()
    return report
