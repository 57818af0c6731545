"""The ledger's status vocabulary is declared in one module.

``repro.harness.ledger`` names the six statuses and the rules their
readers apply (which are measurements, which score zero, which are
skips scored optimistically, what trains the surrogate).  Every other
module compares against those names; a status literal compared, or
gathered into a rule of its own, anywhere else is a second copy of the
rule that can drift from the first.
"""

import ast
from pathlib import Path

import repro
from repro.harness import ledger

SRC = Path(repro.__file__).parent
STATUSES = {ledger.OK, ledger.FAILED, ledger.POISONED, ledger.INVALID,
            ledger.PRUNED_STATIC, ledger.PREDICTED}


def _is_status(node) -> bool:
    return isinstance(node, ast.Constant) and node.value in STATUSES


def _holds_status(node) -> bool:
    """A status literal, or a container of them."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_status(element) for element in node.elts)
    return _is_status(node)


def status_rule_lines(source: str) -> list[int]:
    """The line of every comparison against a status literal and of
    every container made only of status literals in ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            hit = any(map(_holds_status, [node.left, *node.comparators]))
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            hit = bool(node.elts) and all(map(_is_status, node.elts))
        else:
            continue
        if hit:
            lines.add(node.lineno)
    return sorted(lines)


def test_status_rules_are_declared_only_in_the_ledger():
    sites = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path != Path(ledger.__file__)
        for line in status_rule_lines(path.read_text())
    ]
    assert sites == [], (
        "compare against the names in repro.harness.ledger: "
        + ", ".join(sites)
    )


def test_the_scan_sees_every_shape_of_status_rule():
    source = (
        'if record["status"] == "ok":\n'           # 1: a comparison
        '    pass\n'
        'done = status != "predicted"\n'          # 3: negated
        'skip = status in ("pruned_static", x)\n'  # 4: a container
        'ZERO = ("failed", "poisoned")\n'          # 5: a rule of its own
        'fine = ("failed", "stalled")\n'           # not only statuses
        'also_fine = status == OK\n'
    )
    assert status_rule_lines(source) == [1, 3, 4, 5]
