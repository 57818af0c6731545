"""The prose describes the tree it ships with.

Every ``repro ...`` / ``python -m repro ...`` command in a fenced block
of the user-facing documents must parse under the real CLI parser, and
every ``repro.x.y`` name and every ``src/...`` / ``tests/...`` path
those documents mention must exist.  A command, module or test file
that is deleted without its prose fails here.
"""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "docs/tutorial.md", "DESIGN.md",
        ".claude/skills/verify/SKILL.md")

FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
MODULE = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
PATH = re.compile(r"(?<![\w/.])(?:src|tests)/[\w./*-]*")
#: Shell words that end one command: what follows is another program.
SEPARATORS = {"|", "||", "&&", ";", "&", ">", ">>", "2>", "2>&1"}


def doc_text(name: str) -> str:
    return (REPO_ROOT / name).read_text(encoding="utf-8")


def repro_argv(line: str):
    """The ``repro`` arguments of one shell line, or ``None`` when the
    line does not run ``repro``."""
    words = shlex.split(line, comments=True)
    while words and words[0] in ("$", ">>>"):
        words = words[1:]
    while words and re.fullmatch(r"[A-Za-z_]\w*=.*", words[0]):
        words = words[1:]  # environment assignments
    if words[:3] == ["python", "-m", "repro"]:
        words = words[3:]
    elif words[:1] == ["repro"]:
        words = words[1:]
    else:
        return None
    for index, word in enumerate(words):
        if word in SEPARATORS:
            return words[:index]
    return words


def fenced_commands(name: str) -> list[tuple[str, list[str]]]:
    commands = []
    for block in FENCE.findall(doc_text(name)):
        for line in block.replace("\\\n", " ").splitlines():
            argv = repro_argv(line.strip())
            if argv is not None:
                commands.append((line.strip(), argv))
    return commands


COMMANDS = [(name, line, argv)
            for name in DOCS for line, argv in fenced_commands(name)]


def test_the_documents_carry_commands():
    assert {name for name, _, _ in COMMANDS} >= {"README.md",
                                                 "docs/tutorial.md"}


@pytest.mark.parametrize(
    "name,line,argv", COMMANDS,
    ids=[f"{name}:repro {' '.join(argv)}" for name, _, argv in COMMANDS],
)
def test_documented_command_parses(name, line, argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exit_info:  # --help exits 0
        if exit_info.code:
            pytest.fail(f"{name}: `{line}` does not parse "
                        f"(exit {exit_info.code})")


def resolves(dotted: str) -> bool:
    """``repro.x.y...``: the longest importable module prefix, then
    attributes for the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


@pytest.mark.parametrize("name", DOCS)
def test_named_modules_exist(name):
    missing = sorted({dotted for dotted in MODULE.findall(doc_text(name))
                      if not resolves(dotted.rstrip("."))})
    assert not missing, f"{name} names what does not exist: {missing}"


@pytest.mark.parametrize("name", DOCS)
def test_named_paths_exist(name):
    missing = sorted({
        path for path in (p.rstrip(".,:;") for p in
                          PATH.findall(doc_text(name)))
        if not list(REPO_ROOT.glob(path))
    })
    assert not missing, f"{name} names missing paths: {missing}"


def test_module_map_names_every_module():
    """DESIGN §3 has one row per module: every ``src/repro`` module
    but the package ``__init__``/``__main__`` files is named there by
    its path (and ``test_named_paths_exist`` fails on a row whose file
    is gone)."""
    design = doc_text("DESIGN.md")
    section = design[design.index("\n## 3."):design.index("\n## 4.")]
    missing = [
        str(path.relative_to(REPO_ROOT))
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        if path.name not in ("__init__.py", "__main__.py")
        and f"`{path.relative_to(REPO_ROOT)}`" not in section
    ]
    assert not missing, f"DESIGN §3 does not map: {missing}"
