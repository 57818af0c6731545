"""The prose describes the tree it ships with.

Every ``repro ...`` / ``python -m repro ...`` command in a fenced block
of the user-facing documents must parse under the real CLI parser, and
every ``repro.x.y`` name and every ``src/...`` / ``tests/...`` path
those documents mention must exist.  A command, module or test file
that is deleted without its prose fails here.  Beside the module map
sits the parameter census: every defaulted parameter of a ``src/repro``
function is set by some caller outside ``tests/``.
"""

import ast
import importlib
import re
import shlex
from collections import defaultdict
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


# ----------------------------------------------------------------------
# The parameter census
# ----------------------------------------------------------------------
#: Where the callers that are not tests live.
CALLER_DIRS = ("src", "benchmarks", "examples", "bench")

#: Defaulted parameters that no caller outside ``tests/`` sets, each
#: kept for one reason: *entry* (set from outside the program, as
#: ``argv``), *fake: <test>* (the named test substitutes a fake through
#: it) or *protocol* (a dispatcher calls the signature uniformly).
#: Keys are ``<module under src/repro>::<function>(<parameter>)``, a
#: constructor under its class name.
UNSET_ALLOWED = {
    "cli.py::main(argv)": "entry",
    "obs/metrics.py::ThroughputMeter(clock)":
        "fake: tests/obs/test_metrics.py::test_throughput_meter_rate_and_eta",
    "report/fullreport.py::generate_report(timestamp)":
        "fake: tests/report/test_fullreport.py::test_report_sections_present",
    "sim/storebuffer/storebuffer.py::StoreBuffer(complete_callback)":
        "fake: tests/sim/test_storebuffer.py::Harness",
    "sim/storebuffer/storebuffer.py::StoreBuffer(retire_callback)":
        "fake: tests/sim/test_storebuffer.py::Harness",
}


def _callee(node: ast.Call):
    """``(name, positional args)`` of a call, matched by name bare or
    attribute; ``functools.partial(f, ...)`` is a call of ``f``."""
    func, args = node.func, node.args
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    if name == "partial" and args:
        inner = args[0]
        name = getattr(inner, "id", None) or getattr(inner, "attr", None)
        args = args[1:]
    return name, args


def _call_sites() -> dict:
    """Name -> ``(positional count, keyword names, spread)`` per call
    outside ``tests/``; a ``*args``/``**mapping`` call (``spread``)
    counts as passing every parameter."""
    sites = defaultdict(list)
    for top in CALLER_DIRS:
        for path in (REPO_ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name, args = _callee(node)
                if name is None:
                    continue
                spread = (any(isinstance(a, ast.Starred) for a in args)
                          or any(k.arg is None for k in node.keywords))
                sites[name].append((len(args),
                                    {k.arg for k in node.keywords if k.arg},
                                    spread))
    return sites


def unset_parameters() -> list[str]:
    """Every defaulted parameter (and ``**kwargs``) of a ``src/repro``
    function that code outside ``tests/`` calls, but never sets."""
    sites = _call_sites()
    src = REPO_ROOT / "src" / "repro"
    unset = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = parent.get(node)
            method = isinstance(owner, ast.ClassDef) and not any(
                getattr(d, "id", None) == "staticmethod"
                for d in node.decorator_list)
            name = node.name
            if method and name == "__init__":
                name = owner.name
            calls = sites.get(name)
            if not calls:
                continue  # called by tests or by nothing: not counted
            a = node.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            params = [(index - method, p.arg) for index, p in
                      enumerate(positional) if index >= first]
            params += [(None, p.arg) for p, default in
                       zip(a.kwonlyargs, a.kw_defaults) if default is not None]
            where = f"{path.relative_to(src).as_posix()}::{name}"
            for index, param in params:
                if not any(spread or param in keywords
                           or (index is not None and index < count)
                           for count, keywords, spread in calls):
                    unset.append(f"{where}({param})")
            if a.kwarg is not None:
                named = {p.arg for p in positional + a.kwonlyargs}
                if not any(spread or keywords - named
                           for _, keywords, spread in calls):
                    unset.append(f"{where}(**{a.kwarg.arg})")
    return unset


def test_every_parameter_has_a_setter():
    """A default no caller outside ``tests/`` changes is a constant: it
    belongs in the body (or in the module constant it names), not in
    the signature.  A new unset parameter fails here, and so does an
    allowlist entry that is set by now or gone."""
    unset = unset_parameters()
    new = [key for key in unset if key not in UNSET_ALLOWED]
    assert not new, (
        "parameters no caller outside tests/ sets (make each a constant, "
        f"or allowlist it with its reason): {new}"
    )
    stale = sorted(set(UNSET_ALLOWED) - set(unset))
    assert not stale, f"allowlisted but set by now, or gone: {stale}"


def test_every_allowlisted_parameter_names_its_reason():
    for key, reason in UNSET_ALLOWED.items():
        if reason in ("entry", "protocol"):
            continue
        assert reason.startswith("fake: tests/"), (key, reason)
        path, _, test = reason[len("fake: "):].partition("::")
        assert test and re.search(rf"\b{test}\b", doc_text(path)), (
            f"{key}: {reason} names no test that exists"
        )
