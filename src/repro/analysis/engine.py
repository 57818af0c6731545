"""The pluggable rule engine.

A *rule* is a named check over one analysis target -- a
:class:`~repro.isa.graph.DataflowGraph` program or a
:class:`~repro.core.config.WaveScalarConfig` processor -- that yields
:class:`~repro.analysis.diagnostics.Diagnostic` objects.  Rules are
registered into per-target registries with the :func:`rule` decorator;
:func:`analyze_graph` / :func:`analyze_config` run a registry over a
target and collect everything into a
:class:`~repro.analysis.diagnostics.Report`.

Design points:

* Rules never abort the pass: a rule that raises is itself reported as
  an ``X000`` internal-error diagnostic and the remaining rules run.
* Registries are ordered dicts keyed by rule id, so reports are
  deterministic and callers can enable/disable individual rules
  (``only=`` / ``ignore=``).
* Third-party checks plug in by calling :func:`register` (or the
  decorator) with a fresh rule id; nothing else needs to change --
  ``repro lint`` and the sweep pre-validator pick them up.
* What several graph rules need -- the structural scan, the feeder
  map, the token flow -- is computed at most once per pass, in a
  :class:`GraphFacts` that lives exactly as long as the pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional

from .diagnostics import Diagnostic, Report, Severity

#: Target kinds a rule may declare.
TARGET_GRAPH = "graph"
TARGET_CONFIG = "config"


class GraphFacts:
    """What more than one graph rule asks about the same graph, each
    answer computed on first use.

    One instance serves one rule pass and is dropped with it: graphs
    are mutable, so no answer may outlive the call that asked.
    """

    def __init__(self, graph) -> None:
        self.graph = graph

    @cached_property
    def structure_error(self) -> Optional[str]:
        """``graph.validate()``'s complaint, or None for a sound graph."""
        try:
            self.graph.validate()
        except ValueError as exc:
            return str(exc)
        return None

    @property
    def sound(self) -> bool:
        return self.structure_error is None

    @cached_property
    def feeders(self) -> dict[tuple[int, int], list[int]]:
        """(inst, port) -> producer instruction ids."""
        fed: dict[tuple[int, int], list[int]] = {}
        for src, dest in self.graph.edges():
            fed.setdefault((dest.inst, dest.port), []).append(src)
        return fed

    @cached_property
    def entry_ports(self) -> set[tuple[int, int]]:
        return {(t.inst, t.port) for t in self.graph.entry_tokens}

    @cached_property
    def flow(self):
        """The :class:`~repro.analysis.dataflow.TokenFlow` (sound
        graphs only)."""
        from .dataflow import analyze_tokens

        return analyze_tokens(self.graph)


@dataclass(frozen=True)
class Rule:
    """One registered static-analysis rule."""

    rule_id: str
    title: str
    target: str  # TARGET_GRAPH | TARGET_CONFIG
    check: Callable[..., Iterator[Diagnostic]]
    default_severity: Severity = Severity.ERROR
    #: Graph rules only: ``check(graph, facts)`` also takes the pass's
    #: :class:`GraphFacts` instead of recomputing what siblings share.
    shared: bool = False

    def __call__(self, subject, facts=None) -> Iterator[Diagnostic]:
        if not self.shared:
            return self.check(subject)
        return self.check(subject, facts or GraphFacts(subject))


#: Ordered registries; insertion order is evaluation order.
GRAPH_RULES: dict[str, Rule] = {}
CONFIG_RULES: dict[str, Rule] = {}

_REGISTRIES = {
    TARGET_GRAPH: GRAPH_RULES,
    TARGET_CONFIG: CONFIG_RULES,
}


def register(rule_obj: Rule) -> Rule:
    """Add a rule to its target registry (last registration wins)."""
    registry = _REGISTRIES.get(rule_obj.target)
    if registry is None:
        raise ValueError(f"unknown rule target {rule_obj.target!r}")
    registry[rule_obj.rule_id] = rule_obj
    return rule_obj


def rule(
    rule_id: str,
    title: str,
    target: str,
    severity: Severity = Severity.ERROR,
    shared: bool = False,
) -> Callable:
    """Decorator: register ``check(subject) -> Iterable[Diagnostic]``
    (``check(graph, facts)`` when ``shared``, see :class:`Rule`)."""

    def decorate(check: Callable) -> Callable:
        register(Rule(
            rule_id=rule_id, title=title, target=target, check=check,
            default_severity=severity, shared=shared,
        ))
        return check

    return decorate


def _select(
    registry: dict[str, Rule],
    only: Optional[Iterable[str]],
    ignore: Iterable[str],
) -> list[Rule]:
    ignored = set(ignore)
    if only is not None:
        wanted = list(only)
        unknown = [r for r in wanted if r not in registry]
        if unknown:
            raise KeyError(f"unknown rule id(s): {unknown}")
        return [registry[r] for r in wanted if r not in ignored]
    return [r for rid, r in registry.items() if rid not in ignored]


def _run_rules(
    rules: list[Rule], subject, source: str, facts=None
) -> Report:
    report = Report()
    for rule_obj in rules:
        try:
            report.extend(rule_obj(subject, facts))
        except Exception as exc:  # noqa: BLE001 - isolate bad rules
            report.extend([Diagnostic(
                rule="X000",
                severity=Severity.ERROR,
                message=(
                    f"rule {rule_obj.rule_id} ({rule_obj.title}) crashed: "
                    f"{type(exc).__name__}: {exc}"
                ),
                source=source,
            )])
    # One line per distinct (rule, source, location, message): rules
    # over repetitive structures can emit the same finding per
    # instance, which buries the signal.
    report.dedup()
    return report


def analyze_graph(
    graph,
    only: Optional[Iterable[str]] = None,
    ignore: Iterable[str] = (),
) -> Report:
    """Run the graph registry over a dataflow program."""
    from . import dataflow, graph_rules  # noqa: F401 - rules register

    rules = _select(GRAPH_RULES, only, ignore)
    return _run_rules(
        rules, graph, getattr(graph, "name", ""), GraphFacts(graph)
    )


def analyze_config(
    config,
    only: Optional[Iterable[str]] = None,
    ignore: Iterable[str] = (),
) -> Report:
    """Run the config registry over a processor configuration."""
    from . import config_rules  # noqa: F401 - ensure rules registered

    rules = _select(CONFIG_RULES, only, ignore)
    source = config.describe() if hasattr(config, "describe") else ""
    return _run_rules(rules, config, source)


def rule_catalog() -> list[tuple[str, str, str]]:
    """(id, target, title) for every registered rule, in run order."""
    from . import config_rules, dataflow, graph_rules  # noqa: F401

    out = [(r.rule_id, r.target, r.title) for r in GRAPH_RULES.values()]
    out += [(r.rule_id, r.target, r.title) for r in CONFIG_RULES.values()]
    return out
