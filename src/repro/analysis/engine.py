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
  deterministic.
* Third-party checks plug in by calling :func:`register` (or the
  decorator) with a fresh rule id; nothing else needs to change --
  ``repro lint`` and the sweep pre-validator pick them up.
* What several graph rules need -- the structural scan, the port
  table, the reach levels, the token flow -- is computed at most once
  per pass, in a :class:`GraphFacts` that lives exactly as long as
  the pass.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterator, Optional

from .diagnostics import Diagnostic, Report, Severity

#: Target kinds a rule may declare.
TARGET_GRAPH = "graph"
TARGET_CONFIG = "config"


class PortTable:
    """Every input port of one sound graph in one flat numbering: who
    feeds each port and whom each instruction sends to.

    Instruction ``i`` owns port slots ``base[i] .. base[i + 1] - 1``,
    so its arity is ``base[i + 1] - base[i]``.  ``entry[slot]`` counts
    the port's entry tokens and ``feeders[slot]`` lists one
    ``(src_inst, conditional)`` per edge into it; ``conditional``
    marks an edge that may carry anywhere from none to every firing's
    token (a STEER's taken edge, any not-taken edge).  ``consumers[i]``
    lists the instructions ``i`` sends to, one per edge, taken
    destinations first.  ``rendezvous`` lists the instructions with
    two or more ports, the only ones that can wait on a partner.

    The table is the graph as written, so a sink (OUTPUT, THREAD_HALT)
    given destinations keeps its edges here; :attr:`token_edges` is
    the view the token flow runs on, in which sinks send nothing.
    Expects a graph that passes ``graph.validate()``.
    """

    def __init__(self, graph) -> None:
        from ..isa.opcodes import Opcode

        steer = Opcode.STEER
        sinks = (Opcode.OUTPUT, Opcode.THREAD_HALT)
        insts = graph.instructions
        self.graph = graph
        base = [0, *accumulate(inst.opcode.arity for inst in insts)]
        entry = [0] * base[-1]
        for token in graph.entry_tokens:
            entry[base[token.inst] + token.port] += 1
        feeders: list[list[tuple[int, bool]]] = [[] for _ in entry]
        consumers: list[list[int]] = []
        self._mute: list[int] = []  # sinks with destinations
        for src, inst in enumerate(insts):
            out: list[int] = []
            edge = (src, inst.opcode is steer)  # one tuple per side
            for dest in inst.dests:
                feeders[base[dest.inst] + dest.port].append(edge)
                out.append(dest.inst)
            edge = (src, True)
            for dest in inst.false_dests:
                feeders[base[dest.inst] + dest.port].append(edge)
                out.append(dest.inst)
            if out and inst.opcode in sinks:
                self._mute.append(src)
            consumers.append(out)
        self.base = base
        self.entry = entry
        self.feeders = feeders
        self.consumers = consumers
        self.rendezvous = [
            i for i in range(len(insts)) if base[i + 1] - base[i] >= 2
        ]

    def port_of(self, slot: int) -> tuple[int, int]:
        """``(inst, port)`` of a slot."""
        inst = bisect_right(self.base, slot) - 1
        return inst, slot - self.base[inst]

    @cached_property
    def token_edges(self) -> tuple[list, list]:
        """``(feeders, consumers)`` as tokens travel: a sink's edges
        carry nothing, so they are dropped (the table's own lists when
        no sink has any)."""
        if not self._mute:
            return self.feeders, self.consumers
        mute = set(self._mute)
        return (
            [[f for f in fed if f[0] not in mute] for fed in self.feeders],
            [[] if i in mute else out
             for i, out in enumerate(self.consumers)],
        )


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
    def ports(self) -> PortTable:
        """The graph's :class:`PortTable` (sound graphs only)."""
        return PortTable(self.graph)

    @cached_property
    def levels(self) -> list[int]:
        """Per instruction, the fewest edges from an instruction an
        entry token lands on (0 for those), or -1 if no entry token
        reaches it.  Sound graphs only."""
        consumers = self.ports.consumers
        level = [-1] * len(consumers)
        queue: list[int] = []
        for token in self.graph.entry_tokens:
            if level[token.inst] < 0:
                level[token.inst] = 0
                queue.append(token.inst)
        for node in queue:  # breadth first: the list grows behind us
            nxt = level[node] + 1
            for dst in consumers[node]:
                if level[dst] < 0:
                    level[dst] = nxt
                    queue.append(dst)
        return level

    @cached_property
    def flow(self):
        """The :class:`~repro.analysis.dataflow.TokenFlow` (sound
        graphs only), run on :attr:`ports`."""
        from .dataflow import _token_flow

        return _token_flow(self.ports)


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


def analyze_graph(graph) -> Report:
    """Run the graph registry over a dataflow program."""
    from . import dataflow, graph_rules  # noqa: F401 - rules register

    return _run_rules(
        list(GRAPH_RULES.values()), graph, getattr(graph, "name", ""),
        GraphFacts(graph),
    )


def analyze_config(config) -> Report:
    """Run the config registry over a processor configuration."""
    from . import config_rules  # noqa: F401 - ensure rules registered

    rules = list(CONFIG_RULES.values())
    source = config.describe() if hasattr(config, "describe") else ""
    return _run_rules(rules, config, source)
