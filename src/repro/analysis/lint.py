"""Lint front-end: resolve targets, run registries, aggregate results.

This is the library behind ``repro lint``.  A *target* is anything the
user can name on the command line:

* a registered workload (``gzip``) or suite (``splash``, ``all``),
* a ``.wsasm`` assembly file, or a directory searched recursively for
  ``.wsasm`` files,
* a processor configuration (linted via :func:`lint_config`).

Each resolved target becomes one :class:`LintResult` carrying the
target's name and its :class:`~repro.analysis.diagnostics.Report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from ..isa.graph import DataflowGraph
from .diagnostics import Diagnostic, Report, Severity
from .engine import analyze_config, analyze_graph


@dataclass
class LintResult:
    """Diagnostics for one lint target."""

    target: str
    report: Report

    @property
    def clean(self) -> bool:
        return not self.report.has_errors


def lint_graph(graph: DataflowGraph, target: str = "") -> LintResult:
    return LintResult(
        target=target or graph.name, report=analyze_graph(graph)
    )


def lint_config(config) -> LintResult:
    return LintResult(
        target=config.describe(), report=analyze_config(config)
    )


def lint_workload(
    name: str,
    scale=None,
    threads: Optional[int] = None,
) -> LintResult:
    """Instantiate one registered workload (seed 0) and lint its graph."""
    from ..workloads import Scale, get

    workload = get(name)
    scale = scale or Scale.TINY
    kwargs = {"scale": scale}
    if workload.multithreaded:
        kwargs["threads"] = threads
    graph = workload.instantiate(**kwargs)
    return lint_graph(graph, target=f"{name}@{scale.value}")


def lint_file(path) -> LintResult:
    """Assemble one ``.wsasm`` file (without the raising verifier) and
    lint the result; unassemblable files become an error diagnostic."""
    from ..lang.assembler import AssemblerError, assemble

    path = Path(path)
    try:
        graph = assemble(path.read_text(encoding="utf-8"), verify=False)
        if graph.name == "anonymous":
            graph.name = path.stem
    except (AssemblerError, ValueError, OSError) as exc:
        report = Report([Diagnostic(
            rule="A000", severity=Severity.ERROR,
            message=f"cannot assemble: {exc}", source=str(path),
        )])
        return LintResult(target=str(path), report=report)
    return lint_graph(graph, target=str(path))


def resolve_targets(
    names: Iterable[str],
    scale=None,
    threads: Optional[int] = None,
) -> list[LintResult]:
    """Lint every named target; unknown names become error results."""
    from ..workloads import SUITES, WORKLOADS

    results: list[LintResult] = []
    for name in names:
        path = Path(name)
        if name in WORKLOADS:
            results.append(lint_workload(name, scale=scale,
                                         threads=threads))
        elif name in SUITES:
            for wname in SUITES[name]:
                results.append(lint_workload(wname, scale=scale,
                                             threads=threads))
        elif path.is_dir():
            files = sorted(path.rglob("*.wsasm"))
            if not files:
                results.append(LintResult(
                    target=name,
                    report=Report([Diagnostic(
                        rule="A000", severity=Severity.ERROR,
                        message="directory contains no .wsasm programs",
                        source=name,
                    )]),
                ))
            results.extend(lint_file(f) for f in files)
        elif path.is_file():
            results.append(lint_file(path))
        else:
            results.append(LintResult(
                target=name,
                report=Report([Diagnostic(
                    rule="A000", severity=Severity.ERROR,
                    message="not a workload, suite, file, or directory",
                    source=name,
                )]),
            ))
    return results


def merge_reports(results: Iterable[LintResult]) -> Report:
    merged = Report()
    for result in results:
        merged.extend(result.report.diagnostics)
    return merged
