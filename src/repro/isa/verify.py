"""Semantic verification of dataflow graphs (raising wrapper).

The checks themselves live in the pluggable rule engine of
:mod:`repro.analysis` (rules ``G000``-``G011``): every non-entry input
port fed, consistent wave partial orders, predicate provenance, and
more.  This module keeps the historical raise-on-first-error API that
the toolchain (:meth:`GraphBuilder.finalize`, the assembler) and tests
rely on: :func:`verify_graph` runs the full graph registry and raises
:class:`GraphVerificationError` for the first error-level diagnostic.

Use :func:`repro.analysis.analyze_graph` directly to collect *all*
diagnostics (including warnings) instead of failing fast.
"""

from __future__ import annotations

from .graph import DataflowGraph


class GraphVerificationError(ValueError):
    """Raised when a dataflow graph fails semantic verification."""


def verify_graph(graph: DataflowGraph) -> None:
    """Run all semantic checks; raise :class:`GraphVerificationError`.

    Structural validation (``graph.validate()``) runs first, as rule
    ``G000``.  A program without OUTPUT instructions passes (``G011``
    is a warning); a caller that needs observable results checks
    ``graph.output_instruction_ids()``.
    """
    from ..analysis import analyze_graph

    report = analyze_graph(graph)
    errors = report.errors
    if errors:
        first = errors[0]
        prefix = f"{first.source}: " if first.source else ""
        raise GraphVerificationError(f"{prefix}{first.message}")
