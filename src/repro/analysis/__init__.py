"""Static analysis and runtime sanitizing for dataflow programs.

The paper's Pareto study trusts two inputs: that the WaveScalar
programs fed to the simulator are well-formed, and that each swept
configuration is physically realizable under the Table 3 area model
and the 20 FO4 clock.  This package checks both *before* cycles are
spent:

* :func:`analyze_graph` -- rule-based static analysis of a
  :class:`~repro.isa.graph.DataflowGraph` (never-firing inputs, dead
  code, wave-order violations, predicate misuse, fan-out and
  matching-pressure hazards),
* :func:`analyze_config` -- legality checks on a
  :class:`~repro.core.config.WaveScalarConfig` (area budget, timing
  target, cache/store-buffer geometry),
* :class:`RuntimeSanitizer` -- opt-in runtime invariant auditing of a
  simulation (token conservation, matching-table leaks, queue bounds),

all reporting through one :class:`Diagnostic` type.  The ``repro
lint`` CLI command and the sweep harness's pre-validation stage are
thin wrappers over this package; new rules plug in via
:func:`repro.analysis.engine.rule`.
"""

from .dataflow import (
    BoundReport,
    Interval,
    TokenFlow,
    WorkloadStatics,
    analyze_tokens,
    bound_for_cell,
    compute_bound,
    graph_statics,
    workload_statics,
)
from .diagnostics import Diagnostic, Report, Severity
from .engine import (
    CONFIG_RULES,
    GRAPH_RULES,
    Rule,
    analyze_config,
    analyze_graph,
    register,
    rule,
)
from .lint import (
    LintResult,
    lint_config,
    lint_file,
    lint_graph,
    lint_workload,
    merge_reports,
    resolve_targets,
)
from .sanitize import RuntimeSanitizer

__all__ = [
    "BoundReport",
    "Interval",
    "TokenFlow",
    "WorkloadStatics",
    "analyze_tokens",
    "bound_for_cell",
    "compute_bound",
    "graph_statics",
    "workload_statics",
    "Diagnostic",
    "Report",
    "Severity",
    "Rule",
    "rule",
    "register",
    "GRAPH_RULES",
    "CONFIG_RULES",
    "analyze_graph",
    "analyze_config",
    "LintResult",
    "lint_graph",
    "lint_config",
    "lint_workload",
    "lint_file",
    "resolve_targets",
    "merge_reports",
    "RuntimeSanitizer",
]
