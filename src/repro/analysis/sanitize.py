"""Runtime sanitizer: ASan-style invariant checking for the simulator.

The static rules prove a program *can* run; the sanitizer watches one
actually running.  Attach a :class:`RuntimeSanitizer` to an engine
(``engine.sanitizer = RuntimeSanitizer()``, or ``sanitizer=`` through
:class:`~repro.core.processor.WaveScalarProcessor`) and it audits the
machine through cheap hooks on the engine's hot paths -- the same
duck-typed pattern as tracing, so the simulator core stays free of
analysis imports:

* **token conservation** -- every operand delivered into the fabric is
  eventually consumed by a dispatch; leftover operands and an
  unbalanced token ledger are violations,
* **matching-table leaks** -- partially filled rows surviving
  quiescence mean some token waited for a partner that never came,
* **queue bounds** -- physical structures (matching tables) must never
  hold more state than they have storage for,
* **wave retirement** -- no store-buffer operations or k-bound wave
  advances may remain parked after the calendar drains.

Violations are reported as the same
:class:`~repro.analysis.diagnostics.Diagnostic` type the static rules
emit (``S002``-``S005``; ``S001`` is retired), via
:meth:`RuntimeSanitizer.report`.  Run the engine with
``strict=False`` to get the report instead of a
:class:`~repro.sim.failures.TrueDeadlock` exception.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, Report, Severity


class RuntimeSanitizer:
    """Invariant checker wired into :class:`repro.sim.engine.Engine`.

    One instance audits one run.  All hooks are O(1); a sanitized run
    costs a few percent, an unsanitized run costs one ``is not None``
    branch per event (the idiom tracing already uses).
    """

    def __init__(self) -> None:
        # Token conservation counters.
        self.entry_tokens = 0
        self.tokens_created = 0  # operands delivered into the fabric
        self.tokens_consumed = 0  # operands consumed by dispatches
        # Structure-bound violations observed while running.
        self.table_overflows: list[tuple[int, int, int]] = []
        # Peak pressure (informational).
        self.peak_matching_rows = 0
        # Filled by finalize().
        self._diagnostics: list[Diagnostic] = []
        self._finalized = False
        self._source = ""

    # ------------------------------------------------------------------
    # Engine hooks (hot path: keep them tiny)
    # ------------------------------------------------------------------
    def note_entry(self, count: int) -> None:
        self.entry_tokens += count

    def note_created(self, count: int = 1) -> None:
        self.tokens_created += count

    def note_consumed(self, count: int) -> None:
        self.tokens_consumed += count

    def note_table_size(self, pe: int, size: int, entries: int) -> None:
        if size > self.peak_matching_rows:
            self.peak_matching_rows = size
        if size > entries:
            self.table_overflows.append((pe, size, entries))

    # ------------------------------------------------------------------
    # End-of-run audit
    # ------------------------------------------------------------------
    def finalize(self, engine) -> None:
        """Audit the drained engine; called by ``Engine.run`` once the
        event calendar empties (before the strict quiescence check)."""
        self._finalized = True
        self._source = engine.graph.name
        diags = self._diagnostics
        source = self._source

        # S002: matching-table leaks.
        leaked_rows = 0
        leaked_tokens = 0
        worst_pe, worst_rows = -1, 0
        for pe, table in enumerate(engine.matching):
            rows = table.pending_rows()
            if rows:
                leaked_rows += len(rows)
                leaked_tokens += sum(len(r.ports) for r in rows)
                if len(rows) > worst_rows:
                    worst_pe, worst_rows = pe, len(rows)
        if leaked_rows:
            diags.append(Diagnostic(
                rule="S002", severity=Severity.ERROR,
                message=(
                    f"matching-table leak: {leaked_rows} partial rows "
                    f"({leaked_tokens} operands) survive quiescence; "
                    f"worst pe{worst_pe} with {worst_rows} rows"
                ),
                source=source, location=f"pe{worst_pe}",
                hint="each leaked row is a token whose partner never "
                     "arrived",
            ))
        ifetch_parked = sum(len(q) for q in engine._ifetch.values())
        if ifetch_parked:
            diags.append(Diagnostic(
                rule="S002", severity=Severity.ERROR,
                message=(
                    f"{ifetch_parked} tokens still parked behind "
                    "instruction fetches that never completed"
                ),
                source=source, location="istore",
            ))

        # S003: structure overflow (more state than storage).
        if self.table_overflows:
            pe, size, entries = self.table_overflows[0]
            diags.append(Diagnostic(
                rule="S003", severity=Severity.ERROR,
                message=(
                    f"queue bound violated {len(self.table_overflows)} "
                    f"time(s): matching table held {size} rows with "
                    f"capacity {entries} (first at pe{pe})"
                ),
                source=source, location=f"pe{pe}",
                hint="engine bug: eviction must keep occupancy within "
                     "the configured M",
            ))

        # S004: wave retirement.
        kbound = sum(len(s) for s in engine._kbound_stalls.values())
        if kbound:
            diags.append(Diagnostic(
                rule="S004", severity=Severity.ERROR,
                message=(
                    f"{kbound} k-bound wave advances still stalled at "
                    "quiescence; their waves never retired"
                ),
                source=source, location="kbound",
            ))
        for sb in engine.storebuffers:
            stuck = sb.stuck_report()
            if stuck:
                diags.append(Diagnostic(
                    rule="S004", severity=Severity.ERROR,
                    message=(
                        "store buffer retains unretired memory "
                        f"operations: {stuck.strip()}"
                    ),
                    source=source, location=f"sb{sb.cluster}",
                ))

        # S005: the conservation ledger must balance:
        #   entry + created == consumed + leaked(tokens) + parked.
        produced = self.entry_tokens + self.tokens_created
        accounted = self.tokens_consumed + leaked_tokens + ifetch_parked
        if produced != accounted:
            diags.append(Diagnostic(
                rule="S005", severity=Severity.ERROR,
                message=(
                    f"token ledger imbalance: {produced} produced "
                    f"({self.entry_tokens} entry + {self.tokens_created} "
                    f"delivered) vs {accounted} accounted "
                    f"({self.tokens_consumed} consumed + {leaked_tokens} "
                    f"leaked + {ifetch_parked} parked)"
                ),
                source=source, location="ledger",
                hint="engine bug: a token was double-counted or lost",
            ))
        diags.append(Diagnostic(
            rule="S005", severity=Severity.INFO,
            message=(
                f"token ledger: {self.entry_tokens} entry + "
                f"{self.tokens_created} delivered, "
                f"{self.tokens_consumed} consumed; peak matching "
                f"occupancy {self.peak_matching_rows} rows"
            ),
            source=source,
        ))

    # ------------------------------------------------------------------
    @property
    def violations(self) -> list[Diagnostic]:
        return [d for d in self._diagnostics
                if d.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        """True when the audited run upheld every invariant."""
        return self._finalized and not self.violations

    def report(self) -> Report:
        """The audit as a :class:`Report` (empty until the run ends)."""
        return Report(list(self._diagnostics))
