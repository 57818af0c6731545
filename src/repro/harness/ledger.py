"""Append-only JSONL checkpointing for sweeps, with self-healing.

Every completed cell -- success or classified failure -- becomes one
JSON line keyed by the cell's content hash.  Appends are flushed and
fsynced, so a SIGKILL of the driver loses at most the line being
written; :meth:`Ledger.load` tolerates a truncated final line for
exactly that reason.  Resuming a sweep is then just "skip every cell
whose hash already has a record".

Integrity: every appended record is *sealed* -- the single writer
assigns a monotonic ``seq`` number, stamps the schema ``version``,
and attaches a CRC32 ``crc`` over the record's canonical JSON.  A
record whose bytes rot (bad disk, torn write landing mid-file, a
stray editor) fails its checksum and is skipped by :meth:`load` and
quarantined by :meth:`repair` instead of being silently trusted.
``seq`` is what orders records: the wall-clock ``ts`` field is kept
for humans only (see :meth:`record_for`).

Reading: the file is read one way.  One line reader classifies every
line and one winner rule picks the record per cell hash; ``load``,
``verify``, ``repair``/``compact`` and the first ``append`` (which
recovers the next ``seq``) are all consumers of it, so no two of
them can disagree about what the ledger says.

Maintenance: :meth:`verify` audits the file line by line,
:meth:`repair` rewrites it with corrupt lines moved to a
``.quarantine`` sidecar (reason attached), and :meth:`compact`
additionally collapses superseded records (every record of a hash
but its winner).  Both rewrites go through an atomic temp-file rename, so
a crash mid-maintenance leaves either the old file or the new one --
never a half-written ledger.

Concurrency contract: the ledger has exactly ONE writer -- the sweep
driver.  Isolation children (see :mod:`repro.harness.scheduler`) never
touch the file; they send verdicts back over their pipes and the driver
appends them, batched through :meth:`Ledger.append_many` so a drain of
N results costs one write + one fsync instead of N.  An append whose
``fsync`` fails (disk full, dying device) is retried once by
re-appending the whole batch: that is safe because :meth:`load`
deduplicates by hash and :meth:`compact` collapses the duplicates, so
at-least-once delivery is idempotent.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional

from .spec import CellSpec

#: Record schema version, bumped on incompatible changes.
#: v1: bare records; v2: sealed records (``seq`` + ``crc``).
LEDGER_VERSION = 2


def _canonical(record: dict) -> bytes:
    """The canonical byte serialisation a record's CRC covers: every
    field except ``crc`` itself, sorted keys, tight separators."""
    body = {k: v for k, v in record.items() if k != "crc"}
    return json.dumps(
        body, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def record_checksum(record: dict) -> int:
    """CRC32 over the record's canonical JSON (non-ASCII workload
    names and NaN/Inf values included -- whatever ``json`` emits is
    what the checksum covers)."""
    return zlib.crc32(_canonical(record)) & 0xFFFFFFFF


def checksum_ok(record: dict) -> bool:
    """Whether a parsed record's ``crc`` matches its content.
    Records without a ``crc`` (schema v1) are accepted as unverified
    -- old ledgers stay readable."""
    crc = record.get("crc")
    if crc is None:
        return True
    return crc == record_checksum(record)


# The six record statuses, written only by the builders below, and the
# rules every reader applies to them (DESIGN.md section 5l).  Plain
# strings, not an Enum: a ``(str, Enum)`` member formats as its
# qualified name in an f-string on 3.11+ (the ``cells_<status>`` names).
OK = "ok"  # simulated, outputs checked: a measurement
FAILED = "failed"  # simulated to a classified failure, retries spent
POISONED = "poisoned"  # crashed its worker past the circuit breaker
INVALID = "invalid"  # rejected by the static config rules, never run
PRUNED_STATIC = "pruned_static"  # skipped on its static AIPC bound
PREDICTED = "predicted"  # skipped on the surrogate's upper interval
#: Could not finish: zero, as a lane's last cell and a training target.
ZERO_SCORED = (FAILED, POISONED)
#: Skips, scored optimistically: the lane's score is an upper bound.
SKIPPED = (PRUNED_STATIC, PREDICTED)


def training_target(status, aipc) -> Optional[float]:
    """What a record trains the surrogate on: its AIPC when ``ok``,
    zero when zero-scored, no row (``None``) otherwise."""
    if status == OK:
        return float(aipc or 0.0)
    return 0.0 if status in ZERO_SCORED else None


def _record_header(spec: CellSpec, status: str, attempts: int = 0,
                   retries: int = 0, wall_s: float = 0.0) -> dict:
    """The fields every record builder starts from.  The defaults are
    those of a cell no subprocess ever ran."""
    return {
        "version": LEDGER_VERSION,
        "hash": spec.cell_hash(),
        "status": status,
        "workload": spec.workload,
        "config": spec.config.describe(),
        "threads": spec.threads,
        "attempts": attempts,
        "retries": retries,
        "wall_s": wall_s,
        # selflint: allow(D001) human-facing only, never compared
        "ts": time.time(),
        "spec": spec.as_dict(),
    }


@dataclass
class LineIssue:
    """One problematic ledger line found by :meth:`Ledger.verify`."""

    line_no: int  # 1-based
    reason: str  # "torn" | "corrupt_json" | "crc_mismatch" | "no_hash"
    preview: str  # first bytes of the offending line

    def render(self) -> str:
        return f"line {self.line_no}: {self.reason} ({self.preview!r})"


@dataclass
class LedgerAudit:
    """The verdict of :meth:`Ledger.verify` over one ledger file."""

    lines: int = 0  # non-empty lines seen
    ok: int = 0  # sealed records whose checksum verified
    legacy: int = 0  # v1 records without a checksum (accepted)
    torn: int = 0  # truncated final line (killed mid-append)
    corrupt_json: int = 0  # unparseable line with a newline
    crc_mismatch: int = 0  # parseable record failing its checksum
    no_hash: int = 0  # parseable record without a cell hash
    records: int = 0  # distinct cell hashes among good lines
    superseded: int = 0  # good lines shadowed by a later record
    issues: list[LineIssue] = field(default_factory=list)

    @property
    def bad(self) -> int:
        return (self.torn + self.corrupt_json + self.crc_mismatch
                + self.no_hash)

    @property
    def clean(self) -> bool:
        return self.bad == 0

    def summary(self) -> str:
        text = (
            f"{self.lines} line(s): {self.ok} ok, {self.legacy} "
            f"unchecksummed, {self.superseded} superseded, "
            f"{self.records} distinct cell(s)"
        )
        if self.bad:
            text += (
                f"; {self.bad} BAD ({self.torn} torn, "
                f"{self.corrupt_json} corrupt, {self.crc_mismatch} "
                f"checksum mismatch, {self.no_hash} hashless)"
            )
        return text


@dataclass
class MaintenanceReport:
    """What :meth:`Ledger.repair` / :meth:`Ledger.compact` did."""

    action: str  # "repair" | "compact"
    kept: int = 0  # lines surviving the rewrite
    quarantined: int = 0  # bad lines moved to the sidecar
    collapsed: int = 0  # superseded records dropped (compact only)
    rewritten: bool = False  # False when the file was already clean
    sidecar: Optional[str] = None  # quarantine path when lines moved

    def summary(self) -> str:
        text = f"{self.action}: kept {self.kept} line(s)"
        if self.quarantined:
            text += f", quarantined {self.quarantined} -> {self.sidecar}"
        if self.collapsed:
            text += f", collapsed {self.collapsed} superseded"
        if not self.rewritten:
            text += " (ledger already clean; file untouched)"
        return text


#: One line as the reader yields it: ``(line_no, text, record,
#: problem)``, see :meth:`Ledger._lines`.
Line = tuple[int, str, Optional[dict], Optional[str]]


class Ledger:
    """One results ledger file (created lazily on first append)."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        #: Torn (truncated / non-JSON) lines seen by the last full
        #: read of the file; a healthy ledger has zero.
        self.torn_lines = 0
        #: Parseable records that failed their checksum on the last
        #: full read -- corruption, not a torn write.
        self.corrupt_lines = 0
        #: Append batches re-written after an ``OSError`` (fsync
        #: failure / disk full); the retry is idempotent by hash.
        self.append_retries = 0
        # Monotonic sequence assignment (single-writer); recovered
        # from the file by the first full read (see ``_lines``).
        self._next_seq: Optional[int] = None

    # ------------------------------------------------------------------
    # The one reader and the one winner rule
    # ------------------------------------------------------------------
    def _lines(self) -> Iterator[Line]:
        """Stream the file and yield ``(line_no, text, record,
        problem)`` for every non-empty line.

        ``record`` is the parsed JSON object, ``None`` when the line is
        not one.  ``problem`` is ``None`` for a usable line, otherwise
        a :class:`LineIssue` reason: ``torn`` for an unterminated final
        line that does not parse (killed mid-append), ``corrupt_json``
        for any other line that does not parse to an object, then
        ``crc_mismatch`` and ``no_hash``.  Bytes are decoded with
        ``errors="replace"``, so rot that is not valid UTF-8 surfaces
        as a checksum failure, never as an exception.

        A complete pass also recovers the next ``seq``: one past the
        highest ``seq`` on any line that parses as an object.
        """
        max_seq = -1
        if self.path.exists():
            with self.path.open("rb") as fh:
                for line_no, raw in enumerate(fh, 1):
                    text = raw.decode("utf-8", errors="replace").strip()
                    if not text:
                        continue
                    try:
                        record = json.loads(text)
                    except json.JSONDecodeError:
                        record = None
                    if not isinstance(record, dict):
                        problem = ("corrupt_json" if raw.endswith(b"\n")
                                   else "torn")
                        yield line_no, text, None, problem
                        continue
                    seq = record.get("seq")
                    if seq is not None and seq > max_seq:
                        max_seq = seq
                    if not checksum_ok(record):
                        problem = "crc_mismatch"
                    elif not record.get("hash"):
                        problem = "no_hash"
                    else:
                        problem = None
                    yield line_no, text, record, problem
        if self._next_seq is None or max_seq >= self._next_seq:
            self._next_seq = max_seq + 1

    def _tally(
        self, lines: Iterable[Line], pick: Callable[[int, dict], Any],
    ) -> tuple[LedgerAudit, dict[str, Any]]:
        """Audit reader output and pick the winner per cell hash.

        Among usable lines the highest ``(seq, line_no)`` wins, an
        unsealed record counting as seq -1: a sealed record beats
        every v1 line, and v1 lines fall back to file order.  Returns
        the audit and ``hash -> pick(line_no, record)`` of each winner
        in first-seen hash order.  Leaves the line counts on
        :attr:`torn_lines` / :attr:`corrupt_lines`.
        """
        audit = LedgerAudit()
        keys: dict[str, tuple] = {}
        winners: dict[str, Any] = {}
        for line_no, text, record, problem in lines:
            audit.lines += 1
            if record is not None and problem != "crc_mismatch":
                if "crc" in record:
                    audit.ok += 1
                else:
                    audit.legacy += 1
            if problem is not None:
                setattr(audit, problem, getattr(audit, problem) + 1)
                audit.issues.append(LineIssue(line_no, problem, text[:48]))
                continue
            assert record is not None
            cell = record["hash"]
            seq = record.get("seq")
            key = (-1 if seq is None else seq, line_no)
            if cell not in keys or key > keys[cell]:
                keys[cell] = key
                winners[cell] = pick(line_no, record)
        audit.records = len(winners)
        audit.superseded = (audit.ok + audit.legacy - audit.no_hash
                            - audit.records)
        self.torn_lines = audit.torn + audit.corrupt_json
        self.corrupt_lines = audit.crc_mismatch
        return audit, winners

    # ------------------------------------------------------------------
    def load(self) -> dict[str, dict]:
        """All usable records keyed by cell hash, one winner per hash
        (see :meth:`_tally`).  A torn or unparseable line counts on
        :attr:`torn_lines`, a failed checksum on
        :attr:`corrupt_lines`, and neither is returned."""
        return self._tally(self._lines(), lambda _, record: record)[1]

    # ------------------------------------------------------------------
    def _seal(self, record: dict) -> None:
        """Assign the next monotonic ``seq``, stamp the schema
        version, and attach the checksum.  Re-sealing an already
        sealed record (the idempotent fsync-failure retry path) keeps
        its ``seq`` so the duplicate collapses cleanly."""
        if "seq" not in record:
            assert self._next_seq is not None
            record["seq"] = self._next_seq
            self._next_seq += 1
        record["version"] = LEDGER_VERSION
        record["crc"] = record_checksum(record)

    def append(self, record: dict) -> None:
        self.append_many((record,))

    def append_many(self, records: Iterable[dict]) -> None:
        """Append a batch of sealed records with ONE write + flush +
        fsync.

        The parallel driver's result-drain loop lands several verdicts
        per wakeup; batching them keeps the fsync cost per drained
        batch constant while every line is still durable before the
        call returns.  An ``OSError`` anywhere in the write/fsync path
        (disk full, failing device) is retried once by re-appending
        the whole batch -- safe because resume deduplicates by hash
        and ``compact`` collapses the duplicate lines.
        """
        records = list(records)
        if not records:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self._next_seq is None:
            for _ in self._lines():  # recovers the next seq
                pass
        for record in records:
            self._seal(record)
        try:
            self._write_batch(records)
        except OSError:
            self.append_retries += 1
            self._write_batch(records)

    def _write_batch(self, records: list[dict]) -> None:
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write("".join(
                json.dumps(record, sort_keys=True) + "\n"
                for record in records
            ))
            fh.flush()
            os.fsync(fh.fileno())

    # ------------------------------------------------------------------
    # Integrity: verify / repair / compact
    # ------------------------------------------------------------------
    def verify(self) -> LedgerAudit:
        """Audit every line: parseability, checksum, hash presence,
        and supersession.  Pure read -- the file is never modified."""
        return self._tally(self._lines(), lambda *_: None)[0]

    def repair(self) -> MaintenanceReport:
        """Quarantine every bad line (torn, corrupt, failed checksum,
        hashless) into ``<path>.quarantine`` with its reason, and
        rewrite the ledger with only verifiable lines -- atomically,
        via temp-file rename.  A clean ledger is left untouched."""
        return self._rewrite(collapse=False)

    def compact(self) -> MaintenanceReport:
        """Repair plus collapse: every record but its hash's winner is
        dropped, leaving exactly one line per cell -- the very record
        :meth:`load` returned before.  Crash-consistent: the new file
        is written beside the old one, fsynced, and renamed over it in
        one atomic step."""
        return self._rewrite(collapse=True)

    def _rewrite(self, collapse: bool) -> MaintenanceReport:
        report = MaintenanceReport(
            action="compact" if collapse else "repair")
        lines = list(self._lines())
        audit, winners = self._tally(lines, lambda line_no, _: line_no)
        if audit.clean and not (collapse and audit.superseded):
            report.kept = audit.lines
            return report
        winning = set(winners.values())
        kept = [
            text for line_no, text, _, problem in lines
            if problem is None and (not collapse or line_no in winning)
        ]
        if collapse:
            report.collapsed = audit.superseded
        # Quarantine sidecar first (so a crash between the two writes
        # can only duplicate evidence, never lose it), then the
        # atomic ledger rewrite.
        if audit.issues:
            sidecar = self.path.with_suffix(
                self.path.suffix + ".quarantine"
            )
            with sidecar.open("a", encoding="utf-8") as fh:
                for line_no, text, _, problem in lines:
                    if problem is None:
                        continue
                    fh.write(json.dumps({
                        "reason": problem,
                        "line_no": line_no,
                        # selflint: allow(D001) forensic stamp only
                        "quarantined_ts": time.time(),
                        "line": text,
                    }, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            report.sidecar = str(sidecar)
            report.quarantined = len(audit.issues)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=self.path.name + ".",
            suffix=".tmp",
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for text in kept:
                    fh.write(text + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        dir_fd = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        report.kept = len(kept)
        report.rewritten = True
        return report

    # ------------------------------------------------------------------
    @staticmethod
    def record_for(spec: CellSpec, result) -> dict:
        """Serialise a supervisor :class:`~repro.harness.supervisor
        .CellResult` into one ledger record.

        Clock discipline: ``ts`` is wall-clock epoch seconds
        (``time.time()``) recorded for humans reading the file -- it
        can jump under NTP steps and must never order records (that is
        what the append-assigned ``seq`` is for).  ``wall_s`` is the
        cell's duration measured by the supervisor on the *monotonic*
        clock, immune to wall-clock adjustments; the two deliberately
        come from different clocks and cannot be compared.
        """
        record = _record_header(
            spec, result.status, result.attempts, result.retries,
            round(result.wall_s, 3),
        )
        if result.status == OK:
            record.update(result.outcome)  # its status is OK too
        else:
            record["failure_class"] = result.failure_class
            record["failure_detail"] = result.failure_detail
            if result.diagnostics is not None:
                record["diagnostics"] = result.diagnostics
        if result.backend is not None:
            # The backend *requested* for the campaign: a pure
            # function of the campaign arguments -- never a scheduling
            # dynamic -- so records stay identical across jobs values
            # and batch interleavings.
            record["backend"] = result.backend
        # Every record carries a metrics block (see repro.obs.metrics):
        # successful cells get theirs from the outcome payload; failed
        # cells still record the wall time they burned, so campaign
        # aggregation accounts for failures too.
        metrics = dict(record.get("metrics") or {})
        metrics.setdefault("wall_s", round(result.wall_s, 6))
        record["metrics"] = metrics
        return record

    @staticmethod
    def record_invalid(spec: CellSpec, diagnostics) -> dict:
        """Serialise a statically rejected cell: the pre-validation
        stage found the configuration unrealizable, so no subprocess
        ever ran (``attempts == 0``).  ``diagnostics`` is a list of
        :class:`~repro.analysis.Diagnostic` objects."""
        first = diagnostics[0] if diagnostics else None
        return _record_header(spec, INVALID) | {
            "failure_class": "ConfigRuleViolation",
            "failure_detail": first.message if first else "",
            "diagnostics": [d.to_dict() for d in diagnostics],
        }

    @staticmethod
    def record_pruned(spec: CellSpec, bound) -> dict:
        """Serialise a statically pruned cell: the bound-driven sweep
        proved this cell cannot lift its design onto the Pareto
        frontier, so no subprocess ever ran (``attempts == 0``).

        ``bound`` is the cell's
        :class:`~repro.analysis.dataflow.BoundReport`; its AIPC upper
        bound travels with the record so resume and aggregation can
        substitute it for the unmeasured cell (the mixed aggregate
        stays an upper bound on the true one, which is the pruning
        soundness argument -- see DESIGN.md section 5h).
        """
        return _record_header(spec, PRUNED_STATIC) | {
            "aipc_bound": round(bound.aipc_bound, 6),
            "cycles_lower_bound": bound.cycles_lower_bound,
            "binding_roof": bound.binding_roof,
            "components": {
                name: round(value, 6)
                for name, value in sorted(bound.components.items())
            },
        }

    @staticmethod
    def record_predicted(spec: CellSpec, bound, prediction) -> dict:
        """Serialise a surrogate-skipped cell: the active-learning
        sweep proved (via the sound static bound) that this cell
        cannot move the Pareto frontier, so no subprocess ever ran
        (``attempts == 0``), and the surrogate model's prediction is
        recorded in place of a measurement.

        ``bound`` is the cell's
        :class:`~repro.analysis.dataflow.BoundReport`; the upper
        interval of ``prediction`` (a
        :class:`~repro.surrogate.CellPrediction`) is already clipped
        to its sound ``aipc_bound``.  Aggregation substitutes that
        *frozen* upper interval -- the exact optimistic value the skip
        decision compared against the measured incumbent -- so the
        skip replays identically on resume and a retrained model can
        never lift a skipped design onto the frontier (DESIGN.md
        section 5k).  The point estimate, interval, and model hash
        travel with the record so reports can separate predicted from
        measured cells and the calibration gate can audit the model
        that made each call.  A resumed campaign *without*
        ``--surrogate`` re-runs these cells (the superseding
        measurement wins by ``seq``).
        """
        return _record_header(spec, PREDICTED) | {
            "aipc_bound": round(bound.aipc_bound, 6),
            "cycles_lower_bound": bound.cycles_lower_bound,
            "binding_roof": bound.binding_roof,
            "aipc_predicted": round(prediction.aipc, 6),
            "aipc_interval": [
                round(prediction.lo, 6), round(prediction.hi, 6)
            ],
            "model_hash": prediction.model_hash,
        }


def summarize(
    records: dict[str, dict],
    torn_lines: int = 0,
    corrupt_lines: int = 0,
) -> dict[str, int]:
    """Status counts over a loaded ledger (for reports and tests).

    ``torn_lines`` / ``corrupt_lines`` (as counted by
    :meth:`Ledger.load`) are surfaced under their own keys when
    non-zero, so resume diagnostics can report corruption instead of
    silently dropping it.
    """
    counts: dict[str, int] = {}
    for record in records.values():
        status = record.get("status", "?")
        counts[status] = counts.get(status, 0) + 1
    if torn_lines:
        counts["torn_lines"] = torn_lines
    if corrupt_lines:
        counts["corrupt_lines"] = corrupt_lines
    return counts
