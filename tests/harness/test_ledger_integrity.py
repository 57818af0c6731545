"""Ledger sealing, audit, and self-healing maintenance.

Covers the v2 record seal (monotonic ``seq`` + ``crc``), ``verify``'s
line-by-line audit, ``repair``'s quarantine sidecar, ``compact``'s
supersession collapse, the idempotent fsync-failure retry, and that
every consumer of the one line reader (``load``, ``verify``,
``repair``/``compact``, seq recovery) reads a damaged file the same
way.
"""

import json
import math
import os

import pytest

from repro.harness import Ledger, summarize
from repro.harness.ledger import (
    LEDGER_VERSION,
    checksum_ok,
    record_checksum,
)


def raw_lines(path):
    return [json.loads(line)
            for line in path.read_text().splitlines() if line.strip()]


# ----------------------------------------------------------------------
# Sealing
# ----------------------------------------------------------------------
def test_appended_records_are_sealed(tmp_path):
    path = tmp_path / "runs.jsonl"
    ledger = Ledger(path)
    ledger.append_many([{"hash": "aaa", "status": "ok", "aipc": 1.0},
                        {"hash": "bbb", "status": "ok", "aipc": 2.0}])
    ledger.append({"hash": "ccc", "status": "failed"})
    lines = raw_lines(path)
    assert [r["seq"] for r in lines] == [0, 1, 2]
    for record in lines:
        assert record["version"] == LEDGER_VERSION
        assert record["crc"] == record_checksum(record)
        assert checksum_ok(record)


def test_seq_continues_across_reopen(tmp_path):
    path = tmp_path / "runs.jsonl"
    Ledger(path).append({"hash": "aaa", "status": "ok"})
    reopened = Ledger(path)  # fresh instance, no in-memory state
    reopened.append({"hash": "bbb", "status": "ok"})
    assert [r["seq"] for r in raw_lines(path)] == [0, 1]


def test_highest_seq_wins_not_file_order(tmp_path):
    """``seq`` orders records, never the wall-clock ``ts``: a line
    with a *later* ts but lower seq must lose."""
    path = tmp_path / "runs.jsonl"
    stale = {"hash": "aaa", "status": "failed", "seq": 1, "ts": 99.0}
    fresh = {"hash": "aaa", "status": "ok", "seq": 2, "ts": 1.0}
    for record in (fresh, stale):  # fresh written FIRST
        record["crc"] = record_checksum(record)
    path.write_text("".join(json.dumps(r) + "\n"
                            for r in (fresh, stale)))
    assert Ledger(path).load()["aaa"]["status"] == "ok"


def test_legacy_unchecksummed_records_still_load(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_text('{"hash": "aaa", "status": "ok"}\n')
    ledger = Ledger(path)
    assert ledger.load()["aaa"]["status"] == "ok"
    assert ledger.corrupt_lines == 0
    audit = ledger.verify()
    assert audit.legacy == 1 and audit.clean


# ----------------------------------------------------------------------
# Verify: detection
# ----------------------------------------------------------------------
def seeded_ledger(path, n=3):
    ledger = Ledger(path)
    ledger.append_many([
        {"hash": f"cell{i}", "status": "ok", "aipc": float(i)}
        for i in range(n)
    ])
    return ledger


def test_verify_detects_hand_corruption(tmp_path):
    """Flip one byte inside a sealed record: load() must skip it and
    verify() must name the line."""
    path = tmp_path / "runs.jsonl"
    ledger = seeded_ledger(path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"status": "ok"', '"status": "OK"', 1)
    path.write_text("\n".join(lines) + "\n")

    records = ledger.load()
    assert set(records) == {"cell0", "cell2"}
    assert ledger.corrupt_lines == 1
    audit = ledger.verify()
    assert not audit.clean
    assert audit.crc_mismatch == 1 and audit.ok == 2
    assert [i.reason for i in audit.issues] == ["crc_mismatch"]
    assert audit.issues[0].line_no == 2
    assert summarize(records, ledger.torn_lines, ledger.corrupt_lines) \
        == {"ok": 2, "corrupt_lines": 1}


def test_verify_distinguishes_torn_from_corrupt(tmp_path):
    """Only an unterminated final line is 'torn' (killed mid-append);
    garbage mid-file is corruption."""
    path = tmp_path / "runs.jsonl"
    seeded_ledger(path, n=2)
    text = path.read_text().splitlines()
    mangled = [text[0], "NOT JSON AT ALL", text[1]]
    path.write_text("\n".join(mangled) + "\n" + '{"hash": "trunc')
    audit = Ledger(path).verify()
    assert audit.corrupt_json == 1 and audit.torn == 1
    assert audit.ok == 2 and audit.bad == 2


def test_verify_counts_superseded_and_hashless(tmp_path):
    path = tmp_path / "runs.jsonl"
    ledger = Ledger(path)
    ledger.append({"hash": "aaa", "status": "failed"})
    ledger.append({"hash": "aaa", "status": "ok"})  # supersedes
    ledger.append({"status": "ok"})  # hashless: unusable
    audit = ledger.verify()
    assert audit.superseded == 1
    assert audit.no_hash == 1 and not audit.clean
    assert audit.records == 1


# ----------------------------------------------------------------------
# Repair and compact
# ----------------------------------------------------------------------
def test_repair_quarantines_bad_lines(tmp_path):
    path = tmp_path / "runs.jsonl"
    ledger = seeded_ledger(path)
    before = summarize(ledger.load())
    lines = path.read_text().splitlines()
    lines[0] = lines[0][:20]  # mid-file truncation: corrupt JSON
    path.write_text("\n".join(lines) + "\n")

    report = ledger.repair()
    assert report.rewritten and report.quarantined == 1
    assert report.kept == 2
    sidecar = tmp_path / "runs.jsonl.quarantine"
    assert report.sidecar == str(sidecar)
    (entry,) = [json.loads(line)
                for line in sidecar.read_text().splitlines()]
    assert entry["reason"] == "corrupt_json" and entry["line_no"] == 1
    assert entry["line"].startswith('{"')

    assert ledger.verify().clean
    after = summarize(ledger.load())
    assert before == {"ok": 3} and after == {"ok": 2}
    # Repair keeps duplicates (it only removes garbage)...
    assert ledger.repair().rewritten is False  # ...and is idempotent.


def test_compact_collapses_but_preserves_summary(tmp_path):
    path = tmp_path / "runs.jsonl"
    ledger = Ledger(path)
    ledger.append({"hash": "aaa", "status": "failed",
                   "failure_class": "WatchdogTimeout"})
    ledger.append({"hash": "bbb", "status": "ok", "aipc": 2.0})
    ledger.append({"hash": "aaa", "status": "ok", "aipc": 1.0})
    before = summarize(ledger.load())

    report = ledger.compact()
    assert report.rewritten and report.collapsed == 1
    assert report.quarantined == 0
    assert len(raw_lines(path)) == 2  # exactly one line per cell
    assert summarize(ledger.load()) == before == {"ok": 2}
    # Compaction never re-seals: surviving lines are byte-identical,
    # so their checksums still verify.
    assert ledger.verify().clean
    assert not ledger.compact().rewritten  # already one line per cell


def test_clean_ledger_is_left_untouched(tmp_path):
    path = tmp_path / "runs.jsonl"
    ledger = seeded_ledger(path)
    ino = path.stat().st_ino
    report = ledger.repair()
    assert not report.rewritten and report.kept == 3
    assert path.stat().st_ino == ino  # no rewrite, same file


def test_fsync_failure_retry_is_idempotent(tmp_path, monkeypatch):
    """An fsync OSError retries the whole batch; the duplicate lines
    keep their original ``seq``, dedup on load, and collapse away."""
    path = tmp_path / "runs.jsonl"
    ledger = Ledger(path)
    real_fsync = os.fsync
    failed = {}

    def flaky_fsync(fd):
        if not failed:
            failed["fired"] = True
            raise OSError(28, "No space left on device")
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", flaky_fsync)
    ledger.append_many([{"hash": "aaa", "status": "ok"},
                        {"hash": "bbb", "status": "ok"}])
    assert ledger.append_retries == 1
    lines = raw_lines(path)
    assert len(lines) == 4  # both batches landed
    assert [r["seq"] for r in lines] == [0, 1, 0, 1]  # seq preserved
    assert set(ledger.load()) == {"aaa", "bbb"}  # dedup by hash
    assert ledger.verify().superseded == 2
    report = ledger.compact()
    assert report.collapsed == 2
    assert len(raw_lines(path)) == 2


# ----------------------------------------------------------------------
# One reader: every consumer sees the same file
# ----------------------------------------------------------------------
def sealed(seq, cell, status):
    """One sealed line as the writer would produce it (``cell=None``
    leaves the hash out)."""
    record = {"status": status, "seq": seq, "version": LEDGER_VERSION}
    if cell is not None:
        record["hash"] = cell
    record["crc"] = record_checksum(record)
    return json.dumps(record, sort_keys=True).encode()


def rot_non_utf8(line):
    """Overwrite one byte inside the line's status string with 0xff."""
    at = line.index(b'"status": "') + len(b'"status": "')
    return line[:at] + b"\xff" + line[at + 1:]


#: name -> (file lines, trailing newline?, winning status per hash)
READER_CASES = {
    "torn_tail": (
        [sealed(0, "a", "ok"), sealed(1, "b", "ok"), b'{"hash": "c", "st'],
        False, {"a": "ok", "b": "ok"},
    ),
    "mid_file_garbage": (
        [sealed(0, "a", "ok"), b"NOT JSON AT ALL", b"[1, 2]",
         sealed(1, "b", "ok")],
        True, {"a": "ok", "b": "ok"},
    ),
    "crc_mismatch": (
        [sealed(0, "a", "failed"),
         sealed(1, "a", "ok").replace(b'"ok"', b'"OK"')],
        True, {"a": "failed"},
    ),
    "non_utf8_rot": (
        [sealed(0, "a", "failed"), rot_non_utf8(sealed(1, "a", "ok"))],
        True, {"a": "failed"},
    ),
    "hashless": (
        [b'{"status": "ok"}', sealed(0, None, "ok"), sealed(1, "a", "ok")],
        True, {"a": "ok"},
    ),
    "duplicate_hash": (
        [sealed(0, "a", "failed"), sealed(1, "b", "ok"),
         sealed(2, "a", "ok"), sealed(1, "b", "ok")],
        True, {"a": "ok", "b": "ok"},
    ),
    "v1_v2_mix": (
        [b'{"hash": "a", "status": "failed"}',
         b'{"hash": "a", "status": "ok"}',
         sealed(0, "b", "ok"),
         b'{"hash": "b", "status": "failed"}',
         b'{"hash": "c", "status": "ok"}'],
        True, {"a": "ok", "b": "ok", "c": "ok"},
    ),
}


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_every_consumer_reads_the_same_ledger(tmp_path, case):
    lines, terminated, expected = READER_CASES[case]
    path = tmp_path / "runs.jsonl"
    path.write_bytes(b"\n".join(lines) + (b"\n" if terminated else b""))
    ledger = Ledger(path)

    loaded = ledger.load()
    counts = (ledger.torn_lines, ledger.corrupt_lines)
    assert {h: r["status"] for h, r in loaded.items()} == expected
    audit = ledger.verify()
    assert audit.records == len(loaded)
    assert (audit.torn + audit.corrupt_json, audit.crc_mismatch) == counts

    ledger.repair()
    assert ledger.load() == loaded
    ledger.compact()
    assert ledger.load() == loaded
    audit = ledger.verify()
    assert audit.clean and audit.superseded == 0
    assert audit.records == len(loaded)


def test_sealed_record_beats_a_later_unsealed_line(tmp_path):
    """An unsealed v1 line counts as seq -1, so it never supersedes a
    sealed record -- and compaction keeps what resume saw."""
    path = tmp_path / "runs.jsonl"
    Ledger(path).append({"hash": "aaa", "status": "ok", "aipc": 1.0})
    with path.open("a") as fh:
        fh.write('{"hash": "aaa", "status": "failed"}\n')
    ledger = Ledger(path)
    assert ledger.load()["aaa"]["status"] == "ok"
    assert ledger.verify().records == len(ledger.load()) == 1
    assert ledger.compact().collapsed == 1
    assert ledger.load()["aaa"]["status"] == "ok"


def test_non_utf8_rot_is_a_checksum_failure(tmp_path):
    """A rotted byte that is not valid UTF-8 is skipped and counted
    like any other checksum failure, never raised."""
    path = tmp_path / "runs.jsonl"
    seeded_ledger(path)
    lines = path.read_bytes().split(b"\n")
    lines[1] = rot_non_utf8(lines[1])
    path.write_bytes(b"\n".join(lines))

    ledger = Ledger(path)
    assert set(ledger.load()) == {"cell0", "cell2"}
    assert ledger.corrupt_lines == 1
    Ledger(path).append({"hash": "cell3", "status": "ok"})
    assert [i.reason for i in ledger.verify().issues] == ["crc_mismatch"]
    report = ledger.repair()
    assert report.quarantined == 1
    (entry,) = [json.loads(line) for line in
                (tmp_path / "runs.jsonl.quarantine").read_text()
                .splitlines()]
    assert entry["reason"] == "crc_mismatch" and entry["line_no"] == 2
    assert ledger.verify().clean
    assert set(ledger.load()) == {"cell0", "cell2", "cell3"}


def test_seq_recovery_counts_every_parsed_line(tmp_path):
    """The next seq is one past the highest seq on any line that
    parses as an object -- a checksum-failed line included, whether
    the first read was ``load()`` or the first ``append()``."""
    path = tmp_path / "runs.jsonl"
    path.write_bytes(b"\n".join([
        sealed(0, "a", "ok"),
        sealed(7, "b", "ok").replace(b'"ok"', b'"OK"'),
    ]) + b"\n")
    for first_read in ("load", "append"):
        ledger = Ledger(path)
        if first_read == "load":
            ledger.load()
        ledger.append({"hash": first_read, "status": "ok"})
    assert [r["seq"] for r in raw_lines(path)] == [0, 7, 8, 9]


# ----------------------------------------------------------------------
# Encoding round-trips the seal must survive
# ----------------------------------------------------------------------
def test_non_ascii_workload_name_round_trips(tmp_path):
    path = tmp_path / "runs.jsonl"
    ledger = Ledger(path)
    name = "fft-π-測試"
    ledger.append({"hash": "aaa", "status": "ok", "workload": name})
    record = Ledger(path).load()["aaa"]
    assert record["workload"] == name
    assert checksum_ok(record)
    audit = ledger.verify()
    assert audit.ok == 1 and audit.clean
    ledger.compact()
    assert Ledger(path).load()["aaa"]["workload"] == name


def test_nan_and_inf_aipc_round_trip(tmp_path):
    """Python's json emits bare ``NaN``/``Infinity`` tokens; the seal
    and both maintenance passes must keep such records verifiable
    rather than quarantining them as corrupt."""
    path = tmp_path / "runs.jsonl"
    ledger = Ledger(path)
    ledger.append_many([
        {"hash": "nan", "status": "ok", "aipc": float("nan")},
        {"hash": "inf", "status": "ok", "aipc": float("inf")},
        {"hash": "ninf", "status": "ok", "aipc": float("-inf")},
    ])
    records = Ledger(path).load()
    assert math.isnan(records["nan"]["aipc"])
    assert records["inf"]["aipc"] == float("inf")
    assert records["ninf"]["aipc"] == float("-inf")
    audit = ledger.verify()
    assert audit.ok == 3 and audit.clean
    report = ledger.repair()
    assert not report.rewritten  # nothing was mistaken for corruption
    ledger.compact()
    assert math.isnan(Ledger(path).load()["nan"]["aipc"])
