"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list(capsys):
    code, out = run_cli(capsys, "list")
    assert code == 0
    for name in ("gzip", "fft", "rawdaudio"):
        assert name in out


def test_run_single_threaded(capsys):
    code, out = run_cli(capsys, "run", "-w", "mcf", "--scale", "tiny")
    assert code == 0
    assert "AIPC" in out
    assert "outputs:" in out


def test_run_multithreaded(capsys):
    code, out = run_cli(
        capsys, "run", "-w", "radix", "--scale", "tiny", "--threads", "2",
        "--clusters", "2", "--domains", "4",
    )
    assert code == 0
    assert "AIPC" in out


STUCK = ("-w", "djpeg", "--scale", "tiny", "-V", "16", "-M", "16")


def test_run_names_the_fixed_point_behind_a_budget_failure(capsys):
    code = main(["run", *STUCK])
    err = capsys.readouterr().err
    assert code == 1
    assert "CycleBudgetExhausted: djpeg: exceeded 20000000 cycles" in err
    assert ("deflection fixed point since cycle 406: 1 token, "
            "no budget can finish this cell") in err


def test_trace_names_the_fixed_point_and_still_prints_events(capsys):
    # The trace sees every bounce (no jump), the cause is named anyway.
    code = main(["trace", *STUCK, "--events", "2", "--limit", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert "deflection fixed point since cycle 406" in captured.err
    assert "showing 2 of 10 events" in captured.out
    assert "events DROPPED" in captured.out


def test_area(capsys):
    code, out = run_cli(capsys, "area", "--clusters", "4", "--l2-mb", "1")
    assert code == 0
    assert "total" in out
    assert "mm2" in out
    assert "FO4" in out


def test_designs(capsys):
    code, out = run_cli(capsys, "designs")
    assert code == 0
    assert "viable designs" in out
    assert "C16" in out


def test_designs_with_a_ratio_no_grid_point_has(capsys):
    code, out = run_cli(capsys, "designs", "--ratio", "0.3")
    assert code == 0
    assert out == "0 viable designs (virtualization ratio 0.3):\n"


def test_trace(capsys):
    code, out = run_cli(
        capsys, "trace", "-w", "gzip", "--scale", "tiny", "--events", "10"
    )
    assert code == 0
    assert "dispatch" in out
    assert "showing 10 of" in out


def test_trace_reports_dropped_events(capsys):
    code, out = run_cli(
        capsys, "trace", "-w", "gzip", "--scale", "tiny",
        "--events", "5", "--limit", "40",
    )
    assert code == 0
    assert "DROPPED" in out
    assert "limit 40" in out
    assert "policy drop_newest" in out
    assert "only the first 40 were kept" in out


def test_trace_drop_oldest_policy(capsys):
    code, out = run_cli(
        capsys, "trace", "-w", "gzip", "--scale", "tiny",
        "--events", "5", "--limit", "40", "--policy", "drop-oldest",
    )
    assert code == 0
    assert "policy drop_oldest" in out
    assert "only the last 40 were kept" in out


def test_run_trace_out_writes_chrome_trace(capsys, tmp_path):
    import json

    path = tmp_path / "trace.json"
    code, out = run_cli(
        capsys, "run", "-w", "mcf", "--scale", "tiny",
        "--trace-out", str(path),
    )
    assert code == 0
    assert "chrome trace:" in out
    assert "perfetto" in out
    document = json.loads(path.read_text())
    assert document["traceEvents"]
    assert document["metadata"]["events_dropped"] == 0


def test_run_profile_renders_phase_table(capsys):
    code, out = run_cli(
        capsys, "run", "-w", "mcf", "--scale", "tiny", "--profile",
    )
    assert code == 0
    assert "hot-loop phase profile:" in out
    for phase in ("input", "match", "dispatch", "execute", "deliver"):
        assert phase in out


def test_stats_command(capsys, tmp_path):
    ledger = tmp_path / "runs.jsonl"
    code, _ = run_cli(
        capsys, "sweep", "--suite", "spec", "--sample", "40",
        "--scale", "tiny", "--ledger", str(ledger),
    )
    assert code == 0
    code, out = run_cli(capsys, "stats", str(ledger))
    assert code == 0
    assert "sweep metrics:" in out
    assert "cells_total" in out
    assert "dispatches" in out
    assert "cell_wall_s" in out


def test_stats_json_mode(capsys, tmp_path):
    import json

    ledger = tmp_path / "runs.jsonl"
    run_cli(
        capsys, "sweep", "--suite", "spec", "--sample", "40",
        "--scale", "tiny", "--ledger", str(ledger),
    )
    code, out = run_cli(capsys, "stats", str(ledger), "--json")
    assert code == 0
    document = json.loads(out)
    assert document["counters"]["cells_total"] > 0
    assert "ok" in document["statuses"]


def test_stats_missing_ledger_fails(capsys, tmp_path):
    code = main(["stats", str(tmp_path / "nope.jsonl")])
    assert code == 2


def test_sweep_progress_prints_throughput(capsys, tmp_path):
    code, out = run_cli(
        capsys, "sweep", "--suite", "spec", "--sample", "40",
        "--scale", "tiny", "--progress",
    )
    assert code == 0
    assert "cells/s" in out
    assert "throughput:" in out
    assert "scheduler:" in out


def test_sweep_small_sample(capsys):
    code, out = run_cli(
        capsys, "sweep", "--suite", "spec", "--sample", "30",
        "--scale", "tiny",
    )
    assert code == 0
    assert "Pareto frontier" in out
    assert "AIPC" in out


def test_sweep_banner_says_what_runs(capsys):
    """--prune/--surrogate measure one lane at a time whatever --jobs
    says, so the banner must not promise a worker pool."""
    code, out = run_cli(
        capsys, "sweep", "--suite", "spec", "--sample", "40",
        "--scale", "tiny", "--jobs", "4", "--prune",
    )
    assert code == 0
    banner = out.splitlines()[0]
    assert "serial: skip decisions are sequential" in banner
    assert "4 jobs" not in banner
    assert "scheduler: 1 worker(s)" in out


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "-w", "doom"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def assert_usage_error(capsys, argv, message):
    """argparse rejects ``argv`` before anything runs: exit 2, and the
    only ``error:`` line on stderr is the subcommand's ``message``."""
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert errors == [f"repro {argv[0]}: error: {message}"]


@pytest.mark.parametrize("command", ["sweep", "report", "chaos"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_sample_stride_must_be_positive(capsys, command, value):
    assert_usage_error(capsys, (command, "--sample", value),
                       "argument --sample: must be >= 1")


@pytest.mark.parametrize("argv,message", [
    (("sweep", "--jobs", "-2"), "argument --jobs/-j: must be >= 0"),
    (("chaos", "--jobs", "-2"), "argument --jobs/-j: must be >= 0"),
    (("sweep", "--batch-width", "0"),
     "argument --batch-width: must be >= 1"),
    (("sweep", "--sample", "x"),
     "argument --sample: invalid int value: 'x'"),
])
def test_out_of_range_counts_rejected(capsys, argv, message):
    assert_usage_error(capsys, argv, message)


def test_jobs_zero_still_means_one_per_core():
    assert build_parser().parse_args(["sweep", "--jobs", "0"]).jobs == 0


@pytest.mark.parametrize("argv", [
    ("area",), ("run", "-w", "mcf"), ("trace", "-w", "mcf"),
    ("analyze", "-w", "mcf"), ("lint", "mcf", "--check-config"),
])
@pytest.mark.parametrize("flag,message", [
    ("--clusters", "need at least one cluster"),
    ("--pes", "PEs per domain must be 1..8 (RTL limit)"),
])
def test_impossible_config_is_a_usage_error(capsys, argv, flag, message):
    assert_usage_error(capsys, (*argv, flag, "0"), message)


def test_characterize(capsys):
    code, out = run_cli(capsys, "characterize", "--suite", "media")
    assert code == 0
    assert "djpeg" in out and "mem/alpha" in out


def test_tune(capsys):
    code, out = run_cli(capsys, "tune", "-w", "mcf")
    assert code == 0
    assert "k_opt=" in out and "ratio" in out


def test_sweep_save(capsys, tmp_path):
    out_file = tmp_path / "sweep.json"
    code, out = run_cli(
        capsys, "sweep", "--suite", "spec", "--sample", "40",
        "--scale", "tiny", "--save", str(out_file),
    )
    assert code == 0
    from repro.design import load_points

    points, meta = load_points(out_file)
    assert points and meta["suite"] == "spec"


def test_run_tensor_workload(capsys):
    code, out = run_cli(capsys, "run", "-w", "gemm_os", "--scale", "tiny")
    assert code == 0
    assert "AIPC" in out


def test_characterize_tensor_suite(capsys):
    code, out = run_cli(capsys, "characterize", "--suite", "tensor")
    assert code == 0
    for name in ("gemm_os", "gemm_ws", "gemm_is", "conv3x3"):
        assert name in out


def test_report_command(capsys, tmp_path):
    out_file = tmp_path / "report.md"
    code, out = run_cli(
        capsys, "report", "--sample", "40", "-o", str(out_file)
    )
    assert code == 0
    text = out_file.read_text()
    assert "# WaveScalar reproduction" in text
    assert "Area model" in text
    assert "Pareto" in text
    assert "Traffic locality" in text
    assert "Campaign observability" not in text  # no ledger given


def test_report_with_ledger_section(capsys, tmp_path):
    ledger = tmp_path / "runs.jsonl"
    run_cli(
        capsys, "sweep", "--suite", "spec", "--sample", "40",
        "--scale", "tiny", "--ledger", str(ledger),
    )
    out_file = tmp_path / "report.md"
    code, _ = run_cli(
        capsys, "report", "--sample", "40", "-o", str(out_file),
        "--ledger", str(ledger),
    )
    assert code == 0
    text = out_file.read_text()
    assert "Campaign observability" in text
    assert "cells_total" in text
    assert "cell_wall_s" in text


# ----------------------------------------------------------------------
# surrogate report
# ----------------------------------------------------------------------
def _write_training_ledger(path, rows=16):
    """A small real ledger: enough measured cells (with a learnable
    area->AIPC relationship) for the calibration splitter."""
    from repro.core import WaveScalarConfig
    from repro.harness import CellSpec, Ledger

    ledger = Ledger(path)
    configs = [
        WaveScalarConfig(clusters=c, virtualization=v,
                         matching_entries=64, l2_mb=1)
        for c in (1, 2) for v in (16, 64)
    ]
    names = ["gzip", "mcf", "twolf", "ammp"]
    count = 0
    for config in configs:
        for name in names:
            if count >= rows:
                break
            spec = CellSpec(config=config, workload=name, scale="tiny")
            aipc = 0.02 * config.clusters + 0.001 * config.virtualization
            ledger.append({
                "hash": spec.cell_hash(), "status": "ok",
                "aipc": round(aipc, 6), "spec": spec.as_dict(),
            })
            count += 1
    return count


def test_surrogate_report_renders_and_gates(capsys, tmp_path):
    from repro.harness import Ledger
    from repro.surrogate import calibration_report, extract_training_set

    path = tmp_path / "ledger.jsonl"
    _write_training_ledger(path)
    code, out = run_cli(capsys, "surrogate", "report", str(path))
    assert "coverage" in out
    assert "mae" in out.lower()
    # Exit code mirrors the calibration verdict of the library call
    # with identical parameters.
    report = calibration_report(extract_training_set(Ledger(path)))
    assert code == (0 if report.calibrated else 1)


def test_surrogate_report_json(capsys, tmp_path):
    import json

    path = tmp_path / "ledger.jsonl"
    _write_training_ledger(path)
    code, out = run_cli(capsys, "surrogate", "report", str(path),
                        "--json")
    doc = json.loads(out)
    assert set(doc) >= {"coverage", "mae", "calibrated", "rows"}
    assert code in (0, 1)


def test_surrogate_report_missing_ledger(tmp_path):
    assert main(["surrogate", "report",
                 str(tmp_path / "nope.jsonl")]) == 2


def test_surrogate_report_too_few_rows(capsys, tmp_path):
    path = tmp_path / "ledger.jsonl"
    _write_training_ledger(path, rows=3)
    code = main(["surrogate", "report", str(path)])
    capsys.readouterr()
    assert code == 2


def test_stats_counts_predicted_separately(capsys, tmp_path):
    """A surrogate ledger's predicted cells surface as their own
    counter, never folded into the measured count."""
    from repro.core import WaveScalarConfig
    from repro.harness import CellSpec, Ledger

    path = tmp_path / "ledger.jsonl"
    ledger = Ledger(path)
    config = WaveScalarConfig(clusters=1, l2_mb=1)
    for name, status in (("gzip", "ok"), ("mcf", "ok"),
                         ("twolf", "predicted")):
        spec = CellSpec(config=config, workload=name, scale="tiny")
        record = {"hash": spec.cell_hash(), "status": status,
                  "workload": name, "config": config.describe(),
                  "spec": spec.as_dict()}
        if status == "ok":
            record["aipc"] = 0.1
        else:
            record.update({"aipc_predicted": 0.1,
                           "aipc_interval": [0.05, 0.2],
                           "aipc_bound": 0.5,
                           "model_hash": "cafe"})
        ledger.append(record)
    code, out = run_cli(capsys, "stats", str(path))
    assert code == 0
    assert "cells_ok" in out and "2" in out
    assert "cells_predicted" in out


def test_ledger_verify_json_reports_every_audit_field(capsys, tmp_path):
    """``ledger verify --json`` carries every ``LedgerAudit`` field,
    so a hashless line shows up as ``no_hash`` and fails the exit."""
    import json
    from dataclasses import fields

    from repro.harness import Ledger, LedgerAudit

    path = tmp_path / "ledger.jsonl"
    ledger = Ledger(path)
    ledger.append({"hash": "aaa", "status": "ok"})
    ledger.append({"status": "ok"})  # hashless
    code, out = run_cli(capsys, "ledger", "verify", str(path), "--json")
    doc = json.loads(out)
    assert code == 1
    assert set(doc) == {f.name for f in fields(LedgerAudit)} | {"clean"}
    assert doc["no_hash"] == 1 and doc["ok"] == 2 and not doc["clean"]
    assert doc["issues"] == [{"line": 2, "reason": "no_hash"}]
