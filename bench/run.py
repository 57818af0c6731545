"""The repo's one benchmark: five workloads, one clock, one layer table.

Full run (people)::

    python bench/run.py [--seed N] [--runs 3] [--workload NAME]
                        [--no-trace] [--smoke] [--update-expected]
    python bench/run.py --compare A.json B.json

runs every workload ``--runs`` times untraced plus once traced, each
run in a fresh subprocess, prints every metric by name with its unit,
checks the outputs, and writes ``bench/results/latest.json``.

Single run (the contract in ``BENCHMARK.json``; what the full run
spawns)::

    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints the metrics and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: every end-to-end
metric when untraced, every per-layer metric when traced.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import workloads  # noqa: E402

#: Fresh set-ups timed per untraced run, this process's own included.
SETUP_SAMPLES = 3


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program() -> None:
    """``repro`` from this checkout's ``src/`` and nowhere else."""
    import repro

    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise SystemExit(
            f"repro imported from {repro.__file__}, not from "
            f"{ROOT / 'src'}: the benchmark measures its own checkout"
        )


def fingerprint(load_1m_start: float) -> dict:
    """What a result file records about the machine and the code."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True,
            # Never read a repository above this checkout.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a repository
    import numpy

    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "load_1m_start": load_1m_start,
        "load_1m_end": os.getloadavg()[0],
    }


def load_at_start() -> float:
    """The 1-minute load average before any work; warns (never fails)
    when it leaves less than one idle core for the benchmark's single
    busy process.  The load at the end is recorded without a warning:
    it contains that process."""
    load = os.getloadavg()[0]
    limit = (os.cpu_count() or 1) - 1
    if load > limit:
        print(f"warning: 1-minute load {load:.2f} exceeds nproc-1 = "
              f"{limit}; timings will be noisy", file=sys.stderr)
    return load


def percentile(values: list, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# Single run
# ----------------------------------------------------------------------
def measure_setup(args) -> float:
    """Median set-up time over fresh processes (this one included)."""
    samples = [calibrate.calibrated(time.perf_counter() - _STARTED)]
    command = [sys.executable, str(BENCH / "run.py"), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(command, capture_output=True, text=True,
                              check=True, cwd=ROOT)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def end_to_end_metrics(passes: list, setup_s: float,
                       expected: dict) -> dict:
    cells = sum(p.cells for p in passes)
    walls = [w for p in passes for w in p.cell_walls]
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "cells_per_s":
            statistics.median(p.cells / p.wall_s for p in passes),
        "sim_events_per_s":
            statistics.median(p.events / p.wall_s for p in passes),
        "cell_wall_s_p50": percentile(walls, 0.5),
        "cell_wall_s_p90": percentile(walls, 0.9),
        "peak_rss_mb": rss_kb / 1024,
        "ok_share": 1 - sum(p.failed for p in passes) / cells,
        "area_err_max":
            workloads.area_err_max(expected["paper_table5_areas"]),
    }


def per_layer_metrics(tracer, viable_designs_s: float, result,
                      children: list, units: dict) -> dict:
    """The traced pass as per-layer numbers.  ``_s`` values are
    inclusive seconds; ``self_s.<layer>`` rows are self times and add
    up to the pass's wall time less ``trace.unattributed_share``.
    Seconds are calibrated with the pass's overall factor."""
    acc = tracer.acc
    counts = dict(tracer.counts)
    counts.update(result.counts)

    def total(name):
        return acc[name][1]

    def calls(name):
        return acc[name][2]

    spans = tracer.spans
    supervisor_s = sum(
        s[2] - s[1] for s in spans
        if s[0] == "harness.supervisor.run"
        and (s[3] < 0 or spans[s[3]][0] != "harness.supervisor.run")
    )
    # Attempts after the first, timed in the child: children sharing a
    # driver-side supervisor span, all but the earliest.
    by_parent: dict[int, list] = {}
    for child in children:
        by_parent.setdefault(child["parent"], []).append(child)
    retry_s = sum(
        c["end"] - c["start"]
        for siblings in by_parent.values()
        for c in sorted(siblings, key=lambda c: c["start"])[1:]
    )
    run_s = total("sim.engine.run")
    events = counts.get("sim.engine.events", 0)
    # Counts nothing incremented (no batch on cells_long, ...) read 0.
    out = dict.fromkeys(units, 0)
    out.update({
        "lang.build_s": total("lang.build"),
        "lang.build_calls": calls("lang.build"),
        "lang.interp.reference_s": total("lang.interp.reference"),
        "sim.compile.decode_s": total("sim.compile.decode"),
        "place.snake_s": total("place.snake"),
        "sim.engine.init_s": total("sim.engine.init"),
        "sim.engine.run_s": run_s,
        "sim.engine.host_us_per_event":
            run_s / events * 1e6 if events else 0.0,
        "sim.network.route_s": total("sim.network.route"),
        "sim.network.route_calls": calls("sim.network.route"),
        "sim.network.reserve_s": total("sim.network.reserve"),
        "sim.network.reserve_calls": calls("sim.network.reserve"),
        "sim.pe.matching.insert_s": total("sim.pe.matching.insert"),
        "sim.pe.matching.insert_calls": calls("sim.pe.matching.insert"),
        "sim.storebuffer.submit_s": total("sim.storebuffer.submit"),
        "sim.memory.access_s": total("sim.memory.access"),
        "sim.memory.access_calls": calls("sim.memory.access"),
        "sim.batched.run_batch_s": total("sim.batched.run_batch"),
        "harness.supervisor.run_s": supervisor_s,
        "harness.supervisor.retry_s": retry_s,
        "harness.supervisor.fork_overhead_s":
            acc["harness.supervisor.run"][0],
        "harness.scheduler.execute_lanes_s":
            total("harness.scheduler.execute_lanes"),
        "harness.scheduler.execute_lanes_calls":
            calls("harness.scheduler.execute_lanes"),
        "harness.ledger.append_s": total("harness.ledger.append"),
        "harness.ledger.append_calls": calls("harness.ledger.append"),
        "harness.ledger.load_s": total("harness.ledger.load"),
        "harness.spec.cell_hash_s": total("harness.spec.cell_hash"),
        "harness.spec.cell_hash_calls": calls("harness.spec.cell_hash"),
        "harness.sweep.self_s": acc["harness.sweep"][0],
        "analysis.dataflow.bound_s": total("analysis.dataflow.bound"),
        "analysis.dataflow.bound_calls": calls("analysis.dataflow.bound"),
        "surrogate.fit_s":
            total("surrogate.fit") + total("surrogate.features"),
        "surrogate.fit_calls": calls("surrogate.fit"),
        "surrogate.predict_s": total("surrogate.predict"),
        "surrogate.predict_calls": calls("surrogate.predict"),
        "design.viable_designs_s": viable_designs_s,
        "design.pareto_front_s": total("design.pareto_front"),
    })
    layer_self = tracer.layer_self_s()
    # The ledger read-back runs after the timed region.
    layer_self["harness.ledger"] -= acc["harness.ledger.load"][0]
    for layer, seconds in layer_self.items():
        out[f"self_s.{layer}"] = seconds
    out.update(counts)
    factor = result.wall_s / result.raw_wall_s
    for name in out:
        if units.get(name) in ("s", "us"):
            out[name] *= factor
    out["trace.unattributed_share"] = \
        1 - sum(layer_self.values()) / result.raw_wall_s
    out["trace.raw_wall_s"] = result.raw_wall_s
    out["trace.calib_factor"] = factor
    return out


def single_run(args, contract: dict) -> int:
    import_program()
    if args.seconds is not None:
        seconds = args.seconds
    else:
        seconds = 0 if args.smoke else contract["run_seconds"]
    expected = json.loads((BENCH / "expected.json").read_text())
    pins = expected["smoke" if args.smoke else "full"]
    load_start = load_at_start()
    RESULTS.mkdir(exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="tmp-", dir=RESULTS)
    tracer = None
    try:
        if args.trace:
            import tracing

            tracer = tracing.Tracer(os.path.join(tmp_dir, "spool.jsonl"))
            tracing.install(tracer)
        workload = workloads.make(args.workload)
        workload.setup(args.seed, args.smoke)
        if tracer:  # set-up is over: the only layer time it holds
            viable_designs_s = tracer.acc["design.viable_designs"][1]
        if tracer is None and not args.smoke:
            setup_s = measure_setup(args)
        else:
            setup_s = calibrate.calibrated(time.perf_counter() - _STARTED)

        passes = []
        started = time.perf_counter()
        while True:
            if tracer:
                tracer.reset()
            passes.append(workload.run_pass(tmp_dir, len(passes)))
            elapsed = time.perf_counter() - started
            # A traced run is one pass (attribution is per pass);
            # otherwise stop when one more pass would overshoot the
            # target by more than stopping undershoots it.
            if tracer or elapsed + passes[-1].raw_wall_s / 2 >= seconds:
                break
        children = tracer.merge_children() if tracer else []
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(tmp_dir, ignore_errors=True)

    problems = []
    for index, result in enumerate(passes):
        problems += [f"pass {index}: {p}" for p in
                     workload.check(result.facts, pins, args.seed)]
    failed = sum(workload.unexpected_failures(p.facts, pins)
                 for p in passes)
    if tracer:
        declared = contract["per_layer"]
        values = per_layer_metrics(
            tracer, viable_designs_s, passes[0], children,
            {m["name"]: m["unit"] for m in declared},
        )
        if values["trace.unattributed_share"] > 0.10:
            problems.append(
                f"trace.unattributed_share "
                f"{values['trace.unattributed_share']:.3f} > 0.10: "
                f"the layer table does not add up"
            )
    else:
        values = end_to_end_metrics(passes, setup_s, expected)
        declared = contract["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    unknown = sorted(set(values) - set(metrics))
    if unknown:
        problems.append(f"metrics missing from BENCHMARK.json: {unknown}")

    raw_wall_s = statistics.median(p.raw_wall_s for p in passes)
    wall_s = statistics.median(p.wall_s for p in passes)
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"trace={args.trace}" + (" smoke" if args.smoke else ""))
    print(f"  (seconds are calibrated: raw wall {raw_wall_s:.3f} s x "
          f"factor {wall_s / raw_wall_s:.3f})")
    for name, metric in metrics.items():
        print(f"  {name:<40}{metric['value']:>16.6g} {metric['unit']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    if args.out:
        detail = {
            "workload": args.workload, "seed": args.seed,
            "smoke": args.smoke, "trace": args.trace,
            "fingerprint": fingerprint(load_start), "passes": len(passes),
            "wall_s": wall_s, "raw_wall_s": raw_wall_s,
            "metrics": metrics, "facts": passes[0].facts,
            "problems": problems,
        }
        Path(args.out).write_text(json.dumps(detail, indent=1))
    if tracer:
        (RESULTS / f"trace-{args.workload}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "wall_s": passes[0].wall_s,
            "span_fields": ["name", "start", "end", "parent", "extra"],
            "spans": tracer.spans,
            "accumulators":
                {"fields": ["self_s", "inclusive_s", "calls"],
                 **tracer.acc},
            "counts": tracer.counts,
        }))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p.cells for p in passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if problems else 0


def setup_only(args) -> int:
    import_program()
    workloads.make(args.workload).setup(args.seed, args.smoke)
    print(calibrate.calibrated(time.perf_counter() - _STARTED))
    return 0


# ----------------------------------------------------------------------
# Full run
# ----------------------------------------------------------------------
def spawn_single(name: str, args, trace: int, out: Path) -> dict:
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--trace", str(trace),
        "--out", str(out),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True)
    sys.stderr.write(done.stderr)
    if not out.exists():
        raise SystemExit(
            f"{name}: run produced no result (exit {done.returncode})\n"
            f"{done.stdout}"
        )
    detail = json.loads(out.read_text())
    out.unlink()
    return detail


def summarize(values: list) -> dict:
    return {
        "median": statistics.median(values), "min": min(values),
        "max": max(values), "n": len(values), "values": values,
    }


def cross_checks(results: dict) -> list:
    """Self-consistency between workloads, at every seed."""
    problems = []
    facts = {name: entry["facts"] for name, entry in results.items()}
    studies = [n for n in workloads.STUDY_POLICIES if n in facts]
    for name in studies[1:]:
        if facts[name]["frontier"] != facts[studies[0]]["frontier"]:
            problems.append(
                f"{name} frontier differs from {studies[0]}'s"
            )
    pair = ("study_exhaustive", "study_batched")
    if all(n in facts for n in pair) and \
            facts[pair[0]]["ok_digest"] != facts[pair[1]]["ok_digest"]:
        problems.append("ok-record digest differs between "
                        "study_exhaustive and study_batched")
    return problems


def full_run(args, contract: dict) -> int:
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    load_start = load_at_start()
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"tmp-run-{os.getpid()}.json"
    runs = args.runs or (1 if args.smoke else 3)
    if args.update_expected:
        runs = 1
    results = {}
    problems = []
    for name in names:
        details = [spawn_single(name, args, 0, out) for _ in range(runs)]
        entry = {
            "end_to_end": {
                m["name"]: {
                    "unit": m["unit"],
                    **summarize([d["metrics"][m["name"]]["value"]
                                 for d in details]),
                }
                for m in contract["end_to_end"]
            },
            "raw_wall_s": [d["raw_wall_s"] for d in details],
            "facts": details[0]["facts"],
        }
        for detail in details:
            problems += [f"{name}: {p}" for p in detail["problems"]]
            if detail["facts"] != entry["facts"]:
                problems.append(f"{name}: facts differ between runs")
        if not (args.no_trace or args.update_expected):
            traced = spawn_single(name, args, 1, out)
            entry["per_layer"] = traced["metrics"]
            problems += [f"{name} (traced): {p}"
                         for p in traced["problems"]]
            if traced["facts"] != entry["facts"]:
                problems.append(f"{name}: traced run changed the outputs")
            wall = entry["end_to_end"]["wall_s"]["median"]
            entry["per_layer"]["trace.overhead"] = {
                "value": traced["wall_s"] / wall - 1, "unit": "ratio",
            }
        results[name] = entry
        report_workload(name, entry)
    problems += cross_checks(results)

    if args.update_expected:
        update_expected(results, args.smoke)
        return 0
    (RESULTS / "latest.json").write_text(json.dumps({
        "fingerprint": fingerprint(load_start), "seed": args.seed,
        "runs": runs,
        "smoke": args.smoke, "workloads": results, "problems": problems,
    }, indent=1))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"{'FAILED' if problems else 'ok'}: "
          f"{len(names)} workload(s), results in "
          f"{(RESULTS / 'latest.json').relative_to(ROOT)}")
    return 1 if problems else 0


def report_workload(name: str, entry: dict) -> None:
    print(f"\n== {name}")
    for metric, s in entry["end_to_end"].items():
        print(f"  {metric:<40}{s['median']:>14.6g} {s['unit']:<6}"
              f" [{s['min']:.6g} .. {s['max']:.6g}] n={s['n']}")
    layers = entry.get("per_layer")
    if not layers:
        return
    print("  -- per layer (one traced run; modelled caches start empty)")
    for metric, value in layers.items():
        print(f"  {metric:<40}{value['value']:>14.6g} {value['unit']}")


def update_expected(results: dict, smoke: bool) -> None:
    path = BENCH / "expected.json"
    expected = json.loads(path.read_text())
    section = expected.setdefault("smoke" if smoke else "full", {})
    study = results.get("study_exhaustive")
    if study:
        facts = study["facts"]
        section.setdefault("study", {}).update(
            frontier=facts["frontier"], ok_digest=facts["ok_digest"],
            cells=facts["cells"], failed_hashes=facts["failed_hashes"],
        )
    if "study_surrogate" in results:
        section.setdefault("study", {})["surrogate_simulated_cells"] = \
            results["study_surrogate"]["facts"]["simulated_cells"]
    for name in ("cells_cold", "cells_long"):
        if name in results:
            section[name] = results[name]["facts"]["cells"]
    path.write_text(dump_pins(expected) + "\n")
    print(f"\npins written to {path.relative_to(ROOT)}")


def dump_pins(value, depth: int = 0) -> str:
    """JSON with one key per line down to the pins themselves, which
    stay on one line each so a changed pin is a one-line diff."""
    if not isinstance(value, dict) or depth == 3:
        return json.dumps(value)
    pad = " " * (depth + 1)
    body = ",\n".join(
        f"{pad}{json.dumps(key)}: {dump_pins(item, depth + 1)}"
        for key, item in value.items()
    )
    return "{\n" + body + "\n" + " " * depth + "}"


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str, contract: dict) -> int:
    """Judge B against A, one row per (workload, metric)."""
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    worse = 0
    print(f"{'workload':<18}{'metric':<20}{'A median':>13}"
          f"{'B median':>13}{'change':>9}{'bound':>7}  verdict")
    for name in a:
        if name not in b:
            continue
        for metric in contract["end_to_end"]:
            sa = a[name]["end_to_end"][metric["name"]]
            sb = b[name]["end_to_end"][metric["name"]]
            sign = 1 if metric["better"] == "lower" else -1
            change = (sb["median"] - sa["median"]) / sa["median"]
            spread = max((s["max"] - s["min"]) / s["median"]
                         for s in (sa, sb))
            apart = (sb["max"] < sa["min"] if sign > 0
                     else sb["min"] > sa["max"])
            if sign * change > metric["bound"]:
                verdict = "worse"
                worse += 1
            elif spread > metric["bound"] and not apart:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{name:<18}{metric['name']:<20}{sa['median']:>13.6g}"
                  f"{sb['median']:>13.6g}{change:>+9.1%}"
                  f"{metric['bound']:>7.3g}  {verdict}")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measure for about this long: as many "
                             "whole passes as fit, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="single run: 0 end-to-end, 1 per-layer")
    parser.add_argument("--runs", type=int,
                        help="untraced runs per workload (default 3, "
                             "1 with --smoke)")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny variants of every workload, one "
                             "pass each: proves the harness runs")
    parser.add_argument("--update-expected", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--out", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    contract = load_contract()
    if args.compare:
        return compare(*args.compare, contract)
    if args.setup_only:
        return setup_only(args)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return single_run(args, contract)
    return full_run(args, contract)


if __name__ == "__main__":
    sys.exit(main())
