"""Command-line interface.

Usage::

    python -m repro list
    python -m repro run --workload fft --clusters 4 --threads 16
    python -m repro run --workload gzip --sanitize
    python -m repro area --clusters 4 --l2-mb 2
    python -m repro designs
    python -m repro sweep --suite splash --sample 6
    python -m repro sweep --suite spec --ledger sweep.jsonl --resume
    python -m repro lint examples/ --check-config
    python -m repro lint all --json
    python -m repro trace --workload mcf --events 40
    python -m repro trace --workload mcf --trace-out trace.json
    python -m repro run --workload fft --profile
    python -m repro stats sweep.jsonl
    python -m repro ledger verify sweep.jsonl
    python -m repro ledger repair sweep.jsonl
    python -m repro ledger compact sweep.jsonl

Every command is a thin veneer over the library; anything the CLI
prints can be recomputed through :mod:`repro.core`.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from .area import breakdown, timing_report
from .core import WaveScalarConfig, WaveScalarProcessor
from .sim.failures import TRANSIENT_CLASSES
from .harness.supervisor import BACKENDS, DEFAULT_BATCH_WIDTH
from .design import pareto_front, viable_designs
from .report import scatter
from .workloads import SUITES, WORKLOADS, Scale, get


def _int_at_least(low: int):
    """argparse ``type=`` for an integer option no smaller than
    ``low``; anything else is the parser's usual one-line error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value

    parse.__name__ = "int"  # argparse: "invalid int value: 'x'"
    return parse


def _float_option(accept, message: str):
    """argparse ``type=`` for a float option ``accept`` admits;
    anything else is the parser's usual one-line error."""

    def parse(text: str) -> float:
        value = float(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(message)
        return value

    parse.__name__ = "float"  # argparse: "invalid float value: 'x'"
    return parse


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.set_defaults(config_error=parser.error)
    parser.add_argument("--clusters", type=int, default=1)
    parser.add_argument("--domains", type=int, default=4,
                        help="domains per cluster")
    parser.add_argument("--pes", type=int, default=8, help="PEs per domain")
    parser.add_argument("--virtualization", "-V", type=int, default=128,
                        help="instruction-store slots per PE")
    parser.add_argument("--matching", "-M", type=int, default=128,
                        help="matching-table entries per PE")
    parser.add_argument("--l1-kb", type=int, default=32)
    parser.add_argument("--l2-mb", type=int, default=0)


def _config_from(args: argparse.Namespace) -> WaveScalarConfig:
    try:
        return WaveScalarConfig(
            clusters=args.clusters,
            domains_per_cluster=args.domains,
            pes_per_domain=args.pes,
            virtualization=args.virtualization,
            matching_entries=args.matching,
            l1_kb=args.l1_kb,
            l2_mb=args.l2_mb,
        )
    except ValueError as exc:  # a value the RTL rules out
        args.config_error(str(exc))
        raise  # not reached: parser.error exits 2


def cmd_list(_args: argparse.Namespace) -> int:
    print(f"{'workload':<14}{'suite':<12}{'threads':<9}description")
    for name in sorted(WORKLOADS):
        w = WORKLOADS[name]
        print(
            f"{name:<14}{w.suite.value:<12}"
            f"{'multi' if w.multithreaded else 'single':<9}"
            f"{w.description}"
        )
    return 0


def _budget_failure(exc, fixed_point) -> int:
    """Report a run that exhausted its budget -- and, when the engine
    proved one, the cause no larger budget would cure."""
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    if fixed_point is not None:
        print(fixed_point.describe(), file=sys.stderr)
    return 1


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from(args)
    workload = get(args.workload)
    threads = args.threads if workload.multithreaded else None
    proc = WaveScalarProcessor(config)
    print(proc.describe())
    sanitizer = None
    if args.sanitize:
        from .analysis import RuntimeSanitizer

        sanitizer = RuntimeSanitizer()
    trace = None
    if args.trace_out:
        from .sim.trace import Trace

        trace = Trace()
    profile = None
    if args.profile:
        from .obs import PhaseProfile

        profile = PhaseProfile()
    try:
        result = proc.run_workload(
            workload, scale=Scale[args.scale.upper()], threads=threads,
            k=args.k, seed=args.seed, sanitizer=sanitizer,
            strict=not args.sanitize, trace=trace, profile=profile,
        )
    except TRANSIENT_CLASSES as exc:
        return _budget_failure(exc, proc.last_fixed_point)
    print(result.summary())
    fr = result.stats.traffic_fractions()
    print(
        f"traffic: pod {fr['pod']:.0%} / domain {fr['domain']:.0%} / "
        f"cluster {fr['cluster']:.0%} / grid {fr['grid']:.1%}"
    )
    print(f"outputs: {result.outputs()}")
    if trace is not None:
        written = trace.to_chrome(args.trace_out)
        print(_trace_capture_line(trace))
        print(f"chrome trace: {args.trace_out} ({written} trace "
              f"events; open in https://ui.perfetto.dev)")
    if profile is not None:
        print()
        print("hot-loop phase profile (sampled):")
        print(profile.render())
    if sanitizer is not None:
        print()
        print(sanitizer.report().render())
        if not sanitizer.ok:
            return 1
    return 0


def _lint_exit(merged, fail_on: str) -> int:
    """Exit code for a lint report under a ``--fail-on`` threshold:
    non-zero when any diagnostic at or above the threshold severity
    exists (error < warning < info, compiler convention)."""
    if fail_on == "info":
        return 1 if len(merged) else 0
    if fail_on == "warning":
        return 1 if (merged.has_errors or merged.warnings) else 0
    return 1 if merged.has_errors else 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import lint_config, merge_reports, resolve_targets

    if args.self_lint:
        from .analysis.selflint import lint_self

        merged = lint_self()
        if args.json:
            print(merged.to_json(indent=2))
        else:
            for diag in merged.sorted():
                print(diag.render())
            counts = ", ".join(
                f"{rule} x{count}"
                for rule, count in merged.counts_by_rule().items()
            )
            print(f"self-lint (determinism D-rules): {merged.summary()}"
                  + (f" [{counts}]" if counts else ""))
        return _lint_exit(merged, args.fail_on)

    targets = args.targets or ["all"]
    results = resolve_targets(
        targets, scale=Scale[args.scale.upper()],
        threads=args.threads,
    )
    if args.check_config:
        results.append(lint_config(_config_from(args)))
    merged = merge_reports(results)
    if args.json:
        print(merged.to_json(indent=2))
    else:
        for result in results:
            diags = result.report.sorted()
            if not args.verbose:
                from .analysis import Severity

                diags = [d for d in diags
                         if d.severity is not Severity.INFO]
            for diag in diags:
                print(diag.render())
        clean = sum(1 for r in results if not len(r.report))
        counts = ", ".join(
            f"{rule} x{count}"
            for rule, count in merged.counts_by_rule().items()
        )
        print(
            f"linted {len(results)} target(s) ({clean} silent): "
            f"{merged.summary()}"
            + (f" [{counts}]" if counts else "")
        )
    return _lint_exit(merged, args.fail_on)


def cmd_area(args: argparse.Namespace) -> int:
    from .area import Floorplan

    config = _config_from(args)
    bd = breakdown(config)
    report = timing_report(config)
    print(f"{config.describe()}")
    print(f"clock: {report.cycle_fo4:.0f} FO4 = {report.cycle_ps:.0f} ps "
          f"({report.frequency_ghz:.2f} GHz); critical path: "
          f"{report.critical_path}")
    rows = [
        ("PE matching tables", bd.pe_matching),
        ("PE instruction stores", bd.pe_istore),
        ("PE other logic", bd.pe_other),
        ("pseudo PEs", bd.pseudo_pes),
        ("FPUs", bd.fpus),
        ("store buffers", bd.store_buffers),
        ("L1 caches", bd.l1),
        ("network switches", bd.network_switches),
        ("wiring overhead", bd.wiring_overhead),
        ("L2", bd.l2),
    ]
    for name, value in rows:
        print(f"  {name:<24}{value:>9.2f} mm2 {value / bd.total:>7.1%}")
    print(f"  {'total':<24}{bd.total:>9.2f} mm2")
    if args.floorplan:
        print()
        print(Floorplan(config).render())
    return 0


def cmd_designs(args: argparse.Namespace) -> int:
    designs = viable_designs(ratio=args.ratio)
    print(f"{len(designs)} viable designs (virtualization ratio "
          f"{args.ratio}):")
    for d in designs:
        print(f"  {d.area_mm2:>6.0f} mm2  {d.config.describe()}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import analyze_graph, bound_for_cell
    from .harness.spec import CellSpec
    from .sim.compile import get_compiled

    config = _config_from(args)
    names = SUITES[args.suite] if args.suite else [args.workload]
    reports = []
    exit_code = 0
    for name in names:
        spec = CellSpec(
            config=config, workload=name, scale=args.scale,
            threads=args.threads,
        )
        bound = bound_for_cell(spec)
        reports.append(bound)
        if bound.proven_deadlock:
            exit_code = 1
    if args.json:
        import json as _json

        print(_json.dumps([b.to_dict() for b in reports], indent=2))
        return exit_code
    for bound in reports:
        print(bound.render())
        print(f"  binding roof       {bound.binding_roof}")
        if args.verbose:
            graph = get_compiled(
                bound.workload, scale=args.scale, threads=args.threads
            ).graph
            for diag in analyze_graph(graph).sorted():
                print(f"  {diag.render()}")
        print()
    return exit_code


def cmd_sweep(args: argparse.Namespace) -> int:
    from .harness.sweep import design_space_sweep

    if args.resume and not args.ledger:
        print("error: --resume requires --ledger PATH", file=sys.stderr)
        return 2
    import os

    names = SUITES[args.suite]
    designs = viable_designs()[:: args.sample]
    threaded = args.suite == "splash"
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    mode = ""
    if jobs > 1:
        # The skip loop measures one lane at a time whatever --jobs
        # says; print the mode that will actually run.
        mode = (", serial: skip decisions are sequential"
                if args.prune or args.surrogate else f", {jobs} jobs")
    print(
        f"evaluating {len(designs)} designs on suite {args.suite!r} "
        f"({'best thread count' if threaded else 'single-threaded'}"
        f"{mode}) ..."
    )
    # Subprocess isolation (watchdog, kill protection) engages when a
    # ledger or timeout asks for a supervised campaign, and for jobs>1,
    # whose cells run side by side in isolation children; other sweeps
    # stay in-process for speed.
    isolation = "process" if (args.ledger or args.timeout_s is not None
                              or jobs > 1) else "inline"
    progress = None
    if args.progress:
        from .obs import ThroughputMeter

        # The lane count is a lower bound on cells (thread escalation
        # adds more), so the ETA is optimistic for threaded suites;
        # the driver's own meter in the final summary is exact.
        meter = ThroughputMeter(
            total=None if threaded else len(designs) * len(names)
        )

        def progress(spec, record):
            meter.note()
            status = record.get("status", "?")
            print(f"  [{meter.render()}] {spec.describe()}: {status}")

    points, report = design_space_sweep(
        designs, names, scale=Scale[args.scale.upper()],
        threaded=threaded, ledger_path=args.ledger, resume=args.resume,
        timeout_s=args.timeout_s, isolation=isolation, jobs=jobs,
        progress=progress, failure_budget=args.failure_budget,
        prune=args.prune, surrogate=args.surrogate,
        backend=args.backend, batch_width=args.batch_width,
    )
    if args.save:
        from .design import dump_points

        dump_points(points, args.save,
                    metadata={"suite": args.suite, "scale": args.scale})
        print(f"sweep saved to {args.save}")
    print(scatter(points, title=f"{args.suite} @ {args.scale}"))
    print("\nPareto frontier:")
    for p in pareto_front(points):
        print(f"  {p.area:>6.0f} mm2  AIPC {p.performance:5.2f}  {p.label}")
    if report.failures:
        print("\nzero-scored cells:")
        for failure in report.failures:
            print(f"  {failure.render()}")
    if args.ledger:
        print(f"ledger: {args.ledger} (inspect with `repro stats "
              f"{args.ledger}`)")
    print(report.summary())
    metrics = report.metrics_summary()
    if metrics:
        print(metrics)
    return 3 if report.aborted else 0


def cmd_ledger(args: argparse.Namespace) -> int:
    """Ledger maintenance: verify / repair / compact."""
    import json
    from dataclasses import asdict

    from .harness.ledger import Ledger, summarize

    ledger = Ledger(args.path)
    if not ledger.path.exists():
        print(f"error: no ledger at {args.path}", file=sys.stderr)
        return 2
    if args.action == "verify":
        audit = ledger.verify()
        if args.json:
            document = asdict(audit) | {
                "clean": audit.clean,
                "issues": [
                    {"line": i.line_no, "reason": i.reason}
                    for i in audit.issues
                ],
            }
            print(json.dumps(document, indent=2, sort_keys=True))
        else:
            print(f"{args.path}: {audit.summary()}")
            for issue in audit.issues:
                print(f"  {issue.render()}")
        return 0 if audit.clean else 1
    report = ledger.repair() if args.action == "repair" \
        else ledger.compact()
    print(f"{args.path}: {report.summary()}")
    counts = summarize(ledger.load())
    print("statuses: " + ", ".join(
        f"{v} {k}" for k, v in sorted(counts.items())
    ))
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    from .workloads.characterize import (
        characterization_table,
        profile_workload,
    )

    names = SUITES[args.suite]
    scale = Scale[args.scale.upper()]
    profiles = []
    for name in names:
        w = get(name)
        threads = args.threads if w.multithreaded else None
        profiles.append(profile_workload(w, scale, threads=threads))
    print(characterization_table(profiles))
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    from .core.experiments import tune_workload

    w = get(args.workload)
    threads = args.threads if w.multithreaded else None
    result = tune_workload(
        args.workload, Scale[args.scale.upper()], threads=threads
    )
    found = (f"virtualization ratio {result.virtualization_ratio:.3f}"
             if result.answered else f"no answer ({result.failure})")
    print(f"{result.application}: k_opt={result.k_opt} "
          f"u_opt={result.u_opt} {found}")
    return 0 if result.answered else 1


def cmd_report(args: argparse.Namespace) -> int:
    from .report import generate_report

    text = generate_report(
        scale=Scale[args.scale.upper()], sample=args.sample,
        ledger_path=args.ledger,
    )
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _trace_capture_line(trace) -> str:
    """One honest line about what the bounded trace kept.

    ``Trace.dropped`` used to be silently swallowed here: a truncated
    trace printed like a complete one.  Now every capture reports its
    limit, policy, and drop count.
    """
    line = (
        f"trace captured {len(trace.events)} events "
        f"(limit {trace.limit}, policy {trace.policy})"
    )
    if trace.dropped:
        if trace.policy == "drop_newest":
            kept, hint = "first", (
                "raise the limit, or use policy drop-oldest to keep "
                "the end of the run"
            )
        else:
            kept, hint = "last", "raise the limit to keep more"
        line += (
            f"; {trace.dropped} events DROPPED -- only the {kept} "
            f"{len(trace.events)} were kept ({hint})"
        )
    return line


def cmd_trace(args: argparse.Namespace) -> int:
    from .sim.trace import Trace

    proc = WaveScalarProcessor(_config_from(args))
    workload = get(args.workload)
    threads = args.threads if workload.multithreaded else None
    graph = workload.instantiate(
        scale=Scale[args.scale.upper()], threads=threads, seed=args.seed
    )
    trace = Trace(limit=args.limit, policy=args.policy.replace("-", "_"))
    code = 0
    try:
        proc.run(graph, trace=trace)
    except TRANSIENT_CLASSES as exc:  # the events so far still print
        code = _budget_failure(exc, proc.last_fixed_point)
    events = list(trace.events)[: args.events]
    for e in events:
        print(e.render())
    print(f"... showing {len(events)} of {len(trace.events)} events")
    print(_trace_capture_line(trace))
    if args.trace_out:
        written = trace.to_chrome(args.trace_out)
        print(f"chrome trace: {args.trace_out} ({written} trace "
              f"events; open in https://ui.perfetto.dev)")
    return code


def cmd_stats(args: argparse.Namespace) -> int:
    from .harness.ledger import Ledger, content_digest, summarize
    from .obs import aggregate_records, reuse_totals

    ledger = Ledger(args.ledger)
    if not ledger.path.exists():
        print(f"error: no ledger at {args.ledger}", file=sys.stderr)
        return 2
    records = ledger.load()
    if not records:
        print(f"error: {args.ledger} holds no records", file=sys.stderr)
        return 2
    registry = aggregate_records(records.values())
    reuse = reuse_totals(records)
    if args.json:
        import json

        document = registry.to_dict()
        document["statuses"] = summarize(
            records, ledger.torn_lines, ledger.corrupt_lines
        )
        document["content_digest"] = content_digest(records.values())
        document["reuse"] = reuse
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    print(f"ledger: {args.ledger} ({len(records)} cells)")
    if ledger.torn_lines:
        print(f"warning: {ledger.torn_lines} torn ledger line(s) skipped")
    if ledger.corrupt_lines:
        print(f"warning: {ledger.corrupt_lines} checksum-failed "
              f"line(s) skipped (run `repro ledger repair "
              f"{args.ledger}`)")
    print(registry.render("sweep metrics:"))
    print(f"reused: {reuse['cells']} cell(s), {reuse['from_larger']} "
          f"from larger caches; certifiers spent "
          f"{reuse['certifier_wall_s']:.2f}s")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzz campaign: seeded programs through every
    oracle (interpreter, engine with and without its fixed-point
    jump, static bound, linter); divergences are minimized and
    written to the corpus."""
    import json

    from .fuzz import run_campaign

    def progress(seed, result):
        if not args.json and (seed + 1 - args.start) % 50 == 0:
            print(f"  seed {seed}: {result.seeds_run} run, "
                  f"{len(result.cases)} divergence(s)")

    if not args.json:
        print(f"fuzzing seeds {args.start}..{args.start + args.seeds - 1}")
    result = run_campaign(
        seeds=args.seeds, start=args.start, corpus_dir=args.corpus,
        minimize=args.minimize, progress=progress,
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"{result.seeds_run} program(s): {result.programs_clean} "
              f"clean, {len(result.cases)} divergent "
              f"({result.total_static} static / {result.total_dynamic} "
              f"dynamic instructions covered)")
        for case in result.cases:
            size = (f"{case.graph_len} -> {case.minimized_len} instrs"
                    if case.minimized_len is not None
                    else f"{case.graph_len} instrs")
            print(f"  seed {case.seed} [{case.kind}] {size}: "
                  f"{case.detail[:100]}")
        if result.cases and args.corpus:
            print(f"repro cases written to {args.corpus}/")
    return 1 if result.cases else 0


def cmd_surrogate(args: argparse.Namespace) -> int:
    """Surrogate model tooling over a sweep ledger.

    ``report``: extract the training set from the ledger's winning
    records, fit on a deterministic holdout split, and print the
    exact-vs-predicted calibration (MAE, empirical interval coverage).
    Exits non-zero when coverage misses the target -- the CI gate that
    keeps ``--surrogate`` sweeps honest.
    """
    import json

    from .harness.ledger import Ledger
    from .surrogate import calibration_report, extract_training_set

    ledger = Ledger(args.ledger)
    if not ledger.path.exists():
        print(f"error: no ledger at {args.ledger}", file=sys.stderr)
        return 2
    training = extract_training_set(ledger)
    try:
        report = calibration_report(
            training, holdout=args.holdout, seed=args.seed,
            coverage=args.coverage,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"ledger: {args.ledger}")
        print(report.render())
    return 0 if report.calibrated else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WaveScalar area/performance study (ISCA'06 "
                    "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads")

    p_run = sub.add_parser("run", help="run one workload")
    _add_config_args(p_run)
    p_run.add_argument("--workload", "-w", required=True,
                       choices=sorted(WORKLOADS))
    p_run.add_argument("--threads", "-t", type=_int_at_least(1), default=4)
    p_run.add_argument("--scale", default="small",
                       choices=[s.value for s in Scale])
    p_run.add_argument("--k", type=_int_at_least(1), default=None,
                       help="k-loop bound override")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--sanitize", action="store_true",
                       help="audit runtime invariants (token "
                            "conservation, matching-table leaks, queue "
                            "bounds); violations exit non-zero")
    p_run.add_argument("--trace-out", default=None, dest="trace_out",
                       metavar="PATH",
                       help="record a pipeline trace and export it as "
                            "Chrome trace-event JSON (open in Perfetto)")
    p_run.add_argument("--profile", action="store_true",
                       help="sample hot-loop time into pipeline "
                            "phases (input/match/dispatch/execute/"
                            "deliver/memory) and print the table")

    p_area = sub.add_parser("area", help="area/timing breakdown")
    _add_config_args(p_area)
    p_area.add_argument("--floorplan", action="store_true",
                        help="render the ASCII floorplan")

    p_designs = sub.add_parser("designs", help="list viable designs")
    p_designs.add_argument("--ratio", default=1.0,
                           type=_float_option(lambda r: 0 < r < math.inf,
                                              "must be > 0"))

    p_sweep = sub.add_parser("sweep", help="mini Pareto sweep")
    p_sweep.add_argument("--suite", default="spec", choices=sorted(SUITES))
    p_sweep.add_argument("--sample", type=_int_at_least(1), default=6,
                         help="evaluate every Nth design")
    p_sweep.add_argument("--scale", default="tiny",
                         choices=[s.value for s in Scale])
    p_sweep.add_argument("--save", default=None,
                         help="write the evaluated points to a JSON file")
    p_sweep.add_argument("--ledger", default=None, metavar="PATH",
                         help="JSONL results ledger: every finished "
                              "cell is checkpointed here")
    p_sweep.add_argument("--resume", action="store_true",
                         help="skip cells already recorded in --ledger")
    p_sweep.add_argument("--timeout-s", default=None,
                         type=_float_option(lambda s: 0 < s < math.inf,
                                            "must be > 0"),
                         dest="timeout_s", metavar="S",
                         help="wall-clock watchdog per attempt (a batch "
                              "group gets width x S); a hung attempt "
                              "is killed and recorded")
    p_sweep.add_argument("--progress", action="store_true",
                         help="print one line per resolved cell with "
                              "running cells/s and ETA")
    p_sweep.add_argument("--jobs", "-j", type=_int_at_least(0), default=1,
                         metavar="N",
                         help="cells in flight at once, each in its "
                              "own isolation child (1 = serial, 0 = "
                              "one per core); lanes of independent "
                              "(design, workload) pairs run "
                              "concurrently, results are identical "
                              "to a serial sweep")
    p_sweep.add_argument("--failure-budget", default=None,
                         type=_float_option(lambda f: 0 <= f <= 1,
                                            "must be within [0, 1]"),
                         dest="failure_budget", metavar="FRAC",
                         help="abort the campaign (exit 3, partial "
                              "report) when more than this fraction "
                              "of resolved cells failed or were "
                              "poisoned, e.g. 0.5")
    p_sweep.add_argument("--prune", action="store_true",
                         help="skip cells whose static AIPC upper "
                              "bound is dominated by an already-"
                              "measured cheaper design (pruned_static "
                              "ledger records; the Pareto frontier is "
                              "bit-identical to an unpruned sweep; "
                              "forces serial execution)")
    p_sweep.add_argument("--surrogate", action="store_true",
                         help="active-learning sweep: a conformal "
                              "surrogate trained on the measurements "
                              "so far skips designs that provably "
                              "cannot reach the Pareto frontier "
                              "(predicted ledger records with "
                              "interval + model hash; the frontier "
                              "itself is always measured exactly; "
                              "forces serial execution)")
    p_sweep.add_argument("--backend", default="plain", choices=BACKENDS,
                         help="engine backend; 'batched' runs "
                              "groups of same-workload cells as one "
                              "attempt each, with "
                              "records bit-identical to 'plain'")
    p_sweep.add_argument("--batch-width", type=_int_at_least(1),
                         default=DEFAULT_BATCH_WIDTH,
                         dest="batch_width", metavar="N",
                         help="cells per batch group "
                              "(batched backend only)")

    p_analyze = sub.add_parser(
        "analyze", help="static dataflow analysis: token-occupancy "
                        "proofs and a sound AIPC upper bound per "
                        "(workload, config) cell, no simulation"
    )
    _add_config_args(p_analyze)
    group = p_analyze.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", "-w", choices=sorted(WORKLOADS))
    group.add_argument("--suite", choices=sorted(SUITES))
    p_analyze.add_argument("--scale", default="tiny",
                           choices=[s.value for s in Scale])
    p_analyze.add_argument("--threads", "-t", type=_int_at_least(1),
                           help="thread count for multithreaded "
                                "workloads")
    p_analyze.add_argument("--json", action="store_true",
                           help="emit bound reports as JSON")
    p_analyze.add_argument("--verbose", "-v", action="store_true",
                           help="also run the graph rule registry and "
                                "print its diagnostics")

    p_lint = sub.add_parser(
        "lint", help="static analysis of programs and configs"
    )
    _add_config_args(p_lint)
    p_lint.add_argument(
        "targets", nargs="*", metavar="TARGET",
        help="workload name, suite name, .wsasm file, or directory "
             "(default: every bundled workload)",
    )
    p_lint.add_argument("--scale", default="tiny",
                        choices=[s.value for s in Scale],
                        help="scale at which workloads are instantiated")
    p_lint.add_argument("--threads", "-t", type=_int_at_least(1),
                        help="thread count for multithreaded workloads")
    p_lint.add_argument("--check-config", action="store_true",
                        dest="check_config",
                        help="also lint the processor configuration "
                             "built from the config flags")
    p_lint.add_argument("--json", action="store_true",
                        help="emit diagnostics as JSON")
    p_lint.add_argument("--verbose", "-v", action="store_true",
                        help="include info-level diagnostics")
    p_lint.add_argument("--fail-on", default="error", dest="fail_on",
                        choices=["error", "warning", "info"],
                        help="lowest severity that makes the exit "
                             "code non-zero (default: error; "
                             "'warning' also fails on warnings, "
                             "'info' fails on any diagnostic)")
    p_lint.add_argument("--self", action="store_true", dest="self_lint",
                        help="lint the repro source tree itself for "
                             "determinism hazards (D-rules: wall-"
                             "clock reads, unseeded randomness, set "
                             "iteration feeding ordered output)")

    p_char = sub.add_parser("characterize",
                            help="workload shape table (Section 2.2)")
    p_char.add_argument("--suite", default="all", choices=sorted(SUITES))
    p_char.add_argument("--threads", "-t", type=_int_at_least(1), default=4)
    p_char.add_argument("--scale", default="tiny",
                        choices=[s.value for s in Scale])

    p_tune = sub.add_parser("tune",
                            help="Table 4 matching-table tuning row")
    p_tune.add_argument("--workload", "-w", required=True,
                        choices=sorted(WORKLOADS))
    p_tune.add_argument("--threads", "-t", type=_int_at_least(1), default=4)
    p_tune.add_argument("--scale", default="tiny",
                        choices=[s.value for s in Scale])

    p_report = sub.add_parser(
        "report", help="generate a markdown reproduction report"
    )
    p_report.add_argument("--scale", default="tiny",
                          choices=[s.value for s in Scale])
    p_report.add_argument("--sample", type=_int_at_least(1), default=8,
                          help="evaluate every Nth design")
    p_report.add_argument("--output", "-o", default=None)
    p_report.add_argument(
        "--ledger", default=None,
        help="append a campaign-observability section aggregated from "
             "this sweep ledger",
    )

    p_trace = sub.add_parser("trace", help="pipeline event trace")
    _add_config_args(p_trace)
    p_trace.add_argument("--workload", "-w", required=True,
                         choices=sorted(WORKLOADS))
    p_trace.add_argument("--threads", "-t", type=_int_at_least(1), default=2)
    p_trace.add_argument("--scale", default="tiny",
                         choices=[s.value for s in Scale])
    p_trace.add_argument("--events", type=_int_at_least(0), default=60)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--limit", type=_int_at_least(1), default=100_000,
                         help="trace capacity; events beyond it are "
                              "dropped per --policy and reported")
    p_trace.add_argument("--policy", default="drop-newest",
                         choices=("drop-newest", "drop-oldest"),
                         help="at capacity, drop-newest keeps the "
                              "first --limit events (run start); "
                              "drop-oldest is a ring buffer keeping "
                              "the last --limit (run end)")
    p_trace.add_argument("--trace-out", default=None, dest="trace_out",
                         metavar="PATH",
                         help="also export the trace as Chrome "
                              "trace-event JSON (open in Perfetto)")

    p_stats = sub.add_parser(
        "stats", help="aggregate observability metrics from a sweep "
                      "ledger"
    )
    p_stats.add_argument("ledger", metavar="LEDGER",
                         help="JSONL ledger written by sweep --ledger")
    p_stats.add_argument("--json", action="store_true",
                         help="emit the aggregated registry, the "
                              "status counts and the records' "
                              "content digest as JSON")

    p_ledger = sub.add_parser(
        "ledger", help="ledger maintenance: verify integrity, repair "
                       "(quarantine bad lines), compact (collapse "
                       "superseded records)"
    )
    p_ledger.add_argument("action",
                          choices=("verify", "repair", "compact"))
    p_ledger.add_argument("path", metavar="LEDGER",
                          help="JSONL ledger written by sweep --ledger")
    p_ledger.add_argument("--json", action="store_true",
                          help="emit the verify audit as JSON")

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzz campaign: seeded programs cross-"
             "checked across interpreter, engine (with and without its "
             "fixed-point jump), and static bounds",
    )
    p_fuzz.add_argument("--seeds", type=_int_at_least(1), default=100,
                        metavar="N",
                        help="number of seeds to fuzz (default 100)")
    p_fuzz.add_argument("--start", type=_int_at_least(0), default=0,
                        metavar="SEED",
                        help="first seed (default 0)")
    p_fuzz.add_argument("--corpus", default=None, metavar="DIR",
                        help="write minimized repro cases to this "
                             "directory")
    p_fuzz.add_argument("--minimize", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="delta-debug divergent programs to "
                             "minimal repros (default: on)")
    p_fuzz.add_argument("--json", action="store_true",
                        help="emit the campaign report as JSON")

    p_surr = sub.add_parser(
        "surrogate",
        help="surrogate model tooling: exact-vs-predicted calibration "
             "over a sweep ledger",
    )
    p_surr.add_argument("action", choices=("report",))
    p_surr.add_argument("ledger", metavar="LEDGER",
                        help="JSONL ledger written by sweep --ledger")
    p_surr.add_argument("--holdout", default=0.25,
                        type=_float_option(lambda f: 0 < f < 1,
                                           "must be within (0, 1)"),
                        help="held-out fraction for calibration "
                             "(default 0.25)")
    p_surr.add_argument("--coverage", type=float, default=0.9,
                        help="target interval coverage (default 0.9)")
    p_surr.add_argument("--seed", type=int, default=0,
                        help="seed for the deterministic split/fit")
    p_surr.add_argument("--json", action="store_true",
                        help="emit the calibration report as JSON")

    return parser


COMMANDS = {
    "list": cmd_list,
    "run": cmd_run,
    "area": cmd_area,
    "designs": cmd_designs,
    "sweep": cmd_sweep,
    "analyze": cmd_analyze,
    "lint": cmd_lint,
    "trace": cmd_trace,
    "stats": cmd_stats,
    "report": cmd_report,
    "characterize": cmd_characterize,
    "tune": cmd_tune,
    "ledger": cmd_ledger,
    "fuzz": cmd_fuzz,
    "surrogate": cmd_surrogate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except BrokenPipeError:  # piping into head etc. is fine
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
