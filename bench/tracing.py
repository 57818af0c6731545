"""Span tracing from outside the program.

The benchmark wraps the public entry points of each ``repro`` layer
(class methods and module functions) and records, per wrap point, the
inclusive time, the *self* time (inclusive minus wrapped callees) and
the call count.  Coarse calls -- a sweep, a cell, a forest refit --
also leave a span ``[name, start, end, parent]``; hot calls (millions
of ``route``/``reserve``/``cell_hash``) only accumulate, because a span
each would cost more than the call.

Cells of the study workloads run in forked attempt subprocesses.  The
wrappers are inherited through fork; the child-side root wrapper
(``execute_cell``/``execute_batch``) resets the inherited tracer, and on
return appends one JSON line with everything the child recorded to a
spool file.  :meth:`Tracer.merge_children` folds those lines back in,
charging each child's duration against the driver-side span that was
open at fork time, so a layer's self time is counted once.

``time.perf_counter`` is CLOCK_MONOTONIC on Linux and therefore
comparable between the driver and its children.
"""

from __future__ import annotations

import json
import os
from time import perf_counter

#: wrap point -> layer.  Layer names are ``repro`` module names.
LAYER_OF = {
    "lang.build": "lang",
    "lang.interp.reference": "lang",
    "sim.compile.lookup": "sim.compile",
    "sim.compile.decode": "sim.compile",
    "place.snake": "place",
    "sim.engine.init": "sim.engine",
    "sim.engine.run": "sim.engine",
    "sim.network.route": "sim.network",
    "sim.network.reserve": "sim.network",
    "sim.pe.matching.insert": "sim.pe",
    "sim.storebuffer.submit": "sim.storebuffer",
    "sim.memory.access": "sim.memory",
    "sim.batched.run_batch": "sim.batched",
    "harness.supervisor.run": "harness.supervisor",
    "harness.supervisor.child": "harness.supervisor",
    "harness.scheduler.execute_lanes": "harness.scheduler",
    "harness.ledger.append": "harness.ledger",
    "harness.ledger.load": "harness.ledger",
    "harness.spec.cell_hash": "harness.spec",
    "harness.sweep": "harness.sweep",
    "analysis.dataflow.bound": "analysis.dataflow",
    "surrogate.fit": "surrogate",
    "surrogate.features": "surrogate",
    "surrogate.predict": "surrogate",
    "design.viable_designs": "design",
    "design.pareto_front": "design",
    # The benchmark's own calibration samples: wrapped so that their
    # time comes off the self time of whichever layer they interrupt.
    "bench.calibrate": None,
}

LAYERS = tuple(dict.fromkeys(filter(None, LAYER_OF.values())))

#: ``SimStats`` fields harvested after every ``Engine.run`` and every
#: ok batched cell -> the counter they feed.  They are pure functions
#: of the cell, so they repeat exactly from run to run.
STAT_COUNTERS = {
    "events_processed": "sim.engine.events",
    "matching_misses": "sim.pe.matching.misses",
    "matching_evictions": "sim.pe.matching.evictions",
    "istore_hits": "sim.pe.istore.hits",
    "istore_misses": "sim.pe.istore.misses",
    "input_rejects": "sim.pe.input_rejects",
    "memory_ops": "sim.storebuffer.memory_ops",
    "psq_stalls": "sim.storebuffer.psq_stalls",
    "sb_window_stalls": "sim.storebuffer.window_stalls",
    "waves_retired": "sim.storebuffer.waves_retired",
    "l1_hits": "sim.memory.l1_hits",
    "l1_misses": "sim.memory.l1_misses",
    "l2_hits": "sim.memory.l2_hits",
    "l2_misses": "sim.memory.l2_misses",
    "coherence_messages": "sim.memory.coherence_msgs",
}


class Tracer:
    """In-memory spans and per-wrap-point accumulators."""

    def __init__(self, spool_path) -> None:
        self.pid = os.getpid()
        self.spool_path = str(spool_path)
        #: name -> [self_s, inclusive_s, calls]
        self.acc: dict[str, list] = {name: [0.0, 0.0, 0] for name in LAYER_OF}
        self.counts: dict[str, float] = {}
        #: [name, start, end, parent index or -1, extra dict or None]
        self.spans: list[list] = []
        self.stack: list[int] = []
        #: Seconds spent in wrapped callees of the innermost open call.
        self.child = [0.0]
        self._originals: list[tuple] = []
        #: Child-side: the driver span open at fork time.
        self._fork_parent = -1

    # -- bookkeeping ---------------------------------------------------
    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        for entry in self.acc.values():
            entry[0] = entry[1] = 0.0
            entry[2] = 0
        self.counts.clear()
        self.spans.clear()
        self.stack.clear()
        self.child[0] = 0.0

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def harvest_stats(self, stats) -> None:
        for field, name in STAT_COUNTERS.items():
            self.count(name, getattr(stats, field))
        for per_level in stats.messages.values():
            for level, n in per_level.items():
                self.count(f"sim.network.msgs.{level}", n)

    # -- wrappers ------------------------------------------------------
    def hot(self, name: str, fn):
        """Accumulate-only wrapper for calls made millions of times."""
        entry = self.acc[name]
        child = self.child

        def wrapper(*args, **kwargs):
            saved = child[0]
            child[0] = 0.0
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - started
                entry[0] += span - child[0]
                entry[1] += span
                entry[2] += 1
                child[0] = saved + span

        wrapper.__wrapped__ = fn
        return wrapper

    def coarse(self, name: str, fn, after=None):
        """Wrapper that also records a span.  ``after(tracer, span,
        args, result)`` runs once the call has returned or raised
        (``result`` is ``None`` on a raise) to attach counts."""
        entry = self.acc[name]
        child = self.child
        spans = self.spans
        stack = self.stack

        def wrapper(*args, **kwargs):
            saved = child[0]
            child[0] = 0.0
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            result = None
            record[1] = started = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                record[2] = ended = perf_counter()
                span = ended - started
                entry[0] += span - child[0]
                entry[1] += span
                entry[2] += 1
                child[0] = saved + span
                stack.pop()
                if after is not None:
                    after(self, record, args, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def child_root(self, name: str, fn):
        """Wrapper for the function a forked attempt subprocess enters.

        In the driver (inline isolation) it is an ordinary coarse
        span.  In a child it resets the inherited tracer first and
        spools the child's recording afterwards."""
        inline = self.coarse(name, fn)

        def wrapper(*args, **kwargs):
            if os.getpid() == self.pid:
                return inline(*args, **kwargs)
            self._fork_parent = self.stack[-1] if self.stack else -1
            self.reset()
            try:
                return inline(*args, **kwargs)
            finally:
                self._spool()

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, wrapper_factory, name: str,
              **kwargs) -> None:
        """Replace ``owner.attr`` (a class or a module) by a wrapper."""
        original = owner.__dict__[attr]
        self._originals.append((owner, attr, original))
        fn = original.__func__ if isinstance(original, staticmethod) \
            else original
        wrapped = wrapper_factory(name, fn, **kwargs)
        if isinstance(original, staticmethod):
            wrapped = staticmethod(wrapped)
        setattr(owner, attr, wrapped)

    def rebind(self, owner, attr: str, value) -> None:
        """Point a ``from x import f`` binding at the wrapped ``f``."""
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- children ------------------------------------------------------
    def _spool(self) -> None:
        blob = {
            "parent": self._fork_parent,
            "acc": {k: v for k, v in self.acc.items() if v[2]},
            "counts": self.counts,
            "spans": self.spans,
        }
        line = (json.dumps(blob) + "\n").encode()
        fd = os.open(self.spool_path,
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)

    def merge_children(self) -> list[dict]:
        """Fold spooled child recordings into this tracer; returns one
        ``{"parent", "start", "end"}`` per child, in spool order."""
        children = []
        try:
            with open(self.spool_path, encoding="utf-8") as fh:
                blobs = [json.loads(line) for line in fh if line.strip()]
        except FileNotFoundError:
            return children
        os.unlink(self.spool_path)
        for blob in blobs:
            root = blob["spans"][0]
            duration = root[2] - root[1]
            parent = blob["parent"]
            if parent >= 0:
                # The driver waited in ``parent`` while the child ran.
                self.acc[self.spans[parent][0]][0] -= duration
            for name, (self_s, total_s, calls) in blob["acc"].items():
                entry = self.acc[name]
                entry[0] += self_s
                entry[1] += total_s
                entry[2] += calls
            for name, n in blob["counts"].items():
                self.count(name, n)
            offset = len(self.spans)
            for span in blob["spans"]:
                span[3] = parent if span[3] < 0 else span[3] + offset
                self.spans.append(span)
            children.append(
                {"parent": parent, "start": root[1], "end": root[2]}
            )
        return children

    # -- reading -------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, entry in self.acc.items():
            if LAYER_OF[name]:
                out[LAYER_OF[name]] += entry[0]
        return out


# ----------------------------------------------------------------------
# Span hooks: counts taken where the work happens
# ----------------------------------------------------------------------
def _after_build(tracer, span, args, graph) -> None:
    if graph is not None:
        tracer.count("lang.static_instructions", len(graph.instructions))


def _after_engine_run(tracer, span, args, stats) -> None:
    engine = args[0]
    tracer.harvest_stats(engine.stats)
    span[4] = {"program": engine.graph.name,
               "events": engine.stats.events_processed}
    profile = engine.profile
    if profile is not None:
        for phase, ns in profile.ns.items():
            tracer.count(f"sim.engine.phase.{phase}_s", ns / 1e9)


def _after_batch(tracer, span, args, outcomes) -> None:
    # Budget-exhausted cells included, as after Engine.run: their
    # events are work the host did.
    for engine in args[0].engines:
        tracer.harvest_stats(engine.stats)


def _after_supervisor_run(tracer, span, args, result) -> None:
    if result is None:
        return
    span[4] = {"status": result.status, "attempts": result.attempts}
    bucket = "ok_cell_s" if result.status == "ok" else "failed_cell_s"
    tracer.count(f"harness.supervisor.{bucket}", span[2] - span[1])
    if args[0].backend == "batched":
        # A batched campaign only reaches run() for cells the lockstep
        # attempt could not finish: they re-run alone (width 1) under
        # the serial retry policy.
        tracer.count("sim.batched.fallbacks")


def _after_run_batch(tracer, span, args, results) -> None:
    # The lockstep attempt itself (nested run() calls book their own
    # share): time the group spent producing its ok cells.
    nested = sum(
        other[2] - other[1] for other in tracer.spans
        if other[3] >= 0 and tracer.spans[other[3]] is span
        and other[0] == "harness.supervisor.run"
    )
    tracer.count("harness.supervisor.ok_cell_s",
                 span[2] - span[1] - nested)
    tracer.count("sim.batched.groups")
    tracer.count("sim.batched.cells", len(results or ()))


def _after_execute_lanes(tracer, span, args, done) -> None:
    tracer.count("harness.scheduler.lanes", len(args[0]))


def install(tracer: Tracer) -> None:
    """Wrap the calls into each layer.  ``repro`` must be importable;
    call before any engine, supervisor or ledger is constructed."""
    import repro.analysis.dataflow as dataflow
    import repro.core.processor as processor
    import repro.design as design
    import repro.design.pareto as pareto
    import repro.design.space as space
    import repro.harness as harness
    import repro.harness.scheduler as scheduler
    import repro.harness.supervisor as supervisor
    import repro.harness.sweep as sweep
    import repro.place.snake as snake
    import repro.sim.compile as compile_
    import repro.sim.engine as engine
    import repro.surrogate.features as features
    from repro.harness.ledger import Ledger
    from repro.harness.spec import CellSpec
    from repro.obs.profile import PhaseProfile
    from repro.sim.batched import BatchedEngine
    from repro.sim.memory.hierarchy import MemoryHierarchy
    from repro.sim.network.topology import BandwidthLedger, Interconnect
    from repro.sim.pe.matching import MatchingTable
    from repro.sim.storebuffer.storebuffer import StoreBuffer
    from repro.surrogate.search import SurrogateModel
    from repro.workloads.base import Workload

    import calibrate

    t = tracer
    t.patch(calibrate, "sample", t.hot, "bench.calibrate")
    t.patch(Workload, "instantiate", t.coarse, "lang.build",
            after=_after_build)
    t.patch(Workload, "expected", t.coarse, "lang.interp.reference")

    t.patch(compile_, "compile_graph", t.coarse, "sim.compile.decode")
    t.rebind(engine, "compile_graph", compile_.compile_graph)
    t.patch(compile_, "get_compiled", t.coarse, "sim.compile.lookup")
    t.patch(compile_, "compile_workload", t.coarse, "sim.compile.lookup")

    t.patch(snake, "place", t.coarse, "place.snake")
    t.rebind(processor, "place", snake.place)

    t.patch(engine.Engine, "__init__", t.coarse, "sim.engine.init")

    def coarse_profiled(name, run, after):
        def run_profiled(self, *args, **kwargs):
            # PhaseProfile is the program's own public per-phase clock;
            # attaching one selects the profiled loop twin.
            if self.profile is None:
                self.profile = PhaseProfile()
            return run(self, *args, **kwargs)

        return t.coarse(name, run_profiled, after)

    t.patch(engine.Engine, "run", coarse_profiled, "sim.engine.run",
            after=_after_engine_run)

    t.patch(Interconnect, "route", t.hot, "sim.network.route")
    t.patch(BandwidthLedger, "reserve", t.hot, "sim.network.reserve")
    t.patch(MatchingTable, "insert", t.hot, "sim.pe.matching.insert")
    t.patch(StoreBuffer, "submit_address", t.hot, "sim.storebuffer.submit")
    t.patch(StoreBuffer, "submit_data", t.hot, "sim.storebuffer.submit")
    t.patch(MemoryHierarchy, "access", t.hot, "sim.memory.access")
    t.patch(BatchedEngine, "run", t.coarse, "sim.batched.run_batch",
            after=_after_batch)

    t.patch(supervisor.RunSupervisor, "run", t.coarse,
            "harness.supervisor.run", after=_after_supervisor_run)
    t.patch(supervisor.RunSupervisor, "run_batch", t.coarse,
            "harness.supervisor.run", after=_after_run_batch)
    t.patch(supervisor, "execute_cell", t.child_root,
            "harness.supervisor.child")
    t.patch(supervisor, "execute_batch", t.child_root,
            "harness.supervisor.child")
    t.rebind(harness, "execute_cell", supervisor.execute_cell)

    t.patch(scheduler, "execute_lanes", t.coarse,
            "harness.scheduler.execute_lanes", after=_after_execute_lanes)
    t.rebind(sweep, "execute_lanes", scheduler.execute_lanes)
    t.rebind(harness, "execute_lanes", scheduler.execute_lanes)

    t.patch(Ledger, "append_many", t.coarse, "harness.ledger.append")
    t.patch(Ledger, "load", t.coarse, "harness.ledger.load")
    t.patch(CellSpec, "cell_hash", t.hot, "harness.spec.cell_hash")

    t.patch(sweep, "design_space_sweep", t.coarse, "harness.sweep")
    t.rebind(harness, "design_space_sweep", sweep.design_space_sweep)

    t.patch(dataflow, "bound_for_cell", t.coarse, "analysis.dataflow.bound")
    t.patch(SurrogateModel, "fit", t.coarse, "surrogate.fit")
    t.patch(features, "training_rows", t.coarse, "surrogate.features")
    t.patch(SurrogateModel, "predict_cell", t.hot, "surrogate.predict")

    t.patch(space, "viable_designs", t.coarse, "design.viable_designs")
    t.rebind(design, "viable_designs", space.viable_designs)
    t.patch(pareto, "pareto_front", t.coarse, "design.pareto_front")
    t.rebind(design, "pareto_front", pareto.pareto_front)
