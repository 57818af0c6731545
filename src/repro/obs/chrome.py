"""Chrome trace-event export of an execution trace.

Converts a :class:`~repro.sim.trace.Trace` into the Chrome
trace-event JSON format (the ``traceEvents`` array flavour), loadable
in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``:

* one track per PE (``tid`` = PE index, named ``PE n``), plus a
  ``store buffer`` track for memory completions, which the engine
  emits with ``pe == -1``;
* ``dispatch``/``execute`` pairs of the same dynamic firing become
  one *complete* slice (``ph: "X"``) spanning DISPATCH through the
  end of EXECUTE -- the Figure 9 pipeline walk-through, zoomable;
* every other event (``input``, ``match``, ``output``, ``mem_req``,
  ...) becomes an *instant* event (``ph: "i"``);
* one simulated cycle maps to one microsecond of trace time (the
  format's native unit), so the Perfetto ruler reads directly in
  cycles.

The module is duck-typed on ``trace.events`` so it never imports the
simulator; :meth:`repro.sim.trace.Trace.to_chrome` is the convenience
wrapper users call.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

#: ``tid`` used for events without a PE (store-buffer completions).
MEMORY_TRACK = "mem"


def _track(pe: int) -> object:
    return MEMORY_TRACK if pe < 0 else pe


def _kind_name(kind) -> str:
    """Trace kinds are strings; an event carrying a raw integer
    calendar tag (:mod:`repro.sim.events`) is mapped to its
    human-readable name defensively, so such a trace still renders
    with ``token``/``dispatch``/... labels rather than bare numbers.
    The import stays lazy (and guarded) to keep this module loadable
    without the simulator package."""
    if isinstance(kind, int):
        try:
            from ..sim.events import tag_name
        except ImportError:
            return f"tag{kind}"
        return tag_name(kind)
    return kind


def chrome_trace_events(events: Iterable) -> list[dict]:
    """The ``traceEvents`` list for an iterable of trace events."""
    out: list[dict] = []
    tracks: set = set()
    # Open dispatches awaiting their execute, keyed by dynamic firing.
    pending: dict[tuple, list[dict]] = {}
    for e in events:
        tracks.add(_track(e.pe))
        kind = _kind_name(e.kind)
        args = {"inst": e.inst, "thread": e.thread, "wave": e.wave}
        if e.detail:
            args["detail"] = e.detail
        if kind == "dispatch":
            slice_event = {
                "name": e.detail or "dispatch",
                "cat": "pipeline",
                "ph": "X",
                "ts": e.cycle,
                "dur": 1,  # widened when the execute arrives
                "pid": 0,
                "tid": _track(e.pe),
                "args": args,
            }
            out.append(slice_event)
            key = (e.pe, e.inst, e.thread, e.wave)
            pending.setdefault(key, []).append(slice_event)
            continue
        if kind == "execute":
            key = (e.pe, e.inst, e.thread, e.wave)
            open_slices = pending.get(key)
            if open_slices:
                slice_event = open_slices.pop(0)
                if not open_slices:
                    del pending[key]
                # EXECUTE completes at e.cycle; give zero-latency ops
                # a 1-cycle slice so they stay visible.
                slice_event["dur"] = max(
                    1, e.cycle - slice_event["ts"]
                )
                continue
            # An execute with no open dispatch (truncated trace):
            # fall through to an instant event.
        out.append({
            "name": kind,
            "cat": "pipeline",
            "ph": "i",
            "s": "t",  # thread-scoped instant
            "ts": e.cycle,
            "pid": 0,
            "tid": _track(e.pe),
            "args": args,
        })
    meta = [{
        "name": "process_name",
        "ph": "M",
        "pid": 0,
        "args": {"name": "WaveScalar simulator"},
    }]
    for track in sorted(tracks, key=str):
        meta.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": track,
            "args": {
                "name": "store buffer" if track == MEMORY_TRACK
                else f"PE {track}"
            },
        })
    return meta + out


def write_chrome_trace(trace, path) -> int:
    """Write ``trace`` as a Chrome trace-event JSON file.

    Returns the number of ``traceEvents`` written (metadata
    included).  The document also records how many events the bounded
    trace dropped, so a truncated export is never mistaken for a
    complete one.
    """
    events = chrome_trace_events(trace.events)
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {
            "tool": "repro.obs.chrome",
            "time_unit": "1 trace us == 1 simulated cycle",
            "events_captured": len(trace.events),
            "events_dropped": trace.dropped,
            "limit": trace.limit,
            "drop_policy": getattr(trace, "policy", "drop_newest"),
        },
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(document, fh, separators=(",", ":"))
        fh.write("\n")
    return len(events)
