"""Integer event tags for the engine's event calendar.

The event loop (``Engine._drain``) handles the token tags and
``EV_IFETCH`` inline and dispatches the rest through a handler table
built once per run and indexed by these tags (an integer index beats
the historical string-compare chain), so the tag values are
*positional*: ``Engine._handlers[tag]`` and ``TAG_NAMES`` must line
up with the constants below.

``EV_TOKEN_BATCH`` carries a tuple of same-cycle token payloads posted
back-to-back by one delivery fan-out; the loop unpacks it token by
token and charges the event budget one event per token, so batching
changes heap traffic but never ``SimStats`` (``events_processed``
counts tokens, exactly as when each travelled alone).

Humans never see the integers: :func:`tag_name` maps them back for
the Chrome trace exporter and error messages.  The profile's phases
are not a property of a tag: :mod:`repro.obs.profile` reads them off
the engine's source lines.
"""

from __future__ import annotations

#: Calendar event tags, in handler-table order.
EV_TOKEN = 0        # operand arrival at a PE (INPUT/MATCH stages)
EV_DISPATCH = 1     # instruction dispatch (DISPATCH/EXECUTE/OUTPUT)
EV_SBADDR = 2       # address operand reaching a store buffer
EV_SBDATA = 3       # data operand reaching a store buffer
EV_IFETCH = 4       # instruction-store fetch completion
EV_RETIRE = 5       # wave retirement bookkeeping
EV_TOKEN_BATCH = 6  # tuple of same-cycle token payloads (one heap entry)

#: Human-readable names, indexed by tag.
TAG_NAMES = (
    "token",
    "dispatch",
    "sbaddr",
    "sbdata",
    "ifetch",
    "retire",
    "token_batch",
)


def tag_name(tag: int) -> str:
    """Human-readable name of a calendar tag (``"tag<n>"`` for
    unregistered values, so diagnostics never raise)."""
    if 0 <= tag < len(TAG_NAMES):
        return TAG_NAMES[tag]
    return f"tag{tag}"
