"""Integer event tags for the engine's event calendar.

The event loop (``Engine._drain``) handles the token tags and
``EV_IFETCH`` inline and dispatches the rest through a handler table
built once per run and indexed by these tags (an integer index beats
the historical string-compare chain), so the tag values are
*positional*: ``Engine._handlers[tag]`` must line up with the
constants below, and ``TAG_NAMES``/``TAG_PHASES`` are parallel tuples.

``EV_TOKEN_BATCH`` carries a tuple of same-cycle token payloads posted
back-to-back by one delivery fan-out; the loop unpacks it token by
token and charges the event budget one event per token, so batching
changes heap traffic but never ``SimStats`` (``events_processed``
counts tokens, exactly as when each travelled alone).

Humans never see the integers: :func:`tag_name` and :func:`tag_phase`
map them back for :mod:`repro.obs.profile` output, the Chrome trace
exporter, and error messages.
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

#: Profile phase charged per tag (repro.obs.profile.PHASES).  The
#: finer stages (match, execute, deliver) are attributed by inner
#: push/pop sites on the hot path; stack-based self-time accounting
#: in PhaseProfile keeps the phases disjoint.
TAG_PHASES = (
    "input",    # token
    "dispatch",  # dispatch
    "memory",   # sbaddr
    "memory",   # sbdata
    "other",    # ifetch
    "other",    # retire
    "input",    # token_batch
)


def tag_name(tag: int) -> str:
    """Human-readable name of a calendar tag (``"tag<n>"`` for
    unregistered values, so diagnostics never raise)."""
    if 0 <= tag < len(TAG_NAMES):
        return TAG_NAMES[tag]
    return f"tag{tag}"


def tag_phase(tag: int) -> str:
    """Profile phase a calendar tag is charged to."""
    if 0 <= tag < len(TAG_PHASES):
        return TAG_PHASES[tag]
    return "other"
