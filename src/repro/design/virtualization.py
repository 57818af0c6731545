"""Matching-table tuning: the Table 4 machinery (Section 4.2).

The paper balances matching-table capacity against instruction-store
capacity through the *matching table equation* ``M = V*k/u``:

* ``k`` -- the k-loop bound: at most ``k`` input instances may
  accumulate per static instruction.  ``k_opt`` is found per
  application by raising ``k`` on a processor with an infinite
  matching table until performance stops improving.
* ``u`` -- the over-subscription factor.  ``u_opt`` is the largest
  ``u`` (with ``V = 256``, ``M = 256*k_opt/u``) before performance
  drops significantly.
* ``k_opt / u_opt`` is the application's *virtualization ratio*; the
  processor-wide ratio is chosen as the (power-of-two) maximum over
  the workload suite -- 1 in the paper.

The sweep drivers here are pure algorithms over a caller-supplied
``evaluate(k, matching_entries) -> performance`` function, so unit
tests can exercise them with analytic stand-ins and the benchmark
harness plugs in the real simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

#: "Infinite" matching table stand-in for the k sweep.
INFINITE_MATCHING = 1 << 20

#: Improvement below this fraction counts as "no longer improves".
K_IMPROVEMENT_THRESHOLD = 0.02

#: Performance drop beyond this fraction counts as "decreases
#: significantly" for the u sweep.
U_DROP_THRESHOLD = 0.05

#: The k values the k sweep tries, and the u values the u sweep tries.
K_CANDIDATES = (1, 2, 3, 4, 6, 8)
U_CANDIDATES = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class TuningResult:
    """Per-application Table 4 row.  A sweep in which no candidate
    scored above zero has no answer: ``failure`` says why (the failure
    class its runs ended in), and what it could not find is None."""

    application: str
    k_opt: Optional[int]
    u_opt: Optional[int]
    virtualization_ratio: Optional[float]
    failure: Optional[str] = None

    @property
    def answered(self) -> bool:
        return self.failure is None


def find_k_opt(evaluate: Callable[[int, int], float]) -> Optional[int]:
    """Smallest k whose successor yields < ``K_IMPROVEMENT_THRESHOLD``
    improvement, or None if no candidate scores above zero.

    ``evaluate(k, matching_entries)`` returns performance (higher is
    better); the sweep runs with an effectively infinite matching
    table.
    """
    best_k = K_CANDIDATES[0]
    best_perf = evaluate(K_CANDIDATES[0], INFINITE_MATCHING)
    for k in K_CANDIDATES[1:]:
        perf = evaluate(k, INFINITE_MATCHING)
        if (best_perf > 0 and (perf - best_perf) / best_perf
                < K_IMPROVEMENT_THRESHOLD):
            return best_k
        best_k, best_perf = k, perf
    return best_k if best_perf > 0 else None  # every candidate scored 0


def find_u_opt(
    evaluate: Callable[[int, int], float],
    k_opt: int,
    v: int = 256,
) -> Optional[int]:
    """Largest u before performance drops by > ``U_DROP_THRESHOLD``
    relative to the unsubscribed (u=1) baseline, or None if that scores
    zero."""
    baseline = evaluate(k_opt, max(1, v * k_opt))
    if baseline <= 0:
        return None
    best_u = U_CANDIDATES[0]
    for u in U_CANDIDATES:
        entries = max(1, (v * k_opt) // u)
        perf = evaluate(k_opt, entries)
        if (baseline - perf) / baseline > U_DROP_THRESHOLD:
            break
        best_u = u
    return best_u


def tune_application(
    name: str,
    evaluate: Callable[[int, int], float],
    v: int = 256,
) -> TuningResult:
    """Full Table 4 row for one application (one without an answer if
    either sweep found none)."""
    k_opt = find_k_opt(evaluate)
    u_opt = None if k_opt is None else find_u_opt(evaluate, k_opt, v=v)
    if u_opt is None:
        return TuningResult(name, k_opt, None, None,
                            failure="every candidate scored 0")
    return TuningResult(
        application=name,
        k_opt=k_opt,
        u_opt=u_opt,
        virtualization_ratio=k_opt / u_opt,
    )


def processor_ratio(results: Sequence[TuningResult]) -> float:
    """The processor-wide virtualization ratio: the maximum
    per-application ratio, rounded up to a power of two (the paper's
    conservative choice -- instruction misses cost ~3x matching
    misses, so err toward instruction capacity).  Rows without an
    answer are refused by name."""
    if not results:
        raise ValueError("no tuning results")
    unanswered = [r for r in results if not r.answered]
    if unanswered:
        raise ValueError("no Table 4 answer for " + ", ".join(
            f"{r.application} ({r.failure})" for r in unanswered
        ))
    worst = max(r.virtualization_ratio for r in results)
    ratio = 1.0 / 8.0
    while ratio < worst:
        ratio *= 2.0
    return ratio
