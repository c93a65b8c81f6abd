"""Unified reachability over the full, quotient and counter representations.

``reach`` runs one breadth-first exploration in the chosen representation
and reports statistics; ``compare_modes`` runs every applicable mode on
one program and reports the state-count reduction the canonicalized modes
achieve over the unreduced graph.  Everything is sequential and
deterministic: identical inputs give identical reached sets and counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counter import _build_counter
from .errors import InternalError, UnsupportedModelError
from .kripke import DEFAULT_STATE_BOUND
from .program import _build_full
from .quotient import _build_quotient

MODES = ("full", "quotient", "counter")


@dataclass
class ExplorationStats:
    """What one exploration saw; ``reduction_factor`` only appears in
    comparison reports."""

    mode: str
    states_reached: int
    edges: int
    deadlocks: int
    frontier_peak: int
    duration_ms: float
    bad_reached: bool
    reduction_factor: float | None = None


def _run_mode(program, mode, state_bound, stop_at_bad):
    if mode == "full":
        structure, stats = _build_full(program, state_bound, stop_at_bad)
    elif mode == "quotient":
        structure, stats, _, _ = _build_quotient(
            program, state_bound=state_bound, stop_at_bad=stop_at_bad
        )
    elif mode == "counter":
        structure, stats = _build_counter(program, state_bound, stop_at_bad)
    else:
        raise ValueError(f"unknown mode {mode!r} (have {', '.join(MODES)})")
    return structure, stats


def reach(program, mode, state_bound=DEFAULT_STATE_BOUND, stop_at_bad=False):
    """Explore in one representation; returns (reached payloads, stats).

    With ``stop_at_bad`` the worklist halts as soon as a bad-labeled
    state is inserted and the reached set is the partial one seen so far.
    bad states are recognized by the designated label ``bad``.
    """
    structure, bstats = _run_mode(program, mode, state_bound, stop_at_bad)
    reached = frozenset(structure.payload(sid) for sid in structure.states())
    stats = ExplorationStats(
        mode=mode,
        states_reached=bstats.states_reached,
        edges=bstats.edges,
        deadlocks=bstats.deadlocks,
        frontier_peak=bstats.frontier_peak,
        duration_ms=bstats.duration_ms,
        bad_reached=bstats.bad_reached or _any_bad(structure),
    )
    return reached, stats


def _any_bad(structure):
    if not structure.has_prop("bad"):
        return False
    return any("bad" in structure.label_of(sid) for sid in structure.states())


@dataclass
class ModeComparison:
    """Per-mode stats for one program, plus the quotient reduction factor."""

    stats: dict  # mode -> ExplorationStats
    unsupported: dict  # mode -> reason
    reduction_factor: float


def compare_modes(program, state_bound=DEFAULT_STATE_BOUND):
    """Run every applicable mode and compare their state counts.

    The quotient and counter explorations must agree exactly on state
    and edge count whenever both run, since the quotient fires one
    process per distinct record as the counter abstraction does; the
    reduction factor is full over quotient.
    """
    stats = {}
    unsupported = {}
    for mode in MODES:
        try:
            _, mode_stats = reach(program, mode, state_bound)
        except UnsupportedModelError as exc:
            unsupported[mode] = str(exc)
            continue
        stats[mode] = mode_stats
    if "quotient" in stats and "counter" in stats:
        for field in ("states_reached", "edges"):
            counter_count = getattr(stats["counter"], field)
            quotient_count = getattr(stats["quotient"], field)
            if counter_count != quotient_count:
                raise InternalError(
                    f"counter and quotient explorations disagree on {field}: "
                    f"{counter_count} vs {quotient_count}"
                )
    factor = stats["full"].states_reached / stats["quotient"].states_reached
    for mode in ("quotient", "counter"):
        if mode in stats:
            stats[mode].reduction_factor = factor
    return ModeComparison(stats, unsupported, factor)
