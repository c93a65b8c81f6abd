"""Unified exploration over the full, quotient and counter representations.

``explore`` is the one place a mode name picks a builder: it runs one
breadth-first exploration in the chosen representation and returns the
structure with its stats, a ``kripke.BuildStats`` (also importable as
``ExplorationStats``).  Every CLI subcommand builds through it.
``reach`` wraps it for callers that want the reached payloads;
``compare_modes`` runs every applicable mode on one program and reports
the state-count reduction the canonicalized modes achieve over the
unreduced graph.  Everything is sequential and deterministic:
identical inputs give identical structures and counts.
"""

from __future__ import annotations

from .counter import _build_counter
from .errors import InternalError, UnsupportedModelError
from .kripke import DEFAULT_STATE_BOUND, BuildStats
from .program import _build_full
from .quotient import _build_quotient
from .value import Value

_BUILDERS = {"full": _build_full, "quotient": _build_quotient, "counter": _build_counter}
MODES = tuple(_BUILDERS)

ExplorationStats = BuildStats


def explore(program, mode, state_bound=DEFAULT_STATE_BOUND, stop_at_bad=False, *, _tree=False):
    """Build the structure of one representation; returns (structure, stats).

    ``stats.bad_reached`` says whether a state labeled ``bad`` was
    inserted.  With ``stop_at_bad`` the worklist halts at the first such
    state and the structure is the partial one seen so far.  ``_tree``,
    for the CLI's checks only, keeps just the discovery tree's edges
    (``kripke.breadth_first_build``); the stats stay those of the full
    structure.
    """
    if mode not in _BUILDERS:
        raise ValueError(f"unknown mode {mode!r} (have {', '.join(MODES)})")
    structure, stats = _BUILDERS[mode](program, state_bound, stop_at_bad, tree=_tree)
    stats.mode = mode
    return structure, stats


def reach(program, mode, state_bound=DEFAULT_STATE_BOUND, stop_at_bad=False):
    """Explore in one representation; returns (reached payloads, stats)."""
    structure, stats = explore(program, mode, state_bound, stop_at_bad)
    return frozenset(map(structure.payload, structure.states())), stats


class ModeComparison(Value, frozen=False):
    """Per-mode stats for one program, plus the quotient reduction factor."""

    __slots__ = ("stats", "unsupported", "reduction_factor")  # mode -> stats, mode -> reason


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
            _, mode_stats = explore(program, mode, state_bound)
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
