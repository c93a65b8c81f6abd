"""Unified exploration over the full, quotient and counter representations.

``explore`` is the one place a mode name picks a builder: it runs one
breadth-first exploration in the chosen representation and returns the
structure with its stats, a ``kripke.BuildStats``.  Every CLI
subcommand builds through it.
``reach`` wraps it for callers that want the reached payloads;
``compare_modes`` reports the state-count reduction of the Sym(n)
structure, which the quotient and counter modes share, over the
unreduced graph.  Everything is sequential and deterministic:
identical inputs give identical structures and counts.
"""

from __future__ import annotations

from .counter import _build_counter, _require_pid_free
from .errors import UnsupportedModelError
from .kripke import DEFAULT_STATE_BOUND
from .program import _build_full
from .quotient import _build_quotient
from .value import Value

_BUILDERS = {"full": _build_full, "quotient": _build_quotient, "counter": _build_counter}
MODES = tuple(_BUILDERS)


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
    """Explore full mode and the Sym(n) quotient once each and report the
    reduction factor, full over quotient.  Counter mode is the quotient's
    build under other names, so a pid-free program's counter row is the
    quotient's, and a pid-typed one's is unsupported."""
    stats = {mode: explore(program, mode, state_bound)[1] for mode in ("full", "quotient")}
    unsupported = {}
    try:
        _require_pid_free(program)
        stats["counter"] = stats["quotient"]._replace(mode="counter")
    except UnsupportedModelError as exc:
        unsupported["counter"] = str(exc)
    factor = stats["full"].states_reached / stats["quotient"].states_reached
    return ModeComparison(stats, unsupported, factor)
