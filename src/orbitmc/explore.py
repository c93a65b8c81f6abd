"""Unified exploration over the full, quotient and counter representations.

``explore`` is the one place a mode becomes a build, and the package's
one caller of ``kripke.breadth_first_build``.  A mode is a codec, an
initial key and a successor rule over keys:

* full: positional ``int`` keys (``program.StateCodec``) stepped by
  ``program.successors``;
* quotient under Sym(n): run-length keys (``runs.RunCodec``, ``int``)
  stepped by ``runs.run_successors``;
* counter: the same keys stepped by ``counter.counter_successors``, which
  names actions by record, and read as ``counter.CounterState`` values
  through ``counter.CounterView``;
* quotient under a generated subgroup (``build_quotient`` only):
  positional ``int`` keys, each successor canonicalized by the ``canon`` of
  ``symmetry.canonical_key_fn``.

A quotient's initial key is the one of ``symmetry.rep_min`` of the
initial state, and every state is labeled when expanded, by
``program.labeling`` on its key, which reads back the parse the
successor rule just made of it (``RunCodec.parts``, ``StateCodec.census``).
The result is the structure with its stats, a ``kripke.BuildStats``.
Every CLI subcommand builds through ``explore``; ``build_full_structure``,
``build_quotient`` and ``build_counter_structure`` are its one-line public
forms.  ``reach`` wraps it for callers that want the reached payloads;
``compare_modes`` reports the state-count reduction of the Sym(n)
structure, which the quotient and counter modes share, over the
unreduced graph.  Everything is sequential and deterministic: identical
inputs give identical structures and counts.
"""

from __future__ import annotations

from .counter import CounterView, _require_pid_free, counter_successors
from .errors import UnsupportedModelError
from .kripke import DEFAULT_STATE_BOUND, breadth_first_build
from .program import atomic_props, labeling, successors
from .quotient import QuotientStructure, _orbit_sizes
from .runs import run_successors
from .symmetry import canonical_key_fn, full_symmetric, rep_min
from .value import Value

MODES = ("full", "quotient", "counter")


def explore(program, mode, state_bound=DEFAULT_STATE_BOUND, stop_at_bad=False, *,
            _tree=False, _group=None):
    """Build the structure of one representation; returns (structure, stats).

    ``stats.bad_reached`` says whether a state labeled ``bad`` was
    inserted.  With ``stop_at_bad`` the worklist halts at the first such
    state and the structure is the partial one seen so far.  ``_tree``,
    for the CLI's checks only, keeps just the discovery tree's edges
    (``kripke.breadth_first_build``); the stats stay those of the full
    structure.  ``_group``, for ``build_quotient`` only, is the quotient's
    group in place of Sym(n).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (have {', '.join(MODES)})")
    view = None
    if mode == "full":
        codec, initial = program.table.codec, program.initial_state()
        expand = lambda key: successors(program, key)
    else:
        group = full_symmetric(program.n) if _group is None else _group
        codec, canon = canonical_key_fn(program, group)
        initial = rep_min(group, program.initial_state(), witness=False)[0]
        if mode == "counter":
            _require_pid_free(program)
            view = CounterView(program)
            expand = lambda key: counter_successors(program, key)
        elif group.kind == "full-symmetric":
            expand = lambda key: run_successors(program, key)
        else:
            expand = lambda key: [(action, canon(t)) for action, t in successors(program, key)]
    return breadth_first_build(
        atomic_props(program),
        codec.encode(initial),
        expand,
        lambda key: labeling(program, key, codec),
        codec=view or codec,
        state_bound=state_bound,
        stop_at_bad=stop_at_bad,
        tree=_tree,
    )


def build_full_structure(program, state_bound=DEFAULT_STATE_BOUND):
    """The full state graph; state ids follow discovery order from the
    initial state, id 0.  Exceeding ``state_bound`` raises a resource
    error that reports the frontier size."""
    return explore(program, "full", state_bound)[0]


def build_quotient(program, group=None, state_bound=DEFAULT_STATE_BOUND):
    """The quotient under ``group``, by default Sym(n), with the orbit size
    of each representative (``quotient.QuotientStructure``)."""
    group = full_symmetric(program.n) if group is None else group
    structure = explore(program, "quotient", state_bound, _group=group)[0]
    return QuotientStructure(structure, _orbit_sizes(program, structure, group), program, group)


def build_counter_structure(program, state_bound=DEFAULT_STATE_BOUND):
    """The counter structure: the Sym(n) quotient read as ``CounterState``s."""
    return explore(program, "counter", state_bound)[0]


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
        stats["counter"] = stats["quotient"]
    except UnsupportedModelError as exc:
        unsupported["counter"] = str(exc)
    factor = stats["full"].states_reached / stats["quotient"].states_reached
    return ModeComparison(stats, unsupported, factor)
