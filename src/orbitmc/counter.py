"""Counter abstraction: states as occupancy counts per local record.

A counter state keeps the shared valuation plus, sparsely, how many
processes sit in each local record.  Without pid-typed shared variables
that is the full-symmetry quotient under other names, and one structure
with it: the run-length keys of ``runs.RunCodec`` (the shared values,
then one ``(record code, count)`` pair per distinct record, codes
increasing, each count 1 byte wide up to n = 255 and 2 bytes past that),
stepped by ``runs.run_successors`` as a one-unit splice of the pairs.
Counter mode names actions ``"<record>/<j>"`` and decodes payloads to
``CounterState`` (``CounterView``).

The classic pitfall is the self-exclusion of "other process" guard atoms:
all_others(pc != C) must not count the firing process.  The one guard
evaluator (``Guard.eval``) reads per-pc totals of all n processes and each
such atom takes the firing record out itself, in every mode alike.
"""

from __future__ import annotations

from itertools import groupby

from .errors import UnsupportedModelError
from .kripke import DEFAULT_STATE_BOUND, breadth_first_build
from .program import GlobalState, atomic_props, labeling
from .runs import run_successors
from .value import Value, _init2


class CounterState(Value):
    """Shared valuation plus (local record, count >= 1) pairs, records
    strictly increasing, so one occupancy vector has exactly one form: the
    decoded view of a counter structure's keys.  Construction checks both
    conditions in one linear pass and caches the hash."""

    __slots__ = ("shared", "counts", "_hash")

    def __init__(self, shared, counts):
        prev = None
        for rec, c in counts:
            if c < 1:
                raise ValueError("counter states store only positive counts")
            if prev is not None and not prev < rec:
                # a zero count anywhere is reported before a disorder
                if any(k < 1 for _, k in counts):
                    raise ValueError("counter states store only positive counts")
                raise ValueError("counts must be sorted by local record")
            prev = rec
        _init2(self, shared, counts)
        object.__setattr__(self, "_hash", hash(self._values))

    def __hash__(self):
        return self._hash

    @property
    def n(self):
        return sum(c for _, c in self.counts)


class CounterView:
    """A program's run-length keys read as ``CounterState`` values: the
    codec a counter structure speaks through.  Record order is code
    order, so the pairs of a counter state are the key's runs."""

    def __init__(self, program):
        self.runs = program.table.runs

    def encode(self, cstate):
        if type(cstate) is not CounterState:
            raise ValueError(f"{cstate!r} is not a counter state")
        code = self.runs.codec.code
        return self.runs.pack(cstate.shared, (), tuple((code(rec), c) for rec, c in cstate.counts))

    def decode(self, key):
        shared, _, codes, counts, _ = self.runs.parts(key)
        return CounterState(shared, tuple(zip(map(self.runs.codec.record, codes), counts)))


def _require_pid_free(program):
    if not program.table.pid_free:
        names = ", ".join(program.shared_names[k] for k in program.pid_slots)
        message = f"counter abstraction cannot track pid-typed shared state ({names})"
        raise UnsupportedModelError(message)


def to_counter(state):
    """Abstract a concrete state to its occupancy vector."""
    if state.pid_slots:
        raise UnsupportedModelError("counter abstraction cannot track pid-typed shared state")
    runs = groupby(sorted(state.locals))
    return CounterState(state.shared, tuple((rec, len(list(run))) for rec, run in runs))


def from_counter(cstate):
    """The unique sorted concrete state with these occupancies."""
    return GlobalState(cstate.shared, tuple(rec for rec, c in cstate.counts for _ in range(c)), ())


def counter_successors(program, cstate):
    """All (action, counter state) pairs one step away, by
    ``runs.run_successors``: a command fires once per occupied record, with
    the action ``"<record>/<j>"``.  ``cstate`` is a run-length key, and so
    are the successors; given a ``CounterState``, they are decoded ones.
    Pid-typed programs raise ``UnsupportedModelError``."""
    _require_pid_free(program)
    if not isinstance(cstate, CounterState):
        return run_successors(program, cstate, counter=True)
    view = CounterView(program)
    return [(a, view.decode(k)) for a, k in run_successors(program, view.encode(cstate), True)]


def _build_counter(program, state_bound=DEFAULT_STATE_BOUND, stop_at_bad=False, tree=False):
    _require_pid_free(program)
    runs = program.table.runs
    return breadth_first_build(
        atomic_props(program),
        [runs.encode(program.initial_state())],
        lambda key: counter_successors(program, key),
        lambda key: labeling(program, key, runs),
        codec=CounterView(program),
        state_bound=state_bound,
        stop_at_bad=stop_at_bad,
        tree=tree,
    )


def build_counter_structure(program, state_bound=DEFAULT_STATE_BOUND):
    """Worklist construction of the counter structure."""
    structure, _ = _build_counter(program, state_bound)
    return structure


class IsomorphismReport(Value, frozen=False):
    __slots__ = ("ok", "discrepancy")
    _defaults = (None,)

    def __bool__(self):
        return self.ok


def check_isomorphism(counter_structure, quotient):
    """Verify counter and quotient structures are the same graph, under the
    map from a counter state to its sorted concretization: a bijection onto
    the quotient payloads that keeps initial states, labels and edges both
    ways (actions disregarded).  Returns a truthy report, or a falsy one
    naming the first discrepancy."""
    qstruct = quotient.structure
    mapping = {}
    for cid in counter_structure.states():
        concrete = from_counter(counter_structure.payload(cid))
        if not qstruct.has_state(concrete):
            return IsomorphismReport(
                False, f"counter state {counter_structure.payload(cid)} has no quotient twin"
            )
        mapping[cid] = qstruct.state_of(concrete)
    if len(set(mapping.values())) != len(mapping):
        return IsomorphismReport(False, "concretization is not injective")
    if len(mapping) != qstruct.num_states:
        return IsomorphismReport(
            False,
            f"state counts differ: {counter_structure.num_states} counter"
            f" vs {qstruct.num_states} quotient",
        )
    if {mapping[cid] for cid in counter_structure.init} != set(qstruct.init):
        return IsomorphismReport(False, "initial states do not correspond")
    for cid, qid in mapping.items():
        if counter_structure.label_of(cid) != qstruct.label_of(qid):
            return IsomorphismReport(
                False,
                f"labels differ on {counter_structure.payload(cid)}: "
                f"{set(counter_structure.label_of(cid))} vs {set(qstruct.label_of(qid))}",
            )
    counter_edges = {(mapping[s], mapping[t]) for s, _, t in counter_structure.edges()}
    quotient_edges = {(s, t) for s, _, t in qstruct.edges()}
    for edge in sorted(counter_edges - quotient_edges):
        return IsomorphismReport(False, f"counter edge {edge} missing from quotient")
    for edge in sorted(quotient_edges - counter_edges):
        return IsomorphismReport(False, f"quotient edge {edge} missing from counter")
    return IsomorphismReport(True)
