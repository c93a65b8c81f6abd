"""Counter abstraction: states as occupancy counts per local record.

A counter state keeps the shared valuation plus, sparsely, how many
processes sit in each local record.  For programs without pid-typed
shared variables this is an exact reduction: sorting a concrete state and
counting a concrete state lose exactly the same information, so the
counter structure is isomorphic to the full-symmetry quotient, which
``check_isomorphism`` verifies structure against structure.

A successor moves one unit of occupancy, so it is a splice of the sorted
``(record, count)`` pairs: decrement or drop the firing entry, increment
or insert the target entry at its sorted position.  That costs O(k) for k
occupied records, the counts stay sorted by construction, and
``CounterState`` validates them in one linear pass.

The classic pitfall is the self-exclusion of "other process" guard atoms:
all_others(pc != C) must not count the firing process.  The one guard
evaluator (``Guard.eval``) reads per-pc totals of all n processes and each
such atom takes the firing record out itself, in every mode alike.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import InternalError, UnsupportedModelError
from .kripke import DEFAULT_STATE_BOUND, breadth_first_build
from .program import GlobalState, atomic_props, labeling


@dataclass(frozen=True)
class CounterState:
    """Shared valuation plus (local record, count >= 1) pairs, records
    strictly increasing; one occupancy vector has exactly one form.

    Construction checks both conditions in one linear pass and caches the
    hash, since every state is hashed several times while it is interned.
    """

    shared: tuple
    counts: tuple

    def __post_init__(self):
        prev = None
        for rec, c in self.counts:
            if c < 1:
                raise ValueError("counter states store only positive counts")
            if prev is not None and not prev < rec:
                # a zero count anywhere is reported before a disorder
                if any(k < 1 for _, k in self.counts):
                    raise ValueError("counter states store only positive counts")
                raise ValueError("counts must be sorted by local record")
            prev = rec
        object.__setattr__(self, "_hash", hash((self.shared, self.counts)))

    def __hash__(self):
        return self._hash

    @property
    def n(self):
        return sum(c for _, c in self.counts)

    def encode(self):
        out = bytearray()
        for v in self.shared:
            out += v.to_bytes(4, "big")
        for rec, c in self.counts:
            for v in rec:
                out += v.to_bytes(4, "big")
            out += c.to_bytes(4, "big")
        return bytes(out)


def _require_pid_free(program):
    if not program.table.pid_free:
        names = [program.shared_names[k] for k in program.pid_slots]
        raise UnsupportedModelError(
            f"counter abstraction cannot track pid-typed shared state ({', '.join(names)})"
        )


def to_counter(state):
    """Abstract a concrete state to its occupancy vector."""
    if state.pid_slots:
        raise UnsupportedModelError(
            "counter abstraction cannot track pid-typed shared state"
        )
    tally = {}
    for rec in state.locals:
        tally[rec] = tally.get(rec, 0) + 1
    return CounterState(state.shared, tuple(sorted(tally.items())))


def from_counter(cstate):
    """The unique sorted concrete state with these occupancies."""
    locs = []
    for rec, c in cstate.counts:
        locs.extend([rec] * c)
    return GlobalState(cstate.shared, tuple(locs), ())


def _move_one(counts, a, new_rec):
    """``counts`` with one unit moved from entry ``a`` to ``new_rec``.

    A splice of the sorted pairs: ``new_rec`` gains one unit at its sorted
    position, found by bisection (``(new_rec,)`` sorts just before any
    pair ``(new_rec, c)`` and after every smaller record), then entry ``a``
    loses one and is dropped at zero.  The result is sorted without
    sorting.
    """
    rec, c = counts[a]
    if new_rec == rec:
        return counts
    out = list(counts)
    b = bisect_left(counts, (new_rec,))
    if b < len(counts) and counts[b][0] == new_rec:
        out[b] = (new_rec, counts[b][1] + 1)
    else:
        out.insert(b, (new_rec, 1))
        a += b <= a
    if c > 1:
        out[a] = (rec, c - 1)
    else:
        del out[a]
    return tuple(out)


def counter_successors(program, cstate):
    """All (action, counter state) pairs one step away.

    A command fires once per occupied source record.  The effect moves
    one unit of occupancy from the firing record to the updated one and
    rewrites the shared valuation; the new counts are spliced from the
    old sorted ones in O(k) for k occupied records, so they come out
    sorted by construction.  Guards, action labels (firing record and
    command index) and outcomes come from the table's firing plan for
    ``(shared, record)``.  Pid-typed programs raise
    ``UnsupportedModelError``.
    """
    _require_pid_free(program)
    table = program.table
    shared = cstate.shared
    counts = cstate.counts
    n = program.n
    occ = [0] * len(table.by_pc)
    for rec, c in counts:
        occ[rec[0]] += c
    out = []
    for a, (rec, _) in enumerate(counts):
        for guard, action, outcomes, _ in table.record_plan(shared, rec):
            if not guard.eval(shared, rec, None, occ, n):
                continue
            for new_shared, new_rec, _, _ in outcomes:
                out.append((action, CounterState(new_shared, _move_one(counts, a, new_rec))))
    return out


def _build_counter(program, state_bound=DEFAULT_STATE_BOUND, stop_at_bad=False):
    _require_pid_free(program)
    n = program.n

    def label_counter(cstate):
        concrete = from_counter(cstate)
        if len(concrete.locals) != n:
            raise InternalError(f"occupancy lost a process: {cstate}")
        return labeling(program, concrete)

    return breadth_first_build(
        atomic_props(program),
        [to_counter(program.initial_state())],
        lambda c: counter_successors(program, c),
        label_counter,
        state_bound=state_bound,
        stop_at_bad=stop_at_bad,
    )


def build_counter_structure(program, state_bound=DEFAULT_STATE_BOUND):
    """Worklist construction of the counter structure."""
    structure, _ = _build_counter(program, state_bound)
    return structure


@dataclass
class IsomorphismReport:
    ok: bool
    discrepancy: str | None = None

    def __bool__(self):
        return self.ok


def check_isomorphism(counter_structure, quotient):
    """Verify counter and quotient structures are the same graph.

    The candidate map sends a counter state to its sorted concretization.
    Checked: the map is a bijection onto the quotient payloads, initial
    states correspond, labels agree, and edges map onto edges in both
    directions (action labels disregarded).  Returns a truthy report, or
    a falsy one naming the first discrepancy.
    """
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
