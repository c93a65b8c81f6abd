"""Counter abstraction: states as occupancy counts per local record.

A counter state keeps the shared valuation plus, sparsely, how many
processes sit in each local record.  Without pid-typed shared variables
that is the full-symmetry quotient under other names, and counter mode
is its build (``explore.explore``): the run-length ``int`` keys of
``runs.RunCodec`` (the shared values, then one ``(record code, count)``
pair per distinct record, codes increasing), stepped by integer
arithmetic in ``runs.run_successors``, with actions named ``"<record>/<j>"`` and
payloads decoded to ``CounterState`` (``CounterView``).  A program's
counter structure and its quotient are thus one graph, the same keys,
labels and edges in the same order, and ``from_counter`` of a counter
payload is the quotient's payload of that id.

The classic pitfall is the self-exclusion of "other process" guard atoms:
all_others(pc != C) must not count the firing process.  The one guard
evaluator (``Guard.eval``) reads per-pc totals of all n processes and each
such atom takes the firing record out itself, in every mode alike.
"""

from __future__ import annotations

from itertools import groupby

from .errors import UnsupportedModelError
from .program import GlobalState
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
        if type(cstate) is not CounterState or cstate.n != self.runs.n:
            raise ValueError(f"{cstate!r} is not a counter state of {self.runs.n} processes")
        code = self.runs.codec.code
        return self.runs.pack(cstate.shared, (), tuple((code(rec), c) for rec, c in cstate.counts))

    def decode(self, key):
        shared, _, codes, counts, _ = self.runs.parts(key)
        if sum(counts) != self.runs.n:
            raise ValueError(f"{key!r} is no counter key of {self.runs.n} processes")
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
    if not program.table.pid_free:
        _require_pid_free(program)
    if not isinstance(cstate, CounterState):
        return run_successors(program, cstate, counter=True)
    view = CounterView(program)
    return [(a, view.decode(k)) for a, k in run_successors(program, view.encode(cstate), True)]
