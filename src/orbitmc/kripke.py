"""Explicit Kripke structures with labeled transitions.

States are opaque payloads keyed by value, so re-adding an existing payload
is a no-op that returns the original id.  Atomic propositions are names:
a structure holds a fixed set of them, each state's label is a subset,
and ``init`` marks the initial set.  A structure given a ``codec``
stores each payload as the codec's ``bytes`` key and speaks payloads at
its interface: ``add_state`` takes either form, ``payload`` decodes,
``state_of`` and ``has_state`` encode.  The transition relation is kept
as int-indexed successor lists of ``(action, target)`` pairs, deduplicated
per source, with an edge counter.  The ``(source, action)`` lists per
target are derived from them in one pass on the first reverse read
(``predecessors``, ``preimage``, ``in_degree``) and kept in sync from then
on, so a structure that is only explored forwards (``reach``, ``compare``,
a check whose backward fixpoints start empty) never stores an edge twice.
A target's predecessors are ordered by source id, then by the source's
edge order; an edge added after the first reverse read comes after them.
On top of the lists sit the set-valued image/preimage operators, which
is everything the CTL fixpoint routines need.  The module also hosts the
deterministic worklist builder, from one initial state, that ``explore``
calls for every mode.  For a check of ``AG p`` or ``EF p`` with a
propositional ``p`` it stores only the breadth-first discovery tree, one
edge per state, while counting every edge for the stats: every reachable
state hangs in the one tree rooted at the initial state, and
reachability and shortest paths from it read the same on the tree as on
the full structure.

Structures are built single-writer and are safe for concurrent read-only
use afterwards: the reverse lists are built into a local and published
by one assignment, so concurrent first readers at worst build them twice.
No operation mutates after construction except ``totalize``, which is
part of construction.
"""

from __future__ import annotations

import time
from collections import deque

from .errors import ResourceLimitError
from .value import Value

STUTTER_ACTION = "stutter"
DEFAULT_STATE_BOUND = 10**6

INIT_PROP = "init"


class Path(Value):
    """A finite path.  ``states`` holds payloads, ``actions`` labels steps.

    ``lasso``, when set, is the index of the state the final state loops
    back to, turning the path into an infinite-path witness.
    """

    __slots__ = ("states", "actions", "lasso")

    def __init__(self, states, actions, lasso=None):
        if len(states) == 0:
            raise ValueError("a path has at least one state")
        if len(actions) != len(states) - 1:
            raise ValueError("need exactly one action per step")
        if lasso is not None and not (0 <= lasso < len(states)):
            raise ValueError("lasso index out of range")
        Value.__init__(self, states, actions, lasso)

    @property
    def steps(self):
        return len(self.actions)

    def is_path_of(self, structure):
        """True iff every consecutive pair (and the lasso edge) is an edge."""
        try:
            ids = [structure.state_of(p) for p in self.states]
        except KeyError:
            return False
        for k in range(len(ids) - 1):
            if not structure.has_edge(ids[k], self.actions[k], ids[k + 1]):
                return False
        if self.lasso is not None:
            src, dst = ids[-1], ids[self.lasso]
            if not any(d == dst for _, d in structure.successors(src)):
                return False
        return True


class KripkeStructure:
    """States, initial set, labeled edges and AP labeling."""

    def __init__(self, props=(), codec=None):
        self._codec = codec
        self._props = frozenset(props)
        self._payloads = []
        self._index = {}
        self._labels = []
        self._succ = []  # per source: (action, target) pairs, each at most once
        self._pred = None  # per target: (source, action) pairs, once a reverse read built them
        self._num_edges = 0
        self.init = set()

    # -- atomic propositions ------------------------------------------------

    def props(self):
        """The names of the atomic propositions, a frozenset."""
        return self._props

    # -- states --------------------------------------------------------------

    def add_state(self, payload, labels=(), initial=False):
        """Register ``payload`` and return its id; idempotent per payload.

        Re-adding an existing payload with a different label set is
        rejected, since labels are a function of the payload everywhere
        this structure is built from.
        """
        labels = frozenset(labels)
        if not labels <= self._props:
            raise ValueError(f"label {min(labels - self._props)!r} is not in the AP set")
        if self._codec is not None and not isinstance(payload, bytes):
            payload = self._codec.encode(payload)
        sid = self._index.get(payload)
        if sid is None:
            sid = len(self._payloads)
            self._payloads.append(payload)
            self._index[payload] = sid
            self._labels.append(labels)
            self._succ.append([])
            if self._pred is not None:
                self._pred.append([])
        elif self._labels[sid] != labels:
            raise ValueError(
                f"payload re-added with different labels: {labels} vs {self._labels[sid]}"
            )
        if initial:
            self.init.add(sid)
        return sid

    @property
    def num_states(self):
        return len(self._payloads)

    @property
    def num_edges(self):
        return self._num_edges

    def states(self):
        return range(len(self._payloads))

    def key(self, sid):
        """The stored form of state ``sid``: its codec key, or its payload."""
        return self._payloads[sid]

    def payload(self, sid):
        if self._codec is None:
            return self._payloads[sid]
        return self._codec.decode(self._payloads[sid])

    def _stored(self, payload):
        """The stored form of ``payload``; KeyError if it has none."""
        if self._codec is None:
            return payload
        try:
            return self._codec.encode(payload)
        except ValueError:
            raise KeyError(f"{payload!r} is not a state of this structure") from None

    def state_of(self, payload):
        return self._index[self._stored(payload)]

    def has_state(self, payload):
        try:
            return self._stored(payload) in self._index
        except KeyError:
            return False

    def label_of(self, sid):
        self._check_id(sid)
        return self._labels[sid]

    def sat_atom(self, name):
        """All states labeled with the named proposition."""
        if name not in self._props:
            raise ValueError(f"unknown atomic proposition {name!r}")
        return {sid for sid in self.states() if name in self._labels[sid]}

    def _check_id(self, sid):
        if not isinstance(sid, int) or not 0 <= sid < len(self._payloads):
            raise KeyError(f"unknown state id {sid!r}")

    # -- edges ---------------------------------------------------------------

    def add_edge(self, src, action, dst):
        succ = self._succ
        count = len(succ)
        # the ids a builder passes are plain ints it has just issued; anything
        # else takes the full check, which raises KeyError on an unknown id
        if not (type(src) is type(dst) is int and 0 <= src < count and 0 <= dst < count):
            self._check_id(src)
            self._check_id(dst)
        out = succ[src]
        step = (action, dst)
        if step in out:
            return
        out.append(step)
        if self._pred is not None:
            self._pred[dst].append((src, action))
        self._num_edges += 1

    def has_edge(self, src, action, dst):
        if not isinstance(src, int) or not 0 <= src < len(self._succ):
            return False
        return (action, dst) in self._succ[src]

    def edges(self):
        """All (source, action, target) triples in deterministic order."""
        for src in self.states():
            for action, dst in self._succ[src]:
                yield (src, action, dst)

    def successors(self, sid):
        self._check_id(sid)
        return list(self._succ[sid])

    def predecessors(self, sid):
        """(source, action) pairs into ``sid``, in the order of the module
        docstring."""
        self._check_id(sid)
        return list((self._pred or self._reverse())[sid])

    def out_degree(self, sid):
        self._check_id(sid)
        return len(self._succ[sid])

    def in_degree(self, sid):
        self._check_id(sid)
        return len((self._pred or self._reverse())[sid])

    def _reverse(self):
        """The predecessor lists, built from the successor lists in one pass."""
        pred = [[] for _ in self._succ]
        for src, out in enumerate(self._succ):
            for action, dst in out:
                pred[dst].append((src, action))
        self._pred = pred
        return pred

    # -- set-valued operators --------------------------------------------------

    def image(self, state_set):
        """Successor set of ``state_set`` under one transition."""
        out = set()
        for sid in state_set:
            self._check_id(sid)
            out.update(dst for _, dst in self._succ[sid])
        return out

    def preimage(self, state_set):
        """Predecessor set of ``state_set`` under one transition."""
        pred = self._pred or self._reverse()
        out = set()
        for sid in state_set:
            self._check_id(sid)
            out.update(src for src, _ in pred[sid])
        return out

    # -- totalization -----------------------------------------------------------

    def deadlocked_states(self):
        return [sid for sid in self.states() if not self._succ[sid]]

    def is_total(self):
        return not self.deadlocked_states()

    def totalize(self):
        """Make the transition relation total by one stutter loop per
        deadlocked state; returns (self, deadlock ids)."""
        dead = self.deadlocked_states()
        for sid in dead:
            self.add_edge(sid, STUTTER_ACTION, sid)
        return self, dead

    # -- export --------------------------------------------------------------

    def export_dot(self, graph_name="M", payload_renderer=None):
        """Deterministic DOT text: states by id, edges lexicographic."""
        lines = [f"digraph {graph_name} {{"]
        for sid in self.states():
            if payload_renderer is not None:
                text = payload_renderer(self.payload(sid))
            else:
                text = str(sid)
            labels = sorted(self._labels[sid])
            if labels:
                text += " {" + ",".join(labels) + "}"
            attrs = [f'label="{text}"']
            if sid in self.init:
                attrs.append("peripheries=2")
            lines.append(f'  {sid} [{", ".join(attrs)}];')
        for src, action, dst in sorted(self.edges()):
            lines.append(f'  {src} -> {dst} [label="{action}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


class BuildStats(Value, frozen=False):
    """Counters gathered while a structure is explored."""

    __slots__ = ("states_reached", "edges", "deadlocks", "frontier_peak", "bad_reached",
                 "duration_ms")
    _defaults = (0, 0, 0, 0, False, 0.0)


def breadth_first_build(
    props,
    initial,
    expand,
    labeler,
    *,
    codec=None,
    state_bound=DEFAULT_STATE_BOUND,
    stop_at_bad=False,
    tree=False,
):
    """Worklist construction of a structure from the one payload
    ``initial``, breadth first and deterministic.

    ``expand(payload)`` must return (action, payload) successor pairs in a
    deterministic order; insertion order then fixes state numbering, so
    two runs over the same inputs produce identical structures.
    ``stats.bad_reached`` records whether a state labeled ``bad`` was
    inserted; with ``stop_at_bad`` the loop halts at the first such state,
    leaving a partial structure.

    The structure's propositions are ``props`` and ``init``.  The initial
    state is the first one inserted, state 0, and it alone gets the
    ``init`` label on top of whatever ``labeler`` assigns, keeping labels a
    pure function of the payload even when exploration cycles back to it.
    With a ``codec`` the payloads handed in and out are its keys, and the
    structure stores them as they are (see ``KripkeStructure``).

    With ``tree`` the structure keeps only the edge that discovered each
    state, still through ``add_edge``, while ``stats.edges`` counts each
    expansion's distinct (action, target) pairs, so the stats, partial
    ones included, are those of the full build.  A tree build takes no
    ``stop_at_bad``; ``ctl.decided_by_tree`` says which checks read the
    same result off it.
    """
    if state_bound < 1:
        raise ValueError("state_bound must be >= 1")
    if tree and stop_at_bad:
        raise ValueError("a tree build takes no stop_at_bad")
    started = time.perf_counter()
    structure = KripkeStructure({*props, INIT_PROP}, codec)
    stats = BuildStats()
    queue = deque()
    index = structure._index
    payloads = structure._payloads

    label_sets = {}  # one frozenset per distinct label set, shared by its states

    def insert(payload):
        # only for payloads not yet in the index: the callers look them up
        if len(payloads) >= state_bound:
            stats.states_reached = structure.num_states
            stats.edges = structure.num_edges
            stats.frontier_peak = max(stats.frontier_peak, len(queue))
            raise ResourceLimitError(
                f"state bound {state_bound} exceeded; frontier size {len(queue)}",
                partial_stats=stats,
            )
        labels = frozenset(labeler(payload))
        initial = not payloads
        if initial:
            labels |= {INIT_PROP}
        labels = label_sets.setdefault(labels, labels)
        sid = structure.add_state(payload, labels, initial=initial)
        queue.append(sid)
        if "bad" in labels:
            stats.bad_reached = True
        return sid

    insert(initial)
    stats.frontier_peak = 1

    add_edge = structure.add_edge
    counted = 0  # with ``tree``: the edges of the states expanded so far
    try:
        while queue and not (stop_at_bad and stats.bad_reached):
            sid = queue.popleft()
            succs = expand(payloads[sid])
            if not succs:
                stats.deadlocks += 1
            for action, target in succs:
                tid = index.get(target)
                if tid is None:
                    tid = insert(target)
                elif tree:
                    continue
                add_edge(sid, action, tid)
                if stop_at_bad and stats.bad_reached:
                    break
            if tree:
                counted += len(set(succs))
            if len(queue) > stats.frontier_peak:
                stats.frontier_peak = len(queue)
    except ResourceLimitError as exc:
        if tree:
            # the full build stored the pairs before the one that overran
            done = next(k for k, (_, target) in enumerate(succs) if target not in index)
            exc.partial_stats.edges = counted + len(set(succs[:done]))
        raise

    stats.states_reached = structure.num_states
    stats.edges = counted if tree else structure.num_edges
    stats.duration_ms = (time.perf_counter() - started) * 1000.0
    return structure, stats
