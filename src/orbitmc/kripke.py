"""Explicit Kripke structures with labeled transitions.

States are opaque payloads keyed by value, so re-adding an existing payload
is a no-op that returns the original id.  Atomic propositions are names:
a structure holds a fixed set of them, each state's label is a subset,
and ``init`` marks the initial set.  A structure given a ``codec``
stores each payload as the codec's key, an ``int`` (positional or
run-length), and speaks payloads at its interface: ``payload`` decodes,
and ``add_state``, ``state_of`` and ``has_state`` take an ``int`` as a
key and encode any other payload; ``add_state`` refuses a new key that
its codec cannot decode.

The transition relation is stored as flat ``array``s in compressed
sparse rows: the edges of state s are the positions ``offsets[s]`` to
``offsets[s + 1]`` of ``targets`` (target ids) and ``actions`` (ids into
the structure's table of action names, each name interned once), kept in
the order they were added.  A structure is written once, then read.  Its
writer adds each source's edges as one block, sources in increasing id
order, all before the first read; ``breadth_first_build`` expands states
in id order, so it always does.  ``add_edge`` appends each edge it is
given, a repeat too, and the builder writes each block whole by the same
rule.  Adding a source's block closes every block before it, and the
first read closes them all: it turns the writer's lists into arrays with
an offset past every state.  From then on ``add_edge`` raises
``ValueError``, as it does for an edge into any closed block, and so does
``add_state`` for a new payload.  The reverse relation, ``predecessors``,
``preimage`` and ``in_degree``, is built on the first reverse read by a
counting sort into two more arrays, offsets and source ids, so a
structure that is only explored forwards (``reach``, ``compare``, a
check whose backward fixpoints start empty) never holds its edges in
both directions.  A target's predecessors are ordered by source id, then
by the source's edge order.

``totalize`` stores no edge, and since it reads, no edge follows it.  It
records the states it found deadlocked, and every read shows each of
them with one stutter self-loop ahead of its stored edges, as if that
loop were stored.  The reads that fixpoints and searches make speak ids:
``successor_ids`` and ``predecessors`` give one state id per edge, and
only ``successors``, ``edges`` and ``has_edge`` name actions.  Two bulk
reads serve the CTL fixpoints, which speak ``bytes`` of one flag per
state id: ``label_flags`` flags the states that carry a proposition, and
``edge_counts`` counts each state's edges into a flagged set, both
linear in states plus edges.  On top sit the set-valued image/preimage
operators.  The module also hosts the deterministic worklist builder, from one
initial state, that ``explore`` calls for every mode; it labels each
state when it expands it, right after its successors.  For a check of
``AG p`` or ``EF p`` with a propositional ``p`` it stores only the
breadth-first discovery tree, one edge per state, while counting every
edge for the stats: every reachable state hangs in the one tree rooted at
the initial state, and reachability and shortest paths from it read the
same on the tree as on the full structure.

A built structure is safe for concurrent reads: a first read builds its
read form into new arrays and publishes it by one assignment, so
concurrent first readers at worst build it twice.
"""

from __future__ import annotations

import time
from array import array
from collections import deque
from itertools import accumulate, compress, islice, repeat
from operator import add, and_, contains, eq

from .errors import ResourceLimitError
from .value import Value

STUTTER_ACTION = "stutter"
DEFAULT_STATE_BOUND = 10**6

INIT_PROP = "init"

# array typecodes: state and action ids, and offsets into the edge arrays
_ID, _OFFSET = "i", "q"


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
            if ids[self.lasso] not in structure.successor_ids(ids[-1]):
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
        # the edges: (offsets, targets, actions).  The block of the last source
        # in ``offsets``, the open one, runs to the end of ``targets``.  They
        # are lists until the first read makes them arrays, since a list
        # appends in a fraction of an array's time
        self._edges = ([0], [], [])
        self._action_ids = {}
        self._action_names = []
        # derived on read: (offsets, targets, actions, dead) over every state,
        # dead holding 1 for each state ``totalize`` found deadlocked; the
        # reverse (offsets, sources); and the deadlocks
        self._rows = self._pred = self._deadlocks = None
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
        this structure is built from, and so is a new payload after the
        first read, or a new key that the codec cannot decode.
        """
        labels = frozenset(labels)
        if not labels <= self._props:
            raise ValueError(f"label {min(labels - self._props)!r} is not in the AP set")
        payload = self._stored(payload)
        sid = self._index.get(payload)
        if sid is None:
            if self._rows is not None:
                raise ValueError("a structure takes no new state after its first read")
            if self._codec is not None:
                self._codec.decode(payload)  # raises ValueError on a key it cannot read
            sid = self._append(payload)
            self._labels.append(labels)
        elif self._labels[sid] != labels:
            raise ValueError(
                f"payload re-added with different labels: {labels} vs {self._labels[sid]}"
            )
        if initial:
            self.init.add(sid)
        return sid

    def _append(self, payload):
        # store a new stored-form payload and return its id: the one place a
        # state's index entry and payload are written.  Its label slot is the
        # caller's to append, in id order: ``add_state`` does so at once,
        # ``breadth_first_build`` when it expands the state
        sid = self._index[payload] = len(self._payloads)
        self._payloads.append(payload)
        return sid

    @property
    def num_states(self):
        return len(self._payloads)

    @property
    def num_edges(self):
        rows = self._rows
        return len(self._edges[1]) + (rows[3].count(1) if rows else 0)

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
        """The stored form of ``payload``: itself if the structure has no
        codec or it is an ``int``, a key, else its encoding, which raises
        ``ValueError`` on a payload that does not fit."""
        codec = self._codec
        if codec is None or isinstance(payload, int):
            return payload
        return codec.encode(payload)

    def state_of(self, payload):
        try:
            return self._index[self._stored(payload)]
        except ValueError:
            raise KeyError(f"{payload!r} is not a state of this structure") from None

    def has_state(self, payload):
        try:
            return self._stored(payload) in self._index
        except ValueError:
            return False

    def label_of(self, sid):
        self._check_id(sid)
        return self._labels[sid]

    def label_flags(self, name):
        """One flag per state id, 1 where the state is labeled with the
        named proposition, as ``bytes``: one pass over the label slots."""
        if name not in self._props:
            raise ValueError(f"unknown atomic proposition {name!r}")
        return bytes(map(contains, self._labels, repeat(name)))

    def _check_id(self, sid):
        if not isinstance(sid, int) or not 0 <= sid < len(self._payloads):
            raise KeyError(f"unknown state id {sid!r}")

    # -- edges ---------------------------------------------------------------

    def add_edge(self, src, action, dst):
        count = len(self._payloads)
        # the ids a builder passes are plain ints it has just issued; anything
        # else takes the full check, which raises KeyError on an unknown id
        if not (type(src) is type(dst) is int and 0 <= src < count and 0 <= dst < count):
            self._check_id(src)
            self._check_id(dst)
        aid = self._action_ids.get(action)
        if aid is None:
            aid = self._intern(action)
        offsets, targets, actions = self._edges
        head = len(offsets) - 1
        if src != head:
            if src < head:  # after the first read, every block is closed
                raise ValueError(
                    f"edge out of state {src} after its block closed: a structure takes"
                    " each source's edges as one block, in id order, before its first read"
                )
            # close the open block, and an empty one per source between
            end = len(targets)
            if src == head + 1:
                offsets.append(end)
            else:
                offsets.extend([end] * (src - head))
        targets.append(dst)
        actions.append(aid)

    def _intern(self, action):
        # a new action name's id: the one place the name table grows
        aid = self._action_ids[action] = len(self._action_names)
        self._action_names.append(action)
        return aid

    def _read(self):
        """The read form ``(offsets, targets, actions, dead)`` over every
        state: the edges in new arrays, with an offset past every state's
        block, and one dead flag per state."""
        n = len(self._payloads)
        offsets, targets, actions = self._edges
        offsets = array(_OFFSET, offsets)
        offsets.extend(repeat(len(targets), n + 1 - len(offsets)))
        edges = self._edges = (offsets, array(_ID, targets), array(_ID, actions))
        rows = self._rows = (*edges, bytearray(n))
        return rows

    def has_edge(self, src, action, dst):
        if not isinstance(src, int) or not 0 <= src < len(self._payloads):
            return False
        offsets, targets, actions, dead = self._rows or self._read()
        if dead[src] and dst == src and action == STUTTER_ACTION:
            return True
        aid = self._action_ids.get(action)
        return aid is not None and any(
            targets[k] == dst and actions[k] == aid for k in range(offsets[src], offsets[src + 1])
        )

    def edges(self):
        """All (source, action, target) triples in deterministic order."""
        offsets, targets, actions, dead = self._rows or self._read()
        names = self._action_names
        for src in self.states():
            if dead[src]:
                yield (src, STUTTER_ACTION, src)
            for k in range(offsets[src], offsets[src + 1]):
                yield (src, names[actions[k]], targets[k])

    def successors(self, sid):
        """(action, target) pairs out of ``sid``, in edge order."""
        self._check_id(sid)
        offsets, targets, actions, dead = self._rows or self._read()
        names = self._action_names
        out = [(STUTTER_ACTION, sid)] if dead[sid] else []
        for k in range(offsets[sid], offsets[sid + 1]):  # no slices: most rows are short
            out.append((names[actions[k]], targets[k]))
        return out

    # the two reads that fixpoints and searches make per state: each returns
    # an ``array`` slice, and checks the id inline, calling ``_check_id`` only
    # to raise

    def successor_ids(self, sid):
        """Target ids out of ``sid``, one per edge in edge order, as an
        ``array``."""
        if type(sid) is not int or not 0 <= sid < len(self._payloads):
            self._check_id(sid)
        offsets, targets, _, dead = self._rows or self._read()
        out = targets[offsets[sid] : offsets[sid + 1]]
        if dead[sid]:
            out[:0] = array(_ID, (sid,))
        return out

    def predecessors(self, sid):
        """Source ids into ``sid``, one per edge in the order of the module
        docstring, as an ``array``."""
        if type(sid) is not int or not 0 <= sid < len(self._payloads):
            self._check_id(sid)
        starts, sources = self._pred or self._reverse()
        return sources[starts[sid] : starts[sid + 1]]

    def out_degree(self, sid):
        self._check_id(sid)
        offsets, _, _, dead = self._rows or self._read()
        return offsets[sid + 1] - offsets[sid] + dead[sid]

    def edge_counts(self, flags):
        """The number of edges out of each state into the states that
        ``flags`` marks (one flag per state id), as a list by state id: one
        hit byte per edge, then a count per row, a stutter loop counted as
        the edge it reads as."""
        offsets, targets, _, dead = self._rows or self._read()
        hits = bytes(map(flags.__getitem__, targets))
        rows = map(hits.count, repeat(1), offsets, islice(offsets, 1, None))
        return list(map(add, rows, map(and_, dead, flags)))

    def in_degree(self, sid):
        self._check_id(sid)
        starts, _ = self._pred or self._reverse()
        return starts[sid + 1] - starts[sid]

    def _reverse(self):
        """The reverse relation ``(offsets, sources)``, by a counting sort of
        the edges on their targets: count each target's edges, then place
        each source's stutter loop and stored edges, sources in id order."""
        offsets, targets, _, dead = self._rows or self._read()
        n = len(self._payloads)
        counts = [0] * (n + 1)
        for dst in targets:
            counts[dst + 1] += 1
        for sid in compress(range(n), dead):
            counts[sid + 1] += 1
        fill = list(accumulate(counts))  # a list, for its fast stores
        starts = array(_OFFSET, fill)
        sources = array(_ID, (0,)) * fill[n]
        src, end = -1, 0
        for k, dst in enumerate(targets):
            while k >= end:  # on to the next source, whose edges end at end
                src += 1
                end = offsets[src + 1]
                if dead[src]:
                    sources[fill[src]] = src
                    fill[src] += 1
            at = fill[dst]
            sources[at] = src
            fill[dst] = at + 1
        for sid in compress(range(src + 1, n), dead[src + 1 : n]):  # past the last edge
            sources[fill[sid]] = sid
        pred = self._pred = (starts, sources)
        return pred

    # -- set-valued operators --------------------------------------------------

    def image(self, state_set):
        """Successor set of ``state_set`` under one transition."""
        offsets, targets, _, dead = self._rows or self._read()
        out = set()
        for sid in state_set:
            self._check_id(sid)
            out.update(targets[offsets[sid] : offsets[sid + 1]])
            if dead[sid]:
                out.add(sid)
        return out

    def preimage(self, state_set):
        """Predecessor set of ``state_set`` under one transition."""
        starts, sources = self._pred or self._reverse()
        out = set()
        for sid in state_set:
            self._check_id(sid)
            out.update(sources[starts[sid] : starts[sid + 1]])
        return out

    # -- totalization -----------------------------------------------------------

    def deadlocked_states(self):
        """States with no edge, stored or stutter, in id order."""
        if self._deadlocks is None:
            offsets, _, _, dead = self._rows or self._read()
            empty = compress(self.states(), map(eq, offsets, offsets[1:]))
            self._deadlocks = [sid for sid in empty if not dead[sid]]
        return list(self._deadlocks)

    def is_total(self):
        if self._deadlocks is None:
            self.deadlocked_states()
        return not self._deadlocks

    def totalize(self):
        """Make the transition relation total by one stutter loop per
        deadlocked state, which reads show and nothing stores; returns
        (self, deadlock ids)."""
        dead = self.deadlocked_states()
        if dead:
            flags = self._rows[3]
            for sid in dead:
                flags[sid] = 1
            self._pred = None
        self._deadlocks = []
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
    two runs over the same inputs produce identical structures.  The
    builder writes each expanded state's edges straight into the store's
    open block, one offset per state, then one target id and one interned
    action id per pair, with no ``add_edge`` call: like ``add_edge`` it
    stores every pair it is given, a repeat too (the package's successor
    rules give none, as ``program._check_updates`` refuses the updates
    that could).  The last expanded state's block stays open, so
    ``add_edge`` then appends to it as to a structure it wrote itself.
    Each state is labeled when expanded, by ``labeler`` on the payload that
    ``expand`` was just given, so a labeler that reads back the parse its
    successor rule made of that payload reads each state once.  With
    ``stop_at_bad`` states are labeled when inserted instead, and the loop
    halts at the first one labeled ``bad``, leaving a partial structure.
    ``stats.bad_reached`` records whether a state labeled ``bad`` was
    inserted; a state bound overrun labels the unexpanded frontier before
    it raises, so the partial stats say the same.

    The structure's propositions are ``props`` and ``init``.  The initial
    state is the first one inserted, state 0, and it alone gets the
    ``init`` label on top of whatever ``labeler`` assigns, keeping labels a
    pure function of the payload even when exploration cycles back to it.
    With a ``codec`` the payloads handed in and out are its keys, and the
    structure stores them as they are (see ``KripkeStructure``).

    With ``tree`` the structure keeps only the edge that discovered each
    state, stored through ``add_edge``, while ``stats.edges`` adds up the
    length of each expansion's list, so the stats, partial ones included,
    are those of the full build.  A tree build takes no ``stop_at_bad``;
    ``ctl.decided_by_tree`` says which checks read the same result off it.
    """
    if state_bound < 1:
        raise ValueError("state_bound must be >= 1")
    if tree and stop_at_bad:
        raise ValueError("a tree build takes no stop_at_bad")
    started = time.perf_counter()
    structure = KripkeStructure({*props, INIT_PROP}, codec)
    stats = BuildStats()
    queue = deque()
    # only the initial state goes through ``add_state``: the builder stores
    # the others by ``_append`` and fills their label slots itself
    append, index, payloads = structure._append, structure._index, structure._payloads
    labeled = structure._labels

    label_sets = {}  # one frozenset per distinct label set, shared by its states

    def label(payload):
        # the state's labels as the one frozenset of its label set; a set is
        # checked, and read for ``bad``, when its first state is labeled
        labels = frozenset(labeler(payload))
        shared = label_sets.get(labels)
        if shared is None:
            if not labels <= structure._props:
                raise ValueError(f"label {min(labels - structure._props)!r} is not in the AP set")
            shared = label_sets[labels] = labels
            if "bad" in labels:
                stats.bad_reached = True
        labeled.append(shared)

    def insert(payload):
        # only for payloads not yet in the index: the callers look them up
        if len(payloads) >= state_bound:
            for key in payloads[len(labeled) :]:
                label(key)
            stats.states_reached = structure.num_states
            stats.edges = structure.num_edges
            stats.frontier_peak = max(stats.frontier_peak, len(queue))
            raise ResourceLimitError(
                f"state bound {state_bound} exceeded; frontier size {len(queue)}",
                partial_stats=stats,
            )
        sid = append(payload)
        queue.append(sid)
        if stop_at_bad:
            label(payload)
        return sid

    labels = frozenset(labeler(initial)) | {INIT_PROP}
    queue.append(structure.add_state(initial, labels, initial=True))
    stats.bad_reached = "bad" in labels
    stats.frontier_peak = 1

    add_edge = structure.add_edge
    # the block writer's view of the store: the writer's lists and name table
    offsets, targets, actions = structure._edges
    add_offset, add_target, add_action = offsets.append, targets.append, actions.append
    action_ids, intern = structure._action_ids, structure._intern
    counted = 0  # with ``tree``: the edges of the states expanded so far
    try:
        while queue and not (stop_at_bad and stats.bad_reached):
            sid = queue.popleft()
            key = payloads[sid]
            succs = expand(key)
            if len(labeled) == sid:  # not labeled when inserted
                label(key)
            if not succs:
                stats.deadlocks += 1
            if tree:
                for action, target in succs:
                    if target not in index:
                        add_edge(sid, action, insert(target))
                counted += len(succs)
            else:
                if sid:  # open the state's block; state 0's is open from the start
                    add_offset(len(targets))
                for action, target in succs:
                    tid = index.get(target)
                    if tid is None:
                        tid = insert(target)
                    aid = action_ids.get(action)
                    if aid is None:
                        aid = intern(action)
                    add_target(tid)
                    add_action(aid)
                    if stop_at_bad and stats.bad_reached:
                        break
            if len(queue) > stats.frontier_peak:
                stats.frontier_peak = len(queue)
    except ResourceLimitError as exc:
        if tree:
            # the full build stored the pairs before the one that overran
            done = next(k for k, (_, target) in enumerate(succs) if target not in index)
            exc.partial_stats.edges = counted + done
        raise

    stats.states_reached = structure.num_states
    stats.edges = counted if tree else structure.num_edges
    stats.duration_ms = (time.perf_counter() - started) * 1000.0
    return structure, stats
