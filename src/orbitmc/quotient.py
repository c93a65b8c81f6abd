"""Quotient structures over canonical orbit representatives.

``explore.build_quotient`` builds one (see ``explore``): only
representatives are ever expanded, and every successor is canonical
before insertion.  That is sound because process permutations commute
with the successor relation and leave every label as it is.  The
frontend's guard restrictions guarantee the first, the program's
``CommandTable`` refuses any label that breaks the second when it is
built, and ``check_bisimulation`` certifies both at desk scale, so no
state's orbit is checked during a build.

Under Sym(n) each state is its run-length key (``runs.RunCodec``), an
``int`` and a representative by construction: little-endian fields
holding the shared values, the pinned records in pin-rank order, then
one ``(record code, count)`` pair per distinct unpinned record, each
count 1 byte wide up to n = 255 and 2 bytes past that.  ``runs.run_successors`` fires each pin and each run head;
actions ``"i/j"`` name the head by its index in the representative.
Counter mode is this build, actions included, with keys decoding to
``counter.CounterState``.  A generated subgroup keeps
positional keys, fires every process and canonicalizes each successor
(``symmetry.canonical_key_fn``).  The initial state, and any state
handed to ``QuotientStructure.rep``, is canonicalized by
``symmetry.rep_min``.  This module holds what a quotient adds to its
structure: orbit sizes (``orbit_size_sorted``, ``_orbit_sizes``) and the
bisimulation certificate.
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import InternalError, ResourceLimitError
from .symmetry import orbit, pinned_processes, rep_min
from .value import Value

BISIM_SIZE_CAP = 10**4


class QuotientStructure(Value, frozen=False):
    """A Kripke structure whose payloads are orbit representatives."""

    __slots__ = ("structure", "orbit_sizes", "program", "group")  # orbit_sizes: id -> size

    def rep(self, state):
        return rep_min(self.group, state, witness=False)[0]

    def total_covered(self):
        """Number of concrete states the representatives stand for."""
        return sum(self.orbit_sizes.values())


def orbit_size_sorted(program, state):
    """Orbit size of a state under the full symmetric group, in closed form.

    The stabilizer fixes every pinned process and swaps equal records
    among the rest, so the size is n! over the product of m! for the
    multiplicities m of the unpinned records: the run counts, when
    ``state`` is a run-length key of the program.
    """
    if isinstance(state, int):
        runs = program.table.runs
        size, counts = runs.nfact, runs.parts(state)[3]
    else:
        pinned = set(pinned_processes(state))
        size = math.factorial(state.n)
        counts = Counter(rec for i, rec in enumerate(state.locals) if i not in pinned).values()
    for m in counts:
        size //= math.factorial(m)
    return size


def _orbit_sizes(program, structure, group):
    """Orbit size per state id: the closed form of ``orbit_size_sorted``
    on each run-length key under Sym(n), the orbit itself under a generated
    subgroup.  A size that does not divide n! is an internal fault."""
    sizes, nfact = {}, program.table.runs.nfact
    for sid in structure.states():
        if group.kind == "full-symmetric":
            size = orbit_size_sorted(program, structure.key(sid))
        else:
            size = len(orbit(group, structure.payload(sid)))
        if nfact % size != 0:
            raise InternalError(f"orbit size {size} does not divide {program.n}!")
        sizes[sid] = size
    return sizes


def check_bisimulation(full, quotient, size_cap=BISIM_SIZE_CAP):
    """Certify that relating each state to its representative is a bisimulation:
    for every concrete state s, equal labels, a quotient edge r(s) -> r(t)
    for every concrete edge s -> t (forth), and a concrete edge s -> t with
    r(t) = tbar for every quotient edge r(s) -> tbar (back), actions aside.
    Both structures must be totalized first.
    """
    if full.num_states > size_cap:
        raise ResourceLimitError(f"bisimulation check capped at {size_cap} states")
    qstruct = quotient.structure
    if not full.is_total() or not qstruct.is_total():
        raise ValueError("check_bisimulation needs totalized structures")

    rep_of = {}
    for sid in full.states():
        rep = quotient.rep(full.payload(sid))
        if not qstruct.has_state(rep):
            return False
        qid = qstruct.state_of(rep)
        rep_of[sid] = qid
        if full.label_of(sid) != qstruct.label_of(qid):
            return False

    # initial states must map onto initial representatives and back
    if {rep_of[sid] for sid in full.init} != set(qstruct.init):
        return False

    quotient_edges = {(src, dst) for src, _, dst in qstruct.edges()}
    for sid in full.states():
        succ_reps = {rep_of[dst] for dst in full.successor_ids(sid)}
        # forth: each concrete move exists in the quotient
        for qdst in succ_reps:
            if (rep_of[sid], qdst) not in quotient_edges:
                return False
        # back: each quotient move from rep(s) is matched from s itself
        for qdst in qstruct.successor_ids(rep_of[sid]):
            if qdst not in succ_reps:
                return False
    return True
