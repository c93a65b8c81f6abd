"""Run-length keys: one ``bytes`` key per orbit of the full symmetric group.

A key is the shared values as ``program.StateCodec`` packs them, then
(pid-typed programs only) the codes of the p pinned records in pin-rank
order, then one ``(record code, count)`` pair per distinct unpinned
record, codes increasing; the pid slots hold pin ranks, so p is read off
the shared values.  A count is as wide as n needs: 1 byte up to n = 255,
2 bytes past that.  This is the counter abstraction (Pnueli, Xu & Zuck
2002) stored as a generic representative (Emerson & Wahl 2003): keys
decode to the pinned sort of ``symmetry``, so they are canonical by
construction, but they are not in ``GlobalState.encode`` order.
``run_successors`` steps a key by byte splices: a move rewrites a pinned
code, the shared values or the pinned section, and moves single units
between runs, so no successor is sorted or packed whole.  The moves come
from the firing plans of ``program.CommandTable.record_plan``, which
know nothing of this layout: the rewrite of the pinned section is
``RunCodec.repin``'s alone.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import chain, repeat
from struct import Struct, error as StructError

from .errors import InternalError
from .program import GlobalState, _field_format


class RunCodec:
    """The run-length keys of one ``StateCodec`` layout.  ``decode`` gives
    the representative ``GlobalState``; ``encode`` raises ``ValueError``
    on a state that is not its own representative or does not fit."""

    def __init__(self, codec):
        self.codec, self.n = codec, codec.n
        self.nfact = math.factorial(codec.n)
        count_width, self._count_fmt = _field_format(codec.n)
        self.pair_size = codec.width + count_width
        # ``count_bytes[m]`` is the packed count m, for every m in 0..n
        self.count_bytes = tuple(map(Struct(">" + self._count_fmt).pack, range(codec.n + 1)))
        self._structs = {}
        self._ranks = {}
        # ``repin`` is ``_repin`` memoized: the kernel asks it for every move that
        # writes shared values
        self.repin = lru_cache(maxsize=None)(self._repin)
        # (unpack, shared count, shared and pin count) by key length, and by
        # shared prefix too when pid-typed
        self._heads = {}
        self._last = object(), None  # ``parts``' last key and its parts

    def __reduce__(self):  # copies and pickles share the run codec of the codec
        return run_codec, (self.codec,)

    def _struct(self, pins, size):
        """The fields of a ``size``-byte key with ``pins`` pinned records."""
        fields = self._structs.get((pins, size))
        if fields is None:
            codec = self.codec
            runs, rest = divmod(size - codec.shared_size - pins * codec.width, self.pair_size)
            if rest or runs < 0:
                raise ValueError(f"a run-length key of this layout cannot have {size} bytes")
            fmt = codec.shared_fmt * codec.num_shared + codec.code_fmt * pins
            fmt += (codec.code_fmt + self._count_fmt) * runs
            fields = self._structs[pins, size] = Struct(">" + fmt)
        return fields

    def parts(self, key):
        """``(shared, pinned codes, run codes, run counts, per-pc occupancy)``,
        all tuples.  The last key parsed and its parts are kept, as one
        tuple, and a call on that same key object returns them again: the
        builder labels a state (``census``) right after the kernel parsed
        it.  Threads sharing the codec at worst parse a key again."""
        last = self._last
        if last[0] is key:
            return last[1]
        codec = self.codec
        head = (key[: codec.shared_size], len(key)) if codec.pid_slots else len(key)
        got = self._heads.get(head)
        if got is None:
            pins = len(self.ranked(codec.shared(key))[0]) if codec.pid_slots else 0
            s = codec.num_shared
            got = self._heads[head] = self._struct(pins, len(key)).unpack, s, s + pins
        unpack, s, p = got
        fields = unpack(key)
        codes, counts = fields[p::2], fields[p + 1 :: 2]
        occ = [0] * codec.num_pcs
        shift = codec.num_locals
        try:
            for code in fields[s:p]:
                occ[code >> shift] += 1
            for code, m in zip(codes, counts):
                occ[code >> shift] += m
        except IndexError:
            raise ValueError(f"run-length key {key!r} holds a record code of no pc") from None
        got = fields[:s], fields[s:p], codes, counts, tuple(occ)
        self._last = key, got
        return got

    def pack(self, shared, pins, pairs):
        """The key of shared values, pinned codes and ``(code, count)`` pairs."""
        size = self.codec.shared_size + len(pins) * self.codec.width + len(pairs) * self.pair_size
        try:
            return self._struct(len(pins), size).pack(*shared, *pins, *chain.from_iterable(pairs))
        except StructError as exc:
            raise ValueError(f"run-length key fields out of range: {exc}") from None

    def census(self, key):
        """Shared values and occupancy; one that does not total n is a fault."""
        shared, _, _, _, occ = self.parts(key)
        if sum(occ) != self.n:
            raise InternalError(f"occupancy lost a process: {sum(occ)} of {self.n} in {key!r}")
        return shared, occ

    def ranked(self, shared):
        """``(pins, rank, ranked shared values, packed ranked shared values)``
        of these shared values: the processes the pid slots name, by first
        appearance, their ranks, and the shared values with each pid value
        replaced by its rank; memoized."""
        got = self._ranks.get(shared)
        if got is None:
            pins = tuple(_pins(shared, self.codec.pid_slots, self.n))
            rank = {q: r for r, q in enumerate(pins)}
            slots = self.codec.pid_slots
            ranked = tuple(rank.get(v, self.n) if s in slots else v for s, v in enumerate(shared))
            got = self._ranks[shared] = pins, rank, ranked, self.codec.pack_shared(ranked)
        return got

    def _repin(self, p, i, packed_shared):
        """``repin(p, i, packed_shared)``: how a move of pin i, or of a head
        if i is p, that writes ``packed_shared`` rewrites the pinned section
        of a key with p pins.  None if the pid slots still name the pins
        0..p-1 in order, else ``(packed ranked shared values, picks,
        left)`` for ``_repinned``, picks and left indexing the old pinned
        codes followed by the moved code: picks slices out the new pinned
        section, and left pairs each code that joins the runs with its
        slice."""
        new_pins, _, _, ranked = self.ranked(self.codec.shared(packed_shared))
        if new_pins == tuple(range(p)):
            return None
        w = self.codec.width
        cuts = [slice(q * w, q * w + w) for q in range(p + 1)]
        picks = tuple(cuts[p if q == i else q] for q in new_pins)
        left = [p if q == i else q for q in range(p + (i == p)) if q not in new_pins]
        return ranked, picks, tuple((q, cuts[q]) for q in left)

    def canonical(self, key):
        """The run-length key of the representative of a ``StateCodec`` key:
        the pinned sort, pinned records in rank order and the rest sorted."""
        codes = self.codec.codes(key)
        pins, rank, shared, _ = self.ranked(self.codec.shared(key))
        rest = [code for i, code in enumerate(codes) if i not in rank] if pins else codes
        pairs = [(code, rest.count(code)) for code in sorted(set(rest))]
        return self.pack(shared, [codes[q] for q in pins], pairs)

    def encode(self, state):
        # the state is its representative iff its key is the representative's
        # positional key: the shared values, the pins, then each run spelled out
        positional = self.codec.encode(state)
        key = self.canonical(positional)
        _, pins, codes, counts, _ = self.parts(key)
        runs = chain.from_iterable(map(repeat, codes, counts))
        if key[: self.codec.shared_size] + self.codec._codes.pack(*pins, *runs) != positional:
            raise ValueError(f"state {state} is not its own representative")
        return key

    def decode(self, key):
        shared, pins, codes, counts, _ = self.parts(key)
        locs = chain(pins, *map(repeat, codes, counts))
        return GlobalState(shared, tuple(map(self.codec.record, locs)), self.codec.pid_slots)


@lru_cache(maxsize=None)
def run_codec(codec):
    """The ``RunCodec`` of a ``StateCodec``, shared as the codec is."""
    return RunCodec(codec)


def run_successors(program, key, counter=False):
    """All (action, key) pairs one step away from a run-length key, each a
    splice of the whole ``key``: each pin i fires with its plan of its code
    as process i, then the head of each run, which stands for its run,
    with the plan of its code as process p for p pins (None if pid-free),
    as ``CommandTable.record_plan`` gives them.  A move that keeps the pins
    (``RunCodec.repin`` None) rewrites the fired pin's code, or moves one
    unit between runs: the firing run loses it or is dropped, the target
    gains it or is inserted where bisection puts it; if it writes shared
    values, they replace the key's first ``shared_size`` bytes.  Any other
    move writes the ranked shared values and the new pinned codes, then
    moves the units that left or joined the pins (``_repinned``).  Actions
    are ``"i/j"`` for the index i in the decoded representative, or with
    ``counter`` ``"<record>/<j>"`` (``CommandTable.counter_row``)."""
    table = program.table
    runs = table.runs
    codec = runs.codec
    n, w, s = codec.n, codec.width, codec.shared_size
    shared, pins, codes, counts, occ = runs.parts(key)
    plans = table.plans.get(shared) or {}
    record_plan, repin = table.record_plan, runs.repin
    names, counter_names = table.action_names, table.counter_names
    p = len(pins)
    start = s + p * w  # where the runs begin
    out = []
    append = out.append
    for i, code in enumerate(pins):
        rec, plan = (plans.get(i) or {}).get(code) or record_plan(shared, code, i)
        row = names[i] or table.action_row(i)
        at = s + i * w
        for guard, moves in plan:
            if guard.eval(shared, rec, i, occ, n):
                for j, t, packed_t, packed_shared in moves:
                    new_pins = packed_shared and repin(p, i, packed_shared)
                    if new_pins:
                        target = _repinned(runs, new_pins, key, pins, codes, counts, None,
                                           t, packed_t)
                    elif packed_shared:
                        target = packed_shared + key[s:at] + packed_t + key[at + w :]
                    else:
                        target = key[:at] + packed_t + key[at + w :]
                    append((row[j], target))
    # a head is unpinned, so no pid slot names it and its index only tells
    # the firing process apart: every head fires as process p (None if pid-free)
    i, h = p if codec.pid_slots else None, p
    size, count_bytes, k = runs.pair_size, runs.count_bytes, len(codes)
    by_code = plans.get(i) or {}
    # a move that keeps the pins moves a unit from run a to t in one splice,
    # the firing run's part made once per run: most moves are these
    for a, (code, m) in enumerate(zip(codes, counts)):
        rec, plan = by_code.get(code) or record_plan(shared, code, i)
        if not plan:
            h += m
            continue
        if counter:
            row = counter_names.get(code) or table.counter_row(code)
        else:
            row = names[h] or table.action_row(h)
        at = start + a * size
        end = at + size
        dec = key[at : at + w] + count_bytes[m - 1] if m > 1 else b""
        for guard, moves in plan:
            if guard.eval(shared, rec, i, occ, n):
                for j, t, packed_t, packed_shared in moves:
                    new_pins = packed_shared and repin(p, i, packed_shared)
                    if new_pins:
                        target = _repinned(runs, new_pins, key, pins, codes, counts, a,
                                           t, packed_t)
                    else:
                        if t == code:
                            target = key
                        else:
                            b = bisect_left(codes, t)
                            lo = start + b * size
                            if b < k and codes[b] == t:
                                inc, hi = packed_t + count_bytes[counts[b] + 1], lo + size
                            else:
                                inc, hi = packed_t + count_bytes[1], lo
                            if at < lo:
                                target = key[:at] + dec + key[end:lo] + inc + key[hi:]
                            else:
                                target = key[:lo] + inc + key[hi:at] + dec + key[end:]
                        if packed_shared:
                            target = packed_shared + target[s:]
                    append((row[j], target))
        h += m
    return out


def _repinned(runs, new_pins, key, pins, codes, counts, a, t, packed_t):
    """The key after a move of ``key`` that changes the pins, ``new_pins``
    being its ``RunCodec.repin`` and t, packed ``packed_t``, the moved
    code: the ranked shared values, the new pinned codes, then the runs
    less a unit of run a if a head fired and plus a unit of each code that
    left the pins."""
    prefix, picks, left = new_pins
    s = runs.codec.shared_size
    start = s + len(pins) * runs.codec.width  # where the runs begin
    moved, body = key[s:start] + packed_t, key[start:]  # moved: the old pinned codes, then t
    out = prefix + b"".join([moved[pick] for pick in picks])
    if a is not None:
        body, codes, counts = _plus(runs, body, codes, counts, codes[a], None, -1)
    after = pins + (t,)
    for q, pick in left:
        body, codes, counts = _plus(runs, body, codes, counts, after[q], moved[pick], 1)
    return out + body


def _plus(runs, body, codes, counts, c, packed_c, d):
    """The runs section ``body`` and its pairs after code c gains d units,
    1 or -1: a run left empty is dropped, and a gain of a code with no run
    inserts its run, packed ``packed_c``, where bisection puts it."""
    size, b = runs.pair_size, bisect_left(codes, c)
    lo = b * size
    if b == len(codes) or codes[b] != c:
        return (body[:lo] + packed_c + runs.count_bytes[1] + body[lo:],
                codes[:b] + (c,) + codes[b:], counts[:b] + (1,) + counts[b:])
    m, hi = counts[b] + d, lo + size
    if m:  # the run keeps its code bytes and takes the new count
        count = runs.count_bytes[m]
        body = body[: hi - len(count)] + count + body[hi:]
        return body, codes, counts[:b] + (m,) + counts[b + 1 :]
    return body[:lo] + body[hi:], codes[:b] + codes[b + 1 :], counts[:b] + counts[b + 1 :]


def _pins(shared, pid_slots, n):
    """Processes named by non-``none`` pid slots, in order of first appearance."""
    pins = []
    for v in map(shared.__getitem__, pid_slots):
        if v != n and v not in pins:
            pins.append(v)
    return pins
