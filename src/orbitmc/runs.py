"""Run-length keys: one ``int`` key per orbit of the full symmetric group.

A key is a run of fixed-width little-endian fields, lowest first: the
shared values as ``program.StateCodec`` sizes them, then (pid-typed
programs only) the codes of the p pinned records in pin-rank order, then
one ``(record code, count)`` pair per distinct unpinned record, codes
increasing; the pid slots hold pin ranks, so p is read off the shared
values.  A count is as wide as n needs: 1 byte up to n = 255, 2 bytes
past that.  The last run's count, at least 1, is the top field, so a
key's length is read off its ``bit_length``.  This is the counter
abstraction (Pnueli, Xu & Zuck 2002) stored as a generic representative
(Emerson & Wahl 2003): keys decode to the pinned sort of ``symmetry``,
so they are canonical by construction, but they are not in
``GlobalState.encode`` order.  ``run_successors`` steps a key by
integer arithmetic: a pinned process's move adds ``(t - c)`` times the
power of its field, a unit moving between two runs adds the power of
one count and subtracts another, a run that empties or appears is one
shift-and-mask splice, and a write of the shared values adds their
change, so no successor is sorted or packed whole.  The moves come from
the firing plans of ``program.CommandTable.record_plan``, which know
nothing of this layout; only a move that changes the pins
(``RunCodec.repin``) rebuilds its key from the fields.
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
    the representative ``GlobalState`` and raises ``ValueError`` on an int
    that is no key of n processes; ``encode`` raises ``ValueError`` on a
    state that is not its own representative or does not fit."""

    def __init__(self, codec):
        self.codec, self.n = codec, codec.n
        self.nfact = math.factorial(codec.n)
        count_width, self._count_fmt = _field_format(codec.n)
        self.pair_size = codec.width + count_width
        # bit offsets: where the pins begin, and the width of a code and of a pair
        self.bits = 8 * codec.shared_size, 8 * codec.width, 8 * self.pair_size
        self.shared_mask = (1 << self.bits[0]) - 1
        self._shared = Struct("<" + codec.shared_fmt * codec.num_shared)
        self._structs = {}
        self._ranks = {}
        self._units = {}
        # ``repin`` is ``_repin`` memoized: the kernel asks it for every move that
        # writes shared values
        self.repin = lru_cache(maxsize=None)(self._repin)
        # ``_head`` by bit length, and by shared fields too when pid-typed
        self._heads = {}
        self._last = object(), None  # ``parts``' last key and its parts

    def __reduce__(self):  # copies and pickles share the run codec of the codec
        return run_codec, (self.codec,)

    def _struct(self, pins, runs):
        """The fields of a key with ``pins`` pinned records and ``runs`` runs."""
        fields = self._structs.get((pins, runs))
        if fields is None:
            codec = self.codec
            fmt = codec.shared_fmt * codec.num_shared + codec.code_fmt * pins
            fields = self._structs[pins, runs] = Struct(
                "<" + fmt + (codec.code_fmt + self._count_fmt) * runs)
        return fields

    def _head(self, key, bits):
        """``parts``' memo entry for keys of this bit length and shared
        fields: the byte size, then an unpack of the shared values and pinned
        codes, one of the run codes and one of the counts, then the number of
        shared values."""
        codec = self.codec
        shared = self._shared.unpack((key & self.shared_mask).to_bytes(codec.shared_size, "little"))
        pins = len(self.ranked(shared)[0])
        start = codec.shared_size + pins * codec.width  # where the runs begin
        runs = max(0, -((8 * start - bits) // self.bits[2]))
        code, count = codec.code_fmt, self._count_fmt
        skip_code, skip_count = "x" * codec.width, "x" * (self.pair_size - codec.width)
        return (start + runs * self.pair_size,
                Struct("<" + codec.shared_fmt * codec.num_shared + code * pins).unpack_from,
                Struct("<" + "x" * start + (code + skip_count) * runs).unpack,
                Struct("<" + "x" * start + (skip_code + count) * runs).unpack, codec.num_shared)

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
        bits = key.bit_length()
        head = (key & self.shared_mask, bits) if codec.pid_slots else bits
        got = self._heads.get(head)
        if got is None:
            got = self._heads[head] = self._head(key, bits)
        size, fields, codes, counts, s = got
        occ = [0] * codec.num_pcs
        shift = codec.num_locals
        try:
            data = key.to_bytes(size, "little")
            fields, codes, counts = fields(data), codes(data), counts(data)
            pins = fields[s:]
            for code in pins:
                occ[code >> shift] += 1
            for code, m in zip(codes, counts):
                occ[code >> shift] += m
        except (IndexError, OverflowError):
            raise ValueError(f"{key!r} is no run-length key of this layout") from None
        got = fields[:s], pins, codes, counts, tuple(occ)
        self._last = key, got
        return got

    def pack(self, shared, pins, pairs):
        """The key of shared values, pinned codes and ``(code, count)`` pairs."""
        try:
            packed = self._struct(len(pins), len(pairs)).pack(
                *shared, *pins, *chain.from_iterable(pairs))
        except StructError as exc:
            raise ValueError(f"run-length key fields out of range: {exc}") from None
        return int.from_bytes(packed, "little")

    def census(self, key):
        """Shared values and occupancy; one that does not total n is a fault."""
        shared, _, _, _, occ = self.parts(key)
        if sum(occ) != self.n:
            raise InternalError(f"occupancy lost a process: {sum(occ)} of {self.n} in {key!r}")
        return shared, occ

    def ranked(self, shared):
        """``(pins, rank, ranked shared values)`` of these shared values: the
        processes the pid slots name, by first appearance, their ranks, and
        the shared values with each pid value replaced by its rank;
        memoized."""
        got = self._ranks.get(shared)
        if got is None:
            pins = tuple(_pins(shared, self.codec.pid_slots, self.n))
            rank = {q: r for r, q in enumerate(pins)}
            slots = self.codec.pid_slots
            ranked = tuple(rank.get(v, self.n) if s in slots else v for s, v in enumerate(shared))
            got = self._ranks[shared] = pins, rank, ranked
        return got

    def units(self, p, k):
        """A unit of the count of each of the first k runs of a key with p
        pins, by run index; kept per p, for the most runs asked so far."""
        first, width, size = self.bits
        start = first + (p + 1) * width  # the first run's count
        got = self._units[p] = tuple(1 << start + a * size for a in range(k))
        return got

    def _repin(self, p, i, high):
        """``repin(p, i, high)``: how a move of pin i, or of a head if i is
        p, that writes the shared values whose ``StateCodec`` fields are
        ``high`` rewrites a key with p pins.  The new shared fields
        as an int if the pid slots still name the pins 0..p-1 in order,
        else ``(ranked shared values, picks, left)`` for ``_repinned``,
        picks and left indexing the old pinned codes followed by the moved
        code: picks gives the new pinned codes, left the codes that join
        the runs."""
        new_pins, _, ranked = self.ranked(self.codec.split(high << self.codec.shift)[0])
        low = int.from_bytes(self._shared.pack(*ranked), "little")
        if new_pins == tuple(range(p)):
            return low
        picks = tuple(p if q == i else q for q in new_pins)
        return low, picks, [p if q == i else q for q in range(p + (i == p))
                               if q not in new_pins]

    def canonical(self, key):
        """The run-length key of the representative of a ``StateCodec`` key:
        the pinned sort, pinned records in rank order and the rest sorted."""
        shared, codes = self.codec.split(key)
        pins, _, shared = self.ranked(shared)
        if pins:  # the pinned codes, then the rest: only its counts matter
            pins, codes = [codes[q] for q in pins], list(codes)
            for code in pins:
                codes.remove(code)
        pairs = [(code, codes.count(code)) for code in sorted(set(codes))]
        return self.pack(shared, pins, pairs)

    def encode(self, state):
        # the state is its representative iff its key is the representative's
        # positional key: the shared values, the pins, then each run spelled out
        positional = self.codec.encode(state)
        key = self.canonical(positional)
        shared, pins, codes, counts, _ = self.parts(key)
        runs = chain.from_iterable(map(repeat, codes, counts))
        if int.from_bytes(self.codec._whole.pack(*shared, *pins, *runs), "big") != positional:
            raise ValueError(f"state {state} is not its own representative")
        return key

    def decode(self, key):
        shared, pins, codes, counts, _ = self.parts(key)
        locs = tuple(chain(pins, *map(repeat, codes, counts)))
        if len(locs) != self.n or 0 in counts or list(codes) != sorted(set(codes)):
            raise ValueError(f"{key!r} is no run-length key of {self.n} processes")
        return GlobalState(shared, tuple(map(self.codec.record, locs)), self.codec.pid_slots)


@lru_cache(maxsize=None)
def run_codec(codec):
    """The ``RunCodec`` of a ``StateCodec``, shared as the codec is."""
    return RunCodec(codec)


def run_successors(program, key, counter=False):
    """All (action, key) pairs one step away from a run-length key: each pin
    i fires with its plan of its code as process i, then the head of each
    run, which stands for its run, with the plan of its code as process p
    for p pins (None if pid-free), as ``CommandTable.record_plan`` gives
    them.  A move that keeps the pins (``RunCodec.repin`` no tuple) adds
    ``(t - c)`` times the power of the fired pin's field, or moves one
    unit between runs: the firing run loses it (one power less) or is
    dropped, the target gains it (one power more) or is inserted where
    bisection puts it, each a shift-and-mask splice; if it writes shared
    values, their change is added.  Any other move is rebuilt from the
    ranked shared values, the new pinned codes and the runs with the
    units that left or joined the pins (``_repinned``).  Actions are
    ``"i/j"`` for the index i in the decoded representative, or with
    ``counter`` ``"<record>/<j>"`` (``CommandTable.counter_row``)."""
    table = program.table
    runs = table.runs
    n = runs.n
    shared, pins, codes, counts, occ = runs.parts(key)
    plans = table.plans.get(shared) or {}
    record_plan, repin = table.record_plan, runs.repin
    names, counter_names = table.action_names, table.counter_names
    p = len(pins)
    low = key & runs.shared_mask  # the shared fields
    first, width, size = runs.bits  # where pin 0 begins, a code's width, a pair's
    out = []
    append = out.append
    for i, code in enumerate(pins):
        rec, plan = (plans.get(i) or {}).get(code) or record_plan(shared, code, i)
        row = names[i] or table.action_row(i)
        at = first + i * width
        for guard, moves in plan:
            if guard.eval(shared, rec, i, occ, n):
                for j, t, delta, high in moves:
                    if delta:
                        new = repin(p, i, high)
                        if new.__class__ is tuple:
                            append((row[j], _repinned(runs, new, key, pins, codes, counts, None, t)))
                            continue
                    target = key + ((t - code) << at)
                    if delta:
                        target += new - low
                    append((row[j], target))
    # a head is unpinned, so no pid slot names it and its index only tells
    # the firing process apart: every head fires as process p (None if pid-free)
    i, h = p if runs.codec.pid_slots else None, p
    k, start, one = len(codes), first + p * width, 1 << width  # one: a count of 1
    units = runs._units.get(p, ())
    if len(units) < k:
        units = runs.units(p, k)
    by_code = plans.get(i) or {}
    for a, (code, m) in enumerate(zip(codes, counts)):
        rec, plan = by_code.get(code) or record_plan(shared, code, i)
        if not plan:
            h += m
            continue
        if counter:
            row = counter_names.get(code) or table.counter_row(code)
        else:
            row = names[h] or table.action_row(h)
        base = None
        for guard, moves in plan:
            if guard.eval(shared, rec, i, occ, n):
                if base is None:  # the key less the firing unit: run a loses a
                    # count, or is dropped and the runs above it move down one place
                    if m > 1:
                        base = key - units[a]
                    else:
                        at = start + a * size
                        base = key & (1 << at) - 1 | key >> at + size << at
                for j, t, delta, high in moves:
                    if delta:
                        new = repin(p, i, high)
                        if new.__class__ is tuple:
                            append((row[j], _repinned(runs, new, key, pins, codes, counts, a, t)))
                            continue
                    if t == code:
                        target = key
                    else:
                        b = bisect_left(codes, t)
                        if b < k and codes[b] == t:  # t's run gains the unit
                            target = base + units[b - (m == 1 and b > a)]
                        elif m == 1 and a <= b <= a + 1:  # run a takes the code t in place
                            target = key + ((t - code) << at)
                        else:  # a run of t appears at its place in base
                            pos = start + (b - (m == 1 and b > a)) * size
                            target = base & (1 << pos) - 1 | (t | one) << pos | base >> pos << pos + size
                    if delta:
                        target += new - low
                    append((row[j], target))
        h += m
    return out


def _repinned(runs, new, key, pins, codes, counts, a, t):
    """The key after a move of ``key`` that changes the pins, ``new`` being
    its ``RunCodec.repin`` and t the moved code: the new shared fields, the
    new pinned codes, then the runs less a unit of run a if a head fired,
    each code that left the pins gaining a unit or inserted where
    bisection puts it."""
    low, picks, left = new
    first, width, size = runs.bits
    moved = pins + (t,)  # the old pinned codes, then t
    start, codes = first + len(pins) * width, list(codes)
    body = key >> start  # the runs
    if a is not None:
        body -= 1 << a * size + width
        if counts[a] == 1:
            body = body & (1 << a * size) - 1 | body >> (a + 1) * size << a * size
            del codes[a]
    for q in left:
        c = moved[q]
        b = bisect_left(codes, c)
        if b < len(codes) and codes[b] == c:
            body += 1 << b * size + width
        else:
            body = body & (1 << b * size) - 1 | (c | 1 << width) << b * size | body >> b * size << (b + 1) * size
            codes.insert(b, c)
    pinned = sum(moved[q] << r * width for r, q in enumerate(picks))
    return low | pinned << first | body << first + len(picks) * width


def _pins(shared, pid_slots, n):
    """Processes named by non-``none`` pid slots, in order of first appearance."""
    pins = []
    for v in map(shared.__getitem__, pid_slots):
        if v != n and v not in pins:
            pins.append(v)
    return pins
