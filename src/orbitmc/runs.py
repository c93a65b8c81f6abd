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
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate, chain, repeat
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
        self._layout = codec.num_shared, codec.num_pcs, codec.num_locals
        count_width, self._count_fmt = _field_format(codec.n)
        self.pair_size = codec.width + count_width
        self.pack_count = Struct(">" + self._count_fmt).pack
        self._structs = {}
        self._ranks = {}
        self._heads = {}

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

    def _head(self, shared, size):
        """The fields and pin count of a ``size``-byte key with these packed shared values."""
        pins = len(self.ranked(self.codec.shared(shared))[0])
        got = self._heads[shared, size] = self._struct(pins, size), pins
        return got

    def parts(self, key):
        """``(shared, pinned codes, run codes, run counts, per-pc occupancy)``."""
        head = (key[: self.codec.shared_size], len(key))
        fields, pins = self._heads.get(head) or self._head(*head)
        fields = fields.unpack(key)
        s, num_pcs, shift = self._layout
        p = s + pins
        codes, counts = fields[p::2], fields[p + 1 :: 2]
        occ = [0] * num_pcs
        try:
            for code in fields[s:p]:
                occ[code >> shift] += 1
            for code, m in zip(codes, counts):
                occ[code >> shift] += m
        except IndexError:
            raise ValueError(f"run-length key {key!r} holds a record code of no pc") from None
        return fields[:s], fields[s:p], codes, counts, occ

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
        """``(pins, rank, ranked shared values)`` of these shared values: the
        processes the pid slots name, by first appearance, their ranks, and
        the shared values with each pid value replaced by its rank; memoized."""
        got = self._ranks.get(shared)
        if got is None:
            pins = _pins(shared, self.codec.pid_slots, self.n)
            rank = {q: r for r, q in enumerate(pins)}
            slots = self.codec.pid_slots
            ranked = tuple(rank.get(v, self.n) if s in slots else v for s, v in enumerate(shared))
            got = self._ranks[shared] = pins, rank, ranked
        return got

    def canonical(self, key):
        """The run-length key of the representative of a ``StateCodec`` key:
        the pinned sort, pinned records in rank order and the rest sorted."""
        codes = self.codec.codes(key)
        pins, rank, shared = self.ranked(self.codec.shared(key))
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
    """All (action, key) pairs one step away from a run-length key.

    Each pin fires, then the head of each run, which stands for its run.
    Without pid slots a successor is a one-unit splice of the pairs (the
    firing run loses a unit or is dropped, the target gains one or is
    inserted where bisection puts it); otherwise ``_reranked`` ranks the
    pins anew.  Actions are ``"i/j"`` for the index i in the decoded
    representative, or with ``counter`` ``"<record>/<j>"``."""
    table = program.table
    runs = table.runs
    codec = runs.codec
    n = codec.n
    shared, pins, codes, counts, occ = runs.parts(key)
    names, plans = table.action_names, table._plans
    out = []
    append = out.append
    if codec.pid_slots:
        # a head is unpinned, so no pid slot names it and its index only tells
        # the firing process apart: every head fires as process p = len(pins)
        p = len(pins)
        heads = zip(accumulate(counts, initial=p), codes, range(len(codes)))  # (h, code, run a)
        for h, code, a in [*((i, code, None) for i, code in enumerate(pins)), *heads]:
            i = h if a is None else p
            rec, plan = plans.get((shared, code, i)) or table.record_plan(shared, code, i)
            row = names[h] or table.action_row(h)
            for guard, _, moves in plan:
                if guard.eval(shared, rec, i, occ, n):
                    for j, new_shared, _, t, _ in moves:
                        append((row[j], _reranked(runs, new_shared, pins, codes, counts, i, a, t)))
        return out
    # pair a of the key is body[a * size : (a + 1) * size]
    size, width = runs.pair_size, codec.width
    prefix, body = key[: codec.shared_size], key[codec.shared_size :]
    pack_count = runs.pack_count
    one = pack_count(1)
    k = len(codes)
    h = at = 0
    for c, m in zip(codes, counts):
        rec, plan = plans.get((shared, c, None)) or table.record_plan(shared, c)
        end = at + size
        if plan:
            dec = body[at : at + width] + pack_count(m - 1) if m > 1 else b""
            row = None if counter else names[h] or table.action_row(h)
            for guard, label, moves in plan:
                if not guard.eval(shared, rec, None, occ, n):
                    continue
                for j, _, packed_shared, t, packed_t in moves:
                    if t == c:
                        target = body
                    else:
                        b = bisect_left(codes, t)
                        lo = b * size
                        if b < k and codes[b] == t:
                            inc, hi = packed_t + pack_count(counts[b] + 1), lo + size
                        else:
                            inc, hi = packed_t + one, lo
                        if at < lo:
                            target = body[:at] + dec + body[end:lo] + inc + body[hi:]
                        else:
                            target = body[:lo] + inc + body[hi:at] + dec + body[end:]
                    if packed_shared is not None:
                        target = packed_shared + target
                    elif prefix:
                        target = prefix + target
                    append((label if counter else row[j], target))
        h += m
        at = end
    return out


def _pins(shared, pid_slots, n):
    """Processes named by non-``none`` pid slots, in order of first appearance."""
    pins = []
    for v in map(shared.__getitem__, pid_slots):
        if v != n and v not in pins:
            pins.append(v)
    return pins


def _reranked(runs, new_shared, pins, codes, counts, i, a, new_code):
    """The key after process i of the representative (pin i, or the head of
    run a) took record ``new_code`` and the shared values became
    ``new_shared``: the processes the pid slots name now are the pins."""
    new_pins, rank, shared = runs.ranked(new_shared)
    record = dict(enumerate(pins))  # the code of each process that may join the runs
    record[i] = new_code
    tally = dict(zip(codes, counts))
    if a is not None:
        tally[codes[a]] -= 1
    for q in record.keys() - rank.keys():
        tally[record[q]] = tally.get(record[q], 0) + 1
    pairs = sorted(pair for pair in tally.items() if pair[1])
    return runs.pack(shared, [record[q] for q in new_pins], pairs)
