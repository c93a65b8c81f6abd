"""CTL parsing and explicit-state fixpoint model checking.

``parse_ctl`` is the model parser with CTL atoms: the same lexer (``#``
comments included), depth bound and ``bool`` rule, building the guard and
label connectives, with right-associative ``->`` on top.

The core is EX / E[_ U _] / EG; everything else normalizes into it at
parse time through the standard dualities, so there are exactly three
fixpoint routines.  State ids are dense (0 ... N-1), so evaluation marks
each state with the subformulas that hold there as the labeling
algorithm does (Clarke, Emerson & Sistla 1986): every subformula is
``bytes`` of one flag per state id, and flags are the one set form here:
``sat_set`` returns them, ``check`` reads its verdict and the target of
its path off them, and ``shortest_path`` takes them.  An atom is one
pass over the label slots, ``!`` one ``bytes.translate``, ``&`` and
``|`` one bitwise operation on the flags read as ints, and EX one count
of each state's edges into the flagged states.  EU is a least fixpoint
computed as backward saturation over a ``bytearray``; EG is a greatest
fixpoint computed with a successor-count worklist: each candidate's
count of edges into the candidate set comes from one bulk pass over the
forward edges, and a state whose count reaches zero is removed and
decrements its predecessors.  Both read each state and edge a bounded
number of times, so every fixpoint runs in time linear in the structure.
All of it runs on any totalized Kripke structure, whether it came from
the full, quotient or counter exploration.

Counterexamples are produced for top-level invariant-style failures
(anything of the shape "no reachable state hits X") and witnesses for
top-level reachability; both are shortest by construction.  When X is
free of temporal operators, both the verdict and the path depend only on
which states are reachable and on the edge that first reached each one,
so ``decided_by_tree`` lets the CLI check these formulas on the
breadth-first discovery tree (``kripke.breadth_first_build``).  A path found
in the quotient is lifted to a concrete execution by walking concrete
successors and matching representatives, which must always succeed when
the symmetry machinery is sound.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from operator import gt, mul

from .errors import InternalError
from .kripke import Path
from .parser import PROPERTY_KEYWORDS, PROPERTY_PREFIXES, _Parser
from .program import GAnd, GFalse, GNot, GOr, GTrue, successors
from .symmetry import canonical_key_fn, full_symmetric, rep_min
from .value import Value

__all__ = [
    "Atom",
    "TrueF",
    "FalseF",
    "Not",
    "And",
    "Or",
    "EX",
    "EU",
    "EG",
    "parse_ctl",
    "atoms",
    "neg",
    "sat_set",
    "check",
    "CheckResult",
    "decided_by_tree",
    "lift_counterexample",
]


# --------------------------------------------------------------------------
# Formula AST (core fragment only; surface forms normalize into it).  The
# boolean layer is the guard and label connectives; ``TrueF`` ... ``Or``
# name them here.
# --------------------------------------------------------------------------

TrueF, FalseF, Not, And, Or = GTrue, GFalse, GNot, GAnd, GOr


class Atom(Value):
    __slots__ = ("name",)


class EX(Value):
    __slots__ = ("inner",)


class EU(Value):
    __slots__ = ("left", "right")


class EG(Value):
    __slots__ = ("inner",)


def _nodes(f):
    """The nodes of a formula, each once however often the formula shares it."""
    seen, stack = set(), [f]
    while stack:
        f = stack.pop()
        if id(f) not in seen:
            seen.add(id(f))
            yield f
            if not isinstance(f, Atom):
                stack.extend(f._values)


def atoms(f):
    """Names of the atomic propositions a formula mentions."""
    return {g.name for g in _nodes(f) if isinstance(g, Atom)}


def neg(f):
    """Negation with double-negation cleanup."""
    if isinstance(f, Not):
        return f.inner
    return Not(f)


def ef(f):
    return EU(TrueF(), f)


def ag(f):
    return neg(ef(neg(f)))


def ax(f):
    return neg(EX(neg(f)))


def af(f):
    return neg(EG(neg(f)))


def au(f, g):
    not_g = neg(g)  # one node in three places, evaluated once (``sat_set``)
    return neg(Or(EU(not_g, And(neg(f), not_g)), EG(not_g)))


# --------------------------------------------------------------------------
# Parser: the model parser's ``bool`` rule over CTL atoms, with
#   formula := bool[ctlatom] ("->" formula)?
#   ctlatom := ID | prefix unary[ctlatom] | ("E"|"A") "[" formula "U" formula "]"
# where parentheses hold a whole formula.  Prefixes bind tightest, then
# &, |, ->.  ``->`` is one more entry in the table of binary operators,
# and the unary rule reads the prefixes and until forms.
# --------------------------------------------------------------------------

_PREFIXES = dict(zip(PROPERTY_PREFIXES, (EX, ax, ef, af, EG, ag, ag), strict=True))


class _FormulaParser(_Parser):
    BINARY = {**_Parser.BINARY, "->": (0, lambda f, g: Or(neg(f), g), True)}
    NOT = staticmethod(neg)

    def parse(self):
        f, _ = self.parse_bool(self.parse_atom)
        if self.peek().kind != "eof":
            self.fail("trailing input after formula")
        return f

    def parse_unary(self, atom, outer):
        tok = self.peek()
        if tok.value in _PREFIXES:
            self.pos += 1
            inner, depth = self.parse_unary(atom, self.nest(tok, outer))
            return _PREFIXES[tok.value](inner), depth + 1
        if tok.value in ("E", "A"):
            self.pos += 1
            self.expect("[")
            inside = self.nest(tok, outer)
            left, depth = self.parse_bool(atom, inside)
            self.expect("U")
            right, inner = self.parse_bool(atom, inside)
            self.expect("]")
            return (EU if tok.value == "E" else au)(left, right), max(depth, inner) + 1
        return super().parse_unary(atom, outer)

    def parse_atom(self):
        tok = self.advance()
        if tok.kind == "eof":
            self.fail("unexpected end of formula", tok)
        if tok.kind != "id" or tok.value in PROPERTY_KEYWORDS:
            self.fail(f"unexpected token {str(tok.value)!r}", tok)
        return Atom(tok.value)


def parse_ctl(text):
    """Parse a CTL formula, normalizing derived operators into the core."""
    return _FormulaParser(text, "<formula>").parse()


# --------------------------------------------------------------------------
# Fixpoint evaluation.
# --------------------------------------------------------------------------


def sat_set(structure, formula, *, _memo=None):
    """States satisfying ``formula``, as ``bytes`` of one flag per state
    id, 1 where it holds.

    The structure must be total (CTL talks about infinite paths) and
    every atom must exist in its AP set.  Every subformula is evaluated
    to flags of the same form.  ``_memo``, a dict from the id of a
    subformula node to its flags, lets ``check`` read a subformula's
    flags from the same evaluation; keyed by identity, a node that the
    formula shares is evaluated once, and no lookup hashes a subtree.
    """
    if not structure.is_total():
        raise ValueError("structure is not total; run totalize() first")
    return _sat(structure, formula, {} if _memo is None else _memo)


# ``bytes.translate`` table of ``!``: flag 0 to 1 and 1 to 0
_FLIP = bytes((1, 0)) + bytes(254)


def _sat(structure, f, memo):
    # module-level recursion: a self-referring closure would form a cycle
    # that keeps the structure alive until the next full collection
    got = memo.get(id(f))
    if got is not None:
        return got
    n = structure.num_states
    if isinstance(f, TrueF):
        out = b"\1" * n
    elif isinstance(f, FalseF):
        out = bytes(n)
    elif isinstance(f, Atom):
        out = structure.label_flags(f.name)
    elif isinstance(f, Not):
        out = _sat(structure, f.inner, memo).translate(_FLIP)
    elif isinstance(f, (And, Or)):
        # flags of 0 and 1 combine bytewise as the bits of two ints
        left = int.from_bytes(_sat(structure, f.left, memo), "little")
        right = int.from_bytes(_sat(structure, f.right, memo), "little")
        out = (left & right if isinstance(f, And) else left | right).to_bytes(n, "little")
    elif isinstance(f, EX):
        out = bytes(map(bool, structure.edge_counts(_sat(structure, f.inner, memo))))
    elif isinstance(f, EU):
        out = _sat_eu(structure, _sat(structure, f.left, memo), _sat(structure, f.right, memo))
    elif isinstance(f, EG):
        out = _sat_eg(structure, _sat(structure, f.inner, memo))
    else:
        raise ValueError(f"not a formula: {f!r}")
    memo[id(f)] = out
    return out


def _sat_eu(structure, left, right):
    # least fixpoint Z = right ∪ (left ∩ pre(Z)), by backward saturation
    sat = bytearray(right)
    queue = deque(compress(structure.states(), right))
    while queue:
        for s in structure.predecessors(queue.popleft()):
            if left[s] and not sat[s]:
                sat[s] = 1
                queue.append(s)
    return bytes(sat)


def _sat_eg(structure, inner):
    # greatest fixpoint Z = inner ∩ pre(Z): count[s] is the number of edges
    # from s into Z (per edge, so parallel edges count and uncount alike),
    # 0 off ``inner``; a state whose count drops to 0 leaves Z and uncounts
    # its in-edges
    count = list(map(mul, structure.edge_counts(inner), inner))
    queue = deque(compress(structure.states(), map(gt, inner, count)))
    while queue:
        for s in structure.predecessors(queue.popleft()):
            c = count[s]
            if c:
                count[s] = c - 1
                if c == 1:
                    queue.append(s)
    return bytes(map(bool, count))


# --------------------------------------------------------------------------
# Verdicts and counterexamples.
# --------------------------------------------------------------------------


class CheckResult(Value, frozen=False):
    """Outcome of checking one formula against a structure's initial set.

    ``counterexample`` is a shortest path to a violating state for failed
    invariant-shaped formulas, or a shortest witness path for holding
    reachability-shaped formulas; None otherwise.
    """

    __slots__ = ("holds", "counterexample")
    _defaults = (None,)

    @property
    def verdict(self):
        return "holds" if self.holds else "fails"


def _invariant_target(formula):
    """For formulas of the shape "never X", the inner target X."""
    if isinstance(formula, Not) and isinstance(formula.inner, EU):
        if isinstance(formula.inner.left, TrueF):
            return formula.inner.right
    return None


def _reachability_target(formula):
    if isinstance(formula, EU) and isinstance(formula.left, TrueF):
        return formula.right
    return None


def decided_by_tree(formula):
    """True iff ``check`` reads the same result for ``formula`` off the
    breadth-first discovery tree of a structure as off the whole structure.

    That holds for ``AG p`` and ``EF p`` with ``p`` free of temporal
    operators: the verdict asks only whether a ``p``-state (a
    ``!p``-state) is reachable from the one initial state, every
    reachable state is in the tree rooted there, and ``shortest_path``
    follows the tree's edges, the first edge into each state in
    breadth-first order.
    """
    target = _invariant_target(formula)
    if target is None:
        target = _reachability_target(formula)
    return target is not None and not any(isinstance(g, (EX, EU, EG)) for g in _nodes(target))


def shortest_path(structure, sources, targets):
    """Deterministic BFS shortest path; None if no target is reachable.

    ``targets`` holds one flag per state id, as the fixpoints make them
    (``bytes``, or any sequence of 0 and 1 indexed by state id).
    Sources are seeded in id order and successor ids expanded in stored
    order, so ties always break the same way.  Each reached state's BFS
    parent is kept in a list by state id; the path is read back from the
    target and reversed once, in time linear in its length, and each step
    is named by the first action of its source's edges to its target, the
    edge that discovered the target.
    """
    parent = [-1] * structure.num_states  # a source is its own parent
    queue = deque()
    for sid in sorted(sources):
        if parent[sid] < 0:
            parent[sid] = sid
            queue.append(sid)
    while queue:
        sid = queue.popleft()
        if targets[sid]:
            states = [sid]
            while parent[sid] != sid:
                sid = parent[sid]
                states.append(sid)
            states.reverse()
            actions = [
                next(action for action, dst in structure.successors(src) if dst == nxt)
                for src, nxt in zip(states, states[1:])
            ]
            return Path(tuple(map(structure.payload, states)), tuple(actions))
        for dst in structure.successor_ids(sid):
            if parent[dst] < 0:
                parent[dst] = sid
                queue.append(dst)
    return None


def check(structure, formula):
    """Model-check ``formula``; holds iff every state of ``structure.init``
    satisfies it, so an empty initial set holds vacuously.  A failing
    invariant-shaped formula gets a shortest counterexample and a holding
    reachability-shaped one a shortest witness, each found by
    ``shortest_path`` on its target's flags from the same evaluation.
    """
    init = structure.init
    memo = {}
    holds = all(map(sat_set(structure, formula, _memo=memo).__getitem__, init))
    target = _reachability_target(formula) if holds else _invariant_target(formula)
    path = None if target is None else shortest_path(structure, init, memo[id(target)])
    return CheckResult(holds, path)


def lift_counterexample(program, quotient_path, group=None):
    """Concretize a path of representatives into a real execution.

    Walks the concrete successor relation on the program's positional
    ``int`` keys, at each step taking the successor whose canonical key is
    the next path state's (least key, which is least ``GlobalState.encode``,
    on ties, since int order of positional keys is that order).  A missing match
    means the quotient was not built from an automorphism group: an
    internal bug (``InternalError``), not an input error.
    """
    group = group or full_symmetric(program.n)
    current = program.initial_state()
    if rep_min(group, current, witness=False)[0] != quotient_path.states[0]:
        raise ValueError("path does not start at the representative of the initial state")
    codec = program.table.codec
    stored, canon = canonical_key_fn(program, group)
    key = codec.encode(current)
    states, actions = [current], []
    for step, want in enumerate(quotient_path.states[1:]):
        want = stored.encode(want)
        candidates = [(t, action) for action, t in successors(program, key) if canon(t) == want]
        if not candidates:
            raise InternalError(
                "no concrete successor matches the quotient edge at step "
                f"{step}; the symmetry machinery is unsound for this program"
            )
        key, action = min(candidates)
        states.append(codec.decode(key))
        actions.append(action)
    return Path(tuple(states), tuple(actions))
