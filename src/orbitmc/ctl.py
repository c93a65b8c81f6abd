"""CTL parsing and explicit-state fixpoint model checking.

``parse_ctl`` is the model parser with CTL atoms: the same lexer (``#``
comments included), depth bound and ``bool`` rule, building the guard and
label connectives, with right-associative ``->`` on top.

The core is EX / E[_ U _] / EG; everything else normalizes into it at
parse time through the standard dualities, so there are exactly three
fixpoint routines.  EU is a least fixpoint computed as backward
saturation; EG is a greatest fixpoint computed with a successor-count
worklist: each candidate counts its edges into the candidate set, and a
state whose count reaches zero is removed and decrements its
predecessors (Clarke, Emerson & Sistla 1986).  Both read each state and
edge a bounded number of times, so every fixpoint runs in time linear in
the structure.  All of it runs on any totalized Kripke structure,
whether it came from the full, quotient or counter exploration.

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
    """States satisfying ``formula``, by the standard explicit fixpoints.

    The structure must be total (CTL talks about infinite paths) and
    every atom must exist in its AP set.  ``_memo``, a dict from the id
    of a subformula node to its sat set, lets ``check`` read a
    subformula's set from the same evaluation; keyed by identity, a node
    that the formula shares is evaluated once, and no lookup hashes a
    subtree.
    """
    if not structure.is_total():
        raise ValueError("structure is not total; run totalize() first")
    return _sat(structure, formula, {} if _memo is None else _memo)


def _sat(structure, f, memo):
    # module-level recursion: a self-referring closure would form a cycle
    # that keeps the structure alive until the next full collection
    got = memo.get(id(f))
    if got is not None:
        return got
    if isinstance(f, TrueF):
        out = frozenset(structure.states())
    elif isinstance(f, FalseF):
        out = frozenset()
    elif isinstance(f, Atom):
        out = frozenset(structure.sat_atom(f.name))
    elif isinstance(f, Not):
        out = frozenset(structure.states()) - _sat(structure, f.inner, memo)
    elif isinstance(f, And):
        out = _sat(structure, f.left, memo) & _sat(structure, f.right, memo)
    elif isinstance(f, Or):
        out = _sat(structure, f.left, memo) | _sat(structure, f.right, memo)
    elif isinstance(f, EX):
        out = frozenset(structure.preimage(_sat(structure, f.inner, memo)))
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
    sat = set(right)
    queue = deque(sat)
    while queue:
        t = queue.popleft()
        for s in structure.predecessors(t):
            if s in left and s not in sat:
                sat.add(s)
                queue.append(s)
    return frozenset(sat)


def _sat_eg(structure, inner):
    # greatest fixpoint Z = inner ∩ pre(Z): count[s] is the number of edges
    # from s into Z (per edge, so parallel edges count and uncount alike);
    # a state whose count drops to 0 leaves Z and uncounts its in-edges
    count = {s: sum(t in inner for t in structure.successor_ids(s)) for s in inner}
    queue = deque(s for s, c in count.items() if c == 0)
    while queue:
        t = queue.popleft()
        for s in structure.predecessors(t):
            c = count.get(s)
            if c:
                count[s] = c - 1
                if c == 1:
                    queue.append(s)
    return frozenset(s for s, c in count.items() if c)


# --------------------------------------------------------------------------
# Verdicts and counterexamples.
# --------------------------------------------------------------------------


class CheckResult(Value, frozen=False):
    """Outcome of checking one formula against a structure's initial set.

    ``counterexample`` is a shortest path to a violating state for failed
    invariant-shaped formulas, or a shortest witness path for holding
    reachability-shaped formulas; None otherwise.
    """

    __slots__ = ("holds", "sat_states", "counterexample")
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

    Sources are seeded in id order and successor ids expanded in stored
    order, so ties always break the same way.  The path is read back from
    the target and reversed once, in time linear in its length, and each
    step is named by the first action of its source's edges to its target,
    the edge that discovered the target.
    """
    targets = set(targets)
    parent = {}
    queue = deque()
    for sid in sorted(sources):
        if sid not in parent:
            parent[sid] = None
            queue.append(sid)
    while queue:
        sid = queue.popleft()
        if sid in targets:
            states = [sid]
            while parent[states[-1]] is not None:
                states.append(parent[states[-1]])
            states.reverse()
            actions = [
                next(action for action, dst in structure.successors(src) if dst == nxt)
                for src, nxt in zip(states, states[1:])
            ]
            return Path(tuple(map(structure.payload, states)), tuple(actions))
        for dst in structure.successor_ids(sid):
            if dst not in parent:
                parent[dst] = sid
                queue.append(dst)
    return None


def check(structure, formula):
    """Model-check ``formula``; holds iff every state of ``structure.init``
    satisfies it, so an empty initial set holds vacuously.
    Counterexamples/witnesses are attached per CheckResult.
    """
    init = structure.init
    memo = {}
    sat = sat_set(structure, formula, _memo=memo)
    holds = init <= sat
    counterexample = None
    target = _invariant_target(formula)
    if target is not None and not holds:
        counterexample = shortest_path(structure, init, memo[id(target)])
    else:
        target = _reachability_target(formula)
        if target is not None and holds and init:
            counterexample = shortest_path(structure, init, memo[id(target)])
    return CheckResult(holds, sat, counterexample)


def lift_counterexample(program, quotient_path, group=None):
    """Concretize a path of representatives into a real execution.

    Walks the concrete successor relation on the program's positional keys,
    at each step taking the successor whose canonical key is the next path
    state's (least key, which is least encoding, on ties).  A missing match
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
