"""CTL parsing and explicit-state fixpoint model checking.

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
top-level reachability; both are shortest by construction.  A path found
in the quotient is lifted to a concrete execution by walking concrete
successors and matching representatives, which must always succeed when
the symmetry machinery is sound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InternalError, ParseError
from .kripke import Path
from .program import successors
from .symmetry import representative_fn

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
    "lift_counterexample",
]


# --------------------------------------------------------------------------
# Formula AST (core fragment only; surface forms normalize into it).
# --------------------------------------------------------------------------


class Formula:
    pass


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    inner: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class EX(Formula):
    inner: Formula


@dataclass(frozen=True)
class EU(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class EG(Formula):
    inner: Formula


def atoms(f):
    """Names of the atomic propositions a formula mentions."""
    if isinstance(f, Atom):
        return {f.name}
    out = set()
    for sub in vars(f).values():
        out |= atoms(sub)
    return out


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
    return neg(Or(EU(neg(g), And(neg(f), neg(g))), EG(neg(g))))


# --------------------------------------------------------------------------
# Parser.  Surface syntax:
#   atoms are label identifiers; "true"/"false" literals;
#   prefixes ! EX AX EF AF EG AG INV bind tightest, then &, |, ->;
#   E[ f U g ] and A[ f U g ] for the until forms.
# --------------------------------------------------------------------------

_PREFIXES = {
    "EX": EX,
    "AX": ax,
    "EF": ef,
    "AF": af,
    "EG": EG,
    "AG": ag,
    "INV": ag,
}

_CTL_KEYWORDS = set(_PREFIXES) | {"E", "A", "U", "true", "false"}


def _ctl_tokens(text):
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append((text[start:pos], start))
            continue
        if text.startswith("->", pos):
            tokens.append(("->", pos))
            pos += 2
            continue
        if ch in "!&|()[]":
            tokens.append((ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r} in formula", 1, pos + 1)
    tokens.append((None, len(text)))
    return tokens


class _CtlParser:
    def __init__(self, text):
        self.tokens = _ctl_tokens(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok[0] is not None:
            self.pos += 1
        return tok

    def fail(self, message):
        tok, at = self.tokens[self.pos]
        raise ParseError(message, 1, at + 1)

    def expect(self, what):
        if self.peek() != what:
            self.fail(f"expected {what!r}")
        self.advance()

    def parse(self):
        f = self.parse_implies()
        if self.peek() is not None:
            self.fail("trailing input after formula")
        return f

    def parse_implies(self):
        left = self.parse_or()
        if self.peek() == "->":
            self.advance()
            right = self.parse_implies()
            return Or(neg(left), right)
        return left

    def parse_or(self):
        left = self.parse_and()
        while self.peek() == "|":
            self.advance()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_unary()
        while self.peek() == "&":
            self.advance()
            left = And(left, self.parse_unary())
        return left

    def parse_unary(self):
        tok = self.peek()
        if tok == "!":
            self.advance()
            return neg(self.parse_unary())
        if tok in _PREFIXES:
            self.advance()
            return _PREFIXES[tok](self.parse_unary())
        if tok in ("E", "A"):
            self.advance()
            self.expect("[")
            left = self.parse_implies()
            self.expect("U")
            right = self.parse_implies()
            self.expect("]")
            return EU(left, right) if tok == "E" else au(left, right)
        return self.parse_primary()

    def parse_primary(self):
        tok = self.peek()
        if tok == "(":
            self.advance()
            inner = self.parse_implies()
            self.expect(")")
            return inner
        if tok == "true":
            self.advance()
            return TrueF()
        if tok == "false":
            self.advance()
            return FalseF()
        if tok is None:
            self.fail("unexpected end of formula")
        if tok in _CTL_KEYWORDS or not (tok[0].isalpha() or tok[0] == "_"):
            self.fail(f"unexpected token {tok!r}")
        self.advance()
        return Atom(tok)


def parse_ctl(text):
    """Parse a CTL formula, normalizing derived operators into the core."""
    return _CtlParser(text).parse()


# --------------------------------------------------------------------------
# Fixpoint evaluation.
# --------------------------------------------------------------------------


def sat_set(structure, formula, *, _memo=None):
    """States satisfying ``formula``, by the standard explicit fixpoints.

    The structure must be total (CTL talks about infinite paths) and
    every atom must exist in its AP set.  ``_memo``, a dict from
    subformula to sat set, lets ``check`` read a subformula's set from
    the same evaluation.
    """
    if not structure.is_total():
        raise ValueError("structure is not total; run totalize() first")
    memo = {} if _memo is None else _memo

    def sat(f):
        got = memo.get(f)
        if got is not None:
            return got
        if isinstance(f, TrueF):
            out = frozenset(structure.states())
        elif isinstance(f, FalseF):
            out = frozenset()
        elif isinstance(f, Atom):
            out = frozenset(structure.sat_atom(f.name))
        elif isinstance(f, Not):
            out = frozenset(structure.states()) - sat(f.inner)
        elif isinstance(f, And):
            out = sat(f.left) & sat(f.right)
        elif isinstance(f, Or):
            out = sat(f.left) | sat(f.right)
        elif isinstance(f, EX):
            out = frozenset(structure.preimage(sat(f.inner)))
        elif isinstance(f, EU):
            out = _sat_eu(structure, sat(f.left), sat(f.right))
        elif isinstance(f, EG):
            out = _sat_eg(structure, sat(f.inner))
        else:
            raise ValueError(f"not a formula: {f!r}")
        memo[f] = out
        return out

    return sat(formula)


def _sat_eu(structure, left, right):
    # least fixpoint Z = right ∪ (left ∩ pre(Z)), by backward saturation
    sat = set(right)
    queue = deque(sat)
    while queue:
        t = queue.popleft()
        for s, _ in structure.predecessors(t):
            if s in left and s not in sat:
                sat.add(s)
                queue.append(s)
    return frozenset(sat)


def _sat_eg(structure, inner):
    # greatest fixpoint Z = inner ∩ pre(Z): count[s] is the number of edges
    # from s into Z (per edge, so parallel edges count and uncount alike);
    # a state whose count drops to 0 leaves Z and uncounts its in-edges
    count = {s: sum(t in inner for _, t in structure.successors(s)) for s in inner}
    queue = deque(s for s, c in count.items() if c == 0)
    while queue:
        t = queue.popleft()
        for s, _ in structure.predecessors(t):
            c = count.get(s)
            if c:
                count[s] = c - 1
                if c == 1:
                    queue.append(s)
    return frozenset(s for s, c in count.items() if c)


# --------------------------------------------------------------------------
# Verdicts and counterexamples.
# --------------------------------------------------------------------------


@dataclass
class CheckResult:
    """Outcome of checking one formula against a structure's initial set.

    ``counterexample`` is a shortest path to a violating state for failed
    invariant-shaped formulas, or a shortest witness path for holding
    reachability-shaped formulas; None otherwise.
    """

    holds: bool
    sat_states: frozenset
    counterexample: Path | None = None

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


def shortest_path(structure, sources, targets):
    """Deterministic BFS shortest path; None if no target is reachable.

    Sources are seeded in id order and successors expanded in stored
    order, so ties always break the same way.
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
            states, actions = [sid], []
            while parent[states[0]] is not None:
                prev, action = parent[states[0]]
                states.insert(0, prev)
                actions.insert(0, action)
            return Path(
                tuple(structure.payload(s) for s in states),
                tuple(actions),
            )
        for action, dst in structure.successors(sid):
            if dst not in parent:
                parent[dst] = (sid, action)
                queue.append(dst)
    return None


def check(structure, formula, init=None):
    """Model-check ``formula``; holds iff every initial state satisfies it.

    ``init`` overrides the structure's initial set (an empty set holds
    vacuously).  Counterexamples/witnesses are attached per CheckResult.
    """
    init = set(structure.init) if init is None else set(init)
    memo = {}
    sat = sat_set(structure, formula, _memo=memo)
    holds = init <= sat
    counterexample = None
    target = _invariant_target(formula)
    if target is not None and not holds:
        counterexample = shortest_path(structure, init, memo[target])
    else:
        target = _reachability_target(formula)
        if target is not None and holds and init:
            counterexample = shortest_path(structure, init, memo[target])
    return CheckResult(holds, sat, counterexample)


def lift_counterexample(program, quotient_path, group=None):
    """Concretize a path of representatives into a real execution.

    Walks the concrete successor relation, at each step taking the
    successor whose representative matches the next path state (least
    canonical encoding on ties).  A missing match means the quotient was
    not built from an automorphism group, which is an internal bug
    (``InternalError``), not an input error.
    """
    rep_fn, _ = representative_fn(program, group)
    current = program.initial_state()
    if rep_fn(current) != quotient_path.states[0]:
        raise ValueError("path does not start at the representative of the initial state")
    states = [current]
    actions = []
    for step, want in enumerate(quotient_path.states[1:]):
        candidates = [
            (t.encode(), action, t)
            for action, t in successors(program, current)
            if rep_fn(t) == want
        ]
        if not candidates:
            raise InternalError(
                "no concrete successor matches the quotient edge at step "
                f"{step}; the symmetry machinery is unsound for this program"
            )
        _, action, current = min(candidates)
        states.append(current)
        actions.append(action)
    return Path(tuple(states), tuple(actions))
