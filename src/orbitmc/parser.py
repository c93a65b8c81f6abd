"""Front end: the guarded-command input language and CTL properties.

Grammar (UTF-8 text, ``#`` line comments):

    program   := "processes" INT ";" decl* "pc" "{" ID ("," ID)* "}" ";"
                 "init" assign ("," assign)* ";" command* label*
    decl      := "shared" ID ":" ("bool"|"pid") ";" | "local" ID ":" "bool" ";"
    assign    := "pc" "=" ID | ID "=" ("0"|"1"|"none")
    command   := ID "->" ID ":" bool[guardatom] "/" updates? ";"
    update    := ID ":=" ("0"|"1"|"*"|"self"|"none"|ID)
    label     := "label" ID ":=" bool[labelatom] ";"
    bool[A]   := conj[A] ("|" conj[A])*
    conj[A]   := unary[A] ("&" unary[A])*
    unary[A]  := "!" unary[A] | "(" bool[A] ")" | "true" | "false" | A
    guardatom := ID ("== self" | "== none" | "== 0" | "== 1")
               | "all_others" "(" "pc" "!=" ID ")"
               | "exists_other" "(" "pc" "==" ID ")"
    labelatom := "count" "(" "pc" ("="|"==") ID ")" ">=" INT
               | ID "==" ("0"|"1"|"none")

Guards, labels and CTL formulas (``ctl.parse_ctl``, a ``_Parser``
subclass) share the one boolean rule ``bool``, precedence climbing over
the table ``_Parser.BINARY``, and differ only in their atoms, so all
three parse into the same connective nodes.  Labels may not take the
names ``PROPERTY_KEYWORDS`` reserves for formulas.  An expression nests
at most ``MAX_DEPTH`` levels, one per ``!``, ``(``, binary and temporal
operator, so no recursion over a parsed tree can overflow.  A program
runs at most ``MAX_PROCESSES`` processes.

The ``init`` list must assign the pc and every declared variable exactly
once; pid variables can only start at ``none``, so the single initial
state is fixed under every process permutation.  Atoms that could name a
concrete process index are rejected here, which is what guarantees that
the symmetric group acts by automorphisms on every parsed program.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .program import (
    AllOthersNotAt,
    BOOL,
    CountAtLeast,
    ExistsOtherAt,
    GAnd,
    GFalse,
    GNot,
    GOr,
    GTrue,
    GuardedCommand,
    LocalEq,
    PID,
    PidEqNone,
    PidEqSelf,
    Program,
    SharedEq,
    Update,
    ValueExpr,
    V_CONST,
    V_NONE,
    V_SELF,
    V_STAR,
)

KEYWORDS = {
    "processes",
    "shared",
    "local",
    "bool",
    "pid",
    "pc",
    "init",
    "label",
    "count",
    "all_others",
    "exists_other",
    "true",
    "false",
    "self",
    "none",
}

# The words CTL properties reserve: the prefix operators, then the until
# forms ``E[ f U g ]`` and ``A[ f U g ]``.  ``ctl.parse_ctl`` reads its
# operators from here, and no label may be named after any of them.
PROPERTY_PREFIXES = ("EX", "AX", "EF", "AF", "EG", "AG", "INV")
PROPERTY_KEYWORDS = frozenset(PROPERTY_PREFIXES + ("E", "A", "U"))

_LABEL_RESERVED = KEYWORDS | PROPERTY_KEYWORDS

# the guard atoms over the other processes' pcs: comparison and node
_OTHERS_ATOMS = {"all_others": ("!=", AllOthersNotAt), "exists_other": ("==", ExistsOtherAt)}

# How deep one expression may nest; see the module docstring.
MAX_DEPTH = 64
_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"
# The longest integer literal: CPython's default bound on ``int(str)``, so
# every literal converts, on interpreters with and without that bound.
MAX_DIGITS = 4300
# The most processes a program may run.  Building the state codec and the
# initial state costs O(n) before any state bound applies, so the count is
# capped up front; the largest n the tests, demos and timings use is 3200.
MAX_PROCESSES = 10_000

# One lexeme per match, tried in order: a newline, other whitespace, a
# comment, an integer, a word, a symbol (two-character ones first), and
# any other character, which is an error.  In a str pattern ``\d`` is
# ``str.isdecimal`` and ``\w`` is ``str.isalnum`` or ``_``; a word must
# also start with a letter or ``_`` (``²`` and ``½`` are ``\w``, not letters).
_LEXEME = re.compile(
    r"(?P<nl>\n)|[^\S\n]+|#.*|(?P<int>\d+)|(?P<id>\w+)"
    r"|(?P<sym>->|:=|==|!=|>=|[;:,{}()[\]/*!&|=])|(?P<bad>.)"
)


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind  # "int" | "id" | "sym" | "eof"
        self.value = value
        self.line = line
        self.col = col


def _tokenize(text):
    tokens = []
    line, start = 1, 0  # start: the offset of the line's first character
    for match in _LEXEME.finditer(text):
        kind = match.lastgroup
        if kind == "nl":
            line, start = line + 1, match.end()
        elif kind:
            value, col = match.group(), match.start() - start + 1
            if kind == "bad" or kind == "id" and not (value[0].isalpha() or value[0] == "_"):
                raise ParseError(f"unexpected character {value[0]!r}", line, col)
            if kind == "int" and len(value) > MAX_DIGITS:
                raise ParseError(f"integer literal longer than {MAX_DIGITS} digits", line, col)
            tokens.append(_Token(kind, int(value) if kind == "int" else value, line, col))
    # a comment takes no columns, so eof sits at a comment that ends the text
    tokens.append(_Token("eof", None, line, len(text[start:].partition("#")[0]) + 1))
    return tokens


class _Parser:
    # the binary operators: symbol -> (binding power, node, right-associative)
    BINARY = {"|": (1, GOr, False), "&": (2, GAnd, False)}
    NOT = GNot

    def __init__(self, text, name):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.name = name
        # filled while parsing; variables map name -> (target, slot, kind),
        # where the target, "shared" or "local", is also the value tag of a copy
        self.vars = {}
        self.pcs = {}  # name -> index
        self.labels = {}  # name -> label node

    # -- token helpers ------------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, value):
        """The current token, consumed, if its value is ``value``; else None."""
        tok = self.tokens[self.pos]
        if tok.value == value:
            self.pos += 1
            return tok
        return None

    def expect(self, value):
        return self.accept(value) or self.fail(f"expected {value!r}")

    def accept_bit(self):
        """A ``0`` or ``1``, consumed, as an int; else None."""
        tok = self.tokens[self.pos]
        if tok.kind == "int" and tok.value in (0, 1):
            self.pos += 1
            return tok.value
        return None

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_name(self, what, reserved=KEYWORDS):
        tok = self.peek()
        if tok.kind != "id":
            self.fail(f"expected {what}")
        if tok.value in reserved:
            self.fail(f"{tok.value!r} is a keyword, not a valid {what}", tok)
        return self.advance().value

    def expect_positive(self, what, subject):
        tok = self.peek()
        if tok.kind != "int":
            self.fail(f"expected {what}")
        if self.advance().value < 1:
            self.fail(f"{subject} must be >= 1", tok)
        return tok.value

    # -- lookups --------------------------------------------------------------

    def variable(self, name, tok):
        """The ``(target, slot, kind)`` of a declared variable."""
        if name not in self.vars:
            self.fail(f"unknown variable {name!r}", tok)
        return self.vars[name]

    def names(self, target):
        return [name for name, var in self.vars.items() if var[0] == target]

    def pc_index(self, name, tok):
        if name not in self.pcs:
            self.fail(f"undeclared pc value {name!r}", tok)
        return self.pcs[name]

    def expect_pc(self):
        tok = self.peek()
        return self.pc_index(self.expect_name("pc value name"), tok)

    # -- program --------------------------------------------------------------

    def parse(self):
        self.expect("processes")
        tok = self.peek()
        n = self.expect_positive("process count", "process count")
        if n > MAX_PROCESSES:
            self.fail(f"process count must be at most {MAX_PROCESSES}", tok)
        self.expect(";")
        while self.peek().value in ("shared", "local"):
            self.parse_decl()
        self.expect("pc")
        self.expect("{")
        while True:
            tok = self.peek()
            name = self.expect_name("pc value name")
            if name in self.pcs:
                self.fail(f"duplicate pc value {name!r}", tok)
            self.pcs[name] = len(self.pcs)
            if not self.accept(","):
                break
        self.expect("}")
        self.expect(";")
        init_pc, values = self.parse_init(n)
        commands = []
        while self.peek().kind == "id" and self.peek().value != "label":
            commands.append(self.parse_command())
        while self.accept("label"):
            self.parse_label()
        if self.peek().kind != "eof":
            self.fail("trailing input after program")
        shared, local = self.names("shared"), self.names("local")
        return Program(
            n=n,
            shared_names=tuple(shared),
            shared_kinds=tuple(self.vars[name][2] for name in shared),
            pc_names=tuple(self.pcs),
            local_names=tuple(local),
            commands=tuple(commands),
            label_defs=tuple(self.labels.items()),
            init_shared=tuple(values[name] for name in shared),
            init_pc=init_pc,
            init_locals=tuple(values[name] for name in local),
            name=self.name,
        )

    def parse_decl(self):
        target = self.advance().value  # "shared" | "local"
        tok = self.peek()
        name = self.expect_name("variable name")
        if name in self.vars:
            self.fail(f"duplicate variable {name!r}", tok)
        self.expect(":")
        kind_tok = self.accept(BOOL) or self.accept(PID) or self.fail("expected type 'bool' or 'pid'")
        if target == "local" and kind_tok.value != BOOL:
            self.fail("local variables must be bool", kind_tok)
        self.expect(";")
        self.vars[name] = (target, len(self.names(target)), kind_tok.value)

    def parse_init(self, n):
        """The initial pc and the initial value of each variable by name."""
        self.expect("init")
        init_pc = None
        values = {}
        while True:
            tok = self.peek()
            if self.accept("pc"):
                self.expect("=")
                ptok = self.peek()
                pname = self.expect_name("pc value name")
                if init_pc is not None:
                    self.fail("pc initialized twice", tok)
                init_pc = self.pc_index(pname, ptok)
            else:
                name = self.expect_name("variable name")
                self.expect("=")
                _, _, kind = self.variable(name, tok)
                if name in values:
                    self.fail(f"{name!r} initialized twice", tok)
                values[name] = self.parse_init_value(kind, n)
            if not self.accept(","):
                break
        self.expect(";")
        if init_pc is None:
            self.fail("init must assign pc")
        for target in ("shared", "local"):
            for name in self.names(target):
                if name not in values:
                    self.fail(f"init must assign {target} variable {name!r}")
        return init_pc, values

    def parse_init_value(self, kind, n):
        if kind == PID:
            if self.accept("none"):
                return n
            self.fail("pid variables can only be initialized to 'none'")
        bit = self.accept_bit()
        if bit is None:
            self.fail("expected 0 or 1")
        return bit

    # -- commands --------------------------------------------------------------

    def parse_command(self):
        from_pc = self.expect_pc()
        self.expect("->")
        to_pc = self.expect_pc()
        self.expect(":")
        guard, _ = self.parse_bool(self.parse_guard_atom)
        self.expect("/")
        updates = []
        assigned = set()
        while self.peek().value != ";":
            tok = self.peek()
            update = self.parse_update()
            key = (update.target, update.slot)
            if key in assigned:
                self.fail("variable assigned twice in one command", tok)
            assigned.add(key)
            updates.append(update)
            if not self.accept(","):
                break
        self.expect(";")
        return GuardedCommand(from_pc, to_pc, guard, tuple(updates))

    # -- boolean expressions ---------------------------------------------------

    def parse_bool(self, atom, outer=0, floor=0):
        """The rule guards, labels and formulas share: precedence climbing
        over the ``BINARY`` operators that bind at least as tightly as
        ``floor``, on operands of ``parse_unary``.  ``outer`` counts the
        levels open around the expression; returns it and its depth."""
        left, depth = self.parse_unary(atom, outer)
        while True:
            tok = self.peek()
            op = self.BINARY.get(tok.value)
            if op is None or op[0] < floor:
                return left, depth
            power, node, right_assoc = op
            self.pos += 1
            if right_assoc:  # the right operand nests below the operator
                right, inner = self.parse_bool(atom, self.nest(tok, outer), power)
            else:
                right, inner = self.parse_bool(atom, outer, power + 1)
            depth = max(depth, inner) + 1
            if outer + depth > MAX_DEPTH:
                self.fail(_TOO_DEEP, tok)
            left = node(left, right)

    def parse_unary(self, atom, outer):
        """``!``, parentheses, ``true``, ``false`` or ``atom()``: the node
        and its depth."""
        tok = self.peek()
        if self.accept("!"):
            inner, depth = self.parse_unary(atom, self.nest(tok, outer))
            return self.NOT(inner), depth + 1
        if self.accept("("):
            inner, depth = self.parse_bool(atom, self.nest(tok, outer))
            self.expect(")")
            return inner, depth + 1
        if self.accept("true"):
            return GTrue(), 0
        if self.accept("false"):
            return GFalse(), 0
        return atom(), 0

    def nest(self, tok, outer):
        """The ``outer`` levels and the one ``tok`` opens, if they fit."""
        if outer >= MAX_DEPTH:
            self.fail(_TOO_DEEP, tok)
        return outer + 1

    def parse_guard_atom(self):
        tok = self.peek()
        if tok.value in _OTHERS_ATOMS:
            op, node = _OTHERS_ATOMS[self.advance().value]
            self.expect("(")
            self.expect("pc")
            self.expect(op)
            pc = self.expect_pc()
            self.expect(")")
            return node(pc)
        name = self.expect_name("guard atom")
        self.expect("==")
        target, slot, kind = self.variable(name, tok)
        if target == "local":
            bit = self.accept_bit()
            if bit is None:
                self.fail("local variables compare against 0 or 1")
            return LocalEq(slot, bit)
        if self.accept("self"):
            if kind != PID:
                self.fail(f"{name!r} is bool, cannot compare against self", tok)
            return PidEqSelf(slot)
        if self.accept("none"):
            if kind != PID:
                self.fail(f"{name!r} is bool, cannot compare against none", tok)
            return PidEqNone(slot)
        bit = self.accept_bit()
        if bit is None:
            self.fail("expected self, none, 0 or 1 after '=='")
        if kind != BOOL:
            self.fail(f"{name!r} is pid-typed, compare against self or none", tok)
        return SharedEq(slot, bit)

    def parse_update(self):
        tok = self.peek()
        name = self.expect_name("update target")
        self.expect(":=")
        target, slot, kind = self.variable(name, tok)
        return Update(target, slot, self.parse_update_value(kind))

    def parse_update_value(self, kind):
        tok = self.peek()
        for word, tag, fits in (("*", V_STAR, BOOL), ("self", V_SELF, PID), ("none", V_NONE, PID)):
            if self.accept(word):
                if kind != fits:
                    self.fail(f"{word!r} only assigns {fits} variables", tok)
                return ValueExpr(tag)
        bit = self.accept_bit()
        if bit is not None:
            if kind != BOOL:
                self.fail("pid variables take self, none or another pid variable", tok)
            return ValueExpr(V_CONST, bit)
        if tok.kind == "id" and tok.value not in KEYWORDS:
            self.pos += 1
            target, slot, source_kind = self.variable(tok.value, tok)
            if source_kind != kind:
                self.fail(f"type mismatch copying {tok.value!r}", tok)
            return ValueExpr(target, slot)
        self.fail("expected 0, 1, *, self, none or a variable name")

    # -- labels --------------------------------------------------------------

    def parse_label(self):
        tok = self.peek()
        # note: "init" cannot name a label, it is a keyword and stays
        # reserved for the designated initial-state proposition; formulas
        # could not refer to a label named after a property keyword
        name = self.expect_name("label name", _LABEL_RESERVED)
        if name in self.labels:
            self.fail(f"duplicate label {name!r}", tok)
        self.expect(":=")
        self.labels[name], _ = self.parse_bool(self.parse_label_atom)
        self.expect(";")

    def parse_label_atom(self):
        tok = self.peek()
        if self.accept("count"):
            self.expect("(")
            self.expect("pc")
            if not (self.accept("==") or self.accept("=")):
                self.fail("expected '=' in count atom")
            pc = self.expect_pc()
            self.expect(")")
            self.expect(">=")
            return CountAtLeast(pc, self.expect_positive("threshold integer", "count threshold"))
        name = self.expect_name("label atom")
        target, slot, kind = self.vars.get(name, (None, None, None))
        if target != "shared":
            if target == "local":
                self.fail(
                    f"local variable {name!r} is not permutation invariant; "
                    "label atoms are shared literals and count thresholds",
                    tok,
                )
            self.fail(f"unknown shared variable {name!r}", tok)
        self.expect("==")
        if self.accept("none"):
            if kind != PID:
                self.fail(f"{name!r} is bool, cannot compare against none", tok)
            return PidEqNone(slot)
        bit = self.accept_bit()
        if bit is None:
            self.fail("expected 0, 1 or none in label atom")
        if kind != BOOL:
            self.fail(f"{name!r} is pid-typed; labels may only test it against none", tok)
        return SharedEq(slot, bit)


def parse_program(text, name="<input>"):
    """Parse program text; raises ParseError with line/column on failure."""
    return _Parser(text, name).parse()


# --------------------------------------------------------------------------
# Builtin benchmark protocols (kept as source text so the CLI can print
# them and the parser stays on the hot path of every test).
# --------------------------------------------------------------------------

MUTEX_SOURCE = """\
# n processes compete for one critical section.  The entry step checks
# and enters atomically, so two processes can never both reach C.
processes {n};
pc {{T, W, C}};
init pc=T;
T -> W : true / ;
W -> C : all_others(pc != C) / ;
C -> T : true / ;
label bad := count(pc=C) >= 2;
"""

BROKEN_MUTEX_SOURCE = """\
# like mutex, but the entry guard is missing: bad becomes reachable.
processes {n};
pc {{T, W, C}};
init pc=T;
T -> W : true / ;
W -> C : true / ;
C -> T : true / ;
label bad := count(pc=C) >= 2;
"""

ALLOCATOR_SOURCE = """\
# a single shared grant cell hands the resource to one requester at a
# time; grant remembers the holder's process id.
processes {n};
shared grant : pid;
pc {{ready, req, exec}};
init pc=ready, grant=none;
ready -> req : true / ;
req -> exec : grant == none / grant := self;
exec -> ready : true / grant := none;
label bad := count(pc=exec) >= 2;
"""

_BUILTIN_SOURCES = {
    "mutex": MUTEX_SOURCE,
    "broken-mutex": BROKEN_MUTEX_SOURCE,
    "allocator": ALLOCATOR_SOURCE,
}

BUILTIN_NAMES = tuple(_BUILTIN_SOURCES)


def builtin_source(name, n=2):
    if name not in _BUILTIN_SOURCES:
        raise ValueError(f"unknown builtin example {name!r} (have {', '.join(BUILTIN_NAMES)})")
    return _BUILTIN_SOURCES[name].format(n=n)


def builtin_example(name, n):
    """One of the builtin protocols, instantiated for ``n`` processes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return parse_program(builtin_source(name, n), name=f"{name}:{n}")
