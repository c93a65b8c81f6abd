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
subclass) share the one boolean rule ``bool`` and differ only in their
atoms, so all three parse into the same connective nodes.  Labels may
not take the names ``PROPERTY_KEYWORDS`` reserves for formulas.  An
expression nests at most ``MAX_DEPTH`` levels, one per ``!``, ``(``,
binary and temporal operator, so no recursion over a parsed tree can
overflow.

The ``init`` list must assign the pc and every declared variable exactly
once; pid variables can only start at ``none``, so the single initial
state is fixed under every process permutation.  Atoms that could name a
concrete process index are rejected here, which is what guarantees that
the symmetric group acts by automorphisms on every parsed program.
"""

from __future__ import annotations

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
    V_LOCAL,
    V_NONE,
    V_SELF,
    V_SHARED,
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

# the left-associative boolean operators, loosest first
_CHAINS = (("|", GOr), ("&", GAnd))

# How deep one expression may nest; see the module docstring.
MAX_DEPTH = 64

_SYMBOLS = (
    "->", ":=", "==", "!=", ">=", ";", ":", ",", "{", "}", "(", ")", "[", "]",
    "/", "*", "!", "&", "|", "=",
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
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "\n":
            pos += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            pos += 1
            col += 1
            continue
        if ch == "#":
            while pos < len(text) and text[pos] != "\n":
                pos += 1
            continue
        if ch.isdecimal():
            start = pos
            while pos < len(text) and text[pos].isdecimal():
                pos += 1
            tokens.append(_Token("int", int(text[start:pos]), line, col))
            col += pos - start
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(_Token("id", text[start:pos], line, col))
            col += pos - start
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, pos):
                tokens.append(_Token("sym", sym, line, col))
                pos += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", None, line, col))
    return tokens


class _Parser:
    def __init__(self, text, name):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.name = name
        # symbol tables filled while parsing
        self.shared = []  # (name, kind)
        self.locals = []
        self.pc_names = []
        self.label_names = []
        # expression nesting: levels open around the current token, and
        # the depth of the expression parsed last
        self.open = 0
        self.depth = 0

    # -- token helpers ------------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_sym(self, sym):
        tok = self.peek()
        if tok.kind != "sym" or tok.value != sym:
            self.fail(f"expected {sym!r}")
        return self.advance()

    def expect_keyword(self, word):
        tok = self.peek()
        if tok.kind != "id" or tok.value != word:
            self.fail(f"expected {word!r}")
        return self.advance()

    def expect_name(self, what, reserved=KEYWORDS):
        tok = self.peek()
        if tok.kind != "id":
            self.fail(f"expected {what}")
        if tok.value in reserved:
            self.fail(f"{tok.value!r} is a keyword, not a valid {what}", tok)
        return self.advance().value

    def at_keyword(self, word):
        tok = self.peek()
        return tok.kind == "id" and tok.value == word

    def at_sym(self, sym):
        tok = self.peek()
        return tok.kind == "sym" and tok.value == sym

    # -- lookups --------------------------------------------------------------

    def shared_slot(self, name):
        for k, (sname, _) in enumerate(self.shared):
            if sname == name:
                return k
        return None

    def local_slot(self, name):
        for k, lname in enumerate(self.locals):
            if lname == name:
                return k
        return None

    def pc_index(self, name, tok):
        if name not in self.pc_names:
            self.fail(f"undeclared pc value {name!r}", tok)
        return self.pc_names.index(name)

    def expect_pc(self):
        tok = self.peek()
        return self.pc_index(self.expect_name("pc value name"), tok)

    # -- program --------------------------------------------------------------

    def parse(self):
        self.expect_keyword("processes")
        tok = self.peek()
        if tok.kind != "int":
            self.fail("expected process count")
        n = self.advance().value
        if n < 1:
            self.fail("process count must be >= 1", tok)
        self.expect_sym(";")

        while self.at_keyword("shared") or self.at_keyword("local"):
            self.parse_decl()

        self.expect_keyword("pc")
        self.expect_sym("{")
        while True:
            tok = self.peek()
            name = self.expect_name("pc value name")
            if name in self.pc_names:
                self.fail(f"duplicate pc value {name!r}", tok)
            self.pc_names.append(name)
            if self.at_sym(","):
                self.advance()
                continue
            break
        self.expect_sym("}")
        self.expect_sym(";")

        init_shared, init_pc, init_locals = self.parse_init(n)

        commands = []
        while self.peek().kind == "id" and not self.at_keyword("label"):
            commands.append(self.parse_command())

        label_defs = []
        while self.at_keyword("label"):
            label_defs.append(self.parse_label())

        tok = self.peek()
        if tok.kind != "eof":
            self.fail("trailing input after program")

        return Program(
            n=n,
            shared_names=tuple(name for name, _ in self.shared),
            shared_kinds=tuple(kind for _, kind in self.shared),
            pc_names=tuple(self.pc_names),
            local_names=tuple(self.locals),
            commands=tuple(commands),
            label_defs=tuple(label_defs),
            init_shared=init_shared,
            init_pc=init_pc,
            init_locals=init_locals,
            name=self.name,
        )

    def parse_decl(self):
        scope = self.advance().value  # "shared" | "local"
        tok = self.peek()
        name = self.expect_name("variable name")
        if self.shared_slot(name) is not None or self.local_slot(name) is not None:
            self.fail(f"duplicate variable {name!r}", tok)
        self.expect_sym(":")
        kind_tok = self.peek()
        if self.at_keyword("bool"):
            kind = BOOL
        elif self.at_keyword("pid"):
            kind = PID
        else:
            self.fail("expected type 'bool' or 'pid'")
        self.advance()
        if scope == "local" and kind != BOOL:
            self.fail("local variables must be bool", kind_tok)
        self.expect_sym(";")
        if scope == "shared":
            self.shared.append((name, kind))
        else:
            self.locals.append(name)

    def parse_init(self, n):
        self.expect_keyword("init")
        init_pc = None
        shared_vals = {}
        local_vals = {}
        while True:
            tok = self.peek()
            if self.at_keyword("pc"):
                self.advance()
                self.expect_sym("=")
                ptok = self.peek()
                pname = self.expect_name("pc value name")
                if init_pc is not None:
                    self.fail("pc initialized twice", tok)
                init_pc = self.pc_index(pname, ptok)
            else:
                name = self.expect_name("variable name")
                self.expect_sym("=")
                vtok = self.peek()
                slot = self.shared_slot(name)
                if slot is not None:
                    if name in shared_vals:
                        self.fail(f"{name!r} initialized twice", tok)
                    kind = self.shared[slot][1]
                    shared_vals[name] = self.parse_init_value(kind, vtok, n)
                elif self.local_slot(name) is not None:
                    if name in local_vals:
                        self.fail(f"{name!r} initialized twice", tok)
                    local_vals[name] = self.parse_init_value(BOOL, vtok, n)
                else:
                    self.fail(f"unknown variable {name!r}", tok)
            if self.at_sym(","):
                self.advance()
                continue
            break
        self.expect_sym(";")
        if init_pc is None:
            self.fail("init must assign pc")
        for name, _ in self.shared:
            if name not in shared_vals:
                self.fail(f"init must assign shared variable {name!r}")
        for name in self.locals:
            if name not in local_vals:
                self.fail(f"init must assign local variable {name!r}")
        init_shared = tuple(shared_vals[name] for name, _ in self.shared)
        init_locals = tuple(local_vals[name] for name in self.locals)
        return init_shared, init_pc, init_locals

    def parse_init_value(self, kind, tok, n):
        if kind == PID:
            if self.at_keyword("none"):
                self.advance()
                return n
            self.fail("pid variables can only be initialized to 'none'", tok)
        if self.peek().kind == "int" and self.peek().value in (0, 1):
            return self.advance().value
        self.fail("expected 0 or 1", tok)

    # -- commands --------------------------------------------------------------

    def parse_command(self):
        from_pc = self.expect_pc()
        self.expect_sym("->")
        to_pc = self.expect_pc()
        self.expect_sym(":")
        guard = self.parse_bool(self.parse_guard_atom)
        self.expect_sym("/")
        updates = []
        assigned = set()
        while not self.at_sym(";"):
            tok = self.peek()
            update = self.parse_update()
            key = (update.target, update.slot)
            if key in assigned:
                self.fail("variable assigned twice in one command", tok)
            assigned.add(key)
            updates.append(update)
            if self.at_sym(","):
                self.advance()
                continue
            break
        self.expect_sym(";")
        return GuardedCommand(from_pc, to_pc, guard, tuple(updates))

    # -- boolean expressions ---------------------------------------------------

    def parse_bool(self, atom):
        """``|`` over ``&`` over ``!`` over ``atom()``, parentheses, ``true``
        and ``false``: the rule guards, labels and formulas share.  Sets
        ``self.depth`` to the nesting depth of what it parsed."""
        return self.parse_chain(atom, 0)

    def parse_chain(self, atom, level):
        if level == len(_CHAINS):
            return self.parse_unary(atom)
        sym, node = _CHAINS[level]
        left = self.parse_chain(atom, level + 1)
        depth = self.depth
        while self.at_sym(sym):
            tok = self.advance()
            right = self.parse_chain(atom, level + 1)
            depth = self.deeper(tok, depth, self.depth)
            left = node(left, right)
        self.depth = depth
        return left

    def parse_unary(self, atom):
        tok = self.peek()
        if self.at_sym("!"):
            self.advance()
            return self.negate(self.descend(tok, self.parse_unary, atom))
        if self.at_sym("("):
            self.advance()
            inner = self.descend(tok, self.parse_bool, atom)
            self.expect_sym(")")
            return inner
        self.depth = 0
        if self.at_keyword("true"):
            self.advance()
            return GTrue()
        if self.at_keyword("false"):
            self.advance()
            return GFalse()
        return atom()

    def negate(self, inner):
        return GNot(inner)

    def descend(self, tok, parse, *args):
        """``parse(*args)`` one nesting level below ``tok``."""
        self.open += 1
        if self.open > MAX_DEPTH:
            self.too_deep(tok)
        node = parse(*args)
        self.open -= 1
        self.depth += 1
        return node

    def deeper(self, tok, *depths):
        """The depth of a node at ``tok`` over operands of these depths."""
        depth = max(depths) + 1
        if self.open + depth > MAX_DEPTH:
            self.too_deep(tok)
        return depth

    def too_deep(self, tok):
        self.fail(f"expression nested deeper than {MAX_DEPTH} levels", tok)

    def parse_guard_atom(self):
        tok = self.peek()
        if tok.kind == "id" and tok.value in _OTHERS_ATOMS:
            op, node = _OTHERS_ATOMS[self.advance().value]
            self.expect_sym("(")
            self.expect_keyword("pc")
            self.expect_sym(op)
            pc = self.expect_pc()
            self.expect_sym(")")
            return node(pc)
        name = self.expect_name("guard atom")
        self.expect_sym("==")
        slot = self.shared_slot(name)
        if slot is not None:
            kind = self.shared[slot][1]
            if self.at_keyword("self"):
                if kind != PID:
                    self.fail(f"{name!r} is bool, cannot compare against self", tok)
                self.advance()
                return PidEqSelf(slot)
            if self.at_keyword("none"):
                if kind != PID:
                    self.fail(f"{name!r} is bool, cannot compare against none", tok)
                self.advance()
                return PidEqNone(slot)
            if self.peek().kind == "int" and self.peek().value in (0, 1):
                if kind != BOOL:
                    self.fail(f"{name!r} is pid-typed, compare against self or none", tok)
                return SharedEq(slot, self.advance().value)
            self.fail("expected self, none, 0 or 1 after '=='")
        slot = self.local_slot(name)
        if slot is not None:
            if self.peek().kind == "int" and self.peek().value in (0, 1):
                return LocalEq(slot, self.advance().value)
            self.fail("local variables compare against 0 or 1")
        self.fail(f"unknown variable {name!r}", tok)

    def parse_update(self):
        tok = self.peek()
        name = self.expect_name("update target")
        self.expect_sym(":=")
        vtok = self.peek()
        slot = self.shared_slot(name)
        if slot is not None:
            kind = self.shared[slot][1]
            return Update("shared", slot, self.parse_update_value(kind, vtok))
        slot = self.local_slot(name)
        if slot is not None:
            return Update("local", slot, self.parse_update_value(BOOL, vtok))
        self.fail(f"unknown variable {name!r}", tok)

    def parse_update_value(self, kind, tok):
        if self.at_sym("*"):
            if kind != BOOL:
                self.fail("'*' only assigns bool variables", tok)
            self.advance()
            return ValueExpr(V_STAR)
        if self.at_keyword("self"):
            if kind != PID:
                self.fail("'self' only assigns pid variables", tok)
            self.advance()
            return ValueExpr(V_SELF)
        if self.at_keyword("none"):
            if kind != PID:
                self.fail("'none' only assigns pid variables", tok)
            self.advance()
            return ValueExpr(V_NONE)
        if self.peek().kind == "int" and self.peek().value in (0, 1):
            if kind != BOOL:
                self.fail("pid variables take self, none or another pid variable", tok)
            return ValueExpr(V_CONST, self.advance().value)
        if self.peek().kind == "id" and self.peek().value not in KEYWORDS:
            name = self.advance().value
            slot = self.shared_slot(name)
            if slot is not None:
                if self.shared[slot][1] != kind:
                    self.fail(f"type mismatch copying {name!r}", tok)
                return ValueExpr(V_SHARED, slot)
            slot = self.local_slot(name)
            if slot is not None:
                if kind != BOOL:
                    self.fail(f"type mismatch copying {name!r}", tok)
                return ValueExpr(V_LOCAL, slot)
            self.fail(f"unknown variable {name!r}", tok)
        self.fail("expected 0, 1, *, self, none or a variable name")

    # -- labels --------------------------------------------------------------

    def parse_label(self):
        self.expect_keyword("label")
        tok = self.peek()
        # note: "init" cannot name a label, it is a keyword and stays
        # reserved for the designated initial-state proposition; formulas
        # could not refer to a label named after a property keyword
        name = self.expect_name("label name", _LABEL_RESERVED)
        if name in self.label_names:
            self.fail(f"duplicate label {name!r}", tok)
        self.label_names.append(name)
        self.expect_sym(":=")
        expr = self.parse_bool(self.parse_label_atom)
        self.expect_sym(";")
        return (name, expr)

    def parse_label_atom(self):
        tok = self.peek()
        if self.at_keyword("count"):
            self.advance()
            self.expect_sym("(")
            self.expect_keyword("pc")
            if self.at_sym("==") or self.at_sym("="):
                self.advance()
            else:
                self.fail("expected '=' in count atom")
            pc = self.expect_pc()
            self.expect_sym(")")
            self.expect_sym(">=")
            ktok = self.peek()
            if ktok.kind != "int":
                self.fail("expected threshold integer")
            k = self.advance().value
            if k < 1:
                self.fail("count threshold must be >= 1", ktok)
            return CountAtLeast(pc, k)
        name = self.expect_name("label atom")
        slot = self.shared_slot(name)
        if slot is None:
            if self.local_slot(name) is not None:
                self.fail(
                    f"local variable {name!r} is not permutation invariant; "
                    "label atoms are shared literals and count thresholds",
                    tok,
                )
            self.fail(f"unknown shared variable {name!r}", tok)
        kind = self.shared[slot][1]
        self.expect_sym("==")
        if self.at_keyword("none"):
            if kind != PID:
                self.fail(f"{name!r} is bool, cannot compare against none", tok)
            self.advance()
            return PidEqNone(slot)
        if self.peek().kind == "int" and self.peek().value in (0, 1):
            if kind != BOOL:
                self.fail(f"{name!r} is pid-typed; labels may only test it against none", tok)
            return SharedEq(slot, self.advance().value)
        self.fail("expected 0, 1 or none in label atom")


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
