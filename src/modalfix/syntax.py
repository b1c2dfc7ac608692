"""Formula ASTs, parser, printer, and the syntactic transformations.

The language is first order modal logic without function symbols or
equality: predicates over individual variables, true/false, ~, ->, &,
|, forall, exists, and box. Propositional variables (written #p) act as
substitution holes for the fixed point constructions. The connectives
&, | and the quantifier exists are first class AST nodes because the
guarded fragment recognized by is_sigma is defined structurally in
terms of them; <-> and dia are parser sugar and never appear in ASTs.

Formulas are immutable DAGs, and interned: building a node equal to a
live one returns that one, so == is identity. Their scope-free facts
(free and bound variables, propositional variables, constants, predicate
arities, guardedness) are computed once per node and cached on it. Every
rewrite (truncate, the substitutions, normalize_variables,
decompose_boolean_sigma) is one rebuild that visits each (node, context)
pair once on an explicit stack, so only the parser and the printer
recurse, and both raise TooDeepError when they run out of depth.
format_formula prints each node once per required precedence within a
call, and raises OutputTooLargeError before building a text longer than
_BUDGET characters. parse reads the text one token at a time by offset
and parses a repeated parenthesized group once: a group whose text
repeats that of one parsed before in the same call is jumped past and
gets that group's node. So the printed stages, which repeat the same
groups over and over, parse in time near their DAG size rather than
their length.

Domain constants (Const) never come from the surface grammar, and
nothing in this package builds one: only callers of the API do. The
model checker requires each constant of a sentence to lie in every
world's domain.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import count
from operator import is_not
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union


class LogicError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"


class ParseError(LogicError):
    code = "parse-error"

    def __init__(self, message: str, position: int = -1):
        super().__init__(message if position < 0 else f"{message} (at position {position})")
        self.position = position


class UnknownPredicateError(ParseError):
    code = "unknown-predicate"


class ArityMismatchError(ParseError):
    code = "arity-mismatch"


class CaptureError(LogicError):
    code = "capture-violation"


class DepthOverflowError(LogicError):
    code = "depth-overflow"


class NotModalizedError(LogicError):
    code = "not-modalized"


class NotNormalizedError(LogicError):
    code = "not-normalized"


class NotSigmaError(LogicError):
    code = "not-sigma"


class NotDecomposableError(LogicError):
    code = "not-decomposable"


class TooDeepError(LogicError):
    code = "too-deep"


class OutputTooLargeError(LogicError):
    code = "bound-explosion"


# Most characters format_formula prints; kripke bounds its candidate
# models, world pairs and predicate tuples by the same number.
_BUDGET = 10**7


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


Term = Union[Var, Const]


def _union_fact(name: str) -> cached_property:
    """A node fact that is the union of the same fact of the children."""

    def union(self: _Node) -> frozenset[str]:
        sets = [_fact(k, name) for k in self._kids()]
        # A node with one child shares the child's set.
        return sets[0] if len(sets) == 1 else frozenset().union(*sets)

    return cached_property(union)


# The live formula nodes under their class and fields: the one test of
# formula equality. The values are weak references, so the table keeps no
# node alive; a key holds the node's children, which the node holds anyway.
_NODES: dict[tuple, weakref.ref] = {}


def _forget(key: tuple, ref: weakref.ref) -> None:
    # The node of ref has died; key may have a new node by now.
    if _NODES.get(key) is ref:
        del _NODES[key]


def _intern(cls: type, *fields: object) -> Formula:
    """The live node of class cls with these fields, made if there is none."""
    key = (cls, *fields)
    ref = _NODES.get(key)
    if ref is None or (node := ref()) is None:
        node = object.__new__(cls)
        # As a frozen dataclass's __init__ does: no dict is made for the
        # fields until a fact is cached.
        for name, value in zip(cls.__match_args__, fields):
            object.__setattr__(node, name, value)
        _NODES[key] = weakref.ref(node, partial(_forget, key))
    return node


class _Node:
    """Shared base of the formula node classes.

    Constructors, and so copies and unpickling, go through _intern: ==
    and hash are those of object.

    Each fact is a cached property computed from the same fact of the
    children, which _fact computes first. The nodes are frozen, so a
    cached fact cannot go stale; facts take no part in repr.

    A node prints as its _head, before its body or between its children.
    _prec is how tightly it binds, _needs the least _prec of each child
    that prints without parentheses.
    """

    _prec = 4
    _needs: tuple[int, ...] = ()

    # Each class's __new__ takes its fields, as a dataclass __init__ would.
    __new__ = lambda cls: _intern(cls)

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def _kids(self) -> tuple[Formula, ...]:
        return ()

    def _with(self, kids: Sequence[Formula]) -> Formula:
        """A node like this one with the given children."""
        return type(self)(*kids)

    _free_vars = _union_fact("_free_vars")
    _bound_vars = _union_fact("_bound_vars")
    _prop_vars = _union_fact("_prop_vars")
    _constants = _union_fact("_constants")

    @cached_property
    def _arities(self) -> tuple[tuple[str, int], ...]:
        # Distinct (predicate, arity) pairs in order of first occurrence.
        return tuple(dict.fromkeys(p for k in self._kids() for p in _fact(k, "_arities")))

    @cached_property
    def _width(self) -> int:
        # The length of the printed text.
        return len(self._head) + sum(
            _fact(k, "_width") + 2 * (k._prec < need) for k, need in zip(self._kids(), self._needs)
        )

    @cached_property
    def _sigma(self) -> bool:
        # Whether the formula is guarded: see is_sigma.
        kids = all(_fact(k, "_sigma") for k in self._kids())
        return isinstance(self, Box) or kids and isinstance(self, (And, Or, Exists))

    def _print(self, need: int, done: dict) -> str:
        """The text where a _prec of at least need is required. Nodes with
        children memoize it in done under their identity and need."""
        return self._head


def _fact(f: Formula, name: str):
    """The cached fact name of f. Missing facts below f are computed
    children first with an explicit stack, so deep formulas need no
    recursion depth and shared subformulas are visited once."""
    if name not in f.__dict__:
        stack = [f]
        while stack:
            todo = [k for k in stack[-1]._kids() if name not in k.__dict__]
            if todo:
                stack += todo
            else:
                g = stack.pop()
                # What cached_property.__get__ does, less the lock that
                # Python 3.11 takes on every miss.
                g.__dict__[name] = getattr(type(g), name).func(g)
    return f.__dict__[name]


class _Unary(_Node):
    _needs = (4,)

    __new__ = lambda cls, body: _intern(cls, body)

    def _kids(self) -> tuple[Formula, ...]:
        return (self.body,)

    def _print(self, need: int, done: dict) -> str:
        # No context needs more than _prec 4: one text for every need.
        key = id(self)
        s = done.get(key)
        if s is None:
            s = done[key] = self._head + self.body._print(4, done)
        return s


@dataclass(frozen=True, eq=False, init=False)
class _Binary(_Node):
    left: "Formula"
    right: "Formula"

    __new__ = lambda cls, left, right: _intern(cls, left, right)

    def _kids(self) -> tuple[Formula, ...]:
        return (self.left, self.right)

    def _print(self, need: int, done: dict) -> str:
        key = (id(self), need)
        s = done.get(key)
        if s is None:
            left, right = self._needs
            s = f"{self.left._print(left, done)}{self._head}{self.right._print(right, done)}"
            done[key] = s = s if self._prec >= need else f"({s})"
        return s


@dataclass(frozen=True, eq=False, init=False)
class Top(_Node):
    _head = "true"


@dataclass(frozen=True, eq=False, init=False)
class Bottom(_Node):
    _head = "false"


@dataclass(frozen=True, eq=False, init=False)
class Atom(_Node):
    pred: str
    args: tuple[Term, ...] = ()
    _head = cached_property(
        lambda self: f"{self.pred}({', '.join(t.name for t in self.args)})" if self.args else self.pred
    )

    __new__ = lambda cls, pred, args=(): _intern(cls, pred, args)

    @cached_property
    def _free_vars(self) -> frozenset[str]:
        return frozenset(t.name for t in self.args if isinstance(t, Var))

    @cached_property
    def _constants(self) -> frozenset[str]:
        return frozenset(t.name for t in self.args if isinstance(t, Const))

    @cached_property
    def _arities(self) -> tuple[tuple[str, int], ...]:
        return ((self.pred, len(self.args)),)


@dataclass(frozen=True, eq=False, init=False)
class PropVar(_Node):
    name: str
    _head = cached_property(lambda self: "#" + self.name)

    __new__ = lambda cls, name: _intern(cls, name)

    @cached_property
    def _prop_vars(self) -> frozenset[str]:
        return frozenset((self.name,))


@dataclass(frozen=True, eq=False, init=False)
class Not(_Unary):
    body: "Formula"
    _head = "~"


@dataclass(frozen=True, eq=False, init=False)
class Implies(_Binary):
    _head, _prec, _needs = " -> ", 1, (2, 1)


@dataclass(frozen=True, eq=False, init=False)
class And(_Binary):
    _head, _prec, _needs = " & ", 3, (3, 4)


@dataclass(frozen=True, eq=False, init=False)
class Or(_Binary):
    _head, _prec, _needs = " | ", 2, (2, 3)


@dataclass(frozen=True, eq=False, init=False)
class _Binder(_Unary):
    # Forall and Exists: their fields, and the facts that the bound
    # variable changes.
    var: str
    body: "Formula"
    _head = cached_property(lambda self: f"{type(self).__name__.lower()} {self.var}. ")

    __new__ = lambda cls, var, body: _intern(cls, var, body)

    def _with(self, kids: Sequence[Formula]) -> Formula:
        return type(self)(self.var, *kids)

    @cached_property
    def _free_vars(self) -> frozenset[str]:
        return _fact(self.body, "_free_vars") - {self.var}

    @cached_property
    def _bound_vars(self) -> frozenset[str]:
        return _fact(self.body, "_bound_vars") | {self.var}


@dataclass(frozen=True, eq=False, init=False)
class Forall(_Binder):
    pass


@dataclass(frozen=True, eq=False, init=False)
class Exists(_Binder):
    pass


@dataclass(frozen=True, eq=False, init=False)
class Box(_Unary):
    body: "Formula"
    _head = "box "


Formula = Union[Top, Bottom, Atom, PropVar, Not, Implies, And, Or, Forall, Exists, Box]

TRUE = Top()
FALSE = Bottom()


@dataclass(frozen=True)
class FixpointTarget:
    """A formula together with the propositional variable treated as the hole."""

    formula: Formula
    hole: str = "p"


def iff(a: Formula, b: Formula) -> Formula:
    """Biconditional, expanded to a conjunction of implications."""
    return And(Implies(a, b), Implies(b, a))


def dia(a: Formula) -> Formula:
    """Possibility, expanded to ~box ~."""
    return Not(Box(Not(a)))


def boxes(n: int, f: Formula) -> Formula:
    """n nested boxes around f."""
    for _ in range(n):
        f = Box(f)
    return f


def boxdot(f: Formula) -> Formula:
    """box f & f, the reflexive strengthening of box."""
    return And(Box(f), f)


# ---------------------------------------------------------------------------
# Parsing

_KEYWORDS = frozenset({"true", "false", "box", "dia", "forall", "exists"})

# Whitespace separates tokens and matches none.
_TOKEN_RE = re.compile(r"<->|->|[()&|~.,#]|[A-Z][A-Za-z0-9_]*|[a-z][a-z0-9_]*")

# The next token from an offset, past the whitespace before it; at the end
# of the text, the empty token. \s matches exactly the characters that
# str.split splits at.
_NEXT_RE = re.compile(rf"\s*({_TOKEN_RE.pattern}|\Z)")

# Binding strength of the binary connectives; only -> groups to the right.
_BINARY = {"<->": 0, "->": 1, "|": 2, "&": 3}

# Characters of a group's text, from its "(", that key it with the offset
# of its first ")".
_KEY_CHARS = 32

# Groups of fewer tokens are not recorded: parsing one again costs about
# what a lookup does.
_KEY_TOKENS = 24

# Marks a key under which groups of more than one text were recorded.
_SHARED = (0, 0, TRUE)


def _key(text: str, at: int) -> tuple[int, int]:
    """The key of the group opened at offset at: the offset of the first
    ")" from there, and the hash of _KEY_CHARS characters from there."""
    return text.find(")", at) - at, hash(text[at:at + _KEY_CHARS])


def _close(text: str, at: int) -> int:
    """The offset past the ")" that closes the "(" at offset at, or -1."""
    depth, i = 0, at
    while True:
        j = text.find(")", i)
        if j < 0:
            return -1
        depth += text.count("(", i, j) - 1
        if not depth:
            return j + 1
        i = j + 1


class _Parser:
    """One parse: the text; the current token, its offset and the offset
    past it; the number of tokens read; the arities seen; and the groups
    recorded, under their keys or, where a key is shared, under the length
    and hash of their text."""

    def __init__(self, text: str, sig: Optional[Mapping[str, int]]):
        self.text = text
        self.strict = sig is not None
        self.arities: dict[str, int] = dict(sig) if sig else {}
        self.groups: dict[tuple[int, int], tuple[int, int, Formula]] = {}
        self.texts: dict[tuple[int, int], tuple[int, int, Formula]] = {}
        self.read = 0
        self.move(0)

    def move(self, pos: int) -> None:
        """Make the token at or after offset pos the current one."""
        m = _NEXT_RE.match(self.text, pos)
        if m is None:
            raise self.stray()
        self.tok = m[1]
        self.at, self.end = m.span(1)
        self.read += 1

    def stray(self) -> Optional[ParseError]:
        """The error at the first stray character of the text, if any: the
        first character left when the tokens are blanked out."""
        rest = _TOKEN_RE.sub(lambda m: " " * len(m[0]), self.text).lstrip()
        if not rest:
            return None
        at = len(self.text) - len(rest)
        return ParseError(f"unexpected character {self.text[at]!r}", at)

    def error(self, message: str, at: int, cls: type = ParseError) -> ParseError:
        """The error at character offset at; a stray character anywhere in
        the text comes first."""
        return self.stray() or cls(message, at)

    def expr(self, least: int) -> Formula:
        """The formula from here up to the first binary connective that
        binds less tightly than least: at 0 all of a parenthesis, at 4
        one unary formula."""
        tok, at = self.tok, self.at
        self.move(self.end)
        if tok == "(":
            f = self.groups and self.repeat(at)
            if not f:
                read = self.read
                f = self.expr(0)
                if self.tok != ")":
                    raise self.error(f"expected ')', found {self.tok!r}", self.at)
                if self.read - read >= _KEY_TOKENS:
                    self.record(at, self.end, f)
                self.move(self.end)
        elif tok == "~":
            f = Not(self.expr(4))
        elif tok == "box":
            f = Box(self.expr(4))
        elif tok == "dia":
            f = Not(Box(Not(self.expr(4))))
        elif tok == "#":
            f = PropVar(self.variable("propositional variable name"))
        elif tok == "forall" or tok == "exists":
            var = self.variable("variable")
            self.expect(".")
            f = (Forall if tok == "forall" else Exists)(var, self.expr(4))
        elif tok == "true":
            f = TRUE
        elif tok == "false":
            f = FALSE
        elif tok[:1].isupper():
            f = self.atom(tok, at)
        else:
            raise self.error(f"expected formula, found {tok!r}", at)
        while True:
            op = self.tok
            prec = _BINARY.get(op, -1)
            if prec < least:
                return f
            self.move(self.end)
            g = self.expr(prec + (op != "->"))
            if op == "<->":
                f = And(Implies(f, g), Implies(g, f))
            else:
                f = (Implies if op == "->" else Or if op == "|" else And)(f, g)

    def repeat(self, at: int) -> Optional[Formula]:
        """The formula of the group parsed before whose text the group
        opened at offset at repeats, if there is one; the parse then goes
        on past the repeat."""
        text = self.text
        known = self.groups.get(_key(text, at))
        if known is _SHARED:
            end = _close(text, at)
            known = end > at and self.texts.get((end - at, hash(text[at:end])))
        if known:
            start, end, f = known
            if text.startswith(text[start:end], at):
                self.move(at + end - start)
                # A repeat counts as _KEY_TOKENS tokens, no more than it
                # has, so every group around it is recorded.
                self.read += _KEY_TOKENS
                return f
        return None

    def record(self, at: int, end: int, f: Formula) -> None:
        """Record the group from offset at to end, with formula f."""
        text, group = self.text, (at, end, f)
        key = _key(text, at)
        known = self.groups.setdefault(key, group)
        if known is not group:
            # Two texts under one key: look both up by their whole text.
            if known is not _SHARED:
                start, stop = known[0], known[1]
                self.texts[stop - start, hash(text[start:stop])] = known
                self.groups[key] = _SHARED
            self.texts.setdefault((end - at, hash(text[at:end])), group)

    def expect(self, tok: str) -> None:
        if self.tok != tok:
            raise self.error(f"expected {tok!r}, found {self.tok!r}", self.at)
        self.move(self.end)

    def variable(self, what: str) -> str:
        tok = self.tok
        if not tok.islower() or tok in _KEYWORDS:
            raise self.error(f"expected {what}, found {tok!r}", self.at)
        self.move(self.end)
        return tok

    def atom(self, pred: str, at: int) -> Formula:
        names = []
        if self.tok == "(":
            self.move(self.end)
            names.append(self.variable("variable"))
            while self.tok == ",":
                self.move(self.end)
                names.append(self.variable("variable"))
            self.expect(")")
        arity, known = len(names), self.arities.get(pred)
        if known is None:
            if self.strict:
                raise self.error(f"unknown predicate {pred}", at, UnknownPredicateError)
            self.arities[pred] = arity
        elif known != arity:
            message = f"predicate {pred} used with arity {arity}, expected {known}"
            raise self.error(message, at, ArityMismatchError)
        return Atom(pred, tuple(map(Var, names)))


def parse(text: str, sig: Optional[Mapping[str, int]] = None) -> Formula:
    """Parse a formula.

    With a signature, atoms are checked against it; without one, arities
    are inferred from first use and later uses must be consistent.
    """
    p = _Parser(text, sig)
    try:
        f = p.expr(0)
    except RecursionError:
        raise p.stray() or TooDeepError("formula nests too deeply to parse") from None
    if p.tok:
        raise p.error(f"unexpected trailing input {p.tok!r}", p.at)
    return f


# ---------------------------------------------------------------------------
# Printing

def format_formula(f: Formula) -> str:
    """Render a formula so that parsing the result reproduces it exactly.
    Each node prints once per required precedence; a text longer than
    _BUDGET characters raises OutputTooLargeError before any is built."""
    if f._width > _BUDGET:
        raise OutputTooLargeError(f"printed formula would have {f._width} characters, over 10^7")
    try:
        return f._print(0, {})
    except RecursionError:
        raise TooDeepError("formula nests too deeply") from None


_Node.__str__ = format_formula  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Variable bookkeeping

def free_individual_vars(f: Formula) -> frozenset[str]:
    return _fact(f, "_free_vars")


def bound_individual_vars(f: Formula) -> frozenset[str]:
    return _fact(f, "_bound_vars")


def free_and_bound_vars(f: Formula) -> tuple[frozenset[str], frozenset[str]]:
    """Free and bound individual variable names of f."""
    return free_individual_vars(f), bound_individual_vars(f)


def prop_vars(f: Formula) -> frozenset[str]:
    return _fact(f, "_prop_vars")


def constants(f: Formula) -> frozenset[str]:
    return _fact(f, "_constants")


def predicates(f: Formula) -> dict[str, int]:
    """Predicate symbols of f with their arities; usage must be consistent."""
    out: dict[str, int] = {}
    for pred, arity in _fact(f, "_arities"):
        if out.setdefault(pred, arity) != arity:
            raise ArityMismatchError(f"predicate {pred} used with arities {out[pred]} and {arity}")
    return out


def universal_closure(f: Formula) -> Formula:
    """Prefix forall binders for every free variable, in sorted name order."""
    for v in sorted(free_individual_vars(f), reverse=True):
        f = Forall(v, f)
    return f


def _fresh_names(prefix: str, taken: frozenset[str]) -> Iterator[str]:
    """prefix0, prefix1, ... less the names taken."""
    return (f"{prefix}{i}" for i in count() if f"{prefix}{i}" not in taken)


def normalize_variables(target: FixpointTarget) -> FixpointTarget:
    """Rename bound variables that also occur free, making the two sets disjoint.

    Replacement names are u0, u1, ... taking for each offending name the
    lowest index not otherwise in use. Only binders whose name clashes
    with a free occurrence are touched.
    """
    f = target.formula
    free, bound = free_and_bound_vars(f)
    offenders = sorted(free & bound)
    if not offenders:
        return target
    renames = dict(zip(offenders, _fresh_names("u", free | bound)))

    def leaf(g: Formula, scope: frozenset[str]) -> Optional[Formula]:
        # The occurrences bound by a renamed binder take its new name.
        if isinstance(g, Atom) and not scope.isdisjoint(free_individual_vars(g)):
            args = (Var(renames[t.name]) if isinstance(t, Var) and t.name in scope else t for t in g.args)
            return Atom(g.pred, tuple(args))
        return None

    def enter(g: Formula, scope: frozenset[str]) -> tuple[frozenset[str], Formula]:
        if isinstance(g, _Binder) and g.var in renames:
            return scope | {g.var}, type(g)(renames[g.var], g.body)
        return scope, g

    return FixpointTarget(_rebuild(f, frozenset(), leaf, enter), target.hole)


# ---------------------------------------------------------------------------
# Depth machinery

def occurrence_depths(f: Formula, hole: str) -> list[int]:
    """Box nesting depths of each occurrence of #hole, left to right."""
    out: list[int] = []
    todo = [(f, 0)]
    while todo:
        g, d = todo.pop()
        if isinstance(g, PropVar) and g.name == hole:
            out.append(d)
        d += isinstance(g, Box)
        for k in reversed(g._kids()):
            todo.append((k, d))
    return out


def is_modalized(f: Formula, hole: str) -> bool:
    """True when every occurrence of #hole lies under at least one box."""
    return hole not in prop_vars(truncate(f, 0))


def _rebuild(f: Formula, c: object, leaf: Callable[[Formula, object], Optional[Formula]],
             enter: Callable[[Formula, object], tuple[object, Formula]]) -> Formula:
    """Rewrite f from context c, once per (subformula, context), in tree
    order. leaf(g, c) gives the replacement of g, or None to rebuild g
    from its children; enter(g, c) then gives their context and the node
    to rebuild, g or g with other fields. A node whose children come
    back unchanged comes back as that node."""
    # An explicit stack, so deep formulas need no recursion depth. Rebuilt
    # pairs are memoized within the call, and equal nodes are one, so a
    # shared DAG costs its size, not its tree size.
    done: dict[tuple, Formula] = {}
    out: list[Formula] = []  # the results of the finished subformulas
    # The pairs to visit. Below each None lies (pair, node, children): when
    # the None comes off, the children's results are on top of out.
    todo: list = [(f, c)]
    while todo:
        key = todo.pop()
        if key is None:
            key, g, kids = todo.pop()
            new = out[-len(kids):]
            del out[-len(kids):]
            new = done[key] = g._with(new) if any(map(is_not, new, kids)) else g
        else:
            g, c = key
            new = leaf(g, c)
            if new is None and (kids := g._kids()):
                new = done.get(key)
                if new is None:
                    c, g = enter(g, c)
                    todo += (key, g, kids), None
                    for k in reversed(kids):
                        todo.append((k, c))
                    continue
        out.append(g if new is None else new)
    return out[0]


def _box_depth(g: Formula, d: int) -> tuple[int, Formula]:
    return d + 1 if type(g) is Box else d, g


def truncate(f: Formula, n: int) -> Formula:
    """Replace every box subformula at nesting depth n by true.

    Depth counts the boxes properly containing an occurrence, so the
    result has no boxes deeper than n and no hole occurrences deeper
    than n.
    """
    if n < 0:
        raise ValueError("truncation depth must be >= 0")
    return _rebuild(f, 0, lambda g, d: TRUE if d == n and isinstance(g, Box) else None, _box_depth)


def _check_capture(f: Formula, replacements: Sequence[Formula]) -> None:
    for b in replacements:
        free = free_individual_vars(b)
        clash = free & bound_individual_vars(f) if free else free
        if clash:
            raise CaptureError(
                f"substitution would capture {', '.join(sorted(clash))}; "
                "normalize the target variables first"
            )


def subst_at_depths(f: Formula, hole: str, subs: Sequence[Formula]) -> Formula:
    """Substitute subs[d] for the occurrences of #hole at box depth d.

    Every occurrence of the hole must have depth < len(subs), and no
    substituted formula may have a free variable that is bound in f.
    """
    _check_capture(f, subs)

    def leaf(g: Formula, d: int) -> Optional[Formula]:
        if not (isinstance(g, PropVar) and g.name == hole):
            return None
        if d >= len(subs):
            raise DepthOverflowError(
                f"occurrence of #{hole} at depth {d} but only {len(subs)} substituends given"
            )
        return subs[d]

    return _rebuild(f, 0, leaf, _box_depth)


def _same(g: Formula, c: object) -> tuple[object, Formula]:
    return c, g


def subst_prop_map(f: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Substitute formulas for propositional variables, simultaneously."""
    _check_capture(f, list(mapping.values()))
    # Depth does not matter here, so each node is rebuilt once.
    return _rebuild(f, None, lambda g, _: mapping.get(g.name) if isinstance(g, PropVar) else None, _same)


def subst_prop(f: Formula, hole: str, b: Formula) -> Formula:
    """Substitute b for every occurrence of #hole, at any depth."""
    return subst_prop_map(f, {hole: b})


# ---------------------------------------------------------------------------
# The guarded fragment

def is_sigma(f: Formula) -> bool:
    """True for formulas generated from box formulas by &, | and exists."""
    return _fact(f, "_sigma")


@dataclass(frozen=True)
class BooleanDecomposition:
    """A formula split as a Boolean skeleton over guarded and hole free parts.

    skeleton is a propositional formula over fresh variables; sigma_vars
    name the maximal guarded subformulas containing the hole (sigmas),
    rest_vars name the maximal hole free subformulas (rest). Substituting
    them back yields the original formula.
    """

    skeleton: Formula
    sigmas: tuple[Formula, ...]
    rest: tuple[Formula, ...]
    sigma_vars: tuple[str, ...]
    rest_vars: tuple[str, ...]

    def recompose(self) -> Formula:
        mapping = dict(zip(self.sigma_vars, self.sigmas))
        mapping.update(zip(self.rest_vars, self.rest))
        return subst_prop_map(self.skeleton, mapping)


def decompose_boolean_sigma(target: FixpointTarget) -> BooleanDecomposition:
    """Split a formula into a Boolean combination of guarded subformulas
    containing the hole and subformulas free of it.

    Scanning outside in, each guarded subformula containing the hole and
    each hole free subformula is taken maximal and replaced by a fresh
    propositional variable. Identical subformulas share a variable. A
    hole occurrence that is neither inside a guarded subformula nor
    separable by Boolean connectives makes the split fail.
    """
    f, hole = target.formula, target.hole
    taken = prop_vars(f)
    sigma_names = _fresh_names("q", taken)
    rest_names = _fresh_names("r", taken)
    # Each part and its variable, in order of first occurrence.
    sigmas: dict[Formula, str] = {}
    rest: dict[Formula, str] = {}

    def slot(g: Formula, pool: dict[Formula, str], gen: Iterator[str]) -> Formula:
        return PropVar(pool.get(g) or pool.setdefault(g, next(gen)))

    def leaf(g: Formula, _: None) -> Optional[Formula]:
        if hole not in prop_vars(g):
            return slot(g, rest, rest_names)
        if is_sigma(g):
            return slot(g, sigmas, sigma_names)
        if isinstance(g, (Not, Implies, And, Or)):
            return None
        raise NotDecomposableError(
            f"#{hole} occurs in {format_formula(g)}, which is neither guarded "
            "nor a Boolean combination"
        )

    skeleton = _rebuild(f, None, leaf, _same)
    return BooleanDecomposition(skeleton, tuple(sigmas), tuple(rest), tuple(sigmas.values()),
                                tuple(rest.values()))
