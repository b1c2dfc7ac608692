"""Finite Kripke models with expanding domains, and their model checker.

A model is a finite set of worlds, an accessibility relation, a domain
of constants per world growing along the relation, and a per world
interpretation of each predicate. Truth follows the usual clauses:
quantifiers at a world range over that world's domain, box quantifies
over accessible worlds. Validity in a model is truth of the universal
closure at every world.

Every check runs on one evaluator, which computes the truth of a
sentence at all worlds at once as a bitmask. A sentence has no free
variables and no propositional variables, and each of its constants lies
in every world's domain; anything else raises EvalError. Truth is local
to the generated submodel, so a ModelPool checks a sequence of models as
their disjoint union: each model's worlds take a run of bit positions
from the model's offset, and each mask is one int over every world of
the pool. The caller builds the pool once, asks it for masks, and splits
a mask per model or finds the first model where it is not full only when
it needs to. The pool's tables hold, per constant and per fact, the mask
of the worlds where it is present, and per position offset d the mask
E_d of the worlds with an edge to the world d positions on; box S is the
complement of the union over d of E_d & shift(~S, d). truth_mask and
batch_truth_masks check a pool of one. A pool is built from one table
per model, which holds the model's fields. The enumeration's tables of
one frame and choice of domains share those objects, and a run of them
is built once: its first model's constants and edges are ORed in world
by world, one multiplication per mask copies them over the rest of the
run, and only the facts are ORed in model by model. Each OR costs the
width of the pool, so check_tables checks a stream of tables, such as
the generators make, in pools of about a thousand worlds, and stops at
the first model where a sentence fails. ModelPool(models) reads the
tables off each model; a pool built from tables makes a model only when
one is asked for.

A sentence is compiled once into a program, cached on its node: its
distinct subformulas in postorder, which the pool runs in one loop, the
labelling algorithm of explicit-state model checking. So each subformula
is computed once per sentence, and no nesting is too deep. Every value
is one int: a subformula with k free variables has n^k segments side by
side, one per assignment of the pool's n constants to them, each the
mask of the worlds where it holds under it and as wide as the pool
rounded up to whole bytes. So each connective and box is one operation
on ints whatever k is, and over 10^7 assignments raise
BoundExplosionError.

The compiler folds true and false out of the sentence in the same walk:
~true is false, ~false true; box true, forall v. true, A -> true and
false -> A are true; true -> A is A, A -> false is ~A; either way round,
A & true and A | false are A, A & false is false and A | true is true;
exists v. false is false. Each holds at every world of every pool.
exists v. true (false at an empty domain), forall v. false (true there)
and box false (true only at the worlds with no successors) are never
folded. The errors and the budget are decided on the unfolded sentence,
every node of which is visited; only the folded nodes that its value
reads get instructions.

eval_formula is the plain recursive reference, one world at a time,
that the tests compare the evaluator against.

A model caches its successor lists and sorted domains on first use;
dataclasses.replace gives a copy whose caches are cold. validate_model
states every rule of a well-formed model, and parse_model and
format_model, which read and print model files, enforce them.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, product
from math import comb
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .syntax import (
    FALSE,
    TRUE,
    And,
    Atom,
    Bottom,
    Box,
    Exists,
    Forall,
    Formula,
    Implies,
    LogicError,
    Not,
    Or,
    PropVar,
    Top,
    Var,
    _BUDGET,
    universal_closure,
)


class EvalError(LogicError):
    code = "eval-error"


class ModelError(LogicError):
    code = "model-invalid"


class GenError(LogicError):
    code = "unsatisfiable-spec"


class BoundExplosionError(GenError):
    code = "bound-explosion"


@dataclass
class KripkeModel:
    """Immutable by convention; nothing here mutates a model after creation."""

    worlds: tuple[int, ...]
    rel: frozenset[tuple[int, int]]
    domains: dict[int, frozenset[str]]
    interp: dict[tuple[int, str], frozenset[tuple[str, ...]]]
    sig: dict[str, int] = field(default_factory=dict)

    def successors(self, w: int) -> tuple[int, ...]:
        return self._succ[w]

    def domain_sorted(self, w: int) -> tuple[str, ...]:
        return self._dom_sorted[w]

    @cached_property
    def _succ(self) -> dict[int, tuple[int, ...]]:
        table: dict[int, list[int]] = {w: [] for w in self.worlds}
        for a, b in self.rel:
            table[a].append(b)
        return {w: tuple(sorted(succ)) for w, succ in table.items()}

    @cached_property
    def _dom_sorted(self) -> dict[int, tuple[str, ...]]:
        return {w: tuple(sorted(self.domains[w], key=_const_key)) for w in self.worlds}

    def facts(self, w: int, pred: str) -> frozenset[tuple[str, ...]]:
        return self.interp.get((w, pred), frozenset())


def _const_key(c: str) -> tuple[int, str]:
    return (len(c), c)


def validate_model(m: KripkeModel) -> list[str]:
    """Return a list of violation descriptions; empty means well formed.

    These are the only rules of a model: parse_model and format_model both
    enforce them. A name that is empty or holds whitespace breaks one,
    since it would not read back from a model file."""
    out: list[str] = []
    if not m.worlds:
        out.append("worlds: model has no worlds")
    if len(set(m.worlds)) != len(m.worlds):
        out.append("worlds: duplicate world ids")
    wset = set(m.worlds)
    stray = sorted(set(m.domains) - wset)
    # Domains as bitmasks over one index of the constants, one sum per
    # domain object. An edge (a, b) loses the constants of held[a] & lacks[b].
    consts = sorted(set().union(*m.domains.values()), key=_const_key)
    bit = dict(zip(consts, map((1).__lshift__, range(len(consts)))))
    by_id = {id(dom): dom for dom in m.domains.values()}
    masks = {i: sum(map(bit.__getitem__, dom)) for i, dom in by_id.items()}
    held = {w: masks[id(dom)] for w, dom in m.domains.items()}
    full = (1 << len(consts)) - 1
    lacks = {w: full ^ mask for w, mask in held.items()}
    # One pass checks both edge rules, since with no stray domain an edge
    # whose worlds have domains joins two worlds. Edges are sorted only to
    # report one.
    try:
        lossy = any(map(int.__and__, map(held.__getitem__, map(itemgetter(0), m.rel)),
                        map(lacks.__getitem__, map(itemgetter(1), m.rel))))
        edges = sorted(m.rel) if stray or lossy else ()
    except KeyError:
        edges = sorted(m.rel)
    for a, b in edges:
        if a not in wset or b not in wset:
            out.append(f"edge: ({a}, {b}) mentions an unknown world")
    for w in m.worlds:
        if w not in m.domains:
            out.append(f"domain: world {w} has no domain")
        elif not m.domains[w]:
            out.append(f"domain: world {w} has an empty domain")
    for w in stray:
        out.append(f"domain: entry for unknown world {w}")
    out += _bad_names(consts, "constant")
    for a, b in edges:
        lost = a in held and b in held and held[a] & lacks[b]
        if lost:
            names = ", ".join(consts[i] for i in _bits(lost))
            out.append(f"monotonicity: edge ({a}, {b}) loses constants {names}")
    out += _bad_names(sorted({pred for _, pred in m.interp}), "predicate")
    for (w, pred), tuples in sorted(m.interp.items()):
        arity, dom = m.sig.get(pred), m.domains.get(w)
        if w not in wset:
            out.append(f"fact: unknown world {w} for predicate {pred}")
        elif pred not in m.sig:
            out.append(f"fact: undeclared predicate {pred} at world {w}")
        elif not tuples:
            out.append(f"fact: empty set of facts for predicate {pred} at world {w}")
        elif not ({arity}.issuperset(map(len, tuples))
                  and (dom is None or dom.issuperset(chain.from_iterable(tuples)))):
            for tup in sorted(tuples):
                if len(tup) != arity:
                    out.append(f"fact: {pred}{tup} at world {w} has arity {len(tup)}, expected {arity}")
                elif dom is not None and not dom.issuperset(tup):
                    out.append(f"fact: {pred}{tup} at world {w} uses constants outside the domain")
    return out


def _bad_names(names: list[str], kind: str) -> list[str]:
    # Joined at single spaces, names split back into themselves only when
    # none is empty or holds whitespace.
    if " ".join(names).split() == names:
        return []
    return [f"{kind}: name {name!r} is empty or holds whitespace" for name in names if name.split() != [name]]


# ---------------------------------------------------------------------------
# Reference evaluator

def eval_formula(m: KripkeModel, w: int, f: Formula, env: Optional[Mapping[str, str]] = None) -> bool:
    """Truth of f at world w, with env giving values to free variables.

    Formulas must be free of propositional variables. Unbound variables
    and constants outside the world's domain raise EvalError.
    """
    if w not in m.domains:
        raise EvalError(f"unknown world {w}")
    env = dict(env) if env else {}
    for v in sorted(env.values(), key=_const_key):
        if v not in m.domains[w]:
            raise EvalError(f"environment value {v} is outside the domain of world {w}")
    return _eval(m, w, f, env)


def _eval(m: KripkeModel, w: int, f: Formula, env: dict[str, str]) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Atom):
        args = []
        dom = m.domains[w]
        for t in f.args:
            if isinstance(t, Var):
                if t.name not in env:
                    raise EvalError(f"unbound variable {t.name}")
                c = env[t.name]
            else:
                c = t.name
            if c not in dom:
                raise EvalError(f"constant {c} is outside the domain of world {w}")
            args.append(c)
        return tuple(args) in m.facts(w, f.pred)
    if isinstance(f, PropVar):
        raise EvalError(f"propositional variable #{f.name} has no truth value in a model")
    if isinstance(f, Not):
        return not _eval(m, w, f.body, env)
    if isinstance(f, Implies):
        return not _eval(m, w, f.left, env) or _eval(m, w, f.right, env)
    if isinstance(f, And):
        return _eval(m, w, f.left, env) and _eval(m, w, f.right, env)
    if isinstance(f, Or):
        return _eval(m, w, f.left, env) or _eval(m, w, f.right, env)
    if isinstance(f, Forall):
        return all(_eval(m, w, f.body, {**env, f.var: c}) for c in m.domain_sorted(w))
    if isinstance(f, Exists):
        return any(_eval(m, w, f.body, {**env, f.var: c}) for c in m.domain_sorted(w))
    if isinstance(f, Box):
        return all(_eval(m, v, f.body, env) for v in m.successors(w))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Bitmask evaluator: truth of a sentence at every world of a model pool at once

class ModelPool:
    """Models checked as their disjoint union (see the module docstring).

    Model j's worlds take the bit positions offsets[j] .. offsets[j + 1] - 1,
    in the order of its m.worlds. down pairs each position offset d >= 0
    with the mask of the positions that have an edge to the position d
    further on, and up each d > 0 with those that have an edge to the
    position d back. present holds, for each of consts in turn, the mask
    of the positions where it is in the domain, and open_atoms the value
    of each atom with variables that a run has met. Facts at worlds
    outside m.worlds are ignored. A pool built from tables makes its
    models, or one of them, only when asked.
    """

    def __init__(self, models: Iterable[KripkeModel]):
        self._models: Optional[tuple[KripkeModel, ...]] = tuple(models)
        self._build(map(_model_table, self._models))

    @classmethod
    def _of_tables(cls, tables: Iterable[tuple]) -> ModelPool:
        """The pool of the models whose tables these are (see _model_table);
        a model is made only when asked for."""
        pool = cls.__new__(cls)
        pool._models = None
        pool._tables = list(tables)
        pool._build(pool._tables)
        return pool

    @property
    def models(self) -> tuple[KripkeModel, ...]:
        """The pool's models, in pool order."""
        if self._models is None:
            self._models = tuple(map(_table_model, self._tables))
        return self._models

    def model(self, j: int) -> KripkeModel:
        """The j-th model, made from its table if the pool has no models."""
        return self._models[j] if self._models is not None else _table_model(self._tables[j])

    def _build(self, tables: Iterable[tuple]) -> None:
        """Fill the pool from one table per model. A run of tables that
        share their worlds, rel and domains objects, as the tables of the
        enumeration that share a frame and domains do, is one block: its
        first model's constants and edges are ORed in world by world, and
        those of the rest of the run are copies of them, made by one
        multiplication per mask when the run ends. Facts are ORed in model
        by model."""
        offsets = [0]
        const_masks: dict[str, int] = {}
        fact_masks: dict[tuple, int] = {}
        edge_masks: dict[int, int] = {}
        o = start = k = 0  # the run of the current block starts at start
        worlds_b = rel_b = domains_b = None  # its fields
        for worlds, rel, domains, facts, _ in tables:
            if rel is not rel_b or domains is not domains_b or worlds is not worlds_b:
                if o - start > k > 0:
                    _repeat_block((const_masks, edge_masks), start, k, o - start)
                worlds_b, rel_b, domains_b = worlds, rel, domains
                start, k = o, len(worlds)
                index: dict[int, int] = {}
                for i, w in enumerate(worlds):
                    dom = domains.get(w)
                    if dom is None:
                        raise EvalError(f"unknown world {w}")
                    index[w] = i
                    bit = 1 << i + o
                    for c in dom:
                        const_masks[c] = const_masks.get(c, 0) | bit
                try:
                    for a, b in rel:
                        i = index[a]
                        d = index[b] - i
                        edge_masks[d] = edge_masks.get(d, 0) | 1 << i + o
                except KeyError as e:
                    raise EvalError(f"unknown world {e.args[0]}") from None
            for (w, pred), tuples in filter(None, facts):
                if w in index:
                    bit = 1 << index[w] + o
                    for args in tuples:
                        key = pred, args
                        fact_masks[key] = fact_masks.get(key, 0) | bit
            o += k
            offsets.append(o)
        if o - start > k > 0:
            _repeat_block((const_masks, edge_masks), start, k, o - start)
        self.offsets = offsets
        self.const_masks = const_masks
        self.fact_masks = fact_masks
        self.all_mask = (1 << o) - 1
        self.consts = sorted(const_masks, key=_const_key)
        self.present = [const_masks[c] for c in self.consts]
        edges = sorted(edge_masks.items())
        self.down = [(d, e) for d, e in edges if d >= 0]
        self.up = [(-d, e) for d, e in reversed(edges) if d < 0]
        self.open_atoms: dict[tuple, int] = {}
        self._seg = (o + 7) // 8 or 1
        self._reps = _Tiles(1, self._seg, len(self.consts))
        self._fulls = _Tiles(self.all_mask, self._seg, len(self.consts))

    def masks(self, sentences: Iterable[Formula]) -> list[int]:
        """One mask per sentence, of the worlds of the pool where it holds.
        Each is checked, model by model in pool order, to be a sentence as
        the module docstring defines it, or raises EvalError. Each runs as
        its compiled program: a subformula is computed once per sentence,
        and again in each later sentence that shares it, and any depth of
        nesting evaluates. A subformula with k free variables over the
        pool's n constants has one int of n^k segments, one per assignment,
        and over 10^7 assignments raise BoundExplosionError before any is
        made."""
        return [self._run(_program(self._sentence(f))) for f in sentences]

    def split(self, mask: int) -> list[int]:
        """The part of mask in each model, by position in its m.worlds."""
        return [mask >> lo & ((1 << (hi - lo)) - 1) for lo, hi in zip(self.offsets, self.offsets[1:])]

    def first_failing(self, mask: int) -> Optional[int]:
        """Index of the first model whose part of mask is not full, or None."""
        missing = ~mask & self.all_mask
        # A model with no worlds shares its offset with the next one, and
        # bisect_right passes over it.
        return bisect_right(self.offsets, next(_bits(missing))) - 1 if missing else None

    def _sentence(self, f: Formula) -> Formula:
        if f._free_vars:
            raise EvalError(f"unbound variable {min(f._free_vars)}")
        if f._constants:
            # A constant must exist at every world, even where f never reads
            # it. The first model that lacks one decides, then the least
            # constant it lacks, then the first world there that lacks it.
            names = sorted(f._constants, key=_const_key)
            present = [self.const_masks.get(c, 0) for c in names]
            j = self.first_failing(reduce(int.__and__, present, self.all_mask))
            if j is not None:
                c, gone = next((c, part) for c, p in zip(names, present) if (part := self.split(~p)[j]))
                w = self.model(j).worlds[next(_bits(gone))]
                raise EvalError(f"constant {c} is outside the domain of world {w}")
        return f

    def _run(self, program: tuple[list[tuple], int]) -> int:
        # One int per value (see the module docstring): a closed node's is
        # its mask, and a node with k free variables has a segment of s
        # bytes per assignment of the pool's n constants to its variables
        # in name order, the first variable most significant. Per k, _reps
        # has a 1 at the start of each of the n^k segments and _fulls the
        # pool's mask in each.
        code, k_max = program
        n = len(self.consts)
        if n**k_max > _BUDGET:
            raise BoundExplosionError(f"{n}^{k_max} variable assignments to evaluate exceed 10^7")
        reps, fulls, every, facts = self._reps, self._fulls, self.all_mask, self.fact_masks
        down, up = self.down, self.up
        values: list = [None] * len(code)
        for cls, k, at, a, b, extra in code:
            if cls is Implies:
                values[at] = (fulls[k] ^ values[a]) | values[b]
            elif cls is Box:
                # A world fails box S when it has an edge to a world outside
                # S. Every edge stays inside the pool, so no shift reaches
                # into the next segment through an edge mask.
                rep, full = reps[k], fulls[k]
                missing = full ^ values[a]
                acc = 0
                for d, e in down:
                    acc |= e * rep & missing >> d
                for d, e in up:
                    acc |= e * rep & missing << d
                values[at] = full ^ acc
            elif cls is And:
                values[at] = values[a] & values[b]
            elif cls is Not:
                values[at] = fulls[k] ^ values[a]
            elif cls is Top:
                values[at] = every
            elif cls is _SPREAD:
                values[at] = self._spread(values[a], k, extra) if extra else values[a] * reps[k]
            elif cls is Forall or cls is Exists:
                values[at] = self._quantify(cls, k, extra, values[a])
            elif cls is Atom:
                # _sentence has found its constants in every domain.
                values[at] = self._open_atom(k, extra) if k else facts.get(extra, 0)
            elif cls is Or:
                values[at] = values[a] | values[b]
            else:
                values[at] = 0  # Bottom
        return values[code[-1][2]]

    def _open_atom(self, k: int, extra: tuple) -> int:
        """The value of an atom with k free variables, made once per pool:
        its facts, less the worlds where a variable's constant is not in
        the domain."""
        got = self.open_atoms.get(extra)
        if got is None:
            pred, template = extra
            parts = []
            for names, masks in zip(product(self.consts, repeat=k), product(self.present, repeat=k)):
                args = tuple(names[t] if type(t) is int else t for t in template)
                mask = self.fact_masks.get((pred, args), 0) & reduce(int.__and__, masks)
                parts.append(mask.to_bytes(self._seg, "little"))
            got = self.open_atoms[extra] = int.from_bytes(b"".join(parts), "little")
        return got

    def _quantify(self, cls: type, k: int, occurs: bool, body: int) -> int:
        """The value of a quantifier with k free variables from that of its
        body, whose first variable is the quantifier's own if it occurs."""
        n, s = len(self.consts), self._seg
        if cls is Forall:
            body = ~body  # forall is not exists not
        if occurs:
            width = n**k * 8 * s
            acc = 0
            for c, p in enumerate(self.present):
                acc |= body >> c * width & (_tile(p, s, n**k) if k else p)
        else:
            acc = body & reduce(int.__or__, self.present, 0) * self._reps[k]
        return acc if cls is Exists else self._fulls[k] ^ acc

    def _spread(self, value: int, k: int, spots: tuple[int, ...]) -> int:
        """The value of a child with variables, which sit at spots among the
        k of its parent, laid out under the parent's assignments."""
        n, s = len(self.consts), self._seg
        place = {q: n ** (len(spots) - 1 - j) for j, q in enumerate(spots)}
        weights = [place.get(p, 0) for p in range(k)]
        # The last variables, when they are the child's last in turn, give
        # runs of segments, and the variables the child lacks before them
        # copies of each run.
        run = copies = 1
        while weights and weights[-1] == run:
            weights.pop()
            run *= n
        while weights and weights[-1] == 0:
            weights.pop()
            copies *= n
        # The child's assignment index at the start of each run.
        index = [0]
        for w in weights:
            index = [i + w * c for i in index for c in range(n)]
        data = value.to_bytes(n ** len(spots) * s, "little")
        size = run * s
        return int.from_bytes(b"".join([data[i * s:i * s + size] * copies for i in index]), "little")


def _repeat_block(dicts: tuple[dict, ...], start: int, k: int, width: int) -> None:
    """Copy the k positions from start of each mask in dicts over the
    width positions from start. No mask has a bit above those k yet."""
    rep = ((1 << width) - 1) // ((1 << k) - 1)  # a 1 every k positions
    for masks in dicts:
        for key, mask in masks.items():
            masks[key] = mask | (mask >> start) * rep << start


class _Tiles(dict):
    """By k, a mask of a pool's worlds in each of the n^k segments of s
    bytes of a value with k free variables, made on first use."""

    __slots__ = ("mask", "s", "n")

    def __init__(self, mask: int, s: int, n: int):
        self[0] = mask
        self.mask, self.s, self.n = mask, s, n

    def __missing__(self, k: int) -> int:
        got = self[k] = _tile(self.mask, self.s, self.n**k)
        return got


def _tile(mask: int, s: int, count: int) -> int:
    """mask, of s bytes, in each of count segments."""
    return int.from_bytes(mask.to_bytes(s, "little") * count, "little")


# The table of a model, as the generators make it and ModelPool reads it:
# (worlds, rel, domains, facts, sig), the fields of a KripkeModel except
# that facts holds the items ((w, pred), tuples) of its interp, and may
# hold None for none. The generators share rel and domains between the
# models of a block.


def _model_table(m: KripkeModel) -> tuple:
    return m.worlds, m.rel, m.domains, m.interp.items(), m.sig


def _table_model(table: tuple) -> KripkeModel:
    """The model of a table, with fresh dicts."""
    worlds, rel, domains, facts, sig = table
    return KripkeModel(worlds, frozenset(rel), dict(domains), dict(filter(None, facts)), dict(sig))


def _program(f: Formula) -> tuple[list[tuple], int]:
    """The sentence f compiled for ModelPool, cached on f: the distinct
    nodes of its folded form (see the module docstring) that its value
    reads, in postorder, children left to right, and the largest number
    of free variables of any node of f. Each instruction is (class, k, slot,
    left, right, extra): k is the node's number of free variables, slot
    where its value goes, and left and right the slots of its children's
    values in its own layout. A child whose variables are not the node's
    in turn is laid out by a spread instruction before it, (_SPREAD, k,
    slot, child, -1, spots), with spots the positions among the node's of
    the child's variables in name order; a quantifier's own variable comes
    first among its body's. extra is an atom's predicate and arguments,
    the constants as names and the variables as positions, and for a
    quantifier whether its variable occurs in its body."""
    got = f.__dict__.get("_program")
    if got is None:
        got = f.__dict__["_program"] = _compile(f)
    return got


_SPREAD = object()  # the class of a spread instruction


def _compile(f: Formula) -> tuple[list[tuple], int]:
    folded: dict[Formula, Formula] = {}  # each node's folded node
    index: dict[Formula, int] = {}  # each folded node's instruction
    code: list[tuple] = []
    k_max = 0

    def laid_out(child: Formula, names: list[str]) -> int:
        # The index of child's value under the assignments of names: its
        # own, or that of a spread of it when its variables are not names.
        i = index[child]
        spots = tuple(names.index(v) for v in sorted(child._free_vars))
        if spots != tuple(range(len(names))):
            code.append((_SPREAD, len(names), i, -1, spots))
            i = len(code) - 1
        return i

    stack = [f]
    while stack:
        g = stack[-1]
        if g in folded:
            stack.pop()
            continue
        kids = g._kids()
        todo = [c for c in kids if c not in folded]
        if todo:
            stack += reversed(todo)
            continue
        stack.pop()
        cls = type(g)
        k_max = max(k_max, len(g._free_vars))
        if cls is PropVar:
            raise EvalError(f"propositional variable #{g.name} has no truth value in a model")
        if cls not in _FORMULAS:
            raise TypeError(f"not a formula: {g!r}")
        h = folded[g] = _fold(g, kids, tuple([folded[c] for c in kids]))
        if h in index:
            continue
        cls = type(h)
        names = sorted(h._free_vars)
        a = b = -1
        extra = None
        if cls is Atom:
            extra = (h.pred, tuple(names.index(t.name) if isinstance(t, Var) else t.name for t in h.args))
        elif cls in (Forall, Exists):
            extra = h.var in h.body._free_vars
            a = laid_out(h.body, [h.var] + names if extra else names)
        elif cls in (Not, Box):
            a = index[h.body]
        elif cls in (And, Or, Implies):
            a, b = laid_out(h.left, names), laid_out(h.right, names)
        index[h] = len(code)
        code.append((cls, len(names), a, b, extra))
    # Only the instructions that the value of f reads are kept, and its
    # own is the last of them. Each value takes the slot of a value read
    # for the last time before it, if there is one, so a run holds only
    # the values still to be read.
    root = index[folded[f]]
    last = {root: root}
    for i in range(root, -1, -1):
        if i in last:
            for j in code[i][2:4]:
                last.setdefault(j, i)
    free: list[int] = []
    slot: dict[int, int] = {}
    out: list[tuple] = []
    for i, (cls, k, a, b, extra) in enumerate(code):
        if i in last:
            free += {slot[j] for j in (a, b) if j >= 0 and last[j] == i}
            slot[i] = free.pop() if free else len(out)
            out.append((cls, k, slot[i], slot.get(a, -1), slot.get(b, -1), extra))
    return out, k_max


_FORMULAS = frozenset({Top, Bottom, Atom, Not, Implies, And, Or, Forall, Exists, Box})


def _fold(g: Formula, kids: tuple, new: tuple) -> Formula:
    """g with its children kids replaced by their folded nodes new, folded
    by the rule that applies to it if one does (see the module docstring):
    g itself when no child changed and no rule applies."""
    if TRUE in new or FALSE in new:
        cls = type(g)
        a, b = new[0], new[-1]
        if cls is Not:
            return FALSE if a is TRUE else TRUE
        if cls is And:
            return FALSE if FALSE in new else b if a is TRUE else a
        if cls is Or:
            return TRUE if TRUE in new else b if a is FALSE else a
        if cls is Implies:
            return TRUE if a is FALSE or b is TRUE else b if a is TRUE else Not(a)
        if a is TRUE and cls is not Exists:  # box true, forall v. true
            return TRUE
        if a is FALSE and cls is Exists:
            return FALSE
    return g if new == kids else g._with(new)


def truth_mask(m: KripkeModel, f: Formula) -> int:
    """Bitmask of worlds (by position in m.worlds) where the sentence f holds.

    Anything but a sentence, as the module docstring defines it, raises
    EvalError.
    """
    return ModelPool((m,)).masks((f,))[0]


def batch_truth_masks(m: KripkeModel, formulas: Sequence[Formula]) -> list[int]:
    """Truth masks of several sentences, [truth_mask(m, f) for f in
    formulas] on one set of tables. Each sentence runs its compiled
    program, cached on it: a subformula is computed once within a
    sentence, not shared between sentences, and any depth of nesting
    evaluates.
    """
    return ModelPool((m,)).masks(formulas)


def valid_in_model(m: KripkeModel, f: Formula) -> bool:
    """Truth of the universal closure of f at every world of m. EvalError
    unless the closure is a sentence: no propositional variables, and
    every constant in every world's domain."""
    return truth_mask(m, universal_closure(f)) == (1 << len(m.worlds)) - 1


def first_failing_world(m: KripkeModel, f: Formula) -> Optional[int]:
    """Least world id where the universal closure of f fails, or None;
    errors as for valid_in_model."""
    mask = truth_mask(m, universal_closure(f))
    return min((w for i, w in enumerate(m.worlds) if not mask >> i & 1), default=None)


# check_tables builds pools of about this many worlds, which bounds the
# width of every mask and so the cost of each OR.
_CHUNK_WORLDS = 1024


def check_tables(tables: Iterable[tuple], sentences: Sequence[Formula]) -> tuple[int, Optional[KripkeModel], Optional[int]]:
    """(i, m, s) for the first model m, the i-th, of a stream of model
    tables (see _model_table) where a sentence is not valid, the s-th the
    first; else (number of models, None, None). Each pool, of about
    _CHUNK_WORLDS worlds, raises as ModelPool.masks does, and when the
    stream raises a LogicError, the tables before it are checked first."""
    checked = 0
    for chunk in _chunks(tables):
        pool = ModelPool._of_tables(chunk)
        masks = pool.masks(sentences)
        j = pool.first_failing(reduce(int.__and__, masks, pool.all_mask))
        if j is not None:
            s = next(s for s, mask in enumerate(masks) if pool.first_failing(mask) == j)
            return checked + j, pool.model(j), s
        checked += len(chunk)
    return checked, None, None


def _chunks(tables: Iterable[tuple]) -> Iterator[list[tuple]]:
    """Runs of tables of about _CHUNK_WORLDS worlds. When making a table
    raises, the run before it is yielded first."""
    chunk, size = [], 0
    try:
        for table in tables:
            chunk.append(table)
            size += len(table[0])
            if size >= _CHUNK_WORLDS:
                yield chunk
                chunk, size = [], 0
    except LogicError:
        if chunk:
            yield chunk
        raise
    if chunk:
        yield chunk


# ---------------------------------------------------------------------------
# Frame analysis

def _heights(succ: Sequence[int]) -> Optional[dict[int, int]]:
    # Heights by index into the successor masks succ, in layers (Kahn's
    # topological sort): each round, the worlds whose successors all have
    # heights get the next one. So worlds come by ascending height, then
    # index. A round that finds none while some are left means a cycle.
    heights: dict[int, int] = {}
    left, done, h = range(len(succ)), 0, 0
    while left:
        pending = ~done
        layer = [i for i in left if not succ[i] & pending]
        if not layer:
            return None
        heights.update(dict.fromkeys(layer, h))
        done |= sum(1 << i for i in layer)
        left = [i for i in left if i not in heights]
        h += 1
    return heights


def _successor_masks(m: KripkeModel) -> tuple[dict[int, int], list[int]]:
    """Each world's index, in ascending order of id, and successor mask by
    index. An edge with an end outside m.worlds raises EvalError."""
    index = {w: i for i, w in enumerate(sorted(set(m.worlds)))}
    succ = [0] * len(index)
    for a, b in m.rel:
        if a not in index or b not in index:
            raise EvalError(f"unknown world {a if a not in index else b}")
        succ[index[a]] |= 1 << index[b]
    return index, succ


def _transitive(succ: Sequence[int]) -> bool:
    return not any(succ[b] & ~s for s in succ for b in _bits(s))


@dataclass(frozen=True)
class FrameReport:
    transitive: bool
    irreflexive: bool
    conversely_well_founded: bool
    heights: Optional[dict[int, int]]
    frame_height: Optional[int]
    classes: tuple[str, ...]


def frame_report(m: KripkeModel) -> FrameReport:
    """Frame properties of the model: order conditions, heights, classes.

    classes is drawn from FI (finite, transitive, irreflexive), FIFD (FI
    with finite domains), and FH (transitive with every world of finite
    height). heights lists the worlds by ascending height, then id; any
    cycle makes it None and puts the frame in none of the classes. An
    edge with an end outside m.worlds raises EvalError.
    """
    index, succ = _successor_masks(m)
    transitive = _transitive(succ)
    irreflexive = not any(s >> i & 1 for i, s in enumerate(succ))
    found = _heights(succ)
    ids = list(index)
    heights = None if found is None else {ids[i]: h for i, h in found.items()}
    cwf = heights is not None
    frame_height = max(heights.values()) if heights else None
    classes = []
    if transitive and irreflexive:
        classes += ["FI", "FIFD"]  # domains of finite models are always finite
    if transitive and cwf:
        classes.append("FH")
    return FrameReport(transitive, irreflexive, cwf, heights, frame_height, tuple(classes))


def generated_submodel(m: KripkeModel, w: int) -> KripkeModel:
    """Restriction of m to w and the worlds reachable from it. A world
    outside m.worlds, or one there without a domain, raises EvalError."""
    index, succ = _successor_masks(m)
    if w not in index:
        raise EvalError(f"unknown world {w}")
    reach, frontier = 0, 1 << index[w]
    while frontier:
        reach |= frontier
        frontier = reduce(int.__or__, [succ[i] for i in _bits(frontier)]) & ~reach
    reachable = {v for v, i in index.items() if reach >> i & 1}
    worlds = tuple(v for v in m.worlds if v in reachable)
    for v in worlds:
        if v not in m.domains:
            raise EvalError(f"unknown world {v}")
    return KripkeModel(
        worlds=worlds,
        rel=frozenset((a, b) for a, b in m.rel if a in reachable and b in reachable),
        domains={v: m.domains[v] for v in worlds},
        interp={(v, p): ts for (v, p), ts in m.interp.items() if v in reachable},
        sig=dict(m.sig),
    )


# ---------------------------------------------------------------------------
# Model generation

_REQUIREMENTS = frozenset({"transitive", "irreflexive"})


@dataclass(frozen=True)
class ModelGenSpec:
    """Parameters for seeded random model generation.

    world_count, domain_base_size and domain_growth are inclusive
    (low, high) ranges. height_bound caps the length of accessibility
    chains, so generated frames are acyclic by construction.
    """

    world_count: tuple[int, int]
    height_bound: int
    signature: Mapping[str, int]
    domain_base_size: tuple[int, int] = (1, 2)
    domain_growth: tuple[int, int] = (0, 1)
    truth_density: float = 0.5
    require: frozenset[str] = frozenset()
    seed: int = 0


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_range(name: str, r: tuple[int, int], low: int) -> None:
    if r[0] > r[1] or r[0] < low:
        raise GenError(f"{name} range {r} is empty or below {low}")


def _check_world_pairs(n: int) -> None:
    # Every generator checks this before it builds anything.
    if n * n > _BUDGET:
        raise BoundExplosionError("world pairs to draw exceed 10^7")


def _names(size: int, arities: Iterable[int]) -> int:
    """The domain constants and predicate tuple elements of a world with a
    domain of this size, a nullary tuple counted as one element."""
    # Capping the exponent keeps every verdict, since 2**64 is over budget
    # already, and keeps the arithmetic small for absurd arities.
    return size + sum(max(a, 1) * size ** min(a, 64) for a in arities)


def _check_names(names: int) -> None:
    # Both generators check this before they build any domain or tuple.
    if names > _BUDGET:
        raise BoundExplosionError("domain constants and predicate tuple elements exceed 10^7")


def random_model(spec: ModelGenSpec) -> KripkeModel:
    """Deterministic model for a given spec; the seed fixes everything."""
    return _table_model(next(_random_tables(spec, (spec.seed,))))


def _check_spec(spec: ModelGenSpec) -> None:
    _check_range("world_count", spec.world_count, 1)
    _check_range("domain_base_size", spec.domain_base_size, 1)
    _check_range("domain_growth", spec.domain_growth, 0)
    if spec.height_bound < 0:
        raise GenError("height_bound must be >= 0")
    if not 0.0 <= spec.truth_density <= 1.0:
        raise GenError("truth_density must lie in [0, 1]")
    if not set(spec.require) <= _REQUIREMENTS:
        raise GenError(f"unknown requirement in {sorted(spec.require)}")
    _check_arities(spec.signature)


def _check_arities(sig: Mapping[str, int]) -> None:
    if any(a < 0 for a in sig.values()):
        raise GenError("predicate arities must be >= 0")


def _random_tables(spec: ModelGenSpec, seeds: Iterable[int]) -> Iterator[tuple]:
    """The tables of the models random_model makes for spec with each of
    seeds in turn in place of its seed. The spec is checked before the
    first draw. One Random, seeded again for each seed, gives the stream
    of Random(seed).

    Each randint(lo, hi) of that stream is drawn here as randint draws
    it: lo + r for the first r = getrandbits(k) below the width hi - lo +
    1, with k the width's bit length, one bit even for a width of 1. That
    is randrange's _randbelow_with_getrandbits on CPython 3.10 to 3.13,
    so the draws and the models stay those of randint, with no Python
    frame per draw; test_random_models_are_pinned holds the stream."""
    sig = dict(spec.signature)
    rng: Optional[random.Random] = None
    counts: dict[int, int] = {}  # per domain size: its _names
    # Per domain size: its domain, and the tuples over it of each predicate
    # of preds.
    by_size: dict[int, tuple[frozenset[str], list[list[tuple[str, ...]]]]] = {}
    for seed in seeds:
        if rng is None:
            _check_spec(spec)
            rng = random.Random(seed)
            bits, draw = rng.getrandbits, rng.random
            # Each range as (low, width, bits per draw).
            (n_lo, n_w, n_k), (h_lo, h_w, h_k), (b_lo, b_w, b_k), (g_lo, g_w, g_k) = [
                (lo, hi - lo + 1, (hi - lo + 1).bit_length())
                for lo, hi in (spec.world_count, (0, spec.height_bound), spec.domain_base_size, spec.domain_growth)
            ]
            density = spec.truth_density
            transitive = "transitive" in spec.require
            preds = sorted(sig.items())
        else:
            rng.seed(seed)
        r = bits(n_k)
        while r >= n_w:
            r = bits(n_k)
        n = n_lo + r
        _check_world_pairs(n)
        worlds = tuple(range(n))
        levels = []
        for _ in worlds:
            r = bits(h_k)
            while r >= h_w:
                r = bits(h_k)
            levels.append(h_lo + r)
        rel = [(a, b) for a in worlds for b in worlds if levels[a] > levels[b] and draw() < 0.5]
        if transitive:
            # Edges lead from a higher level to a lower one, so in ascending
            # level order the successors of a world are closed before it.
            succ = [0] * n
            for a, b in rel:
                succ[a] |= 1 << b
            for a in sorted(worlds, key=levels.__getitem__):
                for b in _bits(succ[a]):
                    succ[a] |= succ[b]
            rel = [(a, b) for a in worlds for b in _bits(succ[a])]

        preds_of: list[list[int]] = [[] for _ in worlds]
        for a, b in rel:
            preds_of[b].append(a)
        sizes = [0] * n
        # From the highest level down, and by id within a level: edges lead
        # to lower levels, so every predecessor has its size.
        for w in sorted(worlds, key=levels.__getitem__, reverse=True):
            r = bits(b_k)
            while r >= b_w:
                r = bits(b_k)
            size = b_lo + r
            if preds_of[w]:
                r = bits(g_k)
                while r >= g_w:
                    r = bits(g_k)
                size = max(size, *map(sizes.__getitem__, preds_of[w])) + g_lo + r
            sizes[w] = size
        for size in set(sizes) - counts.keys():
            counts[size] = _names(size, sig.values())
        _check_names(sum(map(counts.__getitem__, sizes)))
        for size in set(sizes) - by_size.keys():
            names = tuple(f"c{i}" for i in range(size))
            of_arity = {a: list(product(names, repeat=a)) for a in set(sig.values())}
            by_size[size] = frozenset(names), [of_arity[a] for _, a in preds]

        domains: dict[int, frozenset[str]] = {}
        interp: dict[tuple[int, str], frozenset[tuple[str, ...]]] = {}
        for w, size in enumerate(sizes):
            domains[w], tuples_of = by_size[size]
            for (pred, _), tuples in zip(preds, tuples_of):
                tuples = [t for t in tuples if draw() < density]
                if tuples:
                    interp[(w, pred)] = frozenset(tuples)
        yield worlds, rel, domains, interp.items(), sig


def enumerate_models(
    max_worlds: int,
    max_domain: int,
    sig: Mapping[str, int],
    require: Iterable[str] = (),
    max_height: Optional[int] = None,
) -> Iterator[KripkeModel]:
    """Yield every model with 1..max_worlds worlds and domains drawn from a
    fixed pool of max_domain constants, once each, in a deterministic order.

    require may contain "transitive" and "irreflexive"; max_height
    additionally keeps only acyclic frames of at most that height. The
    estimated number of candidates must stay at or below 10**7.
    """
    return map(_table_model, _enumerated_tables(max_worlds, max_domain, sig, require, max_height))


def _enumerated_tables(
    max_worlds: int,
    max_domain: int,
    sig: Mapping[str, int],
    require: Iterable[str] = (),
    max_height: Optional[int] = None,
) -> Iterator[tuple]:
    """The tables of the models of enumerate_models with these arguments,
    in turn. Those of one frame and choice of domains share rel and
    domains."""
    require = frozenset(require)
    if not require <= _REQUIREMENTS:
        raise GenError(f"unknown requirement in {sorted(require)}")
    if max_worlds < 1 or max_domain < 1:
        raise GenError("bounds must be at least 1")
    _check_arities(sig)

    if any(2 ** (k * k) > _BUDGET for k in range(1, max_worlds + 1)):
        raise BoundExplosionError("relation candidates alone exceed 10^7")
    # Capping the domain size and the exponents keeps every verdict, since
    # 2**64 is over the budget already, and keeps the arithmetic small.
    size = min(max_domain, 64)
    per_world_interp = 2 ** min(sum(size ** min(a, 64) for a in sig.values()), 64)
    frames = []
    estimate = 0
    for k in range(1, max_worlds + 1):
        frames.append(_candidate_rels(k, require, max_height))
        estimate += len(frames[-1]) * (2**size - 1) ** k * per_world_interp**k
        if estimate > _BUDGET:
            raise BoundExplosionError(f"estimated model count exceeds 10^7 at {k} worlds")
    if not estimate:
        return  # no frame passes, so no fact options are needed
    # The fact options below are built once per domain: every nonempty
    # subset of the constants.
    _check_names(sum(comb(max_domain, j) * _names(j, sig.values()) for j in range(1, max_domain + 1)))

    subsets = [frozenset(f"c{i}" for i in range(max_domain) if bits >> i & 1) for bits in range(1, 1 << max_domain)]
    subsets.sort(key=lambda s: (len(s), sorted(s)))
    sig = dict(sig)
    # Per world, domain and predicate, every set of facts, in the order of
    # a binary count over its tuples, as an item ((w, pred), facts) of the
    # interp, or None for no facts.
    options: dict[tuple[int, frozenset[str]], list[list]] = {
        (w, dom): [] for w in range(max_worlds) for dom in subsets
    }
    for dom in subsets:
        for pred in sorted(sig):
            tuples = list(product(sorted(dom, key=_const_key), repeat=sig[pred]))
            sets = [frozenset(t for i, t in enumerate(tuples) if bits >> i & 1) for bits in range(1, 1 << len(tuples))]
            for w in range(max_worlds):
                options[w, dom].append([None] + [((w, pred), facts) for facts in sets])
    for k, rels in enumerate(frames, 1):
        worlds = tuple(range(k))
        for rel in rels:
            for combo in product(subsets, repeat=k):
                if any(not combo[a] <= combo[b] for a, b in rel):
                    continue
                domains = dict(zip(worlds, combo))
                for chosen in product(*[o for w in worlds for o in options[w, combo[w]]]):
                    yield worlds, rel, domains, chosen, sig


def _candidate_rels(k: int, require: frozenset[str], max_height: Optional[int]) -> list[frozenset[tuple[int, int]]]:
    # Bit a*k + b of r is the edge (a, b), so row a of r is the
    # successor mask of world a.
    loops = sum(1 << a * k + a for a in range(k))
    out = []
    for r in range(1 << k * k):
        if "irreflexive" in require and r & loops:
            continue
        succ = [r >> a * k & (1 << k) - 1 for a in range(k)]
        if "transitive" in require and not _transitive(succ):
            continue
        if max_height is not None:
            heights = _heights(succ)
            if heights is None or max(heights.values()) > max_height:
                continue
        out.append(frozenset((a, b) for a in range(k) for b in _bits(succ[a])))
    return out


# ---------------------------------------------------------------------------
# Model file format

def format_model(m: KripkeModel) -> str:
    """Serialize a model to the line format of parse_model, which reads it
    back up to sig entries with no facts. The worlds must be numbered
    0..n-1 in order, and a model that breaks a rule of validate_model
    raises ModelError with the first violation."""
    worlds = range(len(m.worlds))
    if tuple(m.worlds) != tuple(worlds):
        raise ModelError("only models with worlds numbered 0..n-1 can be serialized")
    violations = validate_model(m)
    if violations:
        raise ModelError(violations[0])
    lines = [f"worlds: {len(worlds)}"]
    # Two stable sorts on int keys put the edges in order faster than one
    # sort that compares the pairs.
    lines += map("edge: %d %d".__mod__, sorted(sorted(m.rel, key=itemgetter(1)), key=itemgetter(0)))
    # Each domain object is sorted and printed once, its names by
    # _const_key with no call per name.
    by_id = {id(dom): dom for dom in m.domains.values()}
    names = {i: " ".join(sorted(sorted(dom), key=len)) for i, dom in by_id.items()}
    lines += (f"domain: {w} {names[id(m.domains[w])]}" for w in worlds)
    for w, pred in sorted(m.interp):
        lines += map(f"fact: {w} {pred} ".__add__, map(" ".join, sorted(m.interp[w, pred])))
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> KripkeModel:
    """Parse the model file format; the result must validate cleanly.

    Lines: "worlds: n", "edge: w v", "domain: w c1 c2 ...",
    "fact: w P c1 ... ck". Blank lines and lines starting with # are
    ignored. Tuples not listed as facts are false.
    """
    n_worlds = None
    rel = set()
    domains: dict[int, frozenset[str]] = {}
    interp: dict[tuple[int, str], set[tuple[str, ...]]] = {}
    sig: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        fields = rest.split()
        try:
            if key == "worlds":
                (n,) = fields
                n_worlds = int(n)
            elif key == "edge":
                a, b = fields
                rel.add((int(a), int(b)))
            elif key == "domain":
                w = int(fields[0])
                if w in domains:
                    raise ModelError(f"line {lineno}: duplicate domain for world {w}")
                domains[w] = frozenset(fields[1:])
            elif key == "fact":
                w = int(fields[0])
                pred = fields[1]
                tup = tuple(fields[2:])
                if pred in sig and sig[pred] != len(tup):
                    raise ModelError(
                        f"line {lineno}: predicate {pred} used with arities {sig[pred]} and {len(tup)}"
                    )
                sig.setdefault(pred, len(tup))
                interp.setdefault((w, pred), set()).add(tup)
            else:
                raise ModelError(f"line {lineno}: unknown directive {key!r}")
        except (ValueError, IndexError):
            raise ModelError(f"line {lineno}: malformed {key!r} line: {raw!r}") from None
    if n_worlds is None:
        raise ModelError("missing worlds: header")
    m = KripkeModel(
        worlds=tuple(range(n_worlds)),
        rel=frozenset(rel),
        domains=domains,
        interp={k: frozenset(v) for k, v in interp.items()},
        sig=sig,
    )
    violations = validate_model(m)
    if violations:
        raise ModelError("; ".join(violations))
    return m
