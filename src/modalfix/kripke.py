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
batch_truth_masks check a pool of one. Within one masks() call the
evaluator memoizes each subformula under its node identity, which
interning makes its structure, plus the values of its free variables
when it has any: equal subformulas of different sentences are evaluated
once. eval_formula is the plain recursive reference, one world at a
time, that the tests compare the evaluator against.

A model caches its successor lists and sorted domains on first use;
dataclasses.replace gives a copy whose caches are cold.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import product
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .syntax import (
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
    TooDeepError,
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
        table: dict[int, tuple[int, ...]] = {w: () for w in self.worlds}
        for a, b in sorted(self.rel):
            table[a] = table[a] + (b,)
        return table

    @cached_property
    def _dom_sorted(self) -> dict[int, tuple[str, ...]]:
        return {w: tuple(sorted(self.domains[w], key=_const_key)) for w in self.worlds}

    def facts(self, w: int, pred: str) -> frozenset[tuple[str, ...]]:
        return self.interp.get((w, pred), frozenset())


def _const_key(c: str) -> tuple[int, str]:
    return (len(c), c)


def validate_model(m: KripkeModel) -> list[str]:
    """Return a list of violation descriptions; empty means well formed."""
    out: list[str] = []
    if not m.worlds:
        out.append("worlds: model has no worlds")
    if len(set(m.worlds)) != len(m.worlds):
        out.append("worlds: duplicate world ids")
    wset = set(m.worlds)
    for a, b in sorted(m.rel):
        if a not in wset or b not in wset:
            out.append(f"edge: ({a}, {b}) mentions an unknown world")
    for w in m.worlds:
        if w not in m.domains:
            out.append(f"domain: world {w} has no domain")
        elif not m.domains[w]:
            out.append(f"domain: world {w} has an empty domain")
    for w in sorted(set(m.domains) - wset):
        out.append(f"domain: entry for unknown world {w}")
    for a, b in sorted(m.rel):
        if a in m.domains and b in m.domains:
            missing = m.domains[a] - m.domains[b]
            if missing:
                names = ", ".join(sorted(missing, key=_const_key))
                out.append(f"monotonicity: edge ({a}, {b}) loses constants {names}")
    for (w, pred), tuples in sorted(m.interp.items()):
        if w not in wset:
            out.append(f"fact: unknown world {w} for predicate {pred}")
            continue
        if pred not in m.sig:
            out.append(f"fact: undeclared predicate {pred} at world {w}")
            continue
        for tup in sorted(tuples):
            if len(tup) != m.sig[pred]:
                out.append(f"fact: {pred}{tup} at world {w} has arity {len(tup)}, expected {m.sig[pred]}")
            elif w in m.domains and not set(tup) <= m.domains[w]:
                out.append(f"fact: {pred}{tup} at world {w} uses constants outside the domain")
    return out


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
    in the order of its m.worlds. edges pairs each position offset d with
    the mask of the positions that have an edge to the position d further
    on. Facts at worlds outside m.worlds are ignored.
    """

    def __init__(self, models: Iterable[KripkeModel]):
        self.models = tuple(models)
        self.offsets = [0]
        self.const_masks: dict[str, int] = {}
        self.fact_masks: dict[tuple[str, tuple[str, ...]], int] = {}
        edges: dict[int, int] = {}
        for m in self.models:
            index: dict[int, int] = {}
            for i, w in enumerate(m.worlds, self.offsets[-1]):
                if w not in m.domains:
                    raise EvalError(f"unknown world {w}")
                index[w] = i
                for c in m.domains[w]:
                    self.const_masks[c] = self.const_masks.get(c, 0) | 1 << i
            for a, b in m.rel:
                for v in (a, b):
                    if v not in index:
                        raise EvalError(f"unknown world {v}")
                i = index[a]
                d = index[b] - i
                edges[d] = edges.get(d, 0) | 1 << i
            for (w, pred), tuples in m.interp.items():
                if w in index:
                    bit = 1 << index[w]
                    for args in tuples:
                        key = (pred, args)
                        self.fact_masks[key] = self.fact_masks.get(key, 0) | bit
            self.offsets.append(self.offsets[-1] + len(m.worlds))
        self.all_mask = (1 << self.offsets[-1]) - 1
        self.consts = sorted(self.const_masks, key=_const_key)
        self.edges = sorted(edges.items())
        self._memo: dict[object, int] = {}

    def masks(self, sentences: Iterable[Formula]) -> list[int]:
        """One mask per sentence, of the worlds of the pool where it holds.
        Each is checked, model by model in pool order, to be a sentence as
        the module docstring defines it, or raises EvalError; one nested too
        deeply for the evaluator raises TooDeepError."""
        # The memo is keyed by node identity, so it must not outlive the
        # sentences, which the tuple keeps alive until the call ends.
        sentences = tuple(sentences)
        try:
            return [self._mask(self._sentence(f), {}) for f in sentences]
        except RecursionError:
            raise TooDeepError("formula nests too deeply") from None
        finally:
            self._memo = {}

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
                w = self.models[j].worlds[next(_bits(gone))]
                raise EvalError(f"constant {c} is outside the domain of world {w}")
        return f

    def _mask(self, f: Formula, env: dict[str, str]) -> int:
        # Keyed by node identity, which is structural since nodes are
        # interned, plus the values of f's free variables (cached on the
        # node) in name order when it has any.
        fv = f._free_vars
        key = (id(f), *[env[v] for v in sorted(fv)]) if fv else id(f)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = _HANDLERS.get(type(f), ModelPool._other)(self, f, env)
        return got

    def _top(self, f: Top, env: dict[str, str]) -> int:
        return self.all_mask

    def _bottom(self, f: Bottom, env: dict[str, str]) -> int:
        return 0

    def _atom(self, f: Atom, env: dict[str, str]) -> int:
        args = []
        guard = self.all_mask
        for term in f.args:
            c = env[term.name] if isinstance(term, Var) else term.name
            args.append(c)
            guard &= self.const_masks.get(c, 0)
        return self.fact_masks.get((f.pred, tuple(args)), 0) & guard

    def _propvar(self, f: PropVar, env: dict[str, str]) -> int:
        raise EvalError(f"propositional variable #{f.name} has no truth value in a model")

    def _not(self, f: Not, env: dict[str, str]) -> int:
        return ~self._mask(f.body, env) & self.all_mask

    def _implies(self, f: Implies, env: dict[str, str]) -> int:
        return (~self._mask(f.left, env) | self._mask(f.right, env)) & self.all_mask

    def _and(self, f: And, env: dict[str, str]) -> int:
        return self._mask(f.left, env) & self._mask(f.right, env)

    def _or(self, f: Or, env: dict[str, str]) -> int:
        return self._mask(f.left, env) | self._mask(f.right, env)

    def _forall(self, f: Forall, env: dict[str, str]) -> int:
        acc = self.all_mask
        env = dict(env)
        for c in self.consts:
            env[f.var] = c
            acc &= self._mask(f.body, env) | ~self.const_masks[c]
            if not acc:
                break
        return acc & self.all_mask

    def _exists(self, f: Exists, env: dict[str, str]) -> int:
        acc = 0
        env = dict(env)
        for c in self.consts:
            env[f.var] = c
            acc |= self._mask(f.body, env) & self.const_masks[c]
            if acc == self.all_mask:
                break
        return acc

    def _box(self, f: Box, env: dict[str, str]) -> int:
        # A world fails box S when, for some offset d, it has an edge to
        # the world d positions on and that world is outside S.
        missing = ~self._mask(f.body, env) & self.all_mask
        acc = 0
        for d, e in self.edges:
            acc |= e & (missing >> d if d >= 0 else missing << -d)
        return ~acc & self.all_mask

    def _other(self, f: object, env: dict[str, str]) -> int:
        raise TypeError(f"not a formula: {f!r}")


# One handler per node class, named after it; any other class is _other.
_HANDLERS = {
    cls: getattr(ModelPool, "_" + cls.__name__.lower())
    for cls in (Top, Bottom, Atom, PropVar, Not, Implies, And, Or, Forall, Exists, Box)
}


def truth_mask(m: KripkeModel, f: Formula) -> int:
    """Bitmask of worlds (by position in m.worlds) where the sentence f holds.

    Anything but a sentence, as the module docstring defines it, raises
    EvalError.
    """
    return ModelPool((m,)).masks((f,))[0]


def batch_truth_masks(m: KripkeModel, formulas: Sequence[Formula]) -> list[int]:
    """Truth masks of several sentences over one shared evaluation cache.

    Equivalent to [truth_mask(m, f) for f in formulas], but subformula
    objects shared between the inputs are evaluated once, which is what
    verification sweeps over families of related formulas want.
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


# ---------------------------------------------------------------------------
# Frame analysis

def _heights(worlds: Sequence[int], succ: Mapping[int, Sequence[int]]) -> Optional[dict[int, int]]:
    # Heights in depth-first finishing order, or None on a cycle. The path
    # is an explicit stack, so long chains need no recursion depth.
    heights: dict[int, int] = {}
    for root in worlds:
        if root in heights:
            continue
        path = {root: iter(succ[root])}  # each world on it, and its successors left
        while path:
            w = next(reversed(path))
            for v in path[w]:
                if v in path:
                    return None
                if v not in heights:
                    path[v] = iter(succ[v])
                    break
            else:
                del path[w]
                heights[w] = max([heights[v] + 1 for v in succ[w]], default=0)
    return heights


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
    height). A cyclic frame has no heights and lies in none of them.
    """
    succ = {w: m.successors(w) for w in m.worlds}
    transitive = all((a, c) in m.rel for a, b in m.rel for c in succ.get(b, ()))
    irreflexive = all((w, w) not in m.rel for w in m.worlds)
    heights = _heights(m.worlds, succ)
    cwf = heights is not None
    frame_height = max(heights.values()) if heights else None
    classes = []
    if transitive and irreflexive:
        classes.append("FI")
        classes.append("FIFD")  # domains of finite models are always finite
    if transitive and cwf:
        classes.append("FH")
    return FrameReport(transitive, irreflexive, cwf, heights, frame_height, tuple(classes))


def generated_submodel(m: KripkeModel, w: int) -> KripkeModel:
    """Restriction of m to w and the worlds reachable from it."""
    reachable = {w}
    frontier = [w]
    succ = {v: m.successors(v) for v in m.worlds}
    while frontier:
        v = frontier.pop()
        for u in succ[v]:
            if u not in reachable:
                reachable.add(u)
                frontier.append(u)
    worlds = tuple(v for v in m.worlds if v in reachable)
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


def random_model(spec: ModelGenSpec) -> KripkeModel:
    """Deterministic model for a given spec; the seed fixes everything."""
    _check_range("world_count", spec.world_count, 1)
    _check_range("domain_base_size", spec.domain_base_size, 1)
    _check_range("domain_growth", spec.domain_growth, 0)
    if spec.height_bound < 0:
        raise GenError("height_bound must be >= 0")
    if not 0.0 <= spec.truth_density <= 1.0:
        raise GenError("truth_density must lie in [0, 1]")
    if not set(spec.require) <= _REQUIREMENTS:
        raise GenError(f"unknown requirement in {sorted(spec.require)}")

    rng = random.Random(spec.seed)
    n = rng.randint(*spec.world_count)
    _check_world_pairs(n)
    worlds = tuple(range(n))
    levels = [rng.randint(0, spec.height_bound) for _ in worlds]
    rel = set()
    for a in worlds:
        for b in worlds:
            if levels[a] > levels[b] and rng.random() < 0.5:
                rel.add((a, b))
    if "transitive" in spec.require:
        # Edges lead from a higher level to a lower one, so in ascending
        # level order the successors of a world are closed before it.
        succ = [0] * n
        for a, b in rel:
            succ[a] |= 1 << b
        for a in sorted(worlds, key=levels.__getitem__):
            for b in _bits(succ[a]):
                succ[a] |= succ[b]
        rel = {(a, b) for a in worlds for b in _bits(succ[a])}

    preds: list[list[int]] = [[] for _ in worlds]
    for a, b in rel:
        preds[b].append(a)
    sizes: dict[int, int] = {}
    for w in sorted(worlds, key=lambda w: (-levels[w], w)):
        base = rng.randint(*spec.domain_base_size)
        # Edges lead to lower levels, so every predecessor has its size.
        inbound = [sizes[v] for v in preds[w]]
        growth = rng.randint(*spec.domain_growth) if inbound else 0
        sizes[w] = max([base] + inbound) + growth
    # Capping the arity keeps the verdict, since 2**64 is over budget
    # already, and keeps the arithmetic small for absurd arities.
    arities = [min(a, 64) for a in spec.signature.values()]
    drawn = sum(size**a for size in sizes.values() for a in arities)
    if drawn > _BUDGET:
        raise BoundExplosionError("predicate tuples to draw exceed 10^7")
    domains = {w: frozenset(f"c{i}" for i in range(sizes[w])) for w in worlds}

    interp: dict[tuple[int, str], frozenset[tuple[str, ...]]] = {}
    for w in worlds:
        dom = sorted(domains[w], key=_const_key)
        for pred in sorted(spec.signature):
            arity = spec.signature[pred]
            tuples = [t for t in product(dom, repeat=arity) if rng.random() < spec.truth_density]
            if tuples:
                interp[(w, pred)] = frozenset(tuples)
    return KripkeModel(worlds, frozenset(rel), domains, interp, dict(spec.signature))


def _nonempty_subsets(pool: Sequence[str]) -> list[frozenset[str]]:
    out = []
    for bits in range(1, 1 << len(pool)):
        out.append(frozenset(pool[i] for i in range(len(pool)) if bits >> i & 1))
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


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
    require = frozenset(require)
    if not require <= _REQUIREMENTS:
        raise GenError(f"unknown requirement in {sorted(require)}")
    if max_worlds < 1 or max_domain < 1:
        raise GenError("bounds must be at least 1")

    if any(2 ** (k * k) > _BUDGET for k in range(1, max_worlds + 1)):
        raise BoundExplosionError("relation candidates alone exceed 10^7")
    estimate = 0
    for k in range(1, max_worlds + 1):
        rels = _candidate_rels(k, require, max_height)
        per_world_interp = 2 ** sum(max_domain ** a for a in sig.values())
        estimate += len(rels) * (2**max_domain - 1) ** k * per_world_interp**k
        if estimate > _BUDGET:
            raise BoundExplosionError(f"estimated model count exceeds 10^7 at {k} worlds")

    pool = [f"c{i}" for i in range(max_domain)]
    subsets = _nonempty_subsets(pool)
    for k in range(1, max_worlds + 1):
        worlds = tuple(range(k))
        for rel in _candidate_rels(k, require, max_height):
            edges = sorted(rel)
            for combo in product(subsets, repeat=k):
                if any(not combo[a] <= combo[b] for a, b in edges):
                    continue
                domains = {w: combo[w] for w in worlds}
                slots: list[tuple[int, str, list[tuple[str, ...]]]] = []
                for w in worlds:
                    dom = sorted(domains[w], key=_const_key)
                    for pred in sorted(sig):
                        slots.append((w, pred, list(product(dom, repeat=sig[pred]))))
                choice_lists = []
                for w, pred, tuples in slots:
                    options = []
                    for bits in range(1 << len(tuples)):
                        options.append(
                            frozenset(tuples[i] for i in range(len(tuples)) if bits >> i & 1)
                        )
                    choice_lists.append(options)
                for choices in product(*choice_lists):
                    interp = {
                        (w, pred): chosen
                        for (w, pred, _), chosen in zip(slots, choices)
                        if chosen
                    }
                    yield KripkeModel(worlds, rel, dict(domains), interp, dict(sig))


def _candidate_rels(
    k: int, require: frozenset[str], max_height: Optional[int]
) -> list[frozenset[tuple[int, int]]]:
    pairs = [(a, b) for a in range(k) for b in range(k)]
    out = []
    for bits in range(1 << len(pairs)):
        rel = frozenset(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
        if "irreflexive" in require and any(a == b for a, b in rel):
            continue
        succ: dict[int, list[int]] = {w: [] for w in range(k)}
        for a, b in rel:
            succ[a].append(b)
        if "transitive" in require and any((a, c) not in rel for a, b in rel for c in succ[b]):
            continue
        if max_height is not None:
            heights = _heights(range(k), succ)
            if heights is None or max(heights.values()) > max_height:
                continue
        out.append(rel)
    return out


# ---------------------------------------------------------------------------
# Model file format

def format_model(m: KripkeModel) -> str:
    """Serialize a model to the line format understood by parse_model."""
    if tuple(m.worlds) != tuple(range(len(m.worlds))):
        raise ModelError("only models with worlds numbered 0..n-1 can be serialized")
    lines = [f"worlds: {len(m.worlds)}"]
    for a, b in sorted(m.rel):
        lines.append(f"edge: {a} {b}")
    for w in m.worlds:
        doms = " ".join(sorted(m.domains[w], key=_const_key))
        lines.append(f"domain: {w} {doms}")
    for (w, pred) in sorted(m.interp, key=lambda k: (k[0], k[1])):
        for tup in sorted(m.interp[(w, pred)]):
            lines.append(f"fact: {w} {pred} {' '.join(tup)}")
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
