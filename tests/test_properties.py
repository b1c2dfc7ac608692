"""Property-based tests over randomly generated formulas and models."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import random
import re
import tempfile
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from modalfix import cli, kripke
from modalfix.countermodel import chain_model, eval_infinite_chain
from modalfix.fixpoint import boolean_sigma_fixpoint
from modalfix.kripke import (
    KripkeModel,
    ModelError,
    ModelGenSpec,
    ModelPool,
    batch_truth_masks,
    eval_formula,
    first_failing_world,
    format_model,
    generated_submodel,
    parse_model,
    random_model,
    truth_mask,
    validate_model,
)
from modalfix.syntax import (
    And,
    Atom,
    Bottom,
    Box,
    Const,
    Exists,
    FixpointTarget,
    Forall,
    Formula,
    Implies,
    LogicError,
    Not,
    Or,
    PropVar,
    Top,
    Var,
    decompose_boolean_sigma,
    format_formula,
    free_and_bound_vars,
    is_modalized,
    is_sigma,
    normalize_variables,
    occurrence_depths,
    parse,
    subst_at_depths,
    subst_prop,
    truncate,
    universal_closure,
)
from test_acceptance import SIGMA_TARGETS

VARS = ("u", "v", "w")


def formulas(
    with_hole: bool = True,
    with_quantifiers: bool = True,
    with_boxes: bool = True,
    preds: tuple[tuple[str, int], ...] = (("P", 1), ("Q", 1), ("R", 0)),
) -> st.SearchStrategy[Formula]:
    leaves = [st.just(Top()), st.just(Bottom())]
    for name, arity in preds:
        if arity == 0:
            leaves.append(st.just(Atom(name)))
        else:
            leaves.append(
                st.tuples(*[st.sampled_from(VARS)] * arity).map(
                    lambda args, name=name: Atom(name, tuple(Var(a) for a in args))
                )
            )
    if with_hole:
        leaves.append(st.just(PropVar("p")))

    def extend(children: st.SearchStrategy[Formula]) -> st.SearchStrategy[Formula]:
        options = [
            children.map(Not),
            st.tuples(children, children).map(lambda t: And(*t)),
            st.tuples(children, children).map(lambda t: Or(*t)),
            st.tuples(children, children).map(lambda t: Implies(*t)),
        ]
        if with_boxes:
            options.append(children.map(Box))
        if with_quantifiers:
            options.append(
                st.tuples(st.sampled_from(VARS), children).map(lambda t: Forall(*t))
            )
            options.append(
                st.tuples(st.sampled_from(VARS), children).map(lambda t: Exists(*t))
            )
        return st.one_of(options)

    return st.recursive(st.one_of(leaves), extend, max_leaves=12)


closed_box_free = formulas(
    with_hole=False, with_quantifiers=False, with_boxes=False, preds=(("R", 0), ("S0", 0))
)


@given(formulas())
def test_parse_print_round_trip(f: Formula):
    # Nodes are interned, so the text of a live formula parses back to it.
    assert parse(format_formula(f)) is f


@given(formulas())
def test_a_repeated_group_parses_to_one_node(f: Formula):
    # A group of enough tokens is recorded, and its second copy is taken
    # from it without being parsed again.
    text = format_formula(f)
    assume("(" in text)
    group = f"({text})"
    assert parse(f"{group} & {group}") is And(f, f)


# Runs of whitespace, from some of the characters str.split splits at.
WHITESPACE = st.text(alphabet=" \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000", min_size=1, max_size=3)


@given(formulas(), st.data())
def test_any_whitespace_between_tokens_parses(f: Formula, data):
    # Each space of the printed text becomes a drawn run of whitespace.
    # Two copies of a group that differ in their whitespace are parsed
    # each on its own, as neither repeats the other's text.
    def spaced() -> str:
        first, *rest = format_formula(f).split(" ")
        return first + "".join(data.draw(WHITESPACE) + p for p in rest)

    assert parse(spaced()) is f
    assert parse(f"({spaced()}) & ({spaced()})") is And(f, f)


# The tokens, as a stray character is defined by: whitespace separates
# them, and any other character that no token takes is stray.
TOKEN = re.compile(r"<->|->|[()&|~.,#]|[A-Z][A-Za-z0-9_]*|[a-z][a-z0-9_]*")


@given(st.text(alphabet="PQuv09_(),.#&|~<->é\xa0\t \n\r\x0b\x0c\x1c\x85\u2003\u3000\u200b", max_size=30))
def test_the_first_stray_character_is_reported(text: str):
    blanked = TOKEN.sub(lambda m: " " * len(m[0]), text)
    at = len(blanked) - len(blanked.lstrip())
    try:
        parse(text)
        error = ""
    except LogicError as e:
        error = str(e)
    if at < len(text):
        assert error == f"unexpected character {text[at]!r} (at position {at})"
    else:
        assert not error.startswith("unexpected character")


@given(formulas(), st.integers(0, 4))
def test_truncation_bounds_hole_depth(f: Formula, n: int):
    assert all(d <= n for d in occurrence_depths(truncate(f, n), "p"))


@given(formulas(), st.integers(0, 3), st.integers(0, 3))
def test_truncation_collapses(f: Formula, a: int, b: int):
    n, m = min(a, b), max(a, b)
    assert truncate(truncate(f, m), n) == truncate(f, n)


@given(formulas(), st.integers(0, 3), st.integers(0, 3), st.lists(closed_box_free, min_size=1, max_size=7))
def test_truncation_commutes_with_substitution(f, n, extra, subs):
    # Box free substituends keep the two operation orders aligned; a box
    # inside a substituend would be cut by the left hand truncation only.
    depths = occurrence_depths(f, "p")
    m = n + extra
    while len(subs) < m + 1:
        subs = subs + subs
    subs = subs[: m + 1]
    if any(d > m for d in depths):
        return
    left = truncate(subst_at_depths(f, "p", subs), n)
    right = subst_at_depths(truncate(f, n), "p", subs[: n + 1])
    assert left == right


@given(formulas())
def test_modalized_iff_all_depths_positive(f: Formula):
    assert is_modalized(f, "p") == all(d >= 1 for d in occurrence_depths(f, "p"))


@given(formulas(), closed_box_free)
def test_sigma_closed_under_substitution(f: Formula, b: Formula):
    if is_sigma(f):
        assert is_sigma(subst_prop(f, "p", b))


@given(formulas())
def test_normalize_separates_free_and_bound(f: Formula):
    t = normalize_variables(FixpointTarget(f, "p"))
    free, bound = free_and_bound_vars(t.formula)
    assert not free & bound


@given(formulas(with_hole=False), st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_normalize_preserves_truth(f: Formula, seed: int):
    m = random_model(
        ModelGenSpec(world_count=(1, 3), height_bound=2, signature={"P": 1, "Q": 1, "R": 0}, seed=seed)
    )
    g = normalize_variables(FixpointTarget(f, "p")).formula
    assert truth_mask(m, universal_closure(f)) == truth_mask(m, universal_closure(g))


def _rewrites_line(f: Formula) -> str:
    """normalize_variables and decompose_boolean_sigma of f, printed, or the
    error class and message."""
    target = FixpointTarget(f, "p")
    line = format_formula(normalize_variables(target).formula)
    try:
        d = decompose_boolean_sigma(target)
    except LogicError as e:
        return f"{line} | {type(e).__name__}: {e}"
    parts = [format_formula(d.skeleton), *map(format_formula, d.sigmas + d.rest)]
    return " | ".join([line, *parts, *d.sigma_vars, *d.rest_vars])


def _random_text(rng: random.Random, size: int) -> str:
    """A formula text over P, Q, R and #p with about size leaves, every
    binary connective in parentheses."""
    if size <= 1:
        return rng.choice(("true", "false", "R", "#p", "P({})", "Q({})")).format(rng.choice(VARS))
    op = rng.choice(("~", "box ", "dia ", "forall", "exists", "&", "|", "->", "<->"))
    if op in ("forall", "exists"):
        return f"{op} {rng.choice(VARS)}. {_random_text(rng, size - 1)}"
    if op in ("~", "box ", "dia "):
        return op + _random_text(rng, size - 1)
    k = rng.randint(1, size - 1)
    return f"({_random_text(rng, k)} {op} {_random_text(rng, size - k)})"


def test_normalize_and_decompose_outputs_are_pinned():
    # The digest was taken before formula nodes were interned. The inputs
    # come from a seeded generator, not from hypothesis, whose draws
    # change with its version and with how formulas compare.
    rng = random.Random(7)
    texts = [_random_text(rng, rng.randint(1, 12)) for _ in range(2000)]
    texts += ["(forall u. Q(v)) & P(u) & box #p", "forall u. (Q(u) & exists u. P(u)) & P(u)",
              "box forall u. (#p -> exists u. P(u)) & P(u) | R"]
    lines = [_rewrites_line(parse(text)) for text in texts]
    digest = hashlib.md5("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (2003, "2cf845aefa30d9dd5ddfa62f1fe890cd")


def _guarded_report(text: str) -> str:
    """The guarded fixed point report of text, as the CLI builds it, or the
    error class and message."""
    target = normalize_variables(FixpointTarget(parse(text), "p"))
    try:
        pairs = boolean_sigma_fixpoint(target).report_lines()
    except LogicError as e:
        return f"{type(e).__name__}: {e}"
    return " | ".join(f"{key}={value}" for key, value in pairs)


def test_guarded_reports_are_pinned():
    # The digest was taken before the guarded construction ran on explicit
    # stacks; it pins the results, the derivations and their order.
    rng = random.Random(12)
    texts = [_random_text(rng, rng.randint(1, 12)) for _ in range(2000)]
    texts += SIGMA_TARGETS
    texts += [" & ".join(f"~box (#p & P{i})" for i in range(k)) for k in range(1, 5)]
    lines = [_guarded_report(text) for text in texts]
    digest = hashlib.md5("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (2021, "ba6d9c30a7f2ade18a2b0109ce7b4e4c")


@given(formulas(with_hole=False), st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_mask_evaluator_agrees_with_reference(f: Formula, seed: int):
    m = random_model(
        ModelGenSpec(world_count=(1, 3), height_bound=2, signature={"P": 1, "Q": 1, "R": 0}, seed=seed)
    )
    closed = universal_closure(f)
    mask = truth_mask(m, closed)
    for i, w in enumerate(m.worlds):
        assert eval_formula(m, w, closed) == bool(mask >> i & 1)


@st.composite
def small_models(
    draw, constants: tuple[str, ...] = ("c0", "c1"), sig: tuple[tuple[str, int], ...] = (("P", 1), ("Q", 1), ("R", 0))
) -> KripkeModel:
    """Well formed models of 1 to 3 worlds, listed in any order, with any
    relation: self-loops and cycles included. Domains are drawn per world
    from constants and then grown along the edges until they are monotone;
    facts for the predicates of sig are drawn per world."""
    k = draw(st.integers(1, 3))
    worlds = tuple(draw(st.permutations(range(k))))
    rel = frozenset(draw(st.sets(st.tuples(st.sampled_from(worlds), st.sampled_from(worlds)))))
    domains = {w: frozenset(draw(st.sets(st.sampled_from(constants), min_size=1))) for w in worlds}
    changed = True
    while changed:
        changed = False
        for a, b in rel:
            if not domains[a] <= domains[b]:
                domains[b] |= domains[a]
                changed = True
    sig = dict(sig)
    interp = {}
    for w in worlds:
        for pred, arity in sig.items():
            tuples = list(product(sorted(domains[w]), repeat=arity))
            chosen = frozenset(draw(st.sets(st.sampled_from(tuples))))
            if chosen:
                interp[(w, pred)] = chosen
    return KripkeModel(worlds, rel, domains, interp, sig)


@given(
    small_models(),
    formulas(with_hole=False),
    formulas(with_hole=False),
    st.lists(st.integers(0, 3), min_size=2, max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_batch_masks_agree_with_reference_on_any_frame(m, f, g, picks):
    assert validate_model(m) == []
    # Sentences sharing the subformula objects f and g, open ones included.
    pool = [f, Not(f), And(f, g), Or(g, Box(f))]
    sentences = [universal_closure(pool[i]) for i in picks]
    masks = batch_truth_masks(m, sentences)
    for s, mask in zip(sentences, masks):
        for i, w in enumerate(m.worlds):
            assert eval_formula(m, w, s) == bool(mask >> i & 1)


def _check_pool_against_reference(pool: ModelPool, sentences: list[Formula]) -> None:
    for s, mask in zip(sentences, pool.masks(sentences)):
        truth = [[eval_formula(m, w, s) for w in m.worlds] for m in pool.models]
        assert pool.split(mask) == [sum(1 << i for i, t in enumerate(row) if t) for row in truth]
        failing = [j for j, row in enumerate(truth) if not all(row)]
        assert pool.first_failing(mask) == (failing[0] if failing else None)


NO_WORLDS = KripkeModel((), frozenset(), {}, {}, {})


@given(
    st.lists(st.one_of(small_models(), st.just(NO_WORLDS)), min_size=1, max_size=5),
    formulas(with_hole=False),
    formulas(with_hole=False),
)
@settings(max_examples=100, deadline=None)
def test_model_pool_agrees_with_reference_in_each_model(models, f, g):
    # Pools that mix model sizes, frames, world orders and models with no
    # worlds, checked as one disjoint union.
    pool = ModelPool(models)
    _check_pool_against_reference(pool, [universal_closure(h) for h in (f, Box(g), And(f, Not(g)))])
    # Then one sentence per call on the same pool. Each is built afresh and
    # dies before the next is built, so a new node may take a dead one's
    # address: a cache keyed by address that outlived its node would
    # answer for it.
    for make in (
        lambda: Or(g, Box(f)),
        lambda: And(f, Not(g)),
        lambda: Implies(Box(g), Or(f, Not(g))),
        lambda: Or(Not(f), Box(Box(g))),
    ):
        _check_pool_against_reference(pool, [universal_closure(make())])


FOUR_CONSTANTS = (("c0", "c1", "c2", "c3"), (("P", 1), ("S", 2), ("R", 0)))


@given(
    st.lists(small_models(*FOUR_CONSTANTS), min_size=1, max_size=3),
    formulas(with_hole=False, preds=FOUR_CONSTANTS[1]),
    formulas(with_hole=False, preds=FOUR_CONSTANTS[1]),
)
@settings(max_examples=100, deadline=None)
def test_model_pool_agrees_with_reference_over_four_constants(models, f, g):
    # With three or more constants, an assignment index that is wrong but
    # happens to be right for two constants shows; the binary S gives
    # subformulas whose variables are some of their parent's.
    pool = ModelPool(models)
    _check_pool_against_reference(
        pool, [universal_closure(h) for h in (f, And(f, g), Exists("v", Or(Box(f), g)))]
    )


def test_model_pool_edge_cases_agree_with_reference():
    m = KripkeModel(
        (0, 1, 2),
        frozenset({(0, 1), (0, 2), (1, 2)}),
        {0: frozenset({"c0"}), 1: frozenset({"c0", "c1", "c2"}), 2: frozenset({"c0", "c1", "c2"})},
        {(1, "P"): frozenset({("c0",), ("c2",)}), (2, "P"): frozenset({("c1",)}),
         (1, "S"): frozenset({("c0", "c1"), ("c2", "c2")}), (2, "S"): frozenset({("c1", "c0")})},
        {"P": 1, "S": 2},
    )
    sentences = [
        # A binder whose variable does not occur in its body.
        parse("forall u. exists v. box P(u)"),
        parse("exists u. forall v. forall w. S(w, u)"),
        # Shadowed binders.
        parse("exists u. forall u. P(u)"),
        parse("forall u. (P(u) -> exists u. (S(u, u) & box exists u. P(u)))"),
        parse("forall v. forall u. (S(u, v) -> exists v. S(v, u))"),
        # Children with two of their parent's three variables, in turn.
        parse("forall u. forall v. forall w. (S(u, w) -> S(w, v) | S(v, u))"),
        parse("exists w. forall u. exists v. (S(w, u) & (P(v) | S(v, w)))"),
        # Binders whose variable sorts before the other variable of their body.
        parse("forall w. exists u. S(u, w)"),
        parse("forall w. exists u. S(w, u)"),
    ]
    # S is not symmetric, and at the second world it is turned around.
    s = {("c0", "c1"), ("c0", "c2"), ("c1", "c2"), ("c2", "c2")}
    turned = KripkeModel((0, 1), frozenset(), {0: frozenset({"c0", "c1", "c2"}), 1: frozenset({"c0", "c1", "c2"})},
                         {(0, "S"): frozenset(s), (1, "S"): frozenset((b, a) for a, b in s)}, {"S": 2})
    _check_pool_against_reference(ModelPool([m, NO_WORLDS, turned, m]), sentences)
    # The empty pool: no worlds, no constants, and every mask empty.
    pool = ModelPool([])
    assert (pool.all_mask, pool.consts) == (0, [])
    assert pool.masks(sentences) == [0] * len(sentences)


# Closed sentences with boxes and quantifiers, and some with the constant
# c0, which the grammar does not write.
_P_C0 = Atom("P", (Const("c0"),))
_WITH_C0 = [Box(_P_C0), Exists("u", Box(Implies(Atom("P", (Var("u"),)), Box(_P_C0)))), Or(_P_C0, Box(Box(Bottom())))]
_WITHOUT = [parse(text) for text in (
    "forall u. box exists v. (P(u) | ~P(v))", "box box false", "exists u. ~box P(u)", "box forall u. P(u)",
    "forall u. box ~P(u)",
)]


def test_pools_of_runs_that_share_a_block_agree_with_reference():
    # The enumeration's tables of one frame and choice of domains share
    # their fields, so each such block is a run that the pool builds from
    # its first model; the reference evaluates each model of the pool,
    # made from its table, on its own.
    def same_block(s: tuple, t: tuple) -> bool:
        return s[0] is t[0] and s[1] is t[1] and s[2] is t[2]

    for max_domain, sentences in ((1, _WITH_C0 + _WITHOUT), (2, _WITHOUT)):
        tables = list(kripke._enumerated_tables(3, max_domain, {"P": 1}, max_height=2))
        cuts = [(0, 1), (1, 7), (5, 40), (37, 301), (290, 1000), (0, len(tables))]
        inside = [i for cut in cuts for i in cut if 0 < i < len(tables) and same_block(tables[i - 1], tables[i])]
        assert len(inside) >= 4  # chunks that start or end inside a block
        for i, j in cuts:
            _check_pool_against_reference(ModelPool._of_tables(tables[i:j]), sentences)
        # A block that recurs after another block.
        starts = [i for i in range(1, len(tables)) if not same_block(tables[i - 1], tables[i])]
        a, b = tables[starts[-1]:], tables[starts[-2]:starts[-1]]
        assert len(a) >= 4 and len(b) >= 4
        _check_pool_against_reference(ModelPool._of_tables(a[:2] + b + a[2:] + b[:1]), sentences)
    # One model object several times over, with and without worlds.
    m = KripkeModel((0, 1, 2), frozenset({(0, 1), (0, 2), (1, 2)}),
                    {0: frozenset({"c0"}), 1: frozenset({"c0", "c1"}), 2: frozenset({"c0", "c1"})},
                    {(1, "P"): frozenset({("c0",)}), (2, "P"): frozenset({("c1",)})}, {"P": 1})
    sentences = _WITH_C0 + _WITHOUT
    for models in ([m, m, m], [NO_WORLDS, NO_WORLDS], [NO_WORLDS, m, m, NO_WORLDS, NO_WORLDS, m]):
        _check_pool_against_reference(ModelPool(models), sentences)
    # Random tables never share a block.
    spec = ModelGenSpec(world_count=(1, 4), height_bound=2, signature={"P": 1}, domain_base_size=(1, 3))
    tables = list(kripke._random_tables(spec, range(60)))
    assert not any(map(same_block, tables, tables[1:]))
    _check_pool_against_reference(ModelPool._of_tables(tables), _WITHOUT)


def test_folding_leaves_what_depends_on_the_model():
    # exists u. true fails and forall u. false holds at a world with an
    # empty domain, and box false holds at a dead end, so none of them is
    # folded, alone or under a connective that is.
    empty = KripkeModel((0, 1), frozenset({(1, 0)}), {0: frozenset(), 1: frozenset()}, {}, {"P": 1})
    pool = ModelPool([empty, NO_WORLDS, chain_model(2), empty])
    unfolded = [parse(text) for text in ("exists u. true", "forall u. false", "box false")]
    assert [pool.split(mask)[0] for mask in pool.masks(unfolded)] == [0b00, 0b11, 0b01]
    texts = [
        "~exists u. true",
        "true -> forall u. false",
        "box false & true",
        "exists u. true | false",
        "box (box false -> false)",
        "forall u. (P(u) -> false) & exists v. (true -> true)",
        "exists u. (P(u) | true) -> forall v. (false & P(v))",
        "box forall u. exists v. ~false",
    ]
    _check_pool_against_reference(pool, unfolded + [parse(text) for text in texts])


def _segment_models() -> list[KripkeModel]:
    # 3 + 5 + 4 = 12 worlds, so a segment spans two bytes and ends in 4
    # unused bits. c0 and c2 are absent at some worlds; c1, which the
    # sentences name, is everywhere. The last model has an edge from its
    # first world to its last, the top world of the pool.
    everywhere = frozenset({"c1"})
    first = KripkeModel(
        (0, 1, 2),
        frozenset({(0, 1), (1, 2), (0, 2)}),
        {0: everywhere, 1: everywhere | {"c0"}, 2: everywhere | {"c0", "c2"}},
        {(1, "S"): frozenset({("c0", "c1"), ("c1", "c0")}), (2, "S"): frozenset({("c2", "c1"), ("c0", "c2")}),
         (2, "P"): frozenset({("c0",), ("c1",)})},
        {"P": 1, "S": 2},
    )
    second = KripkeModel(
        (4, 3, 2, 1, 0),
        frozenset({(4, 3), (3, 2), (2, 1), (1, 0), (4, 0)}),
        {4: everywhere | {"c2"}, 3: everywhere | {"c2"}, 2: everywhere | {"c0", "c2"},
         1: everywhere | {"c0", "c2"}, 0: everywhere | {"c0", "c2"}},
        {(4, "S"): frozenset({("c2", "c1"), ("c1", "c1")}), (3, "S"): frozenset({("c1", "c2")}),
         (1, "S"): frozenset({("c0", "c1"), ("c2", "c0")}), (0, "P"): frozenset({("c2",)}),
         (2, "P"): frozenset({("c0",), ("c1",), ("c2",)})},
        {"P": 1, "S": 2},
    )
    last = KripkeModel(
        (0, 1, 2, 3),
        frozenset({(0, 3), (1, 2)}),
        {0: everywhere, 1: everywhere | {"c0"}, 2: everywhere | {"c0", "c2"}, 3: everywhere | {"c2"}},
        {(3, "S"): frozenset({("c2", "c1"), ("c1", "c2")}), (3, "P"): frozenset({("c1",)}),
         (2, "S"): frozenset({("c0", "c1")}), (1, "P"): frozenset({("c0",)})},
        {"P": 1, "S": 2},
    )
    return [first, second, last]


U, V, W, C1 = Var("u"), Var("v"), Var("w"), Const("c1")


def S(a: Var | Const, b: Var | Const) -> Atom:
    return Atom("S", (a, b))


def test_open_values_keep_to_their_segments():
    pool = ModelPool(_segment_models())
    assert (len(pool.consts), pool.all_mask.bit_length()) == (3, 12)
    sentences = [
        # Box bodies with two and three free variables, whose binders come
        # in another order than their names.
        parse("forall w. forall u. forall v. box (S(v, w) | ~S(u, v))"),
        parse("exists v. exists u. box (S(u, v) & ~P(v))"),
        parse("exists w. forall v. exists u. box box (S(u, w) | S(w, v) & ~P(u))"),
        # Quantifier bodies with two and three free variables.
        parse("forall u. exists w. forall v. box (S(w, v) | exists x. (S(x, u) & P(w)))"),
        parse("exists v. forall w. (S(w, v) -> exists u. box (S(u, w) | S(v, u)))"),
        parse("forall w. forall v. exists u. (S(v, u) & ~S(u, w) | P(u))"),
        # A binder whose variable is not in its body, under open nodes.
        parse("forall u. forall v. (S(u, v) -> forall w. box S(v, u))"),
        parse("forall u. exists v. exists w. box (P(u) | S(v, v))"),
        # Open atoms with a constant argument (no text names a constant).
        Forall("u", Box(Implies(S(U, C1), Exists("v", S(V, U))))),
        Exists("u", Forall("v", Or(Or(S(U, C1), S(C1, V)), Not(Atom("P", (V,)))))),
    ]
    _check_pool_against_reference(pool, sentences)
    assert pool.masks(sentences) == [
        0b110111010111, 0b111010100100, 0b111111000110, 0b110110000100, 0b111111111101,
        0b101010100100, 0b111110100101, 0b110110010110, 0b110111111111, 0b110101011111,
    ]


def test_open_values_of_a_pool_without_constants_are_empty():
    # n = 0: an open value has no segments, and quantifiers range over
    # the empty domain.
    chain = KripkeModel((0, 1, 2), frozenset({(0, 1), (1, 2)}), {w: frozenset() for w in range(3)}, {}, {"S": 2})
    loop = KripkeModel((5,), frozenset({(5, 5)}), {5: frozenset()}, {}, {"S": 2})
    pool = ModelPool([chain, loop])
    assert pool.consts == []
    sentences = [
        parse("forall u. forall v. box S(u, v)"),
        parse("exists u. box forall v. S(u, v)"),
        parse("box exists u. forall v. (S(v, u) -> box S(u, v))"),
        parse("forall u. exists v. true"),
    ]
    _check_pool_against_reference(pool, sentences)
    assert pool.masks(sentences) == [0b1111, 0, 0b0100, 0b1111]


def test_open_atoms_are_tabulated_once_per_pool():
    models = _segment_models()
    first = [Forall("u", Implies(S(U, C1), Atom("P", (U,)))), Exists("v", Box(S(V, C1))),
             Forall("u", Exists("v", Or(S(U, V), S(V, C1))))]
    second = [Forall("w", Box(And(S(W, C1), Atom("P", (W,))))), Exists("u", Exists("v", And(S(V, C1), S(U, V))))]
    pool = ModelPool(models)
    got = pool.masks(first)
    # S(u, c1) and S(v, c1) are one atom with its variable in one place.
    assert set(pool.open_atoms) == {("S", (0, "c1")), ("P", (0,)), ("S", (0, 1))}
    assert got + pool.masks(second) == [ModelPool(models).masks([f])[0] for f in first + second]
    _check_pool_against_reference(pool, first + second)
    # Another pool, with other facts for the same atoms, has its own table.
    turned = [dataclasses.replace(m, interp={(w, p): frozenset(t[::-1] for t in ts) for (w, p), ts in m.interp.items()})
              for m in models]
    other = ModelPool(turned)
    assert other.open_atoms == {} and other.open_atoms is not pool.open_atoms
    _check_pool_against_reference(other, first + second)
    assert other.open_atoms[("S", (0, "c1"))] != pool.open_atoms[("S", (0, "c1"))]


@given(small_models(), formulas(with_hole=False))
@settings(max_examples=100, deadline=None)
def test_first_failing_world_agrees_with_reference_on_any_frame(m, f):
    closed = universal_closure(f)
    failing = [w for w in sorted(m.worlds) if not eval_formula(m, w, closed)]
    assert first_failing_world(m, f) == (failing[0] if failing else None)


@given(small_models(), formulas(with_hole=False))
@settings(max_examples=25, deadline=None)
def test_check_prints_the_reference_verdict_at_each_world(m, f):
    # Model files number their worlds 0..n-1 in order.
    m = dataclasses.replace(m, worlds=tuple(sorted(m.worlds)))
    text = format_formula(f)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.model"
        path.write_text(format_model(m), encoding="utf-8")
        out = io.StringIO()
        assert cli.main(["check", text, "--model", str(path)], out=out) == 0
    got = dict(line.split(": ", 1) for line in out.getvalue().splitlines())
    closed = universal_closure(parse(text))
    verdicts = [eval_formula(m, w, closed) for w in m.worlds]
    for w, value in zip(m.worlds, verdicts):
        assert got[f"world.{w}"] == str(value).lower()
    assert got["valid"] == str(all(verdicts)).lower()


@given(formulas(with_hole=False), st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_truth_is_local_to_the_generated_submodel(f: Formula, seed: int):
    m = random_model(
        ModelGenSpec(world_count=(2, 4), height_bound=2, signature={"P": 1, "Q": 1}, seed=seed)
    )
    closed = universal_closure(f)
    for w in m.worlds:
        sub = generated_submodel(m, w)
        assert validate_model(sub) == []
        assert eval_formula(m, w, closed) == eval_formula(sub, w, closed)


@given(st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_random_models_validate(seed: int):
    m = random_model(
        ModelGenSpec(
            world_count=(1, 5),
            height_bound=3,
            signature={"P": 1, "S": 2},
            require=frozenset({"transitive"}),
            seed=seed,
        )
    )
    assert validate_model(m) == []


BAD_NAMES = ("", "a b", " a", "a\n", "\u2028")


@st.composite
def faulty_models(draw) -> tuple[KripkeModel, list[tuple]]:
    """A model with worlds 0..n-1, drawn well formed as in small_models,
    and up to five faults for it. Each fault is a tuple of the edges it
    adds and the entries it sets in domains (None to delete one), interp
    and sig. The faults are an edge to world n; a missing, empty or stray
    domain; a domain that shrinks along an edge; a fact at world n, of an
    undeclared predicate, of the wrong arity or with a constant outside the
    domain; an empty set of facts; a constant or predicate name that is
    empty or holds whitespace."""
    m = draw(small_models(constants=("a", "b", "cc"), sig=(("P", 1), ("S", 2))))
    n = len(m.worlds)
    m = dataclasses.replace(m, worlds=tuple(range(n)))
    world = st.integers(0, n - 1)

    def fault(w: int, v: int, kind: str) -> tuple:
        dom, facts = m.domains[w], m.interp.get((w, "P"), frozenset())
        return {
            "edge": ({(w, n)}, {}, {}, {}),
            "no domain": (set(), {w: None}, {}, {}),
            "empty domain": (set(), {w: frozenset()}, {}, {}),
            "stray domain": (set(), {n + v % 2: frozenset({"a"})}, {}, {}),
            # w gains a constant that a world it sees lacks. The constant
            # is w's own, so that two shrinks along a cycle do not give
            # both worlds the same one and cancel.
            "shrink": ({(w, (w + 1 + v % (n - 1)) % n if n > 1 else n)}, {w: dom | {f"z{w}"}}, {}, {}),
            "fact world": (set(), {}, {(n, "P"): frozenset({("a",)})}, {}),
            "undeclared": (set(), {}, {(w, "T"): frozenset({("a",)})}, {}),
            "arity": (set(), {}, {(w, "P"): facts | {("a", "a")}}, {}),
            "outside": (set(), {}, {(w, "P"): facts | {("q",)}}, {}),
            "empty facts": (set(), {}, {(w, "PS"[v % 2]): frozenset()}, {}),
            "constant name": (set(), {w: dom | {BAD_NAMES[v % 5]}}, {}, {}),
            "predicate name": (set(), {}, {(w, BAD_NAMES[v % 5]): frozenset({()})}, {BAD_NAMES[v % 5]: 0}),
        }[kind]

    kinds = st.sampled_from(["edge", "no domain", "empty domain", "stray domain", "shrink", "fact world",
                             "undeclared", "arity", "outside", "empty facts", "constant name", "predicate name"])
    faults = draw(st.lists(st.builds(fault, world, st.integers(0, 9), kinds), max_size=5))
    return m, faults


def _with_faults(m: KripkeModel, faults: list[tuple]) -> KripkeModel:
    rel, domains, interp, sig = set(m.rel), dict(m.domains), dict(m.interp), dict(m.sig)
    for edges, doms, facts, preds in faults:
        rel |= edges
        domains.update(doms)
        interp.update(facts)
        sig.update(preds)
    domains = {w: dom for w, dom in domains.items() if dom is not None}
    return KripkeModel(m.worlds, frozenset(rel), domains, interp, sig)


# The parts of a model in the order in which validate_model reports them.
RULE_ORDER = ("worlds", "edge", "domain", "constant", "monotonicity", "predicate", "fact")


def _format_against_validate(m: KripkeModel) -> list[str]:
    """validate_model(m), once checked to be in RULE_ORDER and to be what
    format_model enforces: it raises the first violation, or prints a file
    that reads back as m, up to sig entries with no facts."""
    violations = validate_model(m)
    kinds = [RULE_ORDER.index(v.split(":")[0]) for v in violations]
    assert kinds == sorted(kinds), violations
    if violations:
        with pytest.raises(ModelError) as error:
            format_model(m)
        assert str(error.value) == violations[0]
    else:
        used = {pred for _, pred in m.interp}
        assert parse_model(format_model(m)) == dataclasses.replace(m, sig={p: a for p, a in m.sig.items() if p in used})
    return violations


@given(faulty_models())
@settings(max_examples=200, deadline=None)
def test_format_model_prints_exactly_what_validate_model_accepts(case):
    m, faults = case
    assert _format_against_validate(m) == []
    # Each fault alone, then all of them together.
    for some in [[f] for f in faults] + [faults] * bool(faults):
        assert _format_against_validate(_with_faults(m, some))


def _ranges(low: int, high: int) -> st.SearchStrategy[tuple[int, int]]:
    return st.lists(st.integers(low, high), min_size=2, max_size=2).map(lambda r: tuple(sorted(r)))


@st.composite
def model_specs(draw) -> ModelGenSpec:
    """Specs for random_model: valid ones, some over the tuple budget
    through arities 30 and 65, and ones with a field made invalid (an
    empty or negative range, a density outside [0, 1], an unknown
    requirement, a negative arity) or over the world pair budget."""
    signature = draw(st.dictionaries(st.sampled_from("PQRS"), st.sampled_from([0, 1, 1, 2, 3, 30, 65]), max_size=3))
    fields = {
        "world_count": draw(_ranges(1, 6)),
        "height_bound": draw(st.integers(0, 4)),
        "signature": signature,
        "domain_base_size": draw(_ranges(1, 3)),
        "domain_growth": draw(_ranges(0, 2)),
        "truth_density": draw(st.sampled_from([0.0, 0.3, 1.0])),
        "require": draw(st.frozensets(st.sampled_from(["transitive", "irreflexive"]))),
        "seed": draw(st.integers(0, 2**32)),
    }
    broken = draw(st.sampled_from([None] * 6 + [
        ("world_count", (3, 2)), ("world_count", (0, 2)), ("world_count", (4000, 4000)),
        ("height_bound", -1), ("domain_base_size", (0, 1)), ("domain_growth", (-1, 0)),
        ("truth_density", 1.5), ("require", frozenset({"serial"})), ("signature", {**signature, "N": -1}),
    ]))
    if broken:
        fields[broken[0]] = broken[1]
    return ModelGenSpec(**fields)


def _made(m: KripkeModel) -> tuple:
    return format_model(m), list(m.domains), list(m.interp), m.sig


@given(model_specs(), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_random_specs_give_a_valid_model_or_one_logic_error(spec: ModelGenSpec, count: int):
    # random_model on each seed in turn, up to its first error, against the
    # stream of tables for the same seeds, which ends at its first error.
    seeds = range(spec.seed, spec.seed + count)
    want = []
    for seed in seeds:
        try:
            m = random_model(dataclasses.replace(spec, seed=seed))
        except LogicError as e:
            want.append((type(e), str(e)))
            break
        assert validate_model(m) == []
        want.append(_made(m))
    got = []
    try:
        for table in kripke._random_tables(spec, seeds):
            got.append(_made(kripke._table_model(table)))
    except LogicError as e:
        got.append((type(e), str(e)))
    assert got == want


# ---------------------------------------------------------------------------
# Chain evaluation agreement


def chain_sentences(k: int) -> st.SearchStrategy[Formula]:
    """Closed P-sentences, possibly with numeric parameters valid at any
    world of chain_model(k) reachable from world k."""
    terms = st.one_of(
        st.sampled_from(VARS).map(Var),
        st.integers(k, k + 2).map(lambda i: Const(str(i))),
    )
    leaves = st.one_of(
        st.just(Top()),
        st.just(Bottom()),
        terms.map(lambda t: Atom("P", (t,))),
    )

    def extend(children):
        return st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda t: And(*t)),
            st.tuples(children, children).map(lambda t: Or(*t)),
            st.tuples(children, children).map(lambda t: Implies(*t)),
            children.map(Box),
            st.tuples(st.sampled_from(VARS), children).map(lambda t: Forall(*t)),
            st.tuples(st.sampled_from(VARS), children).map(lambda t: Exists(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=10).map(universal_closure)


@given(st.integers(0, 4).flatmap(lambda k: st.tuples(st.just(k), chain_sentences(k))))
@settings(max_examples=150, deadline=None)
def test_infinite_chain_agrees_with_finite_chain(case):
    k, f = case
    m = chain_model(k)
    for n in range(k + 1):
        # Parameters are >= k, hence inside every domain D_n of the chain.
        assert eval_formula(m, n, f) == eval_infinite_chain(n, f)
