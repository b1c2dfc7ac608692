"""Model checking, frame analysis, generation, and file format tests."""

from __future__ import annotations

import dataclasses
import hashlib
import random
import re
from itertools import product

import pytest

from modalfix import kripke
from modalfix.kripke import (
    BoundExplosionError,
    EvalError,
    GenError,
    KripkeModel,
    ModelError,
    ModelGenSpec,
    ModelPool,
    batch_truth_masks,
    check_tables,
    enumerate_models,
    eval_formula,
    first_failing_world,
    format_model,
    frame_report,
    generated_submodel,
    parse_model,
    random_model,
    truth_mask,
    valid_in_model,
    validate_model,
)
from modalfix.countermodel import chain_model
from modalfix.syntax import FALSE, TRUE, And, Atom, Box, Const, Not, Or, Top, parse, universal_closure
from test_acceptance import TARGETS, equation_for, target_stages


def two_chain() -> KripkeModel:
    """1 sees 0, expanding domain, P true of a at both worlds."""
    return KripkeModel(
        worlds=(0, 1),
        rel=frozenset({(1, 0)}),
        domains={0: frozenset({"a", "b"}), 1: frozenset({"a"})},
        interp={(0, "P"): frozenset({("a",)}), (1, "P"): frozenset({("a",)})},
        sig={"P": 1},
    )


def test_validate_clean_model():
    assert validate_model(two_chain()) == []


def test_validate_reports_violations():
    m = two_chain()
    bad = KripkeModel(
        worlds=(0, 1),
        rel=frozenset({(1, 0), (1, 2)}),
        domains={0: frozenset({"a"}), 1: frozenset({"a", "b"})},
        interp={(0, "Q"): frozenset({("a",)}), (1, "P"): frozenset({("a", "b")})},
        sig=m.sig,
    )
    msgs = "\n".join(validate_model(bad))
    assert "edge" in msgs  # endpoint 2 is not a world
    assert "b" in msgs  # domain of 1 not contained in domain of 0
    assert "Q" in msgs  # undeclared predicate
    assert "arity" in msgs  # P is unary but gets a pair
    assert validate_model(KripkeModel((), frozenset(), {}, {}, {})) != []


def test_replace_gives_a_model_with_cold_caches():
    m = two_chain()
    assert m.successors(1) == (0,)
    fields = {f.name for f in dataclasses.fields(m)}
    assert set(vars(m)) > fields
    fresh = dataclasses.replace(m)
    assert fresh == m and set(vars(fresh)) == fields


def test_eval_formula_basics():
    m = two_chain()
    assert eval_formula(m, 0, parse("P(u)"), {"u": "a"})
    assert not eval_formula(m, 0, parse("P(u)"), {"u": "b"})
    assert eval_formula(m, 0, parse("exists u. ~P(u)"))
    assert not eval_formula(m, 1, parse("exists u. ~P(u)"))
    assert eval_formula(m, 1, parse("box forall u. (P(u) | ~P(u))"))
    # Box quantifies over successors only; world 0 has none.
    assert eval_formula(m, 0, parse("box false"))
    assert not eval_formula(m, 1, parse("box false"))


def test_eval_formula_expanding_domain_quantifier():
    m = two_chain()
    # At 1 the quantifier ranges over {a} only, and box P(a) holds below.
    assert eval_formula(m, 1, parse("forall u. box P(u)"))
    assert not eval_formula(m, 1, parse("box forall u. P(u)"))


def test_eval_formula_strict_errors():
    m = two_chain()
    with pytest.raises(EvalError):
        eval_formula(m, 0, parse("P(u)"))  # unbound variable
    with pytest.raises(EvalError):
        eval_formula(m, 0, parse("#p"))  # propositional hole has no truth value
    with pytest.raises(EvalError):
        eval_formula(m, 1, parse("P(b)"))  # constant b missing from domain of 1
    with pytest.raises(EvalError):
        eval_formula(m, 7, parse("true"))  # unknown world
    with pytest.raises(EvalError):
        eval_formula(m, 0, parse("P(u)"), {"u": "z"})  # env value outside domain


def test_validity_uses_universal_closure():
    m = two_chain()
    assert valid_in_model(m, parse("P(u) | ~P(u)"))
    assert not valid_in_model(m, parse("P(u)"))
    assert first_failing_world(m, parse("P(u)")) == 0
    assert first_failing_world(m, parse("P(u) | ~P(u)")) is None


def test_mask_evaluator_takes_sentences_only():
    m = two_chain()
    with pytest.raises(EvalError, match="^unbound variable u$"):
        truth_mask(m, parse("P(u)"))
    with pytest.raises(EvalError, match="^unbound variable u$"):
        batch_truth_masks(m, [parse("true"), parse("box P(w) | P(u)")])
    with pytest.raises(EvalError, match="^unbound variable v$"):
        truth_mask(m, parse("exists u. (P(u) & P(v))"))


def test_masks_ignore_facts_at_unknown_worlds():
    m = two_chain()
    stray = dataclasses.replace(m, interp={**m.interp, (2, "P"): frozenset({("a",), ("b",)})})
    sentences = [
        parse(text)
        for text in ("forall u. P(u)", "exists u. ~P(u)", "box forall u. P(u)", "~box false")
    ]
    masks = batch_truth_masks(m, sentences)
    assert masks == [0b10, 0b01, 0b01, 0b10]
    assert batch_truth_masks(stray, sentences) == masks
    assert [truth_mask(stray, f) for f in sentences] == masks


def test_validity_with_constants_checks_every_world_strictly():
    # Constants enter formulas through the AST, not the surface grammar.
    m = two_chain()
    assert valid_in_model(m, Atom("P", (Const("a"),)))
    # b exists only at world 0, so the sentence has no value at world 1.
    with pytest.raises(EvalError):
        valid_in_model(m, Atom("P", (Const("b"),)))


def test_a_constant_missing_from_any_world_is_an_error():
    # P(1) is never read at world 2, which has no successors, but 1 is
    # still outside its domain.
    with pytest.raises(EvalError, match="^constant 1 is outside the domain of world 2$"):
        first_failing_world(chain_model(2), Box(Atom("P", (Const("1"),))))
    # The least missing constant (shortest first), at the first world of
    # m.worlds that lacks it.
    m = KripkeModel(
        worlds=(2, 0, 1),
        rel=frozenset(),
        domains={2: frozenset({"aa"}), 0: frozenset({"b"}), 1: frozenset({"aa", "b"})},
        interp={},
        sig={"P": 1},
    )
    f = And(Atom("P", (Const("aa"),)), Atom("P", (Const("b"),)))
    for check in (truth_mask, valid_in_model, first_failing_world):
        with pytest.raises(EvalError, match="^constant b is outside the domain of world 2$"):
            check(m, f)


def test_worlds_without_a_domain_raise_eval_error():
    m = KripkeModel((0,), frozenset(), {}, {}, {})
    for check in (truth_mask, valid_in_model, first_failing_world):
        with pytest.raises(EvalError, match="^unknown world 0$"):
            check(m, parse("true"))
    # So do a reachable world without a domain, and an unknown start.
    no_domain = dataclasses.replace(two_chain(), domains={1: frozenset({"a"})})
    with pytest.raises(EvalError, match="^unknown world 0$"):
        generated_submodel(no_domain, 1)
    with pytest.raises(EvalError, match="^unknown world 9$"):
        generated_submodel(two_chain(), 9)


def test_edges_to_unknown_worlds_raise_eval_error():
    m = KripkeModel((0,), frozenset({(0, 1)}), {0: frozenset({"a"})}, {}, {})
    for check in (truth_mask, valid_in_model, first_failing_world):
        with pytest.raises(EvalError, match="^unknown world 1$"):
            check(m, parse("box true"))
    with pytest.raises(EvalError, match="^unknown world 1$"):
        ModelPool([two_chain(), m]).masks([parse("box true")])
    # Frame analysis names the world too, at either end of the edge.
    for rel, name in [({(1, 0), (0, 5)}, 5), ({(7, 1)}, 7)]:
        bad = dataclasses.replace(two_chain(), rel=frozenset(rel))
        for check in (lambda m: ModelPool([m]), frame_report, lambda m: generated_submodel(m, 1)):
            with pytest.raises(EvalError, match=f"^unknown world {name}$"):
                check(bad)


def test_pool_checks_sentences_model_by_model():
    # b is missing at world 1 of the first model and at world 7 of the
    # second; the first model in the pool decides.
    other = KripkeModel((7,), frozenset(), {7: frozenset({"a"})}, {}, {"P": 1})
    f = Atom("P", (Const("b"),))
    with pytest.raises(EvalError, match="^constant b is outside the domain of world 1$"):
        ModelPool([two_chain(), other]).masks([f])
    with pytest.raises(EvalError, match="^constant b is outside the domain of world 7$"):
        ModelPool([other, two_chain()]).masks([f])
    empty = ModelPool([])
    assert empty.masks([f]) == [0]
    assert empty.split(0) == [] and empty.first_failing(0) is None


def test_first_failing_passes_over_models_with_no_worlds():
    # box box false holds at both worlds of the 1-chain and fails only at
    # world 2 of the 2-chain, listed first so that it takes the offset the
    # empty model before it shares.
    empty = KripkeModel((), frozenset(), {}, {}, {})
    fails = dataclasses.replace(chain_model(2), worlds=(2, 0, 1))
    pool = ModelPool([chain_model(1), empty, fails])
    (mask,) = pool.masks([Box(Box(FALSE))])
    assert pool.split(mask) == [0b11, 0, 0b110]
    assert pool.first_failing(mask) == 2
    pool = ModelPool([empty, fails])
    assert pool.first_failing(pool.masks([Box(Box(FALSE))])[0]) == 1


def test_validity_and_first_failing_world_agree_off_monotone_models():
    # Constant a of world 0 is missing at its successor 1: the atom P(a)
    # is false there, as it is for any argument outside the domain.
    m = KripkeModel(
        worlds=(0, 1),
        rel=frozenset({(0, 1)}),
        domains={0: frozenset({"a"}), 1: frozenset({"b"})},
        interp={(0, "P"): frozenset({("a",)}), (1, "P"): frozenset({("b",)})},
        sig={"P": 1},
    )
    f = parse("forall u. box P(u)")
    assert valid_in_model(m, f) is False
    assert first_failing_world(m, f) == 0


def test_frame_report_two_chain():
    r = frame_report(two_chain())
    assert r.transitive and r.irreflexive and r.conversely_well_founded
    assert r.heights == {0: 0, 1: 1}
    assert r.frame_height == 1
    assert r.classes == ("FI", "FIFD", "FH")


def test_frame_report_reflexive_point_is_in_no_class():
    m = KripkeModel(
        worlds=(0,),
        rel=frozenset({(0, 0)}),
        domains={0: frozenset({"a"})},
        interp={},
        sig={"P": 1},
    )
    r = frame_report(m)
    assert r.transitive and not r.irreflexive and not r.conversely_well_founded
    assert r.heights is None and r.frame_height is None
    assert r.classes == ()


def test_frame_report_nontransitive():
    m = KripkeModel(
        worlds=(0, 1, 2),
        rel=frozenset({(2, 1), (1, 0)}),
        domains={w: frozenset({"a"}) for w in range(3)},
        interp={},
        sig={},
    )
    r = frame_report(m)
    assert not r.transitive
    assert r.conversely_well_founded
    assert r.frame_height == 2
    assert r.classes == ()


def _forward_chain(n: int) -> KripkeModel:
    """World i sees world i + 1 only."""
    return KripkeModel(
        worlds=tuple(range(n)),
        rel=frozenset((i, i + 1) for i in range(n - 1)),
        domains={w: frozenset({"a"}) for w in range(n)},
        interp={},
        sig={},
    )


def test_frame_report_long_chain_needs_no_recursion_depth():
    m = _forward_chain(1500)
    r = frame_report(m)
    assert r.conversely_well_founded and not r.transitive and r.irreflexive
    assert r.frame_height == 1499
    # Heights come by ascending height.
    assert list(r.heights.items()) == [(w, 1499 - w) for w in range(1499, -1, -1)]
    closed = dataclasses.replace(m, rel=m.rel | {(1499, 0)})
    assert frame_report(closed).heights is None
    # World n sees every m < n: 801 worlds and 320 400 edges.
    r = frame_report(chain_model(800))
    assert r.transitive and r.irreflexive and r.conversely_well_founded
    assert r.frame_height == 800
    assert list(r.heights.items()) == [(w, w) for w in range(801)]
    assert r.classes == ("FI", "FIFD", "FH")


def test_generated_submodel():
    m = KripkeModel(
        worlds=(0, 1, 2),
        rel=frozenset({(2, 0)}),
        domains={0: frozenset({"a"}), 1: frozenset({"a"}), 2: frozenset({"a"})},
        interp={(1, "P"): frozenset({("a",)})},
        sig={"P": 1},
    )
    sub = generated_submodel(m, 2)
    assert sub.worlds == (0, 2)
    assert sub.rel == frozenset({(2, 0)})
    assert (1, "P") not in sub.interp
    assert validate_model(sub) == []


def _closure(rel: frozenset[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    while True:
        more = {(a, d) for a, b in rel for c, d in rel if b == c} - rel
        if not more:
            return rel
        rel |= more


def _oracle_frame_report(worlds: tuple[int, ...], rel: frozenset[tuple[int, int]]) -> tuple:
    """Frame properties from sets of pairs alone: transitivity, loops, and
    heights as longest paths, with a cycle wherever the closure has a loop."""
    transitive = _closure(rel) == rel
    irreflexive = all(a != b for a, b in rel)
    heights = None
    if all(a != b for a, b in _closure(rel)):
        heights = {w: 0 for w in worlds}
        for _ in worlds:
            for a, b in rel:
                heights[a] = max(heights[a], heights[b] + 1)
    return transitive, irreflexive, heights


def test_frame_report_agrees_with_a_set_based_oracle():
    rng = random.Random(14)
    frames = []
    for _ in range(400):
        worlds = tuple(rng.sample(range(-3, 50), rng.randint(1, 7)))
        if rng.random() < 0.5:
            worlds = tuple(sorted(worlds))
        density = rng.choice([0.15, 0.4, 0.7])
        rel = frozenset((a, b) for a in worlds for b in worlds
                        if rng.random() < density and (a != b or rng.random() < 0.2))
        if rng.random() < 0.4:
            rel = _closure(rel)
        frames.append((worlds, rel))
    # World 0 reaches the 2-cycle of 1 and 2 without lying on it, and sees
    # world 3, of height 0, besides.
    frames.append(((0, 1, 2, 3), frozenset({(0, 1), (1, 2), (2, 1), (0, 3)})))
    # Depth-first from world 0 first, worlds would finish as 3, 4, 0, 2, 1.
    frames.append(((0, 1, 2, 3, 4), frozenset({(0, 4), (4, 3), (1, 2)})))
    frames.append(((5, 2, 9), frozenset()))
    frames.append(((2, 0, 3, 1), frozenset({(2, 3), (2, 1), (0, 1)})))
    reports = []
    for worlds, rel in frames:
        m = KripkeModel(worlds, rel, {w: frozenset({"a"}) for w in worlds}, {}, {})
        transitive, irreflexive, heights = _oracle_frame_report(worlds, rel)
        r = frame_report(m)
        assert (r.transitive, r.irreflexive, r.heights) == (transitive, irreflexive, heights)
        assert r.conversely_well_founded == (heights is not None)
        assert r.frame_height == (max(heights.values()) if heights else None)
        fi = ["FI", "FIFD"] if transitive and irreflexive else []
        assert r.classes == tuple(fi + (["FH"] if transitive and heights is not None else []))
        reports.append(r)
    # Heights are listed by ascending height, then id.
    assert [None if r.heights is None else list(r.heights.items()) for r in reports[-4:]] == [
        None,
        [(2, 0), (3, 0), (1, 1), (4, 1), (0, 2)],
        [(2, 0), (5, 0), (9, 0)],
        [(1, 0), (3, 0), (0, 1), (2, 1)],
    ]


# ---------------------------------------------------------------------------
# Random generation


def spec(**kw) -> ModelGenSpec:
    base = dict(
        world_count=(2, 4),
        height_bound=2,
        signature={"P": 1},
        require=frozenset({"transitive", "irreflexive"}),
        seed=7,
    )
    base.update(kw)
    return ModelGenSpec(**base)


def test_random_model_deterministic():
    a, b = random_model(spec()), random_model(spec())
    assert a == b
    assert random_model(spec(seed=8)) != a


def test_random_model_postconditions():
    for seed in range(30):
        m = random_model(spec(seed=seed))
        assert validate_model(m) == []
        assert 2 <= len(m.worlds) <= 4
        r = frame_report(m)
        assert r.transitive and r.irreflexive
        assert r.frame_height is not None and r.frame_height <= 2
        assert m.sig == {"P": 1}
    for seed in range(5):
        m = random_model(spec(world_count=(30, 60), height_bound=5, seed=seed))
        assert frame_report(m).transitive


def _pinned_specs():
    sigs = [{"P": 1}, {"P": 1, "R": 2}, {"Q": 0, "P": 1}, {}]
    requires = [frozenset(), frozenset({"transitive"}), frozenset({"irreflexive"}),
                frozenset({"transitive", "irreflexive"})]
    for i in range(300):
        yield ModelGenSpec(
            world_count=(1 + i % 3, 3 + i % 13 + (60 if i % 50 == 0 else 0)),
            height_bound=i % 5,
            signature=sigs[i % 4],
            domain_base_size=(1, 1 + i % 3),
            domain_growth=(0, i % 3),
            truth_density=(0.5, 0.2, 0.8)[i % 3],
            require=requires[(i // 4) % 4],
            seed=i,
        )


def test_random_models_are_pinned():
    # The digest of these 300 models as generated before domain sizes
    # were read from predecessor lists: the draws and their order stay.
    digest = hashlib.md5()
    for s in _pinned_specs():
        digest.update(format_model(random_model(s)).encode())
    assert digest.hexdigest() == "397d3c73e97f725282ea08ef09638848"


def test_random_model_respects_domain_ranges():
    m = random_model(spec(domain_base_size=(3, 3), domain_growth=(0, 0), seed=1))
    roots = [w for w in m.worlds if not any(a == w for a, _ in m.rel)]
    assert all(len(m.domains[w]) >= 3 for w in roots)


def test_random_model_rejects_bad_spec():
    with pytest.raises(GenError):
        random_model(spec(world_count=(3, 2)))
    with pytest.raises(GenError):
        random_model(spec(truth_density=1.5))
    with pytest.raises(GenError):
        random_model(spec(require=frozenset({"serial"})))
    # Over the 10^7 budget: raised before any tuple is drawn.
    with pytest.raises(BoundExplosionError):
        random_model(spec(signature={"P": 30}, domain_base_size=(2, 2)))
    with pytest.raises(BoundExplosionError):
        random_model(spec(signature={"P": 10**9}, domain_base_size=(2, 2)))
    # Over the budget in world pairs: raised before any level is drawn.
    with pytest.raises(BoundExplosionError, match="world pairs"):
        random_model(spec(world_count=(4000, 4000)))
    with pytest.raises(GenError, match="^predicate arities must be >= 0$"):
        random_model(spec(signature={"P": 1, "Q": -1}))


def test_domain_constants_and_tuple_elements_share_the_budget(monkeypatch):
    # Both generators count the names of their domains and the elements of
    # their tuples, a nullary tuple as one, against one budget: one
    # constant with a long arity and large domains with no predicates are
    # over it as surely as many tuples are.
    monkeypatch.setattr(kripke, "_BUDGET", 1000)
    over = "^domain constants and predicate tuple elements exceed"
    one = dict(world_count=(1, 1), height_bound=0, domain_base_size=(1, 1))
    assert random_model(spec(**one, signature={"P": 999})).interp.keys() <= {(0, "P")}
    with pytest.raises(BoundExplosionError, match=over):
        random_model(spec(**one, signature={"P": 1000}))
    three = dict(world_count=(3, 3), height_bound=0, signature={})
    assert len(random_model(spec(**three, domain_base_size=(333, 333))).domains[2]) == 333
    with pytest.raises(BoundExplosionError, match=over):
        random_model(spec(**three, domain_base_size=(334, 334)))
    assert next(enumerate_models(1, 1, {"P": 999})).sig == {"P": 999}
    with pytest.raises(BoundExplosionError, match=over):
        next(enumerate_models(1, 1, {"P": 1000}))
    # Enumeration builds its fact options once per nonempty subset of the
    # constants: 7 * 2^6 names for 7 of them, 8 * 2^7 for 8.
    assert len(next(enumerate_models(1, 7, {}, require={"irreflexive"})).domains[0]) == 1
    with pytest.raises(BoundExplosionError, match=over):
        next(enumerate_models(1, 8, {}, require={"irreflexive"}))


# ---------------------------------------------------------------------------
# Exhaustive enumeration


def test_enumerate_count_one_world_irreflexive():
    models = list(enumerate_models(1, 1, {"P": 1}, require={"irreflexive"}))
    assert len(models) == 2
    assert all(validate_model(m) == [] for m in models)


def test_enumerate_count_two_worlds_no_predicates():
    models = list(enumerate_models(2, 1, {}, require={"irreflexive"}))
    assert len(models) == 5
    assert sum(1 for m in models if len(m.worlds) == 2) == 4


def test_enumerate_count_against_combinatorial_oracle():
    # One world, irreflexive: only the empty relation. Each domain D over
    # {c0, c1} contributes 2**|D| interpretations of a unary predicate.
    models = list(enumerate_models(1, 2, {"P": 1}, require={"irreflexive"}))
    assert len(models) == 2 + 2 + 4
    # Dropping irreflexivity doubles the relation choices for one world.
    assert len(list(enumerate_models(1, 2, {"P": 1}))) == 2 * 8


def test_enumerate_yields_each_model_once():
    models = list(enumerate_models(2, 1, {"P": 1}, require={"transitive", "irreflexive"}))
    keys = {
        (m.worlds, m.rel, tuple(sorted(m.domains.items())), tuple(sorted(m.interp.items())))
        for m in models
    }
    assert len(keys) == len(models)
    assert all(validate_model(m) == [] for m in models)


def test_enumerate_max_height_filter():
    flat = list(enumerate_models(2, 1, {}, require={"irreflexive"}, max_height=0))
    assert all(not m.rel for m in flat)
    assert len(flat) == 2  # one world, and two worlds with no edges


def test_enumerate_deterministic_order():
    first = next(enumerate_models(2, 2, {"P": 1}, require={"irreflexive"}))
    again = next(enumerate_models(2, 2, {"P": 1}, require={"irreflexive"}))
    assert first == again
    assert first.worlds == (0,) and not first.rel


def test_enumerate_bound_explosion():
    with pytest.raises(BoundExplosionError):
        list(enumerate_models(6, 2, {"P": 2}))
    with pytest.raises(GenError):
        list(enumerate_models(0, 1, {}))
    with pytest.raises(GenError, match="^predicate arities must be >= 0$"):
        next(enumerate_models(1, 1, {"P": -1}))
    # The estimate caps its exponents; uncapped, these would build ints of
    # about 2**(2**64) bits before comparing them with the budget.
    for args in [(1, 2, {"P": 64}), (1, 64, {"P": 1}), (2, 64, {"P": 64}), (1, 2, {"P": 10**9})]:
        with pytest.raises(BoundExplosionError, match="^estimated model count exceeds 10\\^7 at 1 worlds$"):
            next(enumerate_models(*args))


_FI = ("transitive", "irreflexive")


_PINNED_ENUMERATIONS = [
    ((3, 2, {"P": 1}), {"max_height": 0}, 584, "9b53b39b653cace9f0e9aedb90e15694"),
    ((3, 2, {"P": 1}), {"max_height": 1}, 4024, "71d4d12e065762a74160425895ccf177"),
    ((3, 2, {"P": 1}), {"max_height": 2}, 6136, "30d6cdbde58dd489df2cdbe897329dd6"),
    ((3, 2, {"P": 1}), {"max_height": 3}, 6136, "30d6cdbde58dd489df2cdbe897329dd6"),
    ((2, 2, {"P": 1}), {"require": ("irreflexive",)}, 176, "3bdcdcdad0255c04d33dd50f846fa900"),
    ((4, 1, {"R": 0}), {"require": _FI}, 3670, "b90c9796d553f0ed7a85b06e2dd794e0"),
    ((2, 1, {"P": 1, "Q": 1, "R": 0}), {"require": ("transitive",)}, 848, "6234c11b514129d4854258e977deece6"),
    ((3, 1, {"P": 1, "Q": 1}), {"max_height": 2}, 1652, "2bdac6b4042d46dc643611c7c19a0e19"),
    ((2, 2, {"S": 2}), {"max_height": 1}, 1076, "c313b26e7c4e4d135848ac5497f4ad65"),
]
_PINNED_IDS = ["P-h0", "P-h1", "P-h2", "P-h3", "P-irreflexive", "R0-FI", "PQR0-transitive", "PQ-h2", "S2-h1"]


@pytest.mark.parametrize("args, kw, count, pinned", _PINNED_ENUMERATIONS, ids=_PINNED_IDS)
def test_enumeration_stream_is_pinned(args, kw, count, pinned):
    # The digest of each model in turn, with the key order of its domains
    # and facts, as enumerated when frames were built from sets of pairs.
    digest = hashlib.md5()
    n = 0
    for m in enumerate_models(*args, **kw):
        digest.update(format_model(m).encode())
        digest.update(repr((list(m.domains), list(m.interp), m.sig)).encode())
        n += 1
    assert (n, digest.hexdigest()) == (count, pinned)


def _shape(m: KripkeModel) -> tuple:
    return format_model(m), list(m.domains), list(m.interp), m.sig


def _assert_same_pool(fed: ModelPool, models: list[KripkeModel]) -> None:
    """fed, a pool built from tables, has the tables of ModelPool(models),
    makes no model until asked, and then makes the generator's models."""
    built = ModelPool(models)
    fields = ("offsets", "const_masks", "fact_masks", "down", "up", "consts", "present", "all_mask")
    assert [getattr(fed, f) for f in fields] == [getattr(built, f) for f in fields]
    assert fed._models is None
    if models:
        assert _shape(fed.model(len(models) - 1)) == _shape(models[-1])
    assert fed.models == tuple(models)
    assert [_shape(m) for m in fed.models] == [_shape(m) for m in models]


@pytest.mark.parametrize("args, kw", [(a, kw) for a, kw, _, _ in _PINNED_ENUMERATIONS], ids=_PINNED_IDS)
def test_enumerated_tables_feed_the_pool_of_the_models(args, kw):
    fed = ModelPool._of_tables(kripke._enumerated_tables(*args, **kw))
    _assert_same_pool(fed, list(enumerate_models(*args, **kw)))


def test_random_tables_feed_the_pool_of_the_models():
    specs = list(_pinned_specs())
    fed = ModelPool._of_tables(t for s in specs for t in kripke._random_tables(s, [s.seed]))
    _assert_same_pool(fed, [random_model(s) for s in specs])
    # One Random seeded again for each seed gives the models of Random(seed).
    for s in specs[::25]:
        seeds = range(s.seed, s.seed + 12)
        fed = ModelPool._of_tables(kripke._random_tables(s, seeds))
        _assert_same_pool(fed, [random_model(dataclasses.replace(s, seed=x)) for x in seeds])


def test_check_tables_lets_earlier_models_decide():
    # The sentence has no constants, as every equation the CLI checks.
    a = frozenset({"a"})
    fails = KripkeModel((0,), frozenset(), {0: a}, {}, {"P": 1})
    holds = KripkeModel((0,), frozenset(), {0: a}, {(0, "P"): frozenset({("a",)})}, {"P": 1})
    sentence = parse("forall u. P(u)")

    def then_raise(models):
        yield from models
        raise GenError("no more models")

    assert check_tables(then_raise(map(kripke._model_table, [holds, fails])), [sentence]) == (1, fails, 0)
    with pytest.raises(GenError):
        check_tables(then_raise(map(kripke._model_table, [holds, holds])), [sentence])


def test_check_tables_counts_models_across_chunks():
    # Three worlds a model, so no chunk ends on a multiple of 1024 worlds;
    # the failing model lies in the third chunk.
    a = frozenset({"a"})
    facts = {(w, "P"): frozenset({("a",)}) for w in range(3)}
    holds = KripkeModel((0, 1, 2), frozenset({(0, 1), (1, 2)}), {0: a, 1: a, 2: a}, facts, {"P": 1})
    fails = dataclasses.replace(holds, interp={**facts, (2, "P"): frozenset({("b",)})})
    sentence = parse("box forall u. P(u)")
    assert 700 * 3 > 2 * kripke._CHUNK_WORLDS
    stream = [holds] * 700 + [fails] + [holds] * 99
    assert check_tables(map(kripke._model_table, stream), [sentence]) == (700, fails, 0)
    assert check_tables(map(kripke._model_table, [holds] * 800), [sentence]) == (800, None, None)


def test_check_tables_reports_the_first_failing_model_then_sentence():
    a = frozenset({"a"})

    def point(*preds: str) -> KripkeModel:
        return KripkeModel((0,), frozenset(), {0: a}, {(0, p): frozenset({()}) for p in preds}, {"R": 0, "S": 0})

    both, only_r, neither = point("R", "S"), point("R"), point()
    r, s = Atom("R"), Atom("S")
    for lead in ([], [both] * 1500):
        n = len(lead)

        def check(models, sentences):
            return check_tables(map(kripke._model_table, lead + models), sentences)

        # S fails first, so it is reported though R fails at a later model.
        assert check([both, only_r, neither], [r, s]) == (n + 1, only_r, 1)
        # Both fail at the first failing model: the first of them is reported.
        assert check([neither, only_r], [r, s]) == (n, neither, 0)
        assert check([neither, only_r], [s, r]) == (n, neither, 0)
        assert check([both, only_r], [r, Or(r, s)]) == (n + 2, None, None)
    # Within a pool, a sentence that cannot be evaluated raises as
    # ModelPool.masks does, though another fails at an earlier model.
    has_b = dataclasses.replace(neither, domains={0: frozenset({"a", "b"})})
    with pytest.raises(EvalError, match="^constant b is outside the domain of world 0$"):
        check_tables(map(kripke._model_table, [has_b, both]), [r, Atom("P", (Const("b"),))])


def _check_by_reference(tables: list[tuple], sentences: list) -> tuple:
    for j, table in enumerate(tables):
        m = kripke._table_model(table)
        for i, s in enumerate(sentences):
            if not all(eval_formula(m, w, s) for w in m.worlds):
                return j, m, i
    return len(tables), None, None


def test_check_tables_agrees_with_reference_over_long_streams():
    spec = ModelGenSpec(world_count=(1, 4), height_bound=2, signature={"P": 1, "Q": 1})
    streams = [
        list(kripke._enumerated_tables(3, 2, {"P": 1}, max_height=2)),
        list(kripke._random_tables(spec, range(900))),
    ]
    sentences = [
        universal_closure(parse(text))
        for text in (
            "box box box false",
            "box box false",
            "P(u) -> box P(u)",
            "exists u. P(u) | box exists v. ~P(v)",
            "box (exists u. P(u) -> box false)",
        )
    ]
    for tables in streams:
        assert sum(len(t[0]) for t in tables) > 2 * kripke._CHUNK_WORLDS
        for start in (0, 500, 1200):
            for group in ([0], [1], [0, 1], [3, 1], [4, 0], [2, 4, 1]):
                chosen = [sentences[i] for i in group]
                assert check_tables(tables[start:], chosen) == _check_by_reference(tables[start:], chosen)


def test_capped_estimate_keeps_every_verdict():
    # The uncapped estimate, computed here on inputs whose exponents are at
    # most 10^5, so that its ints take kilobytes.
    frames = {k: len(kripke._candidate_rels(k, frozenset(), None)) for k in (1, 2, 3)}
    for max_worlds, max_domain, arities in product((1, 2, 3), (1, 2, 3, 5, 8, 24, 30), [(), (0,), (1,), (2,), (1, 2), (2, 3)]):
        sig = {f"P{i}": a for i, a in enumerate(arities)}
        estimate, over = 0, None
        for k in range(1, max_worlds + 1):
            exponent = k * sum(max_domain**a for a in arities)
            assert exponent <= 10**5
            estimate += frames[k] * (2**max_domain - 1) ** k * 2**exponent
            if estimate > 10**7:
                over = k
                break
        if over is None:
            assert next(enumerate_models(max_worlds, max_domain, sig)).worlds == (0,)
        else:
            with pytest.raises(BoundExplosionError, match=f" at {over} worlds$"):
                next(enumerate_models(max_worlds, max_domain, sig))


# ---------------------------------------------------------------------------
# Model files


def test_model_round_trip():
    m = two_chain()
    assert parse_model(format_model(m)) == m


def test_parse_model_ignores_comments_and_blanks():
    text = "# headline\n\nworlds: 1\ndomain: 0 a\n"
    m = parse_model(text)
    assert m.worlds == (0,)
    assert m.domains == {0: frozenset({"a"})}
    assert m.sig == {}


def test_parse_model_rejects_malformed_input():
    with pytest.raises(ModelError):
        parse_model("domain: 0 a\n")  # missing worlds header
    with pytest.raises(ModelError):
        parse_model("worlds: 1\ndomain: 0 a\nedge: 0 x\n")
    with pytest.raises(ModelError):
        parse_model("worlds: 1\ndomain: 0 a\nsize: 3\n")
    with pytest.raises(ModelError):
        parse_model("worlds: 1\ndomain: 0 a\ndomain: 0 b\n")
    with pytest.raises(ModelError):
        parse_model("worlds: 1\ndomain: 0 a\nfact: 0 P a\nfact: 0 P a a\n")


def test_parse_model_rejects_semantic_violations():
    # Well formed lines, but the domain shrinks along the edge.
    text = "worlds: 2\nedge: 0 1\ndomain: 0 a b\ndomain: 1 a\nfact: 0 P a\n"
    with pytest.raises(ModelError):
        parse_model(text)


def test_format_model_is_sorted_and_stable():
    m = two_chain()
    text = format_model(m)
    assert text == format_model(parse_model(text))
    lines = text.splitlines()
    assert lines[0] == "worlds: 2"
    assert "domain: 0 a b" in lines


def test_format_model_rejects_what_parse_model_would():
    # Each of these, printed, would be a file that parse_model rejects or
    # reads back as another model.
    m = two_chain()
    bad = [
        (dataclasses.replace(m, domains={1: frozenset({"a"})}), "^domain: world 0 has no domain$"),
        (dataclasses.replace(m, rel=frozenset({(1, 0), (0, 5)})), r"^edge: \(0, 5\) mentions an unknown world$"),
        (dataclasses.replace(m, interp={**m.interp, (5, "P"): frozenset({("c0",)})}),
         "^fact: unknown world 5 for predicate P$"),
        (KripkeModel((), frozenset(), {}, {}, {}), "^worlds: model has no worlds$"),
        (dataclasses.replace(m, domains={0: frozenset({"a"}), 1: frozenset()}), "^domain: world 1 has an empty domain$"),
        (dataclasses.replace(m, domains={0: frozenset({"a"}), 1: frozenset({"a", "b", "cc"})}),
         r"^monotonicity: edge \(1, 0\) loses constants b, cc$"),
        (dataclasses.replace(m, interp={**m.interp, (1, "P"): frozenset({("a",), ("b",)})}),
         r"^fact: P\('b',\) at world 1 uses constants outside the domain$"),
        (dataclasses.replace(m, interp={**m.interp, (0, "P"): frozenset({("a",), ("a", "b")})}),
         r"^fact: P\('a', 'b'\) at world 0 has arity 2, expected 1$"),
        (dataclasses.replace(m, sig={}), "^fact: undeclared predicate P at world 0$"),
        (dataclasses.replace(m, domains={**m.domains, 5: frozenset({"b"})}), "^domain: entry for unknown world 5$"),
        (dataclasses.replace(m, interp={**m.interp, (1, "P"): frozenset()}),
         "^fact: empty set of facts for predicate P at world 1$"),
    ]
    # Names that parse_model would split differently: "a b" would read
    # back as two constants and a binary P.
    for name in ["a b", "", " a", "a\n", "a\tb", "a\u2028b"]:
        bad.append((KripkeModel((0, 1), frozenset({(1, 0)}), {0: frozenset({"a", name}), 1: frozenset({name})},
                                {(1, "P"): frozenset({(name,)})}, {"P": 1}),
                    f"^constant: name {re.escape(repr(name))} is empty or holds whitespace$"))
        bad.append((dataclasses.replace(m, interp={(0, name): frozenset({("a",)})}, sig={name: 1}),
                    f"^predicate: name {re.escape(repr(name))} is empty or holds whitespace$"))
    for model, message in bad:
        with pytest.raises(ModelError, match=message):
            format_model(model)
    assert parse_model(format_model(m)) == m


def _with_facts_only_in_sig(m: KripkeModel) -> KripkeModel:
    """m with only the sig entries of predicates that have facts, which is
    all that a model file tells."""
    used = {pred for _, pred in m.interp}
    return dataclasses.replace(m, sig={p: a for p, a in m.sig.items() if p in used})


def test_generated_models_read_back_as_themselves():
    for args, kw, _, _ in _PINNED_ENUMERATIONS[::2]:
        for m in enumerate_models(*args, **kw):
            assert parse_model(format_model(m)) == _with_facts_only_in_sig(m)
    for s in _pinned_specs():
        m = random_model(s)
        assert parse_model(format_model(m)) == _with_facts_only_in_sig(m)
    for k in (0, 1, 5, 30):
        m = chain_model(k)
        assert parse_model(format_model(m)) == m


class Stray(Top):
    """A node of no formula class."""


def test_folding_keeps_every_error():
    # Each sentence folds to true, yet the node that the unfolded sentence
    # cannot evaluate still raises, as does its widest node's budget.
    m = chain_model(2)
    for text in ("true | #p", "#p -> true", "box true | ~#p"):
        with pytest.raises(EvalError, match="^propositional variable #p has no truth value in a model$"):
            truth_mask(m, parse(text))
    atoms = " & ".join(f"P(x{i})" for i in range(24))
    two = KripkeModel((0,), frozenset(), {0: frozenset({"c0", "c1"})}, {}, {"P": 1})
    # In the second, every node with more than one variable folds at once.
    for text in (f"{atoms} -> true", f"false & {atoms}"):
        with pytest.raises(BoundExplosionError, match=r"^2\^24 variable assignments to evaluate exceed 10\^7$"):
            truth_mask(two, universal_closure(parse(text)))
    for f in (Or(TRUE, Stray()), Or(Box(TRUE), Not(Stray()))):
        with pytest.raises(TypeError, match="^not a formula: "):
            truth_mask(m, f)


def test_staged_equations_fold_to_fewer_instructions():
    # The stages replace the boxes at depth n by true, so folding removes
    # more than half of the instructions, and half of the equations fold
    # to the one instruction true.
    programs = [kripke._program(equation_for(parse(text), target_stages(text)[n])) for n in range(4) for text in TARGETS]
    assert sum(len(code) for code, _ in programs) == 641
    assert sum(len(code) == 1 and code[0][0] is Top for code, _ in programs) == 56


def test_formulas_of_any_depth_evaluate_on_every_entry_point():
    # ~ ... ~box false with 975 and with 100 000 negations, built directly:
    # parsing them needs more stack than a test has left. The evaluator
    # runs each sentence as a postorder program, so depth needs no stack.
    m = chain_model(1)
    full = (1 << len(m.worlds)) - 1
    box_false = truth_mask(m, Box(FALSE))
    assert box_false not in (0, full)
    f = Box(FALSE)
    depth = 0
    for target in (975, 100_000):
        while depth < target:
            f = Not(f)
            depth += 1
        want = box_false ^ full if depth % 2 else box_false
        assert truth_mask(m, f) == want
        assert batch_truth_masks(m, [f]) == [want]
        assert ModelPool([m, m]).masks([f]) == [want | want << len(m.worlds)]
        assert valid_in_model(m, f) is False
        missing = ~want & full
        assert first_failing_world(m, f) == m.worlds[(missing & -missing).bit_length() - 1]


def test_assignments_over_the_budget_raise_bound_explosion(monkeypatch):
    # A node with k free variables over n constants needs n^k masks.
    m = KripkeModel((0,), frozenset(), {0: frozenset(f"c{i}" for i in range(10))},
                    {(0, "P"): frozenset({("c0",), ("c3",)})}, {"P": 1})
    eight = universal_closure(parse(" & ".join(f"P(x{i})" for i in range(8))))
    with pytest.raises(BoundExplosionError, match=r"^10\^8 variable assignments to evaluate exceed 10\^7$"):
        valid_in_model(m, eight)
    # At 10^2 assignments a budget of 100 is enough and 99 is not.
    two = parse("forall u. forall v. (P(u) -> P(v))")
    monkeypatch.setattr(kripke, "_BUDGET", 100)
    assert truth_mask(m, two) == int(eval_formula(m, 0, two))
    monkeypatch.setattr(kripke, "_BUDGET", 99)
    with pytest.raises(BoundExplosionError, match=r"^10\^2 "):
        truth_mask(m, two)
    # Sentences are checked in order: the first one at fault decides the error.
    with pytest.raises(EvalError, match="unbound variable u"):
        batch_truth_masks(m, [parse("P(u)"), two])
    with pytest.raises(BoundExplosionError):
        batch_truth_masks(m, [two, parse("P(u)")])
