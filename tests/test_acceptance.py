"""Acceptance suite.

Each test covers one acceptance criterion end to end and prints a
single "criterion N: PASS" line with the check counts it performed.
The model tables of the pools and exhaustive enumerations are made once,
cached at module level, and shared between criteria.
"""

from __future__ import annotations

import random
import subprocess
import sys
from functools import cache

from modalfix.countermodel import (
    candidate_equation,
    chain_model,
    eval_infinite_chain,
    refute_fixpoint,
    refutation_target,
)
from modalfix.fixpoint import b_n_transform, boolean_sigma_fixpoint, fixpoint_qk
from modalfix.kripke import (
    KripkeModel,
    ModelGenSpec,
    ModelPool,
    _enumerated_tables,
    _model_table,
    _random_tables,
    check_tables,
    enumerate_models,
    eval_formula,
    frame_report,
    valid_in_model,
    validate_model,
)
from modalfix.syntax import (
    And,
    Atom,
    Box,
    Const,
    Exists,
    FALSE,
    FixpointTarget,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    TRUE,
    Var,
    boxdot,
    boxes,
    iff,
    is_sigma,
    occurrence_depths,
    parse,
    subst_at_depths,
    subst_prop,
    truncate,
    universal_closure,
)

WORKED = "box (#p -> forall u. (Q(u) -> box #p))"

# Closed targets, each with every hole occurrence under at least one box.
TARGETS = [
    "~box #p",
    "box #p",
    "forall u. box (#p -> P(u))",
    "exists u. box (#p & P(u))",
    WORKED,
    "box ~#p",
    "box box #p",
    "box (#p -> box #p)",
    "box #p & box ~#p",
    "box #p | box ~#p",
    "box (#p -> R)",
    "box (R -> #p)",
    "~box ~#p",
    "box #p -> box box #p",
    "box (#p | ~#p)",
    "box ((#p -> R) & (R -> #p))",
    "forall u. box (P(u) | #p)",
    "exists u. box (P(u) -> #p)",
    "box forall u. (P(u) -> box #p)",
    "box exists u. (P(u) & #p)",
    "~box exists u. (#p & Q(u))",
    "box #p -> forall u. box (#p -> Q(u))",
    "box (box #p -> #p)",
    "box ~box #p",
    "box box ~#p",
    "box (#p -> box ~#p)",
    "forall u. box (Q(u) -> #p)",
    "box (exists u. P(u) -> #p)",
]

# Boolean combinations of guarded parts and hole free parts.
SIGMA_TARGETS = [
    "~box #p",
    "box #p",
    "box ~#p",
    "box #p -> R",
    "R -> box #p",
    "box #p & box ~#p",
    "box #p | box ~#p",
    "~(box #p & box ~#p)",
    "box (#p & R)",
    "box (#p -> R) -> R",
    "exists u. box (#p & P(u))",
    "(exists u. box (#p & P(u))) -> forall v. P(v)",
    "box box #p",
    "box (#p | box #p)",
    "~box ~#p",
    "box #p -> box box #p",
    "(box #p & R) | box ~#p",
]

# Closed sentences generated from boxes by &, | and exists.
SIGMA_SENTENCES = [
    "box true",
    "box false",
    "box ~true",
    "box (exists u. P(u))",
    "box forall u. P(u)",
    "box R",
    "box (R -> exists u. Q(u))",
    "exists u. box P(u)",
    "exists u. (box P(u) | box Q(u))",
    "exists u. (box P(u) & box ~Q(u))",
    "box true & box false",
    "box true | box false",
    "box box false",
    "box (box false | R)",
    "exists u. exists v. box (P(u) & Q(v))",
    "box exists u. (P(u) & Q(u))",
    "(box false & box true) | exists u. box P(u)",
    "box ~box false",
    "exists u. box (P(u) -> Q(u))",
    "box (forall u. P(u) | R)",
    "exists u. (box P(u) | box false)",
]


@cache
def exhaustive(n: int) -> list[tuple]:
    return list(_enumerated_tables(3, 2, {"P": 1}, max_height=n))


@cache
def pool_any(n: int) -> list[tuple]:
    spec = ModelGenSpec(world_count=(1, 4), height_bound=n, signature={"P": 1, "Q": 1})
    return list(_random_tables(spec, range(n * 1000, n * 1000 + 1000)))


@cache
def pool_trans_irrefl() -> list[tuple]:
    spec = ModelGenSpec(
        world_count=(1, 5),
        height_bound=3,
        signature={"P": 1, "Q": 1},
        require=frozenset({"transitive", "irreflexive"}),
    )
    return list(_random_tables(spec, range(50_000, 51_000)))


def _reflexive_extras() -> tuple[KripkeModel, ...]:
    a = frozenset({"a"})
    ab = frozenset({"a", "b"})
    point = KripkeModel((0,), frozenset({(0, 0)}), {0: a}, {}, {"P": 1, "Q": 1})
    chain = KripkeModel(
        (0, 1),
        frozenset({(0, 0), (1, 1), (1, 0)}),
        {0: ab, 1: a},
        {(0, "P"): frozenset({("a",)})},
        {"P": 1, "Q": 1},
    )
    cluster = KripkeModel(
        (0, 1),
        frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}),
        {0: a, 1: a},
        {(1, "Q"): frozenset({("a",)})},
        {"P": 1, "Q": 1},
    )
    for m in (point, chain, cluster):
        assert validate_model(m) == []
        assert frame_report(m).transitive
    return (point, chain, cluster)


@cache
def pool_transitive() -> list[tuple]:
    """Transitive models: the seeded pool plus reflexive hand-built ones."""
    return pool_trans_irrefl() + [_model_table(m) for m in _reflexive_extras()]


def all_valid(tables: list[tuple], sentences) -> int:
    """Number of (model, sentence) checks performed; asserts all valid."""
    count, m, s = check_tables(tables, sentences)
    assert m is None, f"model {count} fails {sentences[s]}"
    return count * len(sentences)


def equation_for(f: Formula, result: Formula) -> Formula:
    return universal_closure(iff(result, subst_prop(f, "p", result)))


@cache
def target_stages(text: str) -> tuple[Formula, ...]:
    return fixpoint_qk(FixpointTarget(parse(text), "p"), 3).stages


def test_criterion_1_worked_example_identities():
    a = parse(WORKED)
    assert truncate(a, 0) == TRUE
    assert truncate(a, 1) == parse("box (#p -> forall u. (Q(u) -> true))")
    b0, b1, b2 = Atom("B0"), Atom("B1"), Atom("B2")
    assert subst_at_depths(a, "p", [b0, b1, b2]) == Box(
        Implies(b1, Forall("u", Implies(Atom("Q", (Var("u"),)), Box(b2))))
    )
    print("criterion 1: PASS (truncation and depth substitution identities)")


def test_criterion_2_staged_fixed_point_equations():
    checks = 0
    for n in range(4):
        equations = [
            equation_for(parse(text), target_stages(text)[n]) for text in TARGETS
        ]
        checks += all_valid(exhaustive(n), equations)
        checks += all_valid(pool_any(n), equations)
    print(
        f"criterion 2: PASS ({len(TARGETS)} targets, n in 0..3, "
        f"{checks} model checks, zero failures)"
    )


def test_criterion_3_truncation_and_stage_agreement():
    box_free_subs = [Atom("R"), TRUE, Atom("B1"), FALSE, Atom("B2")]
    for text in TARGETS:
        f = parse(text)
        deepest = max(occurrence_depths(f, "p"))
        for n in range(5):
            assert all(d <= n for d in occurrence_depths(truncate(f, n), "p"))
            for m in range(n, 5):
                assert truncate(truncate(f, m), n) == truncate(f, n)
                if m < deepest:
                    continue  # too few substituends to rewrite f itself
                left = truncate(subst_at_depths(f, "p", box_free_subs[: m + 1]), n)
                right = subst_at_depths(truncate(f, n), "p", box_free_subs[: n + 1])
                assert left == right, (text, n, m)

    # Truth value agreement at worlds of low height: a sentence against its
    # truncations, late stages against earlier ones, and the staged rewrite
    # of b against direct substitution of the staged fixed point.
    b_corpus = [parse(t) for t in ["#p", "box #p", "~#p", "box false", "#p & box #p"]]
    plans = []
    for text in TARGETS:
        f = parse(text)
        stages = target_stages(text)
        sent = subst_prop(f, "p", parse("box false"))
        truncs = [truncate(sent, n) for n in range(4)]
        rewrites = [
            [b_n_transform(b, "p", stages[: n + 1]) for n in range(4)] for b in b_corpus
        ]
        substs = [[subst_prop(b, "p", stages[m]) for m in range(4)] for b in b_corpus]
        batch = [sent, *truncs, *stages]
        for per_b in rewrites:
            batch += per_b
        for per_b in substs:
            batch += per_b
        plans.append((batch, len(b_corpus)))

    # low[n] is the mask of the worlds of height at most n over the whole
    # pool: each model's worlds in order, the models one after another.
    pool = ModelPool._of_tables(exhaustive(3))
    low = [0] * 4
    pos = 0
    for model in pool.models:
        heights = frame_report(model).heights
        assert heights is not None
        for w in model.worlds:
            for n in range(heights[w], 4):
                low[n] |= 1 << pos
            pos += 1
    checks = 0
    for batch, n_bs in plans:
        masks = pool.masks(batch)
        sent_mask, trunc_masks, stage_masks = masks[0], masks[1:5], masks[5:9]
        rest = masks[9:]
        rewrite_masks = [rest[i * 4 : i * 4 + 4] for i in range(n_bs)]
        subst_masks = [
            rest[(n_bs + i) * 4 : (n_bs + i) * 4 + 4] for i in range(n_bs)
        ]
        for n in range(4):
            assert (sent_mask ^ trunc_masks[n]) & low[n] == 0
            for m in range(n, 4):
                assert (stage_masks[m] ^ stage_masks[n]) & low[n] == 0
                for i in range(n_bs):
                    assert (rewrite_masks[i][n] ^ subst_masks[i][m]) & low[n] == 0
                    # One agreement per model of the pool.
                    checks += len(pool.models)
    print(
        f"criterion 3: PASS (structural identities for {len(TARGETS)} targets, "
        f"{checks} low-height rewrite agreements, zero failures)"
    )


def random_chain_sentence(rng: random.Random, k: int) -> Formula:
    def go(depth: int, bound: tuple[str, ...]) -> Formula:
        r = rng.random()
        if depth == 0 or r < 0.25:
            c = rng.random()
            if c < 0.12:
                return TRUE
            if c < 0.24:
                return FALSE
            if bound and rng.random() < 0.6:
                return Atom("P", (Var(rng.choice(bound)),))
            return Atom("P", (Const(str(rng.randint(k, k + 2))),))
        if r < 0.4:
            return Not(go(depth - 1, bound))
        if r < 0.55:
            return And(go(depth - 1, bound), go(depth - 1, bound))
        if r < 0.65:
            return Or(go(depth - 1, bound), go(depth - 1, bound))
        if r < 0.75:
            return Implies(go(depth - 1, bound), go(depth - 1, bound))
        if r < 0.87:
            return Box(go(depth - 1, bound))
        var = rng.choice(("u", "v"))
        quant = Forall if rng.random() < 0.5 else Exists
        return quant(var, go(depth - 1, bound + (var,)))

    return universal_closure(go(3, ()))


def test_criterion_4_chain_countermodels():
    for k in range(7):
        m = chain_model(k)
        assert validate_model(m) == []
        assert "FIFD" in frame_report(m).classes

    rng = random.Random(4)
    sentences = 0
    comparisons = 0
    while sentences < 520:
        k = rng.randint(0, 4)
        f = random_chain_sentence(rng, k)
        m = chain_model(k)
        for n in range(k + 1):
            assert eval_formula(m, n, f) == eval_infinite_chain(n, f), (k, n, str(f))
            comparisons += 1
        sentences += 1

    def parity_sentence(k: int) -> Formula:
        parts = [And(boxes(e + 1, FALSE), Not(boxes(e, FALSE))) for e in range(0, k + 1, 2)]
        out = parts[0]
        for part in parts[1:]:
            out = Or(out, part)
        return out

    target = refutation_target()
    staged = [fixpoint_qk(target, n).result for n in range(5)]
    candidates = [parse("true"), parse("false"), parse("box false"), parse("~box false")]
    candidates += [parity_sentence(k) for k in range(5)] + staged
    parity_hits = 0
    for b in candidates:
        equation = candidate_equation(b)
        for k in range(7):
            m = chain_model(k)
            if valid_in_model(m, equation):
                assert all(eval_formula(m, n, b) == (n % 2 == 0) for n in m.worlds)
                parity_hits += 1
    assert parity_hits > 0

    assert refute_fixpoint(parse("true")) == 1
    assert refute_fixpoint(parse("false")) == 0
    assert refute_fixpoint(parse("box false")) == 2
    assert refute_fixpoint(parse("~box false")) == 0
    for n in range(5):
        found = refute_fixpoint(staged[n])
        assert found == n + 1 and found <= 8
    print(
        f"criterion 4: PASS (chains validate, {sentences} sentences with "
        f"{comparisons} world comparisons agree, {parity_hits} parity rows, "
        "all candidates refuted)"
    )


def test_criterion_5_guarded_fixed_points():
    equations = []
    for text in SIGMA_TARGETS:
        f = parse(text)
        result = boolean_sigma_fixpoint(FixpointTarget(f, "p")).result
        equations.append(equation_for(f, result))
    checks = all_valid(pool_trans_irrefl(), equations)

    self_prover = []
    for text in SIGMA_SENTENCES:
        s = parse(text)
        assert is_sigma(s)
        self_prover.append(universal_closure(Implies(s, Box(s))))
    checks += all_valid(pool_transitive(), self_prover)

    classic = boolean_sigma_fixpoint(FixpointTarget(parse("~box #p"), "p")).result
    reference = parse("~box false")
    fi = ModelPool(enumerate_models(3, 2, {"P": 1}, require={"transitive", "irreflexive"}))
    a, b = fi.masks([classic, reference])
    assert a == b
    print(
        f"criterion 5: PASS ({len(SIGMA_TARGETS)} targets and "
        f"{len(SIGMA_SENTENCES)} self-provers, {checks} model checks, "
        f"classical case matches on {len(fi.models)} enumerated models)"
    )


def test_criterion_6_substitution_and_uniqueness():
    a_corpus = [parse(t) for t in TARGETS[:10]]
    pairs = [
        (TRUE, parse("box false")),
        (parse("box false"), parse("box ~true")),
        (parse("forall u. P(u)"), parse("~exists u. ~P(u)")),
        (parse("R"), parse("exists u. Q(u)")),
        (FALSE, parse("box false & ~box false")),
    ]
    substitution = []
    for a in a_corpus:
        for f, g in pairs:
            consequent = iff(subst_prop(a, "p", f), subst_prop(a, "p", g))
            substitution.append(
                universal_closure(Implies(boxdot(iff(f, g)), consequent))
            )
            # The plain box antecedent suffices for these targets because
            # the hole only occurs under boxes.
            substitution.append(
                universal_closure(Implies(Box(iff(f, g)), consequent))
            )
    checks = all_valid(pool_transitive(), substitution)

    uniqueness = []
    nonvacuous = []
    fix_pairs = pairs + [
        (
            boolean_sigma_fixpoint(FixpointTarget(parse("~box #p"), "p")).result,
            parse("~box false"),
        )
    ]
    for a in a_corpus:
        for f0, f1 in fix_pairs:
            antecedent = And(
                boxdot(iff(subst_prop(a, "p", f0), f0)),
                boxdot(iff(subst_prop(a, "p", f1), f1)),
            )
            prop = universal_closure(Implies(antecedent, iff(f0, f1)))
            uniqueness.append(prop)
            nonvacuous.append(universal_closure(antecedent))
    checks += all_valid(pool_trans_irrefl(), uniqueness)
    head = ModelPool._of_tables(pool_trans_irrefl()[:50])
    hits = sum(1 for mask in head.masks(nonvacuous) for part in head.split(mask) if part)
    assert hits > 0
    print(
        f"criterion 6: PASS ({checks} model checks, zero failures, "
        f"{hits} nonvacuous antecedent hits)"
    )


def test_criterion_7_soundness_regression():
    xs = [TRUE, parse("box false"), parse("forall u. P(u)"), parse("exists u. (P(u) & Q(u))"), parse("R"), parse("~box false")]
    k_instances = [
        universal_closure(Implies(Box(Implies(x, y)), Implies(Box(x), Box(y))))
        for x in xs
        for y in (xs[1], xs[2], xs[5])
    ]
    checks = all_valid(pool_any(3), k_instances)
    checks += all_valid(pool_trans_irrefl(), k_instances)

    four_instances = [universal_closure(Implies(Box(x), Box(Box(x)))) for x in xs]
    checks += all_valid(pool_transitive(), four_instances)

    loeb_instances = [
        universal_closure(Implies(Box(Implies(Box(x), x)), Box(x))) for x in xs
    ]
    checks += all_valid(pool_trans_irrefl(), loeb_instances)

    reflexive_point = KripkeModel(
        (0,), frozenset({(0, 0)}), {0: frozenset({"a"})}, {}, {"P": 1}
    )
    loeb_x = Forall("u", Atom("P", (Var("u"),)))
    assert not valid_in_model(
        reflexive_point, Implies(Box(Implies(Box(loeb_x), loeb_x)), Box(loeb_x))
    )

    for m in ModelPool._of_tables(pool_any(3)[:200]).models:
        h = frame_report(m).frame_height
        assert h is not None
        assert valid_in_model(m, boxes(h + 1, FALSE))
        assert not valid_in_model(m, boxes(h, FALSE))
        checks += 2
    print(
        f"criterion 7: PASS ({checks} model checks, "
        "reflexive point refutes the induction axiom)"
    )


def test_criterion_8_cli_determinism(tmp_path):
    model = tmp_path / "m.model"
    commands = [
        ("mk", "--k", "3", "--out", str(model)),
        ("fixpoint", "--logic", "qk-bot", "--n", "2", WORKED, "--format", "lines"),
        ("fixpoint", "--logic", "qgl-sigma", "~box #p", "--format", "lines"),
        ("check", "box false", "--model", str(model), "--frame", "--format", "lines"),
        (
            "verify-fixpoint", "~box #p", "--n", "1", "--max-worlds", "2",
            "--max-domain", "1", "--random", "25", "--seed", "9", "--format", "lines",
        ),
        ("refute", "box false", "--k-max", "4", "--format", "lines"),
        (
            "gen-model", "--worlds", "2:4", "--height", "2", "--pred", "P:1",
            "--require", "transitive,irreflexive", "--seed", "3",
        ),
        ("mk", "--k", "2"),
    ]
    for args in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "modalfix", *args],
                capture_output=True,
                text=True,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0, runs[0].stderr
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout, args
    print(f"criterion 8: PASS ({len(commands)} commands byte-identical on rerun)")
