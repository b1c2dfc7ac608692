"""Tests for the staged and guarded fixed point constructions."""

from __future__ import annotations

import pytest

from modalfix import fixpoint
from modalfix.fixpoint import (
    FixpointTrace,
    b_n_transform,
    boolean_sigma_fixpoint,
    fixpoint_qk,
    sigma_fixpoint,
    simultaneous_sigma_fixpoints,
)
from modalfix.kripke import KripkeModel, ModelPool, enumerate_models, first_failing_world
from modalfix.syntax import (
    FixpointTarget,
    NotDecomposableError,
    NotModalizedError,
    NotNormalizedError,
    NotSigmaError,
    OutputTooLargeError,
    TRUE,
    decompose_boolean_sigma,
    iff,
    parse,
    prop_vars,
    subst_prop,
    subst_prop_map,
)

WORKED = FixpointTarget(parse("box (#p -> forall u. (Q(u) -> box #p))"), "p")


def test_stage_zero_is_truncation_to_true():
    trace = fixpoint_qk(WORKED, 0)
    assert trace.stages == (TRUE,)
    assert trace.result == TRUE


def test_stage_one_worked_example():
    trace = fixpoint_qk(WORKED, 1)
    assert trace.stages[0] == TRUE
    assert trace.result == parse("box (true -> forall u. (Q(u) -> true))")


def test_stage_two_worked_example():
    trace = fixpoint_qk(WORKED, 2)
    assert trace.result == parse(
        "box (box (true -> forall u. (Q(u) -> true)) -> forall u. (Q(u) -> box true))"
    )
    # Earlier stages are prefixes of the construction, not recomputed.
    assert trace.stages[:2] == fixpoint_qk(WORKED, 1).stages


def test_negated_box_stages():
    target = FixpointTarget(parse("~box #p"), "p")
    trace = fixpoint_qk(target, 1)
    assert trace.stages == (parse("~true"), parse("~box ~true"))
    assert str(trace.result) == "~box ~true"
    assert fixpoint_qk(target, 2).result == parse("~box ~box ~true")


def test_hole_free_target_is_its_own_fixed_point():
    target = FixpointTarget(parse("box false"), "p")
    trace = fixpoint_qk(target, 2)
    assert trace.stages == (parse("box false"),) * 3
    assert trace.result == parse("box false")


def test_fixpoint_qk_rejects_bad_input():
    with pytest.raises(NotModalizedError):
        fixpoint_qk(FixpointTarget(parse("#p -> box #p"), "p"), 1)
    with pytest.raises(NotNormalizedError):
        fixpoint_qk(FixpointTarget(parse("box ((forall u. Q(u)) & Q(u) & #p)"), "p"), 1)
    with pytest.raises(ValueError):
        fixpoint_qk(WORKED, -1)


def test_trace_report_lines():
    trace = fixpoint_qk(FixpointTarget(parse("~box #p"), "p"), 1)
    assert trace.report_lines() == [
        ("hole", "p"),
        ("input", "~box #p"),
        ("n", "1"),
        ("stage.0", "~true"),
        ("stage.1", "~box ~true"),
        ("result", "~box ~true"),
    ]


def test_b_n_transform():
    assert b_n_transform(parse("box #p"), "p", fixpoint_qk(WORKED, 0).stages) == TRUE
    stages = fixpoint_qk(WORKED, 1).stages
    # The hole itself at depth 0 receives the top stage.
    assert b_n_transform(parse("#p"), "p", stages) == stages[1]
    # Under one box the hole receives the previous stage.
    assert b_n_transform(parse("box #p"), "p", stages) == parse("box true")
    assert b_n_transform(parse("box false"), "p", stages) == parse("box false")
    with pytest.raises(ValueError):
        b_n_transform(parse("#p"), "p", ())


# ---------------------------------------------------------------------------
# Guarded fixed points


def test_sigma_fixpoint_box_case():
    r = sigma_fixpoint(FixpointTarget(parse("box #p"), "p"))
    assert r.result == parse("box true")
    assert r.derivation.kind == "box"
    assert sigma_fixpoint(FixpointTarget(parse("box ~#p"), "p")).result == parse("box ~true")


def test_sigma_fixpoint_structural_cases():
    r = sigma_fixpoint(FixpointTarget(parse("box #p & box ~#p"), "p"))
    assert r.result == parse("box true & box ~true")
    assert r.derivation.kind == "and"
    assert tuple(c.kind for c in r.derivation.children) == ("box", "box")

    r = sigma_fixpoint(FixpointTarget(parse("exists u. (box P(u) | box #p)"), "p"))
    assert r.result == parse("exists u. (box P(u) | box true)")
    assert r.derivation.kind == "exists"
    assert r.derivation.children[0].kind == "or"


def test_sigma_fixpoint_substitutes_all_depths_inside_box():
    r = sigma_fixpoint(FixpointTarget(parse("box (#p & box #p)"), "p"))
    assert r.result == parse("box (true & box true)")


def test_sigma_fixpoint_rejects_non_sigma():
    for text in ["~box #p", "forall u. box P(u)", "#p", "box #p -> box #p"]:
        with pytest.raises(NotSigmaError):
            sigma_fixpoint(FixpointTarget(parse(text), "p"))


def test_sigma_fixpoint_rejects_unnormalized():
    f = parse("box (forall u. Q(u)) & box Q(u)")
    with pytest.raises(NotNormalizedError):
        sigma_fixpoint(FixpointTarget(f, "p"))


def test_sigma_report_lines_paths():
    r = sigma_fixpoint(FixpointTarget(parse("box #p & box ~#p"), "p"))
    lines = dict(r.report_lines())
    assert lines["input"] == "box #p & box ~#p"
    assert lines["result"] == "box true & box ~true"
    assert lines["step.0.kind"] == "and"
    assert lines["step.0.0.kind"] == "box"
    assert lines["step.0.1.target"] == "box ~#p"


def test_simultaneous_pair():
    sols = simultaneous_sigma_fixpoints(
        [parse("box #p1"), parse("box #p0")], ["p0", "p1"]
    )
    assert sols == [parse("box box box true"), parse("box box true")]


def test_simultaneous_solutions_satisfy_their_equations_syntactically():
    # Substituting the solutions into the right hand sides reproduces the
    # solution of the other equation exactly for this system.
    from modalfix.syntax import subst_prop_map

    sigmas = [parse("box #p1"), parse("box #p0")]
    sols = simultaneous_sigma_fixpoints(sigmas, ["p0", "p1"])
    env = {"p0": sols[0], "p1": sols[1]}
    assert subst_prop_map(sigmas[0], env) == sols[0]


def test_simultaneous_single_equation_matches_sigma_fixpoint():
    target = FixpointTarget(parse("box (#p | box false)"), "p")
    assert simultaneous_sigma_fixpoints([target.formula], ["p"]) == [
        sigma_fixpoint(target).result
    ]


def test_simultaneous_rejects_bad_systems():
    with pytest.raises(ValueError):
        simultaneous_sigma_fixpoints([parse("box #p")], ["p", "q"])
    with pytest.raises(ValueError):
        simultaneous_sigma_fixpoints([], [])
    with pytest.raises(ValueError):
        simultaneous_sigma_fixpoints([parse("box #p"), parse("box #p")], ["p", "p"])
    with pytest.raises(NotSigmaError):
        simultaneous_sigma_fixpoints([parse("~box #p")], ["p"])


def test_boolean_sigma_classical_example():
    r = boolean_sigma_fixpoint(FixpointTarget(parse("~box #p"), "p"))
    assert r.result == parse("~box ~true")
    assert r.derivation.kind == "assemble"
    assert r.derivation.children[0].kind == "component"


def test_boolean_sigma_with_hole_free_part():
    r = boolean_sigma_fixpoint(FixpointTarget(parse("box #p -> R"), "p"))
    assert r.result == parse("box (true -> R) -> R")


def test_boolean_sigma_degenerate():
    f = parse("forall u. P(u)")
    r = boolean_sigma_fixpoint(FixpointTarget(f, "p"))
    assert r.result == f
    assert r.derivation.kind == "degenerate"


def test_boolean_sigma_shared_component():
    f = parse("box #p -> box #p & R")
    r = boolean_sigma_fixpoint(FixpointTarget(f, "p"))
    # One guarded component, reused in both positions of the skeleton.
    assert len(r.derivation.children) == 1
    solved = r.derivation.children[0].result
    from modalfix.syntax import Implies, And, Atom

    assert r.result == Implies(solved, And(solved, Atom("R")))


def test_boolean_sigma_rejects_undecomposable():
    with pytest.raises(NotDecomposableError):
        boolean_sigma_fixpoint(FixpointTarget(parse("forall u. box (#p -> P(u))"), "p"))
    with pytest.raises(NotDecomposableError):
        boolean_sigma_fixpoint(FixpointTarget(parse("#p"), "p"))


def test_boolean_sigma_of_eight_guarded_parts_is_a_small_dag():
    # Eight simultaneous equations; their solution prints in about 10^54
    # characters but shares its parts.
    text = " & ".join(f"~box (#p & P{i})" for i in range(8))
    r = boolean_sigma_fixpoint(FixpointTarget(parse(text), "p"))
    assert len(r.derivation.children) == 8
    assert prop_vars(r.result) == frozenset()
    assert len(str(r.result._width)) == 54


def test_boolean_sigma_ends_at_the_node_budget(monkeypatch):
    target = FixpointTarget(parse(" & ".join(f"~box (#p & P{i})" for i in range(4))), "p")
    assert len(boolean_sigma_fixpoint(target).derivation.children) == 4
    monkeypatch.setattr(fixpoint, "_NODE_BUDGET", 40)
    with pytest.raises(OutputTooLargeError, match="first 3 of 4 guarded equations"):
        boolean_sigma_fixpoint(target)


def test_boolean_sigma_of_two_thousand_nested_conjuncts_is_solved():
    # One guarded part, whose derivation nests 2000 deep.
    text = " & ".join(f"box (#p | P{i})" for i in range(2000))
    r = boolean_sigma_fixpoint(FixpointTarget(parse(text), "p"))
    assert r.result == parse(text.replace("#p", "true"))


def test_elimination_is_not_two_rounds_of_substitution_from_true():
    # Substituting the system into itself k times from true agrees with
    # elimination for one equation, but not for this system of two at k = 2.
    f = parse("box (#p | R) & ~box #p")
    target = FixpointTarget(f, "p")

    def equation(x):
        return iff(x, subst_prop(f, "p", x))

    eliminated = boolean_sigma_fixpoint(target).result
    pool = ModelPool(enumerate_models(4, 1, {"R": 0}, require={"transitive", "irreflexive"}))
    assert len(pool.models) == 3670
    assert pool.masks([equation(eliminated)]) == [pool.all_mask]

    d = decompose_boolean_sigma(target)
    skeleton = subst_prop_map(d.skeleton, dict(zip(d.rest_vars, d.rest)))
    system = [subst_prop(s, "p", skeleton) for s in d.sigmas]
    x = [TRUE] * len(system)
    for _ in range(2):
        x = [subst_prop_map(s, dict(zip(d.sigma_vars, x))) for s in system]
    iterated = subst_prop_map(skeleton, dict(zip(d.sigma_vars, x)))
    # The 4-chain: world a sees every b > a, and R holds only at world 3.
    chain = KripkeModel(
        (0, 1, 2, 3),
        frozenset((a, b) for a in range(4) for b in range(a + 1, 4)),
        {w: frozenset({"c0"}) for w in range(4)},
        {(3, "R"): frozenset({()})},
        {"R": 0},
    )
    assert first_failing_world(chain, equation(iterated)) == 0
    assert first_failing_world(chain, equation(eliminated)) is None
