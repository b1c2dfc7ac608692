"""Parser, printer, and syntactic transformation tests with frozen oracles."""

from __future__ import annotations

import ast
import copy
import dataclasses
import gc
import hashlib
import pickle
import subprocess
import sys
import traceback
from pathlib import Path

import pytest

from modalfix import cli, fixpoint, kripke, syntax
from modalfix.fixpoint import fixpoint_qk
from modalfix.syntax import (
    And,
    ArityMismatchError,
    Atom,
    Bottom,
    Box,
    CaptureError,
    DepthOverflowError,
    Exists,
    FixpointTarget,
    Forall,
    Implies,
    LogicError,
    Not,
    NotDecomposableError,
    Or,
    OutputTooLargeError,
    ParseError,
    PropVar,
    TRUE,
    TooDeepError,
    Top,
    UnknownPredicateError,
    Var,
    bound_individual_vars,
    boxes,
    constants,
    decompose_boolean_sigma,
    format_formula,
    free_and_bound_vars,
    free_individual_vars,
    is_modalized,
    is_sigma,
    normalize_variables,
    occurrence_depths,
    parse,
    predicates,
    prop_vars,
    subst_at_depths,
    subst_prop,
    subst_prop_map,
    truncate,
    universal_closure,
)

WORKED = "box (#p -> forall u. (Q(u) -> box #p))"


def _worked():
    return parse(WORKED)


def test_parse_worked_example_structure():
    f = _worked()
    assert f == Box(
        Implies(
            PropVar("p"),
            Forall("u", Implies(Atom("Q", (Var("u"),)), Box(PropVar("p")))),
        )
    )


def test_parse_atoms_and_constants_of_grammar():
    assert parse("true") == Top()
    assert parse("false") == Bottom()
    assert parse("#p") == PropVar("p")
    assert parse("R") == Atom("R", ())
    assert parse("P(u, v)") == Atom("P", (Var("u"), Var("v")))


def test_precedence():
    assert parse("#p -> #q -> #r") == Implies(PropVar("p"), Implies(PropVar("q"), PropVar("r")))
    assert parse("#p & #q | #r") == Or(And(PropVar("p"), PropVar("q")), PropVar("r"))
    assert parse("#p | #q & #r") == Or(PropVar("p"), And(PropVar("q"), PropVar("r")))
    assert parse("~box #p") == Not(Box(PropVar("p")))
    # Quantifiers bind tightest: the implication is not inside the scope.
    assert parse("forall u. P(u) -> Q(u)") == Implies(
        Forall("u", Atom("P", (Var("u"),))), Atom("Q", (Var("u"),))
    )


def test_sugar_expansion():
    assert parse("#p <-> #q") == And(
        Implies(PropVar("p"), PropVar("q")), Implies(PropVar("q"), PropVar("p"))
    )
    assert parse("dia #p") == Not(Box(Not(PropVar("p"))))


def test_print_round_trip_examples():
    for text in [
        WORKED,
        "#p -> #q -> #r",
        "(#p -> #q) -> #r",
        "#p & (#q | #r)",
        "~(P(u) & Q(u))",
        "forall u. (P(u) -> exists v. R(u, v))",
        "box box false",
    ]:
        f = parse(text)
        assert parse(format_formula(f)) == f


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse("box (#p -> ")
    assert "position" in str(e.value)
    with pytest.raises(ParseError):
        parse("#p $ #q")
    with pytest.raises(ParseError):
        parse("forall box. P(u)")


# A parenthesized group of 26 tokens.
GROUP = "(P(u) & Q(u) | box ~R -> forall v. P(v) & #p)"

# A parenthesized group of 309 characters.
LONG = "(" + " & ".join(f"(P(u) | box ~Q{i})" for i in range(16)) + ")"

# Malformed inputs with the error class and message, position included,
# that the parser gave before its rewrite as one precedence-climbing
# function. Together they reach every error the parser raises.
PARSE_ERRORS = [
    ('#p $ #q', None, ParseError, "unexpected character '$' (at position 3)"),
    ('P(u) - Q', None, ParseError, "unexpected character '-' (at position 5)"),
    ('#p <- #q', None, ParseError, "unexpected character '<' (at position 3)"),
    ('box 2', None, ParseError, "unexpected character '2' (at position 4)"),
    ('_x', None, ParseError, "unexpected character '_' (at position 0)"),
    ('#p #q', None, ParseError, "unexpected trailing input '#' (at position 3)"),
    ('P(u) )', None, ParseError, "unexpected trailing input ')' (at position 5)"),
    ('(#p) (#q)', None, ParseError, "unexpected trailing input '(' (at position 5)"),
    ('forall u P(u)', None, ParseError, "expected '.', found 'P' (at position 9)"),
    ('exists u', None, ParseError, "expected '.', found '' (at position 8)"),
    ('forall box. P(u)', None, ParseError, "expected variable, found 'box' (at position 7)"),
    ('forall U. P(u)', None, ParseError, "expected variable, found 'U' (at position 7)"),
    ('P(true)', None, ParseError, "expected variable, found 'true' (at position 2)"),
    ('P(u, V)', None, ParseError, "expected variable, found 'V' (at position 5)"),
    ('exists', None, ParseError, "expected variable, found '' (at position 6)"),
    ('#P', None, ParseError, "expected propositional variable name, found 'P' (at position 1)"),
    ('#box', None, ParseError, "expected propositional variable name, found 'box' (at position 1)"),
    ('# (', None, ParseError, "expected propositional variable name, found '(' (at position 2)"),
    ('#', None, ParseError, "expected propositional variable name, found '' (at position 1)"),
    ('(#p & #q', None, ParseError, "expected ')', found '' (at position 8)"),
    ('P(u, v', None, ParseError, "expected ')', found '' (at position 6)"),
    ('P(u v)', None, ParseError, "expected ')', found 'v' (at position 4)"),
    ('((R)', None, ParseError, "expected ')', found '' (at position 4)"),
    ('#p & )', None, ParseError, "expected formula, found ')' (at position 5)"),
    ('->', None, ParseError, "expected formula, found '->' (at position 0)"),
    ('', None, ParseError, "expected formula, found '' (at position 0)"),
    ('   ', None, ParseError, "expected formula, found '' (at position 3)"),
    ('~', None, ParseError, "expected formula, found '' (at position 1)"),
    ('box (#p -> ', None, ParseError, "expected formula, found '' (at position 11)"),
    ('#p | ', None, ParseError, "expected formula, found '' (at position 5)"),
    ('Q(u)', {'P': 1}, UnknownPredicateError, 'unknown predicate Q (at position 0)'),
    ('P & Q', {'P': 0}, UnknownPredicateError, 'unknown predicate Q (at position 4)'),
    ('R', {}, UnknownPredicateError, 'unknown predicate R (at position 0)'),
    ('P(u, v)', {'P': 1}, ArityMismatchError, 'predicate P used with arity 2, expected 1 (at position 0)'),
    ('P(u) & P(u, v)', None, ArityMismatchError, 'predicate P used with arity 2, expected 1 (at position 7)'),
    ('P & P(u)', None, ArityMismatchError, 'predicate P used with arity 1, expected 0 (at position 4)'),
    ('P(u)', {'P': 0}, ArityMismatchError, 'predicate P used with arity 1, expected 0 (at position 0)'),
    ('dia dia #p <-> ', None, ParseError, "expected formula, found '' (at position 15)"),
    ('forall u. exists v. R(u, v) -> #q |', None, ParseError, "expected formula, found '' (at position 35)"),
    ('#p\t&\n', None, ParseError, "expected formula, found '' (at position 5)"),
    ('box ) $', None, ParseError, "unexpected character '$' (at position 6)"),
    ('P(u) ∧ Q', None, ParseError, "unexpected character '∧' (at position 5)"),
    ('#p\xa0& #q |', None, ParseError, "expected formula, found '' (at position 9)"),
    ('R(xé)', None, ParseError, "unexpected character 'é' (at position 3)"),
    ('P(u) & Q(v) -> R(u, v) <-> (S', None, ParseError, "expected ')', found '' (at position 29)"),
    # A group long enough to be recorded, then a copy of it that is cut
    # short, followed by trailing input or a stray character, or that
    # shares its first 36 characters and then differs.
    (f'{GROUP} & {GROUP[:-1]}', None, ParseError, "expected ')', found '' (at position 92)"),
    (f'{GROUP} & {GROUP[:20]}', None, ParseError, "expected formula, found '' (at position 68)"),
    (f'{GROUP} & {GROUP} #q', None, ParseError, "unexpected trailing input '#' (at position 94)"),
    (f'{GROUP} & {GROUP})', None, ParseError, "unexpected trailing input ')' (at position 93)"),
    (f'{GROUP} & {GROUP} $', None, ParseError, "unexpected character '$' (at position 94)"),
    (f'{GROUP} & {GROUP[:36]}~)', None, ArityMismatchError, 'predicate P used with arity 0, expected 1 (at position 83)'),
    (f'{GROUP} & {GROUP.replace("P(v)", "P(v, u)")}', None, ArityMismatchError,
     'predicate P used with arity 2, expected 1 (at position 83)'),
    (f'{GROUP} & {GROUP.replace("#p", "S")}', {'P': 1, 'Q': 1, 'R': 0}, UnknownPredicateError,
     'unknown predicate S (at position 90)'),
    (f'{GROUP} & box {GROUP} | {GROUP[:-1]} & #q)) & {GROUP[:12]}', None, ParseError,
     "unexpected trailing input ')' (at position 150)"),
    # The same with a group of 309 characters, repeated.
    (f'{LONG} & {LONG} $', None, ParseError, "unexpected character '$' (at position 622)"),
    (f'{LONG} & {LONG})', None, ParseError, "unexpected trailing input ')' (at position 621)"),
    (f'{LONG} & {LONG[:-1]}', None, ParseError, "expected ')', found '' (at position 620)"),
    (f'{LONG} & {LONG[:40]}P(u, v){LONG[44:]}', None, ArityMismatchError,
     'predicate P used with arity 2, expected 1 (at position 352)'),
    (f'{LONG} & {LONG} & #p #q', None, ParseError, "unexpected trailing input '#' (at position 627)"),
]


@pytest.mark.parametrize("text, sig, cls, message", PARSE_ERRORS)
def test_parse_error_table(text, sig, cls, message):
    with pytest.raises(LogicError) as e:
        parse(text, sig)
    assert type(e.value) is cls
    assert str(e.value) == message


def test_deep_nesting_raises_too_deep():
    for text in ["~" * 5000 + "R", "(" * 1000 + "R" + ")" * 1000]:
        with pytest.raises(TooDeepError) as e:
            parse(text)
        assert e.value.code == "too-deep"


def test_adversarial_group_texts_parse():
    # 4000 sibling groups whose first 32 characters and first ")" agree:
    # each lookup checks one recorded group.
    siblings = parse(" & ".join("(" + "~" * 30 + f"P{i} | Q)" for i in range(4000)))
    conjuncts = []
    while isinstance(siblings, And):
        siblings, last = siblings.left, siblings.right
        conjuncts.append(last)
    conjuncts.append(siblings)
    assert len(conjuncts) == 4000
    q = Atom("Q")
    assert conjuncts[0] == Or(parse("~" * 30 + "P3999"), q) and conjuncts[-1] == Or(parse("~" * 30 + "P0"), q)
    # The deepest nesting of parentheses that parses from here: the parser
    # takes one stack frame per level, as it always has.
    def nested(depth):
        return "(" * depth + "R" + ")" * depth

    low, high = 1, sys.getrecursionlimit()
    while low < high:
        mid = (low + high + 1) // 2
        try:
            parse(nested(mid))
            low = mid
        except TooDeepError:
            high = mid - 1
    here = len(traceback.extract_stack())
    assert low >= sys.getrecursionlimit() - here - 20
    assert parse(nested(low)) is Atom("R")


def test_signature_checking():
    sig = {"P": 1}
    assert parse("P(u)", sig) == Atom("P", (Var("u"),))
    with pytest.raises(UnknownPredicateError):
        parse("Q(u)", sig)
    with pytest.raises(ArityMismatchError):
        parse("P(u, v)", sig)
    with pytest.raises(ArityMismatchError):
        parse("P(u) & P(u, v)")


def test_free_and_bound_vars():
    f = parse("forall u. Q(u) & Q(u)")
    free, bound = free_and_bound_vars(f)
    assert free == frozenset({"u"})
    assert bound == frozenset({"u"})
    assert free_individual_vars(parse("forall u. P(u)")) == frozenset()
    assert bound_individual_vars(parse("P(u)")) == frozenset()


def test_normalize_variables_renames_only_offenders():
    t = normalize_variables(FixpointTarget(parse("forall u. Q(u) & Q(u)"), "p"))
    assert t.formula == parse("forall u0. Q(u0) & Q(u)")
    untouched = FixpointTarget(parse("forall u. box (#p -> P(u))"), "p")
    assert normalize_variables(untouched) == untouched


def test_normalize_variables_skips_taken_names():
    f = parse("(forall u. Q(u) & Q(u0)) & Q(u)")
    t = normalize_variables(FixpointTarget(f, "p"))
    free, bound = free_and_bound_vars(t.formula)
    assert not free & bound
    # u0 is already free in the input, so the binder becomes u1.
    assert t.formula == parse("(forall u1. Q(u1) & Q(u0)) & Q(u)")


def test_occurrence_depths_worked_example():
    assert occurrence_depths(_worked(), "p") == [1, 2]
    assert occurrence_depths(parse("#p -> box #p"), "p") == [0, 1]
    assert occurrence_depths(parse("box true"), "p") == []


def test_is_modalized():
    assert is_modalized(_worked(), "p")
    assert not is_modalized(parse("#p -> box #p"), "p")
    assert is_modalized(parse("forall u. P(u)"), "p")  # vacuously


def test_truncate_worked_example():
    a = _worked()
    assert truncate(a, 0) == TRUE
    assert truncate(a, 1) == parse("box (#p -> forall u. (Q(u) -> true))")
    assert truncate(a, 2) == a
    assert truncate(a, 5) == a


def test_subst_at_depths_worked_example():
    a = _worked()
    b0, b1, b2 = Atom("R0"), Atom("R1"), Atom("R2")
    assert subst_at_depths(a, "p", [b0, b1, b2]) == parse("box (R1 -> forall u. (Q(u) -> box R2))")


def test_subst_at_depths_depth_overflow():
    with pytest.raises(DepthOverflowError):
        subst_at_depths(_worked(), "p", [TRUE, TRUE])


def test_subst_capture_violation():
    f = parse("forall u. box (#p -> P(u))")
    with pytest.raises(CaptureError):
        subst_at_depths(f, "p", [TRUE, Atom("Q", (Var("u"),))])
    with pytest.raises(CaptureError):
        subst_prop(f, "p", Atom("Q", (Var("u"),)))


def test_subst_prop_all_depths():
    f = parse("#p & box #p")
    assert subst_prop(f, "p", Atom("R")) == parse("R & box R")


def test_is_sigma():
    assert is_sigma(parse("box #p"))
    assert is_sigma(parse("box #p & box ~#p"))
    assert is_sigma(parse("exists u. box P(u) | box false"))
    assert not is_sigma(parse("~box #p"))
    assert not is_sigma(parse("forall u. box P(u)"))
    assert not is_sigma(parse("#p"))


def test_decompose_boolean_sigma_classical():
    d = decompose_boolean_sigma(FixpointTarget(parse("~box #p"), "p"))
    assert d.skeleton == Not(PropVar("q0"))
    assert d.sigmas == (parse("box #p"),)
    assert d.rest == ()
    assert d.recompose() == parse("~box #p")


def test_decompose_boolean_sigma_with_rest():
    f = parse("box #p -> forall u. P(u)")
    d = decompose_boolean_sigma(FixpointTarget(f, "p"))
    assert d.skeleton == Implies(PropVar("q0"), PropVar("r0"))
    assert d.sigmas == (parse("box #p"),)
    assert d.rest == (parse("forall u. P(u)"),)
    assert d.recompose() == f


def test_decompose_dedups_identical_parts():
    f = parse("box #p -> box #p & R")
    d = decompose_boolean_sigma(FixpointTarget(f, "p"))
    assert d.sigmas == (parse("box #p"),)
    assert d.skeleton == Implies(PropVar("q0"), And(PropVar("q0"), PropVar("r0")))
    assert d.recompose() == f


def test_decompose_picks_maximal_sigma():
    f = parse("~exists u. (box #p & box P(u))")
    d = decompose_boolean_sigma(FixpointTarget(f, "p"))
    assert d.sigmas == (parse("exists u. (box #p & box P(u))"),)


def test_decompose_avoids_used_prop_names():
    f = parse("box (#p & #q0) & #r0")
    d = decompose_boolean_sigma(FixpointTarget(f, "p"))
    assert set(d.sigma_vars).isdisjoint({"q0", "r0"})
    assert set(d.rest_vars).isdisjoint({"q0", "r0"})
    assert d.recompose() == f


def test_decompose_not_decomposable():
    with pytest.raises(NotDecomposableError):
        decompose_boolean_sigma(FixpointTarget(parse("forall u. box (#p -> P(u))"), "p"))
    with pytest.raises(NotDecomposableError):
        decompose_boolean_sigma(FixpointTarget(parse("#p"), "p"))


def test_universal_closure_sorted():
    assert universal_closure(parse("P(v, u)")) == parse("forall u. forall v. P(v, u)")
    f = parse("box false")
    assert universal_closure(f) == f


def test_predicates():
    assert predicates(_worked()) == {"Q": 1}
    assert predicates(parse("R & P(u, v)")) == {"R": 0, "P": 2}


def test_predicates_reports_the_first_clash_in_tree_order():
    u = (Var("u"),)
    f = And(Atom("P", u), And(Atom("Q"), And(Atom("P"), Atom("Q", u))))
    with pytest.raises(ArityMismatchError, match="predicate P used with arities 1 and 0"):
        predicates(f)


# A DAG whose tree has 2**64 nodes: every walk must visit nodes, not paths.
def _doubled(base, times=64):
    g = base
    for _ in range(times):
        g = And(g, g)
    return g


def _dag_size(f) -> int:
    seen, stack = set(), [f]
    while stack:
        g = stack.pop()
        if id(g) not in seen:
            seen.add(id(g))
            stack += [getattr(g, a) for a in ("body", "left", "right") if hasattr(g, a)]
    return len(seen)


def _spine_bottom(f):
    while isinstance(f, And):
        assert f.left is f.right
        f = f.left
    return f


BASE = Box(Implies(PropVar("p"), Atom("P", (Var("x"),))))


def test_facts_of_a_shared_dag():
    g = _doubled(BASE)
    assert free_individual_vars(g) == frozenset({"x"})
    assert bound_individual_vars(g) == frozenset()
    assert free_and_bound_vars(g) == (frozenset({"x"}), frozenset())
    assert prop_vars(g) == frozenset({"p"})
    assert constants(g) == frozenset()
    assert predicates(g) == {"P": 1}
    closed = universal_closure(g)
    assert isinstance(closed, Forall) and closed.var == "x" and closed.body is g
    assert is_modalized(g, "p")
    assert not is_modalized(_doubled(BASE.body), "p")


def test_rewrites_of_a_shared_dag_stay_linear():
    g = _doubled(BASE)
    assert truncate(g, 1) is g
    cut = truncate(g, 0)
    assert _spine_bottom(cut) == TRUE
    filled = subst_prop(g, "p", TRUE)
    assert _spine_bottom(filled) == Box(Implies(TRUE, Atom("P", (Var("x"),))))
    for h in (cut, filled):
        assert _dag_size(h) <= 64 + 4


def test_normalizing_a_shared_dag_stays_linear():
    clash = Or(Forall("u", Atom("Q", (Var("u"),))), Atom("P", (Var("u"),)))
    g = normalize_variables(FixpointTarget(_doubled(clash), "p")).formula
    assert _spine_bottom(g) == Or(Forall("u0", Atom("Q", (Var("u0"),))), Atom("P", (Var("u"),)))
    assert free_and_bound_vars(g) == (frozenset({"u"}), frozenset({"u0"}))
    assert _dag_size(g) <= 64 + 5


def test_staged_text_parses_back_to_a_dag():
    r = fixpoint_qk(FixpointTarget(parse("box #p & box ~#p"), "p"), 16).result
    assert parse(format_formula(r)) is r


def test_large_staged_result_prints_byte_identically():
    r = fixpoint_qk(FixpointTarget(parse("box #p & box ~#p"), "p"), 18).result
    text = format_formula(r)
    assert len(text) == 7_077_872
    assert hashlib.md5(text.encode()).hexdigest() == "f250a0218fcfa9d90e07394c79137d16"
    # Its repeated groups are parsed once each, and it reads back as r.
    assert parse(text) is r


def test_printing_over_budget_raises_before_building_text():
    with pytest.raises(OutputTooLargeError) as e:
        format_formula(_doubled(BASE))
    assert e.value.code == "bound-explosion"
    r = fixpoint_qk(FixpointTarget(parse("box #p & box ~#p"), "p"), 30).result
    with pytest.raises(OutputTooLargeError):
        format_formula(r)


def test_printing_too_deep_raises_too_deep():
    with pytest.raises(TooDeepError):
        format_formula(boxes(5000, TRUE))


def test_staged_construction_is_linear_in_n():
    trace = fixpoint_qk(FixpointTarget(parse("box #p & box ~#p"), "p"), 40)
    assert len(trace.stages) == 41
    assert _dag_size(trace.result) <= 4 * 41 + 2


def test_cached_facts_do_not_change_identity_semantics():
    used, fresh = _worked(), _worked()
    free_and_bound_vars(used), prop_vars(used), constants(used), predicates(used), hash(used)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)


def test_deep_chain_needs_no_recursion_depth():
    f = boxes(600, Implies(PropVar("p"), Atom("P", (Var("x"),))))
    assert free_individual_vars(f) == frozenset({"x"})
    assert prop_vars(f) == frozenset({"p"})
    assert predicates(f) == {"P": 1}
    assert universal_closure(f).body is f
    assert is_modalized(f, "p")
    assert truncate(f, 600) is f
    assert _dag_size(truncate(f, 300)) == 301
    assert _dag_size(subst_prop(f, "p", TRUE)) == 600 + 3
    assert occurrence_depths(f, "p") == [600]
    clash = And(boxes(600, Atom("P", (Var("u"),))), Forall("u", Atom("Q", (Var("u"),))))
    assert bound_individual_vars(normalize_variables(FixpointTarget(clash, "p")).formula) == {"u0"}
    negated = parse("~" * 600 + "box #p")
    assert decompose_boolean_sigma(FixpointTarget(negated, "p")).sigmas == (Box(PropVar("p")),)

    # 3000 conjuncts: parse takes no recursion depth for them, and no
    # rewrite or walk of syntax.py may take one per level.
    chain = parse(" & ".join(["box #p"] * 3000))
    assert truncate(chain, 1) is chain
    assert _dag_size(truncate(chain, 0)) == 2999 + 1
    assert _dag_size(subst_prop(chain, "p", TRUE)) == 2999 + 2
    assert _dag_size(subst_prop_map(chain, {"p": TRUE})) == 2999 + 2
    assert _dag_size(subst_at_depths(chain, "p", [TRUE, TRUE])) == 2999 + 2
    assert is_sigma(chain)
    assert not is_sigma(parse(" & ".join(["box #p"] * 2999 + ["#p"])))
    assert not is_sigma(parse(" & ".join(["#p"] + ["box #p"] * 2999)))
    assert occurrence_depths(chain, "p") == [1] * 3000
    trace = fixpoint_qk(FixpointTarget(chain, "p"), 2)
    assert trace.result.right.body is trace.stages[1]
    assert decompose_boolean_sigma(FixpointTarget(chain, "p")).sigmas[0] is chain
    negated = FixpointTarget(boxes(1, PropVar("p")), "p")
    for _ in range(3000):
        negated = FixpointTarget(Not(negated.formula), "p")
    assert decompose_boolean_sigma(negated).sigmas == (Box(PropVar("p")),)
    # Guarded only from the second conjunct up: each level is judged once.
    late = parse(" & ".join(["R"] + ["box #p"] * 3000))
    split = decompose_boolean_sigma(FixpointTarget(late, "p"))
    assert (split.sigmas, split.rest) == ((Box(PropVar("p")),), (Atom("R"),))
    clash = And(parse(" & ".join(["box P(u)"] * 3000)), Forall("u", Atom("Q", (Var("u"),))))
    assert bound_individual_vars(normalize_variables(FixpointTarget(clash, "p")).formula) == {"u0"}
    nested = Atom("P", (Var("u"),))
    for _ in range(3000):
        nested = Forall("u", And(nested, Atom("Q", (Var("u"),))))
    renamed = normalize_variables(FixpointTarget(And(nested, Atom("R", (Var("u"),))), "p")).formula
    assert free_and_bound_vars(renamed) == (frozenset({"u"}), frozenset({"u0"}))


def test_equal_formulas_are_one_object():
    # Built apart: == is identity, so it needs no recursion depth either.
    a, b = boxes(3000, Atom("P", (Var("x"),))), boxes(3000, Atom("P", (Var("x"),)))
    assert a is b and a == b
    assert Atom("R") is Atom(pred="R", args=()) is parse("R")
    assert Forall(body=TRUE, var="u") is Forall("u", TRUE)


def test_copies_and_unpickled_nodes_are_interned():
    text = "(forall u. (P(u) & R) | #p) -> true & ~box false | exists v. Q(v)"
    f = parse(text)
    stack, kinds = [f], set()
    while stack:
        g = stack.pop()
        kinds.add(type(g))
        stack += g._kids()
        assert copy.copy(g) is g and copy.deepcopy(g) is g
        assert pickle.loads(pickle.dumps(g)) is g
        assert dataclasses.replace(g) is g
        assert type(g)(**{name: getattr(g, name) for name in g.__match_args__}) is g
    assert len(kinds) == 11
    assert dataclasses.replace(f.left, right=TRUE) is Or(f.left.left, TRUE)
    g = _doubled(BASE)
    assert pickle.loads(pickle.dumps(g)) is g
    # Another process has other string hashes: its copy is interned there.
    code = "import pickle, sys; from modalfix.syntax import parse; " \
           "print(pickle.load(sys.stdin.buffer) is parse(sys.argv[1]))"
    proc = subprocess.run([sys.executable, "-c", code, text], input=pickle.dumps(f),
                          capture_output=True, check=True)
    assert proc.stdout == b"True\n"


def test_the_node_table_keeps_no_node_alive():
    gc.collect()
    before = len(syntax._NODES)
    made = [parse(f"P(x{i}) & #q{i} | box true") for i in range(10_000)]
    assert format_formula(made[-1]) == "P(x9999) & #q9999 | box true"
    assert len(syntax._NODES) >= before + 4 * 10_000
    del made
    gc.collect()
    assert len(syntax._NODES) == before


def _self_calls(tree: ast.AST, prefix: str = "") -> set[str]:
    """Functions and methods, named by their class or enclosing function,
    whose body names themselves: a call, or a reference passed on."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(n, ast.Name) and n.id == node.name
                # self.f or self.kid.f, but not super().f or frozenset().f
                or isinstance(n, ast.Attribute) and n.attr == node.name and not isinstance(n.value, ast.Call)
                for n in ast.walk(node)
            ):
                found.add(name)
            found |= _self_calls(node, name + ".")
        else:
            found |= _self_calls(node, prefix)
    return found


def _self_calls_in(module) -> set[str]:
    return _self_calls(ast.parse(Path(module.__file__).read_text(encoding="utf-8")))


def test_only_the_parser_and_the_printer_recurse():
    # Every rewrite goes through _rebuild's explicit stack; the parser and
    # the printer map RecursionError to TooDeepError.
    assert _self_calls_in(syntax) == {"_Parser.expr", "_Unary._print", "_Binary._print"}
    # The guarded construction, its reports and the CLI run on explicit
    # stacks and loops, and so does the model checker: only the reference
    # evaluator recurses.
    assert _self_calls_in(fixpoint) == _self_calls_in(cli) == set()
    assert _self_calls_in(kripke) <= {"_eval"}
