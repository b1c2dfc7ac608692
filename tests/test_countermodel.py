"""Chain countermodel and refutation harness tests."""

from __future__ import annotations

import pytest

from modalfix.countermodel import (
    PRED,
    RefutationRow,
    candidate_equation,
    chain_model,
    eval_infinite_chain,
    refutation_table,
    refute_fixpoint,
    refutation_target,
)
from modalfix.fixpoint import fixpoint_qk
from modalfix.kripke import EvalError, eval_formula, frame_report, valid_in_model, validate_model
from modalfix.syntax import Atom, Const, Formula, parse


def p_of(c: str) -> Formula:
    """Atom with a numeric parameter; parameters never come from the parser."""
    return Atom("P", (Const(c),))


def test_refutation_target_shape():
    t = refutation_target()
    assert t.formula == parse("forall u. box (#p -> P(u))")
    assert t.hole == "p"


def test_candidate_equation_shape():
    eq = candidate_equation(parse("box false"))
    assert eq == parse(
        "(box false -> forall u. box (box false -> P(u)))"
        " & (forall u. box (box false -> P(u)) -> box false)"
    )


def test_chain_model_smallest():
    m = chain_model(0)
    assert m.worlds == (0,)
    assert not m.rel
    assert m.domains == {0: frozenset({"0", "1", "2"})}
    # P holds of everything except the successor numeral 1.
    assert m.facts(0, PRED) == frozenset({("0",), ("2",)})


def test_chain_model_structure():
    m = chain_model(2)
    assert validate_model(m) == []
    assert m.rel == frozenset({(1, 0), (2, 0), (2, 1)})
    assert m.domains[2] == frozenset({"2", "3", "4"})
    assert m.domains[0] == frozenset({"0", "1", "2", "3", "4"})
    r = frame_report(m)
    assert r.classes == ("FI", "FIFD", "FH")
    assert r.frame_height == 2
    with pytest.raises(ValueError):
        chain_model(-1)


def test_chain_model_p_facts():
    m = chain_model(3)
    for n in m.worlds:
        for c in m.domains[n]:
            assert ((c,) in m.facts(n, PRED)) == (int(c) != n + 1)


# ---------------------------------------------------------------------------
# Infinite chain evaluation


def test_infinite_chain_atoms_and_parameters():
    assert eval_infinite_chain(3, p_of("5"))
    assert not eval_infinite_chain(3, p_of("4"))
    with pytest.raises(EvalError):
        eval_infinite_chain(3, p_of("2"))  # below the domain of world 3
    with pytest.raises(EvalError):
        eval_infinite_chain(0, p_of("a"))  # parameters must be numerals
    with pytest.raises(EvalError):
        eval_infinite_chain(-1, parse("true"))


def test_infinite_chain_rejects_foreign_vocabulary():
    with pytest.raises(EvalError):
        eval_infinite_chain(0, Atom("Q", (Const("0"),)))
    with pytest.raises(EvalError):
        eval_infinite_chain(0, parse("#p"))
    with pytest.raises(EvalError):
        eval_infinite_chain(0, parse("P(u)"))  # unbound variable


def test_infinite_chain_quantifiers():
    # P(u) fails only for u = n + 1, which the instance set must find.
    assert not eval_infinite_chain(4, parse("forall u. P(u)"))
    assert eval_infinite_chain(4, parse("exists u. ~P(u)"))
    assert eval_infinite_chain(4, parse("exists u. P(u)"))


def test_infinite_chain_box():
    assert eval_infinite_chain(0, parse("box false"))
    assert not eval_infinite_chain(1, parse("box false"))
    assert eval_infinite_chain(1, parse("box box false"))
    assert not eval_infinite_chain(2, parse("box forall u. P(u)"))


def test_infinite_chain_agrees_with_finite_chains():
    sentences = [
        parse(t)
        for t in [
            "forall u. P(u)",
            "exists u. ~P(u)",
            "box false",
            "box exists u. ~P(u)",
            "forall u. box P(u)",
            "exists u. box (P(u) | box false)",
            "forall u. (P(u) | exists v. ~P(v))",
            "box box forall u. P(u)",
        ]
    ]
    for k in range(5):
        m = chain_model(k)
        for n in m.worlds:
            for f in sentences:
                assert eval_formula(m, n, f) == eval_infinite_chain(n, f), (k, n, str(f))


# ---------------------------------------------------------------------------
# Refutation harness


def test_refute_basic_candidates():
    assert refute_fixpoint(parse("true")) == 1
    assert refute_fixpoint(parse("false")) == 0
    assert refute_fixpoint(parse("box false")) == 2
    assert refute_fixpoint(parse("~box false")) == 0


def test_refutation_table_box_false():
    rows = refutation_table(parse("box false"))
    assert [(r.k, r.valid) for r in rows] == [(0, True), (1, True), (2, False)]
    assert rows[0].parity_ok and rows[1].parity_ok
    assert rows[2].failing_world == 2


def test_refutation_table_true():
    rows = refutation_table(parse("true"))
    assert [(r.k, r.valid, r.failing_world) for r in rows] == [
        (0, True, None),
        (1, False, 1),
    ]


def test_staged_fixed_points_fail_just_past_their_height():
    target = refutation_target()
    for n in range(5):
        a_n = fixpoint_qk(target, n).result
        rows = refutation_table(a_n)
        assert refute_fixpoint(a_n) == n + 1
        # Up to chain n the equation holds, with truth alternating by parity.
        for row in rows[:-1]:
            assert row.valid and row.parity_ok
        assert not rows[-1].valid


def parity_sentence(k: int) -> Formula:
    """True exactly at the even worlds up to k in every chain of length >= k."""
    def boxes(j: int) -> Formula:
        return parse("box " * j + "false")

    f = None
    for e in range(0, k + 1, 2):
        part = parse(f"({'box ' * (e + 1)}false) & ~({'box ' * e}false)")
        f = part if f is None else parse(f"({f}) | ({part})")
    assert f is not None
    return f


def test_parity_sentences_survive_until_the_next_even_world():
    # The equation holds on every chain up to k and first fails at the
    # smallest even world beyond k, so no candidate works for all chains.
    for k, expected in [(0, 2), (1, 2), (2, 4), (3, 4), (4, 6)]:
        assert refute_fixpoint(parity_sentence(k)) == expected


def test_parity_rows_are_nonvacuous():
    m = chain_model(4)
    b = parity_sentence(4)
    values = [eval_formula(m, n, b) for n in m.worlds]
    assert values == [True, False, True, False, True]
    assert valid_in_model(m, candidate_equation(b))


def test_refutation_preconditions():
    with pytest.raises(EvalError):
        refutation_table(parse("#p"))
    with pytest.raises(EvalError):
        refutation_table(parse("P(u)"))
    with pytest.raises(EvalError):
        refutation_table(parse("Q"))


def reference_rows(b: Formula, k_max: int = 8) -> list[RefutationRow]:
    """refutation_table computed one world at a time with eval_formula."""
    equation = candidate_equation(b)
    rows = []
    for k in range(k_max + 1):
        m = chain_model(k)
        holds = [eval_formula(m, n, equation) for n in m.worlds]
        if all(holds):
            parity = all(eval_formula(m, n, b) == (n % 2 == 0) for n in m.worlds)
            rows.append(RefutationRow(k, True, None, parity))
        else:
            rows.append(RefutationRow(k, False, holds.index(False), None))
            break
    return rows


def test_refutation_table_agrees_with_the_reference_evaluator():
    target = refutation_target()
    candidates = [fixpoint_qk(target, n).result for n in range(5)]
    candidates += [parity_sentence(k) for k in range(5)]
    for b in candidates:
        assert refutation_table(b) == reference_rows(b), str(b)


def test_refute_inconclusive_returns_none():
    assert refute_fixpoint(parity_sentence(8), k_max=3) is None
