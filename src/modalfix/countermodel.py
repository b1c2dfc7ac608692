"""Chain countermodels showing that unbounded fixed points can fail.

The family chain_model(k) consists of worlds 0..k where a larger world
sees every smaller one, world n has domain {n, ..., k+2}, and the one
predicate P holds of m at world n exactly when m != n + 1. These models
are transitive, irreflexive, and have expanding domains, yet no
sentence b satisfies b <-> forall u. box (b -> P(u)) in all of them:
whenever the equivalence does hold throughout chain_model(k), b must be
true exactly at the even worlds, and the next larger chain breaks it.

eval_infinite_chain evaluates sentences in the infinite version of the
chain (worlds all naturals, same domains and facts). Its quantifiers
would range over infinitely many values, but any two values >= n + 2
are indistinguishable at world n, so checking n, n + 1 and the single
representative n + 2 decides the quantifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .kripke import EvalError, KripkeModel, _check_world_pairs, batch_truth_masks
from .syntax import (
    And,
    Atom,
    Bottom,
    Box,
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
    constants,
    free_individual_vars,
    iff,
    predicates,
    prop_vars,
    subst_prop,
)

PRED = "P"


def refutation_target() -> FixpointTarget:
    """The target forall u. box (#p -> P(u)) that the chains refute."""
    return FixpointTarget(Forall("u", Box(Implies(PropVar("p"), Atom(PRED, (Var("u"),))))), "p")


def candidate_equation(b: Formula) -> Formula:
    """The sentence b <-> A(b) for the refutation target A."""
    target = refutation_target()
    return iff(b, subst_prop(target.formula, target.hole, b))


def chain_model(k: int) -> KripkeModel:
    """The finite chain with worlds 0..k; world n sees all m < n. More than
    10^7 world pairs raise BoundExplosionError."""
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_world_pairs(k + 1)
    worlds = tuple(range(k + 1))
    rel = frozenset((n, m) for n in worlds for m in range(n))
    names = list(map(str, range(k + 3)))
    domains = {n: frozenset(names[n:]) for n in worlds}
    interp = {(n, PRED): frozenset(zip(names[n:n + 1] + names[n + 2:])) for n in worlds}
    return KripkeModel(worlds, rel, domains, interp, {PRED: 1})


def _check_p_only(f: Formula) -> None:
    preds = predicates(f)
    if not set(preds) <= {PRED}:
        extra = ", ".join(sorted(set(preds) - {PRED}))
        raise EvalError(f"chain models interpret only {PRED}; found {extra}")
    if preds.get(PRED, 1) != 1:
        raise EvalError(f"{PRED} must be unary")
    if prop_vars(f):
        raise EvalError("propositional variables have no truth value in a model")


def eval_infinite_chain(n: int, f: Formula, env: Optional[Mapping[str, int]] = None) -> bool:
    """Truth of f at world n of the infinite chain.

    f may use numeric parameters (constants) as long as each is >= the
    world where its atom is evaluated; quantifiers are decided on the
    instances n, n + 1 and n + 2, and box recurses into all smaller
    worlds.
    """
    if n < 0:
        raise EvalError("worlds of the chain are the naturals")
    _check_p_only(f)
    env = dict(env) if env else {}
    for c in constants(f):
        if not c.isdigit():
            raise EvalError(f"parameters must be numerals, found {c!r}")
    return _eval_chain(n, f, env)


def _eval_chain(n: int, f: Formula, env: dict[str, int]) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Atom):
        (t,) = f.args
        if isinstance(t, Var):
            if t.name not in env:
                raise EvalError(f"unbound variable {t.name}")
            m = env[t.name]
        else:
            m = int(t.name)
        if m < n:
            raise EvalError(f"parameter {m} is outside the domain of world {n}")
        return m != n + 1
    if isinstance(f, Not):
        return not _eval_chain(n, f.body, env)
    if isinstance(f, Implies):
        return not _eval_chain(n, f.left, env) or _eval_chain(n, f.right, env)
    if isinstance(f, And):
        return _eval_chain(n, f.left, env) and _eval_chain(n, f.right, env)
    if isinstance(f, Or):
        return _eval_chain(n, f.left, env) or _eval_chain(n, f.right, env)
    if isinstance(f, Forall):
        return all(_eval_chain(n, f.body, {**env, f.var: m}) for m in (n, n + 1, n + 2))
    if isinstance(f, Exists):
        return any(_eval_chain(n, f.body, {**env, f.var: m}) for m in (n, n + 1, n + 2))
    if isinstance(f, Box):
        return all(_eval_chain(m, f.body, env) for m in range(n))
    raise EvalError(f"cannot evaluate {f!r} in the chain")


@dataclass(frozen=True)
class RefutationRow:
    """Verdict for one chain: does the candidate satisfy the equation, and
    if it does, does it hold exactly at the even worlds as it must."""

    k: int
    valid: bool
    failing_world: Optional[int]
    parity_ok: Optional[bool]


def refutation_table(b: Formula, k_max: int = 8) -> list[RefutationRow]:
    """Check b <-> A(b) on chain_model(0..k_max), stopping at the first
    refutation. Rows where the equation holds record the parity check."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if prop_vars(b):
        raise EvalError("candidate must not contain propositional variables")
    if free_individual_vars(b):
        raise EvalError("candidate must be a sentence")
    _check_p_only(b)
    equation = candidate_equation(b)
    rows: list[RefutationRow] = []
    for k in range(k_max + 1):
        m = chain_model(k)
        # World n of the chain sits at bit n of each mask.
        holds, b_mask = batch_truth_masks(m, [equation, b])
        if holds == (1 << len(m.worlds)) - 1:
            parity = all(bool(b_mask >> n & 1) == (n % 2 == 0) for n in m.worlds)
            if not parity:
                raise LogicError(
                    "internal error: equation holds but truth does not alternate "
                    f"with world parity at k={k}"
                )
            rows.append(RefutationRow(k, True, None, parity))
        else:
            failing = (~holds & (holds + 1)).bit_length() - 1
            rows.append(RefutationRow(k, False, failing, None))
            break
    return rows


def refute_fixpoint(b: Formula, k_max: int = 8) -> Optional[int]:
    """Least k <= k_max such that chain_model(k) refutes b <-> A(b), or
    None when every chain up to k_max satisfies it (inconclusive)."""
    rows = refutation_table(b, k_max)
    last = rows[-1]
    return last.k if not last.valid else None
