"""Fixed point constructions for formulas modalized in a propositional hole.

Two constructions are implemented. The staged construction fixpoint_qk
works for any modalized formula but only up to a bounded accessibility
height: stage k is built by truncating the target below box depth k and
substituting the earlier stages for the hole, depth by depth. Its
result is a fixed point of the target in every model whose chains from
the evaluation world have length at most n.

The guarded construction sigma_fixpoint and its extensions work on
transitive frames without bound, for targets whose hole only occurs
inside formulas generated from boxes by &, | and exists. The box case
closes the loop by substituting true; &, | and exists are rebuilt from
the results of their parts. A system of equations is solved by
elimination in the order given: equation i, with the solutions of
equations 0 .. i-1 substituted in, is solved as one guarded fixed point
in hole i, and its solution is substituted into theirs. Solutions can
double in size with each equation, so more than _NODE_BUDGET distinct
nodes in them raise OutputTooLargeError, as does a report over
syntax._BUDGET characters. Boolean combinations are handled by
splitting off the maximal guarded subformulas, solving those
simultaneously, and reassembling. Nothing here recurses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Box,
    FixpointTarget,
    Formula,
    NotModalizedError,
    NotNormalizedError,
    NotSigmaError,
    OutputTooLargeError,
    TRUE,
    _BUDGET,
    decompose_boolean_sigma,
    format_formula,
    free_and_bound_vars,
    is_modalized,
    is_sigma,
    prop_vars,
    subst_at_depths,
    subst_prop,
    subst_prop_map,
    truncate,
)


def _check_normalized(f: Formula) -> None:
    free, bound = free_and_bound_vars(f)
    clash = free & bound
    if clash:
        raise NotNormalizedError(
            f"variables {', '.join(sorted(clash))} occur both free and bound; "
            "apply normalize_variables first"
        )


def _report(pairs: list[tuple[str, str | Formula]]) -> list[tuple[str, str]]:
    """The pairs with their formulas printed, if all fit in _BUDGET characters."""
    size = sum(len(key) + (len(v) if isinstance(v, str) else v._width) for key, v in pairs)
    if size > _BUDGET:
        raise OutputTooLargeError(f"report would have {size} characters, over 10^7")
    return [(key, v if isinstance(v, str) else format_formula(v)) for key, v in pairs]


@dataclass(frozen=True)
class FixpointTrace:
    """Stages of the bounded height construction, stage k solving height k."""

    target: FixpointTarget
    n: int
    stages: tuple[Formula, ...]
    result: Formula

    def report_lines(self) -> list[tuple[str, str]]:
        pairs = [("hole", self.target.hole), ("input", self.target.formula), ("n", str(self.n))]
        pairs += [(f"stage.{k}", stage) for k, stage in enumerate(self.stages)]
        pairs.append(("result", self.result))
        return _report(pairs)


def fixpoint_qk(target: FixpointTarget, n: int) -> FixpointTrace:
    """Fixed point of a modalized target valid at worlds of height <= n.

    Stage 0 truncates every box at depth 0 to true; stage k+1 truncates
    at depth k+1 and substitutes true, stage k, ..., stage 0 for the
    hole at depths 0, 1, ..., k+1. A target without the hole is its own
    fixed point and is returned unchanged at every stage.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    f, hole = target.formula, target.hole
    if hole not in prop_vars(f):
        stages = (f,) * (n + 1)
        return FixpointTrace(target, n, stages, f)
    if not is_modalized(f, hole):
        raise NotModalizedError(f"#{hole} occurs outside every box in {format_formula(f)}")
    _check_normalized(f)
    stages: list[Formula] = [subst_at_depths(truncate(f, 0), hole, [TRUE])]
    for k in range(n):
        subs = [TRUE] + stages[::-1]
        stages.append(subst_at_depths(truncate(f, k + 1), hole, subs))
    return FixpointTrace(target, n, tuple(stages), stages[n])


def b_n_transform(b: Formula, hole: str, stages: tuple[Formula, ...]) -> Formula:
    """Rewrite b so that, up to height n, it behaves like b with the fixed
    point substituted for the hole.

    stages must come from fixpoint_qk with n = len(stages) - 1; b is
    truncated at depth n and the hole at depth d receives stage n - d.
    """
    n = len(stages) - 1
    if n < 0:
        raise ValueError("stages must be non-empty")
    return subst_at_depths(truncate(b, n), hole, list(reversed(stages)))


# ---------------------------------------------------------------------------
# Guarded fixed points

@dataclass(frozen=True)
class SigmaStep:
    """One node of a derivation: how a (sub)target's fixed point was built."""

    kind: str
    target: Formula
    result: Formula
    children: tuple["SigmaStep", ...] = ()


@dataclass(frozen=True)
class SigmaFixpointResult:
    input: Formula
    hole: str
    result: Formula
    derivation: SigmaStep

    def report_lines(self) -> list[tuple[str, str]]:
        pairs = [("hole", self.hole), ("input", self.input), ("result", self.result)]
        # The derivation in preorder, on an explicit stack.
        todo = [(self.derivation, "step.0")]
        while todo:
            step, path = todo.pop()
            pairs += [(f"{path}.kind", step.kind), (f"{path}.target", step.target),
                      (f"{path}.result", step.result)]
            todo += reversed([(child, f"{path}.{i}") for i, child in enumerate(step.children)])
        return _report(pairs)


def _sigma_step(s: Formula, hole: str) -> SigmaStep:
    # Children first on an explicit stack, each distinct subformula once.
    done: dict[Formula, SigmaStep] = {}
    todo = [s]
    while todo:
        g = todo.pop()
        if g in done:
            continue
        if isinstance(g, Box):
            done[g] = SigmaStep("box", g, subst_prop(g, hole, TRUE))
            continue
        kids = g._kids()
        missing = [k for k in kids if k not in done]
        if missing:
            todo += g, *missing
            continue
        parts = tuple(done[k] for k in kids)
        # And, Or and Exists: the kind is the class name.
        done[g] = SigmaStep(type(g).__name__.lower(), g, g._with([st.result for st in parts]), parts)
    return done[s]


def sigma_fixpoint(target: FixpointTarget) -> SigmaFixpointResult:
    """Fixed point of a guarded target, valid on transitive frames.

    The box case substitutes true for the hole under the box; &, | and
    exists are rebuilt from the results of their parts.
    """
    f, hole = target.formula, target.hole
    [result], [step] = _simultaneous_with_steps([f], [hole])
    return SigmaFixpointResult(f, hole, result, step)


def simultaneous_sigma_fixpoints(
    sigmas: list[Formula], holes: list[str]
) -> list[Formula]:
    """Solve holes[i] == sigmas[i](holes) for guarded right hand sides,
    by elimination in the order given (see the module docstring)."""
    results, _ = _simultaneous_with_steps(sigmas, holes)
    return results


# Most distinct nodes that the solutions of a guarded system may have.
_NODE_BUDGET = 2**15


def _dag_size(fs: list[Formula]) -> int:
    """The number of distinct nodes in fs, counted up to one over the budget."""
    seen: set[Formula] = set()
    todo = list(fs)
    while todo and len(seen) <= _NODE_BUDGET:
        g = todo.pop()
        if g not in seen:
            seen.add(g)
            todo += g._kids()
    return len(seen)


def _simultaneous_with_steps(
    sigmas: list[Formula], holes: list[str]
) -> tuple[list[Formula], list[SigmaStep]]:
    if len(sigmas) != len(holes) or not sigmas:
        raise ValueError("need one hole per equation and at least one equation")
    if len(set(holes)) != len(holes):
        raise ValueError("holes must be distinct")
    for s in sigmas:
        if not is_sigma(s):
            raise NotSigmaError(f"{format_formula(s)} is not generated from boxes by &, | and exists")
        _check_normalized(s)
    solutions: list[Formula] = []
    steps: list[SigmaStep] = []
    for i, (s, hole) in enumerate(zip(sigmas, holes)):
        # Equation i with the solutions of the earlier ones substituted in;
        # its solution is then substituted into theirs.
        step = _sigma_step(subst_prop_map(s, dict(zip(holes, solutions))), hole)
        last = step.result
        if i:
            solutions = [subst_prop(g, hole, last) for g in solutions]
            steps = [SigmaStep("parametric", t, g, (st,)) for t, g, st in zip(sigmas, solutions, steps)]
            step = SigmaStep("eliminate", s, last, (step,))
        solutions.append(last)
        steps.append(step)
        if _dag_size(solutions) > _NODE_BUDGET:
            raise OutputTooLargeError(f"the solutions of the first {i + 1} of {len(sigmas)} "
                                      f"guarded equations have more than {_NODE_BUDGET} distinct nodes")
    return solutions, steps


def boolean_sigma_fixpoint(target: FixpointTarget) -> SigmaFixpointResult:
    """Fixed point for a Boolean combination of guarded subformulas
    containing the hole and subformulas free of it.

    The maximal guarded parts become a simultaneous system: each gets
    the whole skeleton substituted for the hole, the system is solved,
    and the solutions are plugged back into the skeleton. A target
    without the hole is returned as its own fixed point.
    """
    f, hole = target.formula, target.hole
    if hole not in prop_vars(f):
        return SigmaFixpointResult(f, hole, f, SigmaStep("degenerate", f, f))
    _check_normalized(f)
    dec = decompose_boolean_sigma(target)
    rest_map = dict(zip(dec.rest_vars, dec.rest))
    skeleton_filled = subst_prop_map(dec.skeleton, rest_map)
    system = [subst_prop(s, hole, skeleton_filled) for s in dec.sigmas]
    solutions, steps = _simultaneous_with_steps(system, list(dec.sigma_vars))
    result = subst_prop_map(skeleton_filled, dict(zip(dec.sigma_vars, solutions)))
    derivation = SigmaStep(
        "assemble",
        f,
        result,
        tuple(
            SigmaStep("component", c, sol, (st,))
            for c, sol, st in zip(system, solutions, steps)
        ),
    )
    return SigmaFixpointResult(f, hole, result, derivation)
