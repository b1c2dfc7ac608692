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
closes the loop by substituting true; the other cases recurse
structurally. Systems of simultaneous equations are solved one variable
at a time, treating the remaining holes as parameters, and Boolean
combinations are handled by splitting off the maximal guarded
subformulas, solving those simultaneously, and reassembling.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    And,
    Box,
    Exists,
    FixpointTarget,
    Formula,
    NotModalizedError,
    NotNormalizedError,
    NotSigmaError,
    Or,
    TRUE,
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


@dataclass(frozen=True)
class FixpointTrace:
    """Stages of the bounded height construction, stage k solving height k."""

    target: FixpointTarget
    n: int
    stages: tuple[Formula, ...]
    result: Formula

    def report_lines(self) -> list[tuple[str, str]]:
        lines = [
            ("hole", self.target.hole),
            ("input", format_formula(self.target.formula)),
            ("n", str(self.n)),
        ]
        for k, stage in enumerate(self.stages):
            lines.append((f"stage.{k}", format_formula(stage)))
        lines.append(("result", format_formula(self.result)))
        return lines


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
        lines = [
            ("hole", self.hole),
            ("input", format_formula(self.input)),
            ("result", format_formula(self.result)),
        ]

        def walk(step: SigmaStep, path: str) -> None:
            lines.append((f"step.{path}.kind", step.kind))
            lines.append((f"step.{path}.target", format_formula(step.target)))
            lines.append((f"step.{path}.result", format_formula(step.result)))
            for i, child in enumerate(step.children):
                walk(child, f"{path}.{i}")

        walk(self.derivation, "0")
        return lines


def _sigma_step(s: Formula, hole: str) -> SigmaStep:
    if isinstance(s, Box):
        return SigmaStep("box", s, subst_prop(s, hole, TRUE))
    if isinstance(s, And):
        left = _sigma_step(s.left, hole)
        right = _sigma_step(s.right, hole)
        return SigmaStep("and", s, And(left.result, right.result), (left, right))
    if isinstance(s, Or):
        left = _sigma_step(s.left, hole)
        right = _sigma_step(s.right, hole)
        return SigmaStep("or", s, Or(left.result, right.result), (left, right))
    if isinstance(s, Exists):
        inner = _sigma_step(s.body, hole)
        return SigmaStep("exists", s, Exists(s.var, inner.result), (inner,))
    raise NotSigmaError(f"{format_formula(s)} is not generated from boxes by &, | and exists")


def sigma_fixpoint(target: FixpointTarget) -> SigmaFixpointResult:
    """Fixed point of a guarded target, valid on transitive frames.

    The box case substitutes true for the hole under the box; &, | and
    exists recurse into their parts and combine the results.
    """
    f, hole = target.formula, target.hole
    [result], [step] = _simultaneous_with_steps([f], [hole])
    return SigmaFixpointResult(f, hole, result, step)


def simultaneous_sigma_fixpoints(
    sigmas: list[Formula], holes: list[str]
) -> list[Formula]:
    """Solve holes[i] == sigmas[i](holes) for guarded right hand sides.

    Works by recursion on the number of equations: the first n-1 are
    solved with the last hole treated as a parameter, the last equation
    then becomes a single guarded fixed point, and its solution is
    substituted back.
    """
    results, _ = _simultaneous_with_steps(sigmas, holes)
    return results


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
    if len(sigmas) == 1:
        step = _sigma_step(sigmas[0], holes[0])
        return [step.result], [step]
    *front_sigmas, last_sigma = sigmas
    *front_holes, last_hole = holes
    front_param, front_steps = _simultaneous_with_steps(front_sigmas, front_holes)
    combined = subst_prop_map(last_sigma, dict(zip(front_holes, front_param)))
    last_step = _sigma_step(combined, last_hole)
    last = last_step.result
    solved = [subst_prop(g, last_hole, last) for g in front_param]
    steps = [
        SigmaStep("parametric", s, g, (st,))
        for s, g, st in zip(front_sigmas, solved, front_steps)
    ]
    steps.append(SigmaStep("eliminate", last_sigma, last, (last_step,)))
    return solved + [last], steps


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
