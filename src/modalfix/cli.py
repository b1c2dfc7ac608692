"""Command line front end.

Subcommands: fixpoint, check, verify-fixpoint, refute, gen-model, mk.
Formulas are given inline or as @path. Output is either human readable
text (key: value) or machine readable lines (key<TAB>value) selected
with --format. Every run is deterministic in its arguments; the seed in
use is echoed in the output. Errors exit nonzero after printing a
single line "error: <code>: <detail>" on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Iterable, Iterator, Optional, Sequence, TextIO

from . import countermodel, fixpoint, kripke, syntax
from .syntax import FixpointTarget, LogicError, format_formula


def _read_formula_arg(arg: str) -> str:
    if arg.startswith("@"):
        with open(arg[1:], "r", encoding="utf-8") as fh:
            return fh.read().strip()
    return arg


def _emit(pairs: list[tuple[str, str]], fmt: str, out: TextIO) -> None:
    for key, value in pairs:
        if fmt == "lines":
            out.write(f"{key}\t{value}\n")
        else:
            out.write(f"{key}: {value}\n")


def _common_flags(sub: argparse.ArgumentParser, seed: bool = True) -> None:
    sub.add_argument("--format", choices=["text", "lines"], default="text")
    if seed:
        sub.add_argument("--seed", type=int, default=0)


def _cmd_fixpoint(args: argparse.Namespace, out: TextIO) -> int:
    if args.logic == "qgl-sigma" and args.n is not None:
        raise ValueError("--n applies only to qk-bot")
    f = syntax.parse(_read_formula_arg(args.formula))
    target = syntax.normalize_variables(FixpointTarget(f, args.hole))
    pairs = [("command", "fixpoint"), ("logic", args.logic), ("seed", str(args.seed))]
    if args.logic == "qk-bot":
        if args.n is None:
            raise ValueError("--n is required for qk-bot")
        trace = fixpoint.fixpoint_qk(target, args.n)
        pairs += trace.report_lines()
    else:
        result = fixpoint.boolean_sigma_fixpoint(target)
        pairs += result.report_lines()
    _emit(pairs, args.format, out)
    return 0


def _cmd_check(args: argparse.Namespace, out: TextIO) -> int:
    with open(args.model, "r", encoding="utf-8") as fh:
        m = kripke.parse_model(fh.read())
    f = syntax.parse(_read_formula_arg(args.formula))
    for pred, arity in syntax.predicates(f).items():
        if pred in m.sig and m.sig[pred] != arity:
            raise syntax.ArityMismatchError(
                f"formula uses {pred} with arity {arity}, model facts use {m.sig[pred]}"
            )
    pairs = [
        ("command", "check"),
        ("model", args.model),
        ("seed", str(args.seed)),
        ("formula", format_formula(f)),
    ]
    if args.frame:
        rep = kripke.frame_report(m)
        pairs.append(("transitive", str(rep.transitive).lower()))
        pairs.append(("irreflexive", str(rep.irreflexive).lower()))
        pairs.append(("converse-well-founded", str(rep.conversely_well_founded).lower()))
        if rep.heights is not None:
            pairs.append(("height", str(rep.frame_height)))
            for w in sorted(rep.heights):
                pairs.append((f"height.{w}", str(rep.heights[w])))
        pairs.append(("classes", ",".join(rep.classes) if rep.classes else "-"))
    mask = kripke.truth_mask(m, syntax.universal_closure(f))
    for i, w in enumerate(m.worlds):
        pairs.append((f"world.{w}", str(bool(mask >> i & 1)).lower()))
    pairs.append(("valid", str(mask == (1 << len(m.worlds)) - 1).lower()))
    _emit(pairs, args.format, out)
    return 0


# verify-fixpoint checks its models as disjoint unions of about this many
# worlds, which bounds the size of its masks.
_CHUNK_WORLDS = 1024


def _chunks(models: Iterable[kripke.KripkeModel]) -> Iterator[list[kripke.KripkeModel]]:
    """Consecutive runs of models of about _CHUNK_WORLDS worlds in all.
    When making a model raises, the run of models before it comes first."""
    chunk: list[kripke.KripkeModel] = []
    size = 0
    try:
        for m in models:
            chunk.append(m)
            size += len(m.worlds)
            if size >= _CHUNK_WORLDS:
                yield chunk
                chunk, size = [], 0
    except LogicError:
        if chunk:
            yield chunk
        raise
    if chunk:
        yield chunk


def _first_invalid(
    models: Iterable[kripke.KripkeModel], sentence: syntax.Formula
) -> tuple[int, Optional[kripke.KripkeModel]]:
    """(i, m) for the first model m, the i-th, in which sentence is not
    valid, or (number of models, None). The sentence has no constants, so
    checking it raises in every model or in none."""
    checked = 0
    for chunk in _chunks(models):
        pool = kripke.ModelPool(chunk)
        j = pool.first_failing(pool.masks([sentence])[0])
        if j is not None:
            return checked + j, chunk[j]
        checked += len(chunk)
    return checked, None


def _cmd_verify_fixpoint(args: argparse.Namespace, out: TextIO) -> int:
    if args.random < 0:
        raise ValueError("--random must be >= 0")
    f = syntax.parse(_read_formula_arg(args.formula))
    target = syntax.normalize_variables(FixpointTarget(f, args.hole))
    trace = fixpoint.fixpoint_qk(target, args.n)
    equation = syntax.universal_closure(
        syntax.iff(trace.result, syntax.subst_prop(target.formula, target.hole, trace.result))
    )
    sig = syntax.predicates(target.formula)
    pairs = [
        ("command", "verify-fixpoint"),
        ("logic", "qk-bot"),
        ("seed", str(args.seed)),
        ("n", str(args.n)),
        ("input", format_formula(target.formula)),
        ("result", format_formula(trace.result)),
    ]
    specs = (
        kripke.ModelGenSpec(
            world_count=(1, max(2, args.max_worlds + 1)),
            height_bound=args.n,
            signature=dict(sig) or {"P": 1},
            seed=args.seed + i,
        )
        for i in range(args.random)
    )
    for name, models in (
        ("exhaustive", kripke.enumerate_models(args.max_worlds, args.max_domain, sig, max_height=args.n)),
        ("random", map(kripke.random_model, specs)),
    ):
        count, m = _first_invalid(models, equation)
        if m is not None:
            where = f"random seed {args.seed + count}" if name == "random" else name
            pairs += [("verdict", "fail"), ("counterexample", where)]
            _emit(pairs, args.format, out)
            out.write(kripke.format_model(m))
            return 1
        pairs += [(f"{name}.models", str(count)), (f"{name}.failures", "0")]
    pairs.append(("verdict", "pass"))
    _emit(pairs, args.format, out)
    return 0


def _cmd_refute(args: argparse.Namespace, out: TextIO) -> int:
    b = syntax.parse(_read_formula_arg(args.formula))
    rows = countermodel.refutation_table(b, args.k_max)
    pairs = [
        ("command", "refute"),
        ("seed", str(args.seed)),
        ("candidate", format_formula(b)),
        ("k-max", str(args.k_max)),
    ]
    for row in rows:
        if row.valid:
            pairs.append((f"k.{row.k}", "satisfies-equation parity=even-worlds"))
        else:
            pairs.append((f"k.{row.k}", f"refuted failing-world={row.failing_world}"))
    last = rows[-1]
    if last.valid:
        pairs.append(("refuted-at", "none"))
        pairs.append(("note", f"inconclusive: every chain up to k={args.k_max} satisfies the equation"))
    else:
        pairs.append(("refuted-at", str(last.k)))
        pairs.append(("failing-world", str(last.failing_world)))
    _emit(pairs, args.format, out)
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return (int(lo), int(hi)) if hi else (int(lo), int(lo))


def _cmd_gen_model(args: argparse.Namespace, out: TextIO) -> int:
    sig = {}
    for item in args.pred or []:
        name, _, arity = item.partition(":")
        if not arity:
            raise ValueError(f"--pred expects NAME:ARITY, got {item!r}")
        sig[name] = int(arity)
    require = frozenset(x for x in (args.require or "").split(",") if x)
    spec = kripke.ModelGenSpec(
        world_count=_parse_range(args.worlds),
        height_bound=args.height,
        signature=sig,
        domain_base_size=_parse_range(args.domain_base),
        domain_growth=_parse_range(args.domain_growth),
        truth_density=args.density,
        require=require,
        seed=args.seed,
    )
    m = kripke.random_model(spec)
    text = f"# gen-model seed={args.seed}\n" + kripke.format_model(m)
    _write_model(text, args.out, out)
    return 0


def _cmd_mk(args: argparse.Namespace, out: TextIO) -> int:
    m = countermodel.chain_model(args.k)
    text = f"# chain model k={args.k}\n" + kripke.format_model(m)
    _write_model(text, args.out, out)
    return 0


def _write_model(text: str, path: Optional[str], out: TextIO) -> None:
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="modalfix",
        description="fixed points of modalized formulas, with a finite Kripke model checker",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fixpoint", help="compute a fixed point of a modalized formula")
    p.add_argument("formula", help="formula text, or @path")
    p.add_argument("--logic", choices=["qk-bot", "qgl-sigma"], required=True)
    p.add_argument("--n", type=int, default=None, help="height bound for qk-bot")
    p.add_argument("--hole", default="p")
    _common_flags(p)
    p.set_defaults(func=_cmd_fixpoint)

    p = subs.add_parser("check", help="evaluate a formula in a model file")
    p.add_argument("formula", help="formula text, or @path")
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("--frame", action="store_true", help="also report frame properties")
    _common_flags(p)
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("verify-fixpoint", help="recheck the fixed point equation over models")
    p.add_argument("formula", help="formula text, or @path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--hole", default="p")
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("--max-domain", type=int, default=2)
    p.add_argument("--random", type=int, default=200, metavar="N")
    _common_flags(p)
    p.set_defaults(func=_cmd_verify_fixpoint)

    p = subs.add_parser("refute", help="search the chain models for a refutation")
    p.add_argument("formula", help="candidate sentence, or @path")
    p.add_argument("--k-max", type=int, default=8)
    _common_flags(p)
    p.set_defaults(func=_cmd_refute)

    p = subs.add_parser("gen-model", help="emit a seeded random model file")
    p.add_argument("--worlds", default="1:4", help="world count range LO[:HI]")
    p.add_argument("--height", type=int, default=2)
    p.add_argument("--domain-base", default="1:2", help="domain base size range LO[:HI]")
    p.add_argument("--domain-growth", default="0:1", help="domain growth range LO[:HI]")
    p.add_argument("--pred", action="append", metavar="NAME:ARITY")
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--require", default="", help="comma separated: transitive,irreflexive")
    p.add_argument("--out", default="-", help="output path, - for stdout")
    _common_flags(p)
    p.set_defaults(func=_cmd_gen_model)

    p = subs.add_parser("mk", help="emit a chain countermodel file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default="-", help="output path, - for stdout")
    _common_flags(p)
    p.set_defaults(func=_cmd_mk)

    return parser


def main(argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, out)
    except LogicError as e:
        print(f"error: {e.code}: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: invalid-argument: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: io-error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
