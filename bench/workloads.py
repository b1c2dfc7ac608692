"""The benchmark's three workloads: sweep, stages and cli.

Each workload is built from a seed (its set-up), hands out the fixed
operation list of one pass, and gates the results of a pass outside the
timed region. The inputs below are copied from the acceptance suite
rather than imported from it, so that editing the tests never changes
what the benchmark measures.

sweep   library verification sweep: staged fixed point equations checked
        with batch_truth_masks on enumerated and random models. Almost all
        of the time is in the kripke mask evaluator.
stages  staged construction at large n with no model checking: construct,
        print and parse back. syntax and fixpoint do the work; the
        printed forms grow exponentially in n for branching targets.
cli     an in-process session of cli.main calls: twelve rounds of the
        demos/demo_cli.py tour (fixpoint, gen-model, check --frame,
        verify-fixpoint, refute, mk) on larger inputs, each round with one
        input that must fail with one error line.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random
import re
import shutil
import tempfile
from pathlib import Path
from typing import Callable, Optional

from spans import node_counts

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

# Models enumerated by enumerate_models(3, 2, {"P": 1}, max_height=n), as
# printed by the acceptance suite.
ACCEPTANCE_MODEL_COUNTS = {0: 584, 1: 4024, 2: 6136, 3: 6136}

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"


Op = Callable[[], object]


class Workload:
    """Built from (modalfix modules, seed, tiny). pass_ops() gives the
    operations of one pass; each result is reduced by digest() right after
    its operation, and gate() judges a pass's digests (an operation that
    raised leaves its exception instead) and returns one verdict per
    operation plus the pass's work counters."""

    name = ""

    def pass_ops(self) -> list[Op]:
        raise NotImplementedError

    def digest(self, result):
        return result

    def gate(self, digests: list) -> tuple[list[bool], dict]:
        raise NotImplementedError

    def acceptance_ok(self) -> bool:
        """Whether counts that the acceptance suite also prints match it."""
        return True

    def close(self) -> None:
        pass


class Sweep(Workload):
    """Staged fixed point equations iff(F, A(F)) under universal_closure,
    for the 28 targets and n = 0..3, checked per model with
    batch_truth_masks. Per n the models are a systematic sample of the
    exhaustive enumeration, with a seeded offset, plus a seeded pool of
    random models of 1 to 4 worlds; every mask must be the full world mask."""

    name = "sweep"

    def __init__(self, mf, seed: int, tiny: bool):
        rng = random.Random(seed)
        k, syn = mf.kripke, mf.syntax
        self.kripke = k
        per_n_enumerated, per_n_random = (4, 2) if tiny else (150, 100)
        self.enumerated: dict[int, int] = {}
        self.groups: list[tuple[list, list]] = []
        for n in range(4):
            # Sampled while the enumeration streams, at a stride set by the
            # acceptance count; acceptance_ok() checks the count itself.
            stride = ACCEPTANCE_MODEL_COUNTS[n] // per_n_enumerated
            offset = rng.randrange(stride)
            sample, count = [], 0
            for count, m in enumerate(k.enumerate_models(3, 2, {"P": 1}, max_height=n), 1):
                if (count - 1) % stride == offset and len(sample) < per_n_enumerated:
                    sample.append(m)
            self.enumerated[n] = count
            # 1 to 4 worlds in turn, so the seed changes the models but not
            # how many of each size are checked.
            pool = [
                k.random_model(k.ModelGenSpec(world_count=(1 + i % 4,) * 2, height_bound=n,
                                              signature={"P": 1, "Q": 1}, seed=rng.randrange(2**31)))
                for i in range(per_n_random)
            ]
            equations = []
            for text in TARGETS:
                f = syn.parse(text)
                r = mf.fixpoint.fixpoint_qk(syn.FixpointTarget(f, "p"), n).result
                equations.append(syn.universal_closure(syn.iff(r, syn.subst_prop(f, "p", r))))
            self.groups.append((sample + pool, equations))

    def pass_ops(self) -> list[Op]:
        # Fresh model objects each pass, so per-model caches start cold as
        # they do for a user checking a model once.
        k = self.kripke
        ops = []
        for models, equations in self.groups:
            for m in models:
                fresh = dataclasses.replace(m)
                ops.append(lambda m=fresh, eqs=equations: k.batch_truth_masks(m, eqs))
        return ops

    def gate(self, results: list) -> tuple[list[bool], dict]:
        ok = []
        worlds = checks = 0
        i = 0
        for models, equations in self.groups:
            for m in models:
                full = (1 << len(m.worlds)) - 1
                masks = results[i]
                i += 1
                ok.append(isinstance(masks, list) and len(masks) == len(equations)
                          and all(x == full for x in masks))
                checks += len(equations)
                worlds += len(m.worlds) * len(equations)
        counters = {"enumerated_models": [self.enumerated[n] for n in range(4)],
                    "models": i, "worlds": worlds, "checks": checks}
        return ok, counters

    def acceptance_ok(self) -> bool:
        return self.enumerated == ACCEPTANCE_MODEL_COUNTS


def _renamer(rng: random.Random) -> tuple[Callable[[str], str], str]:
    """Seeded consistent renaming of predicates, bound variables and the
    hole. Names stay one letter long, so the work does not change."""
    preds = rng.sample("ABCDEFGHIJKLMNOPQRSTUVWXYZ", 3)
    hole, u, v = rng.sample("abcdefghijklmnopqrstuvwxyz", 3)
    mapping = {"P": preds[0], "Q": preds[1], "R": preds[2], "u": u, "v": v, "#p": "#" + hole}
    pattern = re.compile(r"#p\b|\b[PQRuv]\b")
    return (lambda text: pattern.sub(lambda m: mapping[m.group()], text)), hole


class Stages(Workload):
    """One operation per (target, n) with n = 0, 2, ..., 12: fixpoint_qk,
    format_formula of the result and parse of the printed text, plus one
    boolean_sigma_fixpoint, print and reparse per guarded target. The
    seed renames the symbols; the work and its order stay the same."""

    name = "stages"

    def __init__(self, mf, seed: int, tiny: bool):
        rng = random.Random(seed)
        syn, fx = mf.syntax, mf.fixpoint
        rename, hole = _renamer(rng)
        heights = (0, 2) if tiny else tuple(range(0, 13, 2))

        def round_trip(r):
            text = syn.format_formula(r)
            return r, text, syn.parse(text)

        self.ops: list[Op] = []
        for text in TARGETS:
            target = syn.FixpointTarget(syn.parse(rename(text)), hole)
            for n in heights:
                self.ops.append(lambda t=target, n=n: round_trip(fx.fixpoint_qk(t, n).result))
        for text in SIGMA_TARGETS:
            target = syn.FixpointTarget(syn.parse(rename(text)), hole)
            self.ops.append(lambda t=target: round_trip(fx.boolean_sigma_fixpoint(t).result))

    def pass_ops(self) -> list[Op]:
        return self.ops

    def digest(self, result: tuple) -> tuple[bool, int, int, int]:
        """Round trip verdict, printed bytes, DAG and tree nodes."""
        r, text, back = result
        return (back == r, len(text.encode()), *node_counts(r))

    def gate(self, results: list) -> tuple[list[bool], dict]:
        ok = []
        printed = dag = tree = 0
        for res in results:
            if isinstance(res, Exception):
                ok.append(False)
                continue
            same, nbytes, d, t = res
            ok.append(same)
            printed += nbytes
            dag += d
            tree += t
        return ok, {"ops": len(results), "printed_bytes": printed,
                    "result_dag_nodes": dag, "result_tree_nodes": tree}


@dataclasses.dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def _pairs(stdout: str) -> dict[str, str]:
    """key/value lines of either output format; later keys win."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("\t")
        if not sep:
            key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


# Per round of the cli session, one entry each.
CLI_QK = [(WORKED, 1), (WORKED, 6), ("box #p & box ~#p", 5), ("box (#p -> box #p)", 6),
          ("forall u. box (#p -> P(u))", 8), ("box #p -> box box #p", 6), ("~box ~#p", 10),
          ("box (#p | ~#p)", 5), ("box exists u. (P(u) & #p)", 8), ("box (box #p -> #p)", 4),
          ("exists u. box (P(u) -> #p)", 7), ("box ~box #p", 6)]
CLI_SIGMA = SIGMA_TARGETS[5:]
CLI_VERIFY = [("box #p & box ~#p", 2), ("forall u. box (#p -> P(u))", 2), ("~box exists u. (#p & Q(u))", 2),
              ("box #p | box ~#p", 2), ("exists u. box (#p & P(u))", 2), (WORKED, 2), ("box (#p -> box #p)", 3),
              ("box #p | box ~#p", 3), ("~box #p", 2), ("box ~#p", 2), ("box box #p", 2)]
CLI_REFUTE = [(n, []) for n in range(7)] + [(n, ["--k-max", "7", "--format", "lines"]) for n in range(1, 6)]
CLI_ERRORS = [
    (["fixpoint", "box (#p &", "--logic", "qk-bot", "--n", "2"], "parse-error"),
    (["fixpoint", "box #p)", "--logic", "qk-bot", "--n", "2"], "parse-error"),
    (["fixpoint", "#p", "--logic", "qk-bot", "--n", "1"], "not-modalized"),
    (["fixpoint", "#p -> box #p", "--logic", "qk-bot", "--n", "3"], "not-modalized"),
    (["fixpoint", "box #p", "--logic", "qk-bot"], "invalid-argument"),
    (["fixpoint", "box #p", "--logic", "qk-bot", "--n", "-1"], "invalid-argument"),
    (["mk", "--k", "-1"], "invalid-argument"),
    (["fixpoint", "#p & box #p", "--logic", "qgl-sigma"], "not-decomposable"),
    (["refute", "#p"], "eval-error"),
    (["refute", "Q(x)"], "eval-error"),
    (["gen-model", "--worlds", "3:1"], "unsatisfiable-spec"),
    (["check", "true", "--model", "missing.model"], "io-error"),
]


class Cli(Workload):
    """A session of cli.main(argv, out=StringIO) calls, each one operation.

    The session is the tour of demos/demo_cli.py, made twelve times on
    other inputs. Each round makes the demo's seven calls in the demo's
    order, one call each: fixpoint --logic qk-bot, fixpoint --logic
    qgl-sigma, gen-model, check --frame on the model just generated,
    verify-fixpoint, refute and mk. The demo makes no failing call; each
    round adds one input that must end in exit 1 with one error line, a
    share that is chosen, not taken from a source.

    The inputs are larger than the demo's. The model files have 10 to 40
    worlds and are checked against staged worked-example sentences.
    verify-fixpoint runs once on the worked example over all 3-world
    models, otherwise over 2-world models plus 200 random ones. refute
    gets the staged candidates of the refutation target. The seed picks
    the model files and the random models."""

    name = "cli"

    def __init__(self, mf, seed: int, tiny: bool):
        rng = random.Random(seed)
        syn, fx, cm = mf.syntax, mf.fixpoint, mf.countermodel
        self.mf = mf
        OUT_DIR.mkdir(exist_ok=True)
        # Relative to the checkout root, the benchmark's working directory.
        self.dir = Path(tempfile.mkdtemp(prefix=f"cli-{seed}-", dir=OUT_DIR)).relative_to(ROOT)
        # (argv, expectation) in session order; expectation(result) -> bool
        self.ops: list[tuple[list[str], Callable[[CliResult], bool]]] = []
        self._models: dict[str, object] = {}

        def staged(text: str, n: int) -> str:
            target = syn.FixpointTarget(syn.parse(text), "p")
            return syn.format_formula(fx.fixpoint_qk(target, n).result)

        def result_is(want: str) -> Callable[[CliResult], bool]:
            return lambda r: r.code == 0 and _pairs(r.stdout).get("result") == want

        sentences = [staged(WORKED, n) for n in (1, 2, 3)]
        random_models = "20" if tiny else "200"
        verify = [(text, n, ["--max-worlds", "2", "--random", random_models, "--format", "lines"])
                  for text, n in CLI_VERIFY]
        if not tiny:
            verify.insert(0, (WORKED, 1, []))
        refutation_target = cm.refutation_target()
        for i in range(2 if tiny else 12):
            text, n = CLI_QK[i]
            self.ops.append((["fixpoint", text, "--logic", "qk-bot", "--n", str(n), "--format", "lines"],
                             result_is(staged(text, n))))
            text = CLI_SIGMA[i]
            want = syn.format_formula(fx.boolean_sigma_fixpoint(syn.FixpointTarget(syn.parse(text), "p")).result)
            self.ops.append((["fixpoint", text, "--logic", "qgl-sigma"], result_is(want)))

            # The model file is written here and printed again by the operation.
            path = str(self.dir / f"round{i}.model")
            argv = ["gen-model", "--worlds", str(10 * (1 + i % 4)), "--height", "4", "--pred", "Q:1",
                    "--seed", str(rng.randrange(10**6))]
            if mf.cli.main(argv + ["--out", path], out=io.StringIO()) != 0:
                raise RuntimeError(f"set-up failed: {' '.join(argv)}")
            text = Path(path).read_text(encoding="utf-8")
            self.ops.append((argv, lambda r, text=text: r.code == 0 and r.stdout == text))
            # Over the twelve rounds every model size meets every sentence once.
            sentence = sentences[i % 3]
            self.ops.append((["check", sentence, "--model", path, "--frame"],
                             lambda r, p=path, s=sentence: self._check_ok(r, p, s)))

            text, n, extra = verify[i]
            self.ops.append((["verify-fixpoint", text, "--n", str(n), "--seed", str(rng.randrange(10**6))] + extra,
                             self._verify_ok(None if extra else ACCEPTANCE_MODEL_COUNTS[1])))

            # The chain of length n + 1 refutes stage n.
            n, extra = CLI_REFUTE[i]
            b = syn.format_formula(fx.fixpoint_qk(refutation_target, n).result)
            self.ops.append((["refute", b] + extra,
                             lambda r, want=str(n + 1): r.code == 0 and _pairs(r.stdout).get("refuted-at") == want))

            k = 1 + i % 8
            want = f"# chain model k={k}\n" + mf.kripke.format_model(cm.chain_model(k))
            self.ops.append((["mk", "--k", str(k)], lambda r, want=want: r.code == 0 and r.stdout == want))

            argv, code = CLI_ERRORS[i]
            self.ops.append(([str(self.dir / a) if a == "missing.model" else a for a in argv],
                             lambda r, code=code: (r.code == 1 and r.stdout == ""
                                                   and r.stderr.count("\n") == 1
                                                   and r.stderr.startswith(f"error: {code}: "))))
        self.first: Optional[list] = None

    def _run(self, argv: list[str]) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.mf.cli.main(argv, out=out)
        return CliResult(code, out.getvalue(), err.getvalue())

    def _verify_ok(self, models: Optional[int]) -> Callable[[CliResult], bool]:
        def ok(r: CliResult) -> bool:
            kv = _pairs(r.stdout)
            return (r.code == 0 and kv.get("verdict") == "pass"
                    and (models is None or kv.get("exhaustive.models") == str(models)))
        return ok

    def _check_ok(self, r: CliResult, path: str, text: str) -> bool:
        """World verdicts of check (the reference evaluator) against the
        mask evaluator on the same model."""
        k, syn = self.mf.kripke, self.mf.syntax
        if path not in self._models:
            self._models[path] = k.parse_model(Path(path).read_text(encoding="utf-8"))
        m = self._models[path]
        mask = k.truth_mask(m, syn.universal_closure(syn.parse(text)))
        kv = _pairs(r.stdout)
        worlds_ok = all(kv.get(f"world.{w}") == str(bool(mask >> i & 1)).lower()
                        for i, w in enumerate(m.worlds))
        return (r.code == 0 and worlds_ok and kv.get("converse-well-founded") == "true"
                and kv.get("valid") == str(mask == (1 << len(m.worlds)) - 1).lower())

    def pass_ops(self) -> list[Op]:
        return [lambda a=argv: self._run(a) for argv, _ in self.ops]

    def gate(self, results: list) -> tuple[list[bool], dict]:
        if self.first is None:
            self.first = results
        ok = []
        checks = chains = out_bytes = 0
        for (argv, expect), r, r0 in zip(self.ops, results, self.first):
            if isinstance(r, Exception):
                ok.append(False)
                continue
            # Byte-identical to the first pass, and as expected.
            ok.append(r == r0 and expect(r))
            kv = _pairs(r.stdout)
            out_bytes += len(r.stdout.encode())
            if argv[0] == "verify-fixpoint":
                checks += int(kv.get("exhaustive.models", 0)) + int(kv.get("random.models", 0))
            elif argv[0] == "check":
                checks += 1
            elif argv[0] == "refute":
                rows = sum(1 for key in kv if key.startswith("k."))
                chains += rows
                checks += rows
        return ok, {"ops": len(results), "checks": checks, "chains_checked": chains,
                    "stdout_bytes": out_bytes}

    def close(self) -> None:
        shutil.rmtree(ROOT / self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Sweep, Stages, Cli)}
