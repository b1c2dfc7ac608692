"""End-to-end command line tests through the real entry point."""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
import time
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from modalfix import cli, kripke
from modalfix.countermodel import chain_model
from modalfix.kripke import (
    GenError,
    KripkeModel,
    enumerate_models,
    eval_formula,
    format_model,
    ModelGenSpec,
    parse_model,
    random_model,
)
from modalfix.syntax import (
    FixpointTarget,
    iff,
    normalize_variables,
    parse,
    subst_prop,
    universal_closure,
)

WORKED = "box (#p -> forall u. (Q(u) -> box #p))"


def run_cli(*args: str, expect: int = 0, timeout: Optional[float] = None) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-m", "modalfix", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == expect, f"{args}\nstdout:{proc.stdout}\nstderr:{proc.stderr}"
    return proc


def as_dict(stdout: str) -> dict[str, str]:
    pairs = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            pairs[key] = value
    return pairs


def test_fixpoint_qk_bot_worked_example():
    proc = run_cli("fixpoint", "--logic", "qk-bot", "--n", "1", "--hole", "p", WORKED)
    got = as_dict(proc.stdout)
    assert got["stage.0"] == "true"
    assert got["result"] == "box (true -> forall u. (Q(u) -> true))"
    assert got["seed"] == "0"


def test_fixpoint_qgl_sigma():
    proc = run_cli("fixpoint", "--logic", "qgl-sigma", "~box #p")
    got = as_dict(proc.stdout)
    assert got["result"] == "~box ~true"


def test_fixpoint_normalizes_input():
    proc = run_cli("fixpoint", "--logic", "qk-bot", "--n", "0", "(forall u. Q(u)) & Q(u) & box #p")
    got = as_dict(proc.stdout)
    assert "u0" in got["input"]


def test_fixpoint_errors():
    proc = run_cli("fixpoint", "--logic", "qk-bot", "--n", "0", "#p", expect=1)
    assert proc.stderr.startswith("error: not-modalized: ")
    assert proc.stdout == ""
    proc = run_cli("fixpoint", "--logic", "qk-bot", WORKED, expect=1)
    assert proc.stderr.startswith("error: invalid-argument: ")
    proc = run_cli("fixpoint", "--logic", "qk-bot", "--n", "-1", WORKED, expect=1)
    assert proc.stderr.startswith("error: invalid-argument: ")
    proc = run_cli("fixpoint", "--logic", "qgl-sigma", "forall u. box (#p -> P(u))", expect=1)
    assert proc.stderr.startswith("error: not-decomposable: ")
    proc = run_cli("fixpoint", "--logic", "qgl-sigma", "--n", "3", "~box #p", expect=1)
    assert proc.stderr.startswith("error: invalid-argument: ")
    assert proc.stdout == ""


def test_parse_error_is_single_line(tmp_path):
    proc = run_cli("fixpoint", "--logic", "qgl-sigma", "box (#p ->", expect=1)
    assert proc.stderr.startswith("error: parse-error: ")
    assert proc.stderr.count("\n") == 1


def test_deep_nesting_is_a_single_error_line(capsys):
    code = cli.main(["fixpoint", "~" * 5000 + "box #p", "--logic", "qk-bot", "--n", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: too-deep: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_formula_too_deep_for_the_evaluator_is_a_single_error_line():
    # Within the parser's depth limit, but too deep for the mask evaluator.
    proc = run_cli("verify-fixpoint", "~" * 975 + "box #p", "--n", "0", expect=1)
    assert proc.stderr == "error: too-deep: formula nests too deeply\n"
    assert proc.stdout == ""


def test_deep_boxes_end_in_a_result_or_one_too_deep_line(tmp_path, capsys):
    model = tmp_path / "m.txt"
    model.write_text(format_model(chain_model(2)), encoding="utf-8")
    for k in range(100, 1000, 100):
        text = "box (" * k + "R" + ")" * k
        for argv in (
            ["fixpoint", text, "--logic", "qk-bot", "--n", "1"],
            ["check", text, "--model", str(model)],
            ["verify-fixpoint", text, "--n", "1", "--random", "3"],
        ):
            code = cli.main(argv, io.StringIO())
            err = capsys.readouterr().err
            assert (code, err) == (0, "") or (
                code == 1 and err.startswith("error: too-deep: ") and err.count("\n") == 1
            ), (k, argv[0], code, err)


def test_fixpoint_over_the_print_budget_is_one_error_line(capsys):
    # At n = 17 each stage fits the budget but the report does not.
    for n in ("17", "20"):
        out = io.StringIO()
        code = cli.main(["fixpoint", "box #p & box ~#p", "--logic", "qk-bot", "--n", n], out)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: bound-explosion: ")
        assert err.count("\n") == 1
        assert out.getvalue() == ""


def test_guarded_fixpoint_over_the_print_budget_is_one_error_line(capsys):
    text = " & ".join(f"~box (#p & P{i})" for i in range(8))
    out = io.StringIO()
    code = cli.main(["fixpoint", text, "--logic", "qgl-sigma"], out)
    err = capsys.readouterr().err
    assert (code, out.getvalue()) == (1, "")
    assert err.startswith("error: bound-explosion: ") and err.count("\n") == 1


def test_large_guarded_systems_end_in_one_error_line(capsys):
    # 2000 nested conjuncts are solved, but their report is quadratic in
    # the input; 16 parts make solutions over the node budget.
    for text in (
        " & ".join(f"box (#p | P{i})" for i in range(2000)),
        " & ".join(f"~box (#p & P{i})" for i in range(16)),
    ):
        out = io.StringIO()
        start = time.perf_counter()
        code = cli.main(["fixpoint", text, "--logic", "qgl-sigma"], out)
        assert time.perf_counter() - start < 10
        err = capsys.readouterr().err
        assert (code, out.getvalue()) == (1, "")
        assert err.startswith("error: bound-explosion: ") and err.count("\n") == 1


def test_formula_from_file(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("~box #p\n", encoding="utf-8")
    proc = run_cli("fixpoint", "--logic", "qgl-sigma", f"@{path}")
    assert as_dict(proc.stdout)["result"] == "~box ~true"


@pytest.fixture()
def m2_path(tmp_path):
    path = tmp_path / "m2.model"
    run_cli("mk", "--k", "2", "--out", str(path))
    return str(path)


def test_mk_chain_round_trip(m2_path):
    with open(m2_path, encoding="utf-8") as fh:
        text = fh.read()
    assert text.startswith("# chain model k=2\n")
    assert parse_model(text) == chain_model(2)


def test_mk_over_the_world_pair_budget_is_one_error_line(capsys):
    # The chain with k = 3162 has 3163 worlds, so over 10^7 world pairs.
    out = io.StringIO()
    code = cli.main(["mk", "--k", "3162"], out)
    err = capsys.readouterr().err
    assert (code, out.getvalue()) == (1, "")
    assert err.startswith("error: bound-explosion: ") and err.count("\n") == 1


def test_refute_reports_the_budget_at_the_first_chain_over_it(monkeypatch, capsys):
    # With a budget of 8 world pairs the chain with k = 2 is over it, and
    # box false satisfies the equation on the chains before it.
    monkeypatch.setattr(kripke, "_BUDGET", 8)
    out = io.StringIO()
    code = cli.main(["refute", "box false", "--k-max", "8"], out)
    err = capsys.readouterr().err
    assert (code, out.getvalue()) == (1, "")
    assert err.startswith("error: bound-explosion: ") and err.count("\n") == 1
    assert cli.main(["refute", "box false", "--k-max", "1"], io.StringIO()) == 0


def test_check_chain_box_false(m2_path):
    proc = run_cli("check", "box false", "--model", m2_path)
    got = as_dict(proc.stdout)
    assert got["world.0"] == "true"
    assert got["world.1"] == "false"
    assert got["world.2"] == "false"
    assert got["valid"] == "false"


def test_check_tautology_valid(m2_path):
    proc = run_cli("check", "true", "--model", m2_path)
    assert as_dict(proc.stdout)["valid"] == "true"


def test_check_frame_report(m2_path):
    proc = run_cli("check", "true", "--model", m2_path, "--frame")
    got = as_dict(proc.stdout)
    assert got["transitive"] == "true"
    assert got["irreflexive"] == "true"
    assert got["converse-well-founded"] == "true"
    assert got["height"] == "2"
    assert got["height.1"] == "1"
    assert got["classes"] == "FI,FIFD,FH"


def test_check_frame_on_a_long_chain(tmp_path, capsys):
    # World i sees world i + 1: a valid model 1499 steps high.
    m = KripkeModel(tuple(range(1500)), frozenset((i, i + 1) for i in range(1499)),
                    {w: frozenset({"a"}) for w in range(1500)}, {}, {})
    path = tmp_path / "chain.txt"
    path.write_text(format_model(m), encoding="utf-8")
    out = io.StringIO()
    code = cli.main(["check", "true", "--model", str(path), "--frame"], out)
    assert (code, capsys.readouterr().err) == (0, "")
    pairs = as_dict(out.getvalue())
    assert (pairs["height"], pairs["height.0"], pairs["valid"]) == ("1499", "1499", "true")


def test_check_closes_free_variables(m2_path):
    # P(u) is checked as forall u. P(u), which fails on every chain world.
    proc = run_cli("check", "P(u)", "--model", m2_path)
    assert as_dict(proc.stdout)["valid"] == "false"


def test_check_rejects_propositional_variables_on_every_model(tmp_path):
    # One world without successors: box #p never reaches #p there.
    path = tmp_path / "point.model"
    path.write_text("worlds: 1\ndomain: 0 a\n", encoding="utf-8")
    proc = run_cli("check", "box #p", "--model", str(path), expect=1)
    assert proc.stderr == "error: eval-error: propositional variable #p has no truth value in a model\n"
    assert proc.stdout == ""


def test_check_arity_mismatch(m2_path):
    proc = run_cli("check", "P(u, v)", "--model", m2_path, expect=1)
    assert proc.stderr.startswith("error: arity-mismatch: ")


def test_check_missing_model_file():
    proc = run_cli("check", "true", "--model", "/nonexistent.model", expect=1)
    assert proc.stderr.startswith("error: io-error: ")


def test_check_invalid_model_file(tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("worlds: 2\nedge: 0 1\ndomain: 0 a b\ndomain: 1 a\n", encoding="utf-8")
    proc = run_cli("check", "true", "--model", str(path), expect=1)
    assert proc.stderr.startswith("error: model-invalid: ")


def test_verify_fixpoint_small_exhaustive():
    proc = run_cli(
        "verify-fixpoint", "~box #p", "--n", "1",
        "--max-worlds", "2", "--max-domain", "1", "--random", "5",
    )
    got = as_dict(proc.stdout)
    assert got["exhaustive.models"] == "4"
    assert got["exhaustive.failures"] == "0"
    assert got["random.models"] == "5"
    assert got["verdict"] == "pass"


def first_failing_model(models, equation):
    for i, m in enumerate(models):
        if not all(eval_formula(m, w, equation) for w in m.worlds):
            return i, m
    return None


@pytest.mark.parametrize(
    "max_worlds, low, source",
    [
        # One stage too low fails on an enumerated model of height 2.
        (3, 1, "exhaustive"),
        # Stage 0 holds on every one-world model, so a random model fails.
        (1, 0, "random"),
    ],
)
def test_verify_fixpoint_prints_the_first_failing_model(monkeypatch, max_worlds, low, source):
    real = cli.fixpoint.fixpoint_qk
    monkeypatch.setattr(cli.fixpoint, "fixpoint_qk", lambda target, n: real(target, low))
    out = io.StringIO()
    argv = ["verify-fixpoint", "box ~#p", "--n", "2", "--max-worlds", str(max_worlds), "--seed", "4"]
    assert cli.main(argv, out=out) == 1

    target = normalize_variables(FixpointTarget(parse("box ~#p"), "p"))
    stage = real(target, low).result
    equation = universal_closure(iff(stage, subst_prop(target.formula, "p", stage)))
    found = first_failing_model(enumerate_models(max_worlds, 2, {}, max_height=2), equation)
    want = "exhaustive"
    if source == "random":
        assert found is None
        # box ~#p has no predicates, so the random models get a unary P.
        specs = (
            ModelGenSpec(world_count=(1, 2), height_bound=2, signature={"P": 1}, seed=4 + i)
            for i in range(200)
        )
        found = first_failing_model(map(random_model, specs), equation)
        want = f"random seed {4 + found[0]}"
    head, _, tail = out.getvalue().partition("verdict: fail\n")
    assert f"result: {stage}\n" in head
    assert tail == f"counterexample: {want}\n" + format_model(found[1])


def test_first_invalid_lets_earlier_models_decide():
    # The sentence has no constants, as every equation the CLI checks.
    a = frozenset({"a"})
    fails = KripkeModel((0,), frozenset(), {0: a}, {}, {"P": 1})
    holds = KripkeModel((0,), frozenset(), {0: a}, {(0, "P"): frozenset({("a",)})}, {"P": 1})
    sentence = parse("forall u. P(u)")

    def then_raise(models):
        yield from models
        raise GenError("no more models")

    assert cli._first_invalid(then_raise([holds, fails]), sentence) == (1, fails)
    with pytest.raises(GenError):
        cli._first_invalid(then_raise([holds, holds]), sentence)


def test_an_argparse_error_leaves_the_cached_parser_unchanged(capsys):
    argv = ["verify-fixpoint", "~box #p", "--n", "1", "--max-worlds", "2", "--random", "3"]
    first, again = io.StringIO(), io.StringIO()
    assert cli.main(argv, out=first) == 0
    with pytest.raises(SystemExit):
        cli.main(["verify-fixpoint", "~box #p", "--seed", "7", "--n", "x"])
    assert "invalid int value" in capsys.readouterr().err
    assert cli.main(argv, out=again) == 0
    assert again.getvalue() == first.getvalue()
    assert cli.build_parser() is cli.build_parser()


def test_verify_fixpoint_rejects_negative_random():
    proc = run_cli(
        "verify-fixpoint", "~box #p", "--n", "1", "--random", "-3", "--max-worlds", "1", expect=1
    )
    assert proc.stderr.startswith("error: invalid-argument: ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_refute_true():
    proc = run_cli("refute", "true", "--k-max", "2")
    got = as_dict(proc.stdout)
    assert got["k.0"] == "satisfies-equation parity=even-worlds"
    assert got["k.1"] == "refuted failing-world=1"
    assert got["refuted-at"] == "1"
    assert got["failing-world"] == "1"


def test_refute_inconclusive():
    proc = run_cli("refute", "box false", "--k-max", "1")
    got = as_dict(proc.stdout)
    assert got["refuted-at"] == "none"
    assert "inconclusive" in got["note"]


def test_refute_rejects_negative_k_max():
    proc = run_cli("refute", "true", "--k-max", "-1", expect=1)
    assert proc.stderr.startswith("error: invalid-argument: ")


def test_gen_model_deterministic_and_parseable():
    args = (
        "gen-model", "--worlds", "2:3", "--height", "1", "--pred", "P:1",
        "--require", "transitive,irreflexive", "--seed", "11",
    )
    a, b = run_cli(*args), run_cli(*args)
    assert a.stdout == b.stdout
    assert a.stdout.startswith("# gen-model seed=11\n")
    m = parse_model(a.stdout)
    assert 2 <= len(m.worlds) <= 3
    other = run_cli(*args[:-1], "12")
    assert other.stdout != a.stdout


def test_gen_model_bad_pred_flag():
    proc = run_cli("gen-model", "--pred", "P", expect=1)
    assert proc.stderr.startswith("error: invalid-argument: ")


def test_gen_model_over_budget_fails_fast():
    proc = run_cli("gen-model", "--pred", "P:30", "--domain-base", "2:2", expect=1)
    assert proc.stderr.startswith("error: bound-explosion: ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_gen_model_transitive_closure_scales():
    proc = run_cli(
        "gen-model", "--worlds", "400", "--require", "transitive", "--pred", "P:1", timeout=60
    )
    assert parse_model(proc.stdout).worlds == tuple(range(400))
    proc = run_cli("gen-model", "--worlds", "4000", "--pred", "P:1", expect=1, timeout=60)
    assert proc.stderr.startswith("error: bound-explosion: ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_gen_model_unsatisfiable_spec():
    proc = run_cli("gen-model", "--worlds", "3:2", expect=1)
    assert proc.stderr.startswith("error: unsatisfiable-spec: ")


def test_lines_format_is_tab_separated():
    proc = run_cli("refute", "false", "--format", "lines")
    lines = proc.stdout.splitlines()
    assert all("\t" in line for line in lines)
    assert "refuted-at\t0" in lines


def test_reruns_are_byte_identical():
    for args in [
        ("fixpoint", "--logic", "qk-bot", "--n", "2", WORKED, "--format", "lines"),
        ("refute", "true", "--format", "lines"),
        ("verify-fixpoint", "~box #p", "--n", "0", "--random", "3", "--format", "lines"),
    ]:
        assert run_cli(*args).stdout == run_cli(*args).stdout


# ---------------------------------------------------------------------------
# Fuzzing the entry point


def formula_texts() -> st.SearchStrategy[str]:
    """Formula text, well formed or not: holes, free variables, predicates
    a model may lack, and at times one stray token between two others.
    Unary P and Q and nullary R keep verify-fixpoint's model enumeration
    small."""
    leaves = st.sampled_from(["P(u)", "Q(u)", "R", "#p", "#q", "true", "false"])

    def extend(kids: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
        return st.one_of(
            kids.map(lambda a: f"box {a}"),
            kids.map(lambda a: f"~ {a}"),
            st.tuples(kids, st.sampled_from(["&", "|", "->"]), kids).map(
                lambda t: f"( {t[0]} {t[1]} {t[2]} )"
            ),
            st.tuples(st.sampled_from(["forall", "exists"]), kids).map(lambda t: f"{t[0]} u. {t[1]}"),
        )

    def insert(text: str, stray: list[str], at: int) -> str:
        tokens = text.split(" ")
        at %= len(tokens) + 1
        return " ".join(tokens[:at] + stray + tokens[at:])

    # A stray token never comes first, since argparse would read a leading
    # "-" as a flag, and the CLI a leading "@" as a file name.
    stray = st.one_of(
        st.just([]),
        st.sampled_from([")", "(", "&", "->", "box", "#", "u.", "$", "P(", "forall", "P(u, u)"]).map(
            lambda t: [t]
        ),
    )
    return st.tuples(st.recursive(leaves, extend, max_leaves=4), stray, st.integers(1, 30)).map(
        lambda t: insert(*t)
    )


def opt(flag: str, values: st.SearchStrategy) -> st.SearchStrategy[list[str]]:
    """The flag with a drawn value, or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def argvs(models: list[str]) -> st.SearchStrategy[list[str]]:
    """argparse-valid argv over all six subcommands, with small integers."""
    fmt = opt("--format", st.sampled_from(["text", "lines"]))
    seed = opt("--seed", st.integers(0, 5))
    n = st.integers(-1, 4)
    hole = opt("--hole", st.sampled_from(["p", "q"]))
    span = st.one_of(
        st.integers(0, 6).map(str),
        st.lists(st.integers(0, 6), min_size=2, max_size=2).map(lambda t: "{}:{}".format(*sorted(t))),
        st.just("3:1"),
    )

    def flag(name: str, values: st.SearchStrategy) -> st.SearchStrategy[list[str]]:
        return values.map(lambda v: [name, str(v)])

    def cmd(name: str, *parts: st.SearchStrategy) -> st.SearchStrategy[list[str]]:
        # Each part draws a formula text or a list of arguments.
        return st.tuples(*parts).map(
            lambda ps: [name] + [a for p in ps for a in ([p] if isinstance(p, str) else p)]
        )

    return st.one_of(
        cmd("fixpoint", formula_texts(), flag("--logic", st.sampled_from(["qk-bot", "qgl-sigma"])),
            opt("--n", n), hole, fmt, seed),
        cmd("check", formula_texts(), flag("--model", st.sampled_from(models)),
            st.sampled_from([[], ["--frame"]]), fmt, seed),
        cmd("verify-fixpoint", formula_texts(), flag("--n", n), hole,
            flag("--max-worlds", st.integers(0, 2)), flag("--max-domain", st.integers(0, 2)),
            flag("--random", st.integers(-2, 5)), fmt, seed),
        cmd("refute", formula_texts(), opt("--k-max", st.integers(-1, 6)), fmt, seed),
        cmd("gen-model", opt("--worlds", span), opt("--height", st.integers(-1, 3)),
            opt("--domain-base", st.sampled_from(["1:2", "0:1", "3", "2:1", "x"])),
            opt("--domain-growth", st.sampled_from(["0:1", "1", "2:1"])),
            st.lists(st.sampled_from(["P:1", "Q:0", "R:2", "P", "S:x", "P:2"]), max_size=2).map(
                lambda ps: [a for p in ps for a in ("--pred", p)]
            ),
            opt("--density", st.sampled_from([0.0, 0.5, 1.0, 1.5])),
            opt("--require", st.sampled_from(["transitive", "irreflexive", "transitive,irreflexive", "x"])),
            fmt, seed),
        cmd("mk", flag("--k", st.integers(-1, 4)), fmt, seed),
    )


@pytest.fixture(scope="module")
def fuzz_models(tmp_path_factory) -> list[str]:
    """A chain model, a model whose P is binary, one without facts, and a
    path that does not exist."""
    root = tmp_path_factory.mktemp("fuzz")
    texts = {
        "chain.model": "worlds: 3\nedge: 1 0\nedge: 2 0\nedge: 2 1\n"
        "domain: 0 a b\ndomain: 1 a\ndomain: 2 a\nfact: 0 P a\nfact: 2 P a\n",
        "binary.model": "worlds: 2\nedge: 0 1\ndomain: 0 a\ndomain: 1 a b\nfact: 1 P a b\n",
        "bare.model": "worlds: 1\nedge: 0 0\ndomain: 0 c\n",
    }
    for name, text in texts.items():
        (root / name).write_text(text, encoding="utf-8")
    return [str(root / name) for name in [*texts, "missing.model"]]


def test_fuzzed_argv_ends_in_a_result_or_one_error_line(fuzz_models):
    @given(argvs(fuzz_models))
    @settings(max_examples=300, deadline=None)
    def run(argv: list[str]) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv, out=out)
        stderr = err.getvalue()
        if code == 0:
            assert stderr == ""
        elif stderr == "":
            # A failed fixed point check is a result, reported on stdout.
            assert argv[0] == "verify-fixpoint" and "fail" in out.getvalue(), argv
        else:
            assert code == 1 and stderr.startswith("error: ") and stderr.count("\n") == 1, (argv, stderr)

    run()
