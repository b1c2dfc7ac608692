"""Per-layer tracing for the benchmark, from outside the program.

The tracer replaces the public functions of the five modalfix modules
with wrappers that record one span per call. A function is replaced in
every modalfix module that binds it, so calls through names imported
with `from .kripke import valid_in_model` are traced as well as calls
through `kripke.valid_in_model`. Spans are kept in memory and written
out when the benchmark ends; nothing inside modalfix changes.

A span records its parent, the benchmark operation it belongs to, and
its self time: its duration minus the time covered by its child spans.
The program is single threaded, so spans nest and a stack suffices.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter
from typing import Callable

# Public functions traced per module. Generators (enumerate_models) get
# one span per model they yield.
LAYERS: dict[str, tuple[str, ...]] = {
    "syntax": ("parse", "format_formula", "subst_prop", "universal_closure", "normalize_variables"),
    "fixpoint": ("fixpoint_qk", "boolean_sigma_fixpoint"),
    "kripke": (
        "batch_truth_masks",
        "valid_in_model",
        "eval_formula",
        "first_failing_world",
        "frame_report",
        "enumerate_models",
        "random_model",
        "parse_model",
        "format_model",
    ),
    "countermodel": ("refutation_table", "chain_model"),
    "cli": ("main",),
}
GENERATORS = frozenset({"kripke.enumerate_models"})
CLI_COMMANDS = ("fixpoint", "check", "verify-fixpoint", "refute", "gen-model", "mk")
ROOT_SPAN = "bench.op"
# Prefix of the metrics of the one traced set-up of a traced run.
SETUP = "setup."

# Work counted at the layer boundaries, in the order they are reported.
COUNTERS = (
    "kripke.checks",
    "kripke.worlds",
    "kripke.models",
    "syntax.parse.bytes_in",
    "syntax.format_formula.bytes_out",
    "fixpoint.result_tree_nodes",
    "fixpoint.result_dag_nodes",
    "countermodel.chains_checked",
    "cli.stdout_bytes",
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for module, funcs in LAYERS.items():
        for func in funcs:
            name = f"{module}.{func}"
            out += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower"),
                    (f"{name}.self_s", "s", "lower")]
    for cmd in CLI_COMMANDS:
        out += [(f"cli.main.{cmd}.calls", "count", "lower"), (f"cli.main.{cmd}.self_s", "s", "lower")]
    out += [(c, "count", "lower") for c in COUNTERS]
    out += [
        (f"{ROOT_SPAN}.self_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.self_sum_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
    for module, funcs in LAYERS.items():
        for func in funcs:
            name = f"{SETUP}{module}.{func}"
            out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [
        (f"{SETUP}kripke.models", "count", "lower"),
        (f"{SETUP}{ROOT_SPAN}.self_s", "s", "lower"),
        (f"{SETUP}import_s", "s", "lower"),
        (f"{SETUP}trace.wall_s", "s", "lower"),
        (f"{SETUP}trace.self_sum_s", "s", "lower"),
    ]
    return out


def node_counts(root) -> tuple[int, int]:
    """(DAG nodes, tree nodes) of a formula: distinct node objects, and
    nodes counted once per path from the root."""
    sizes: dict[int, int] = {}
    stack = [root]
    while stack:
        g = stack[-1]
        if id(g) in sizes:
            stack.pop()
            continue
        kids = [getattr(g, a) for a in ("body", "left", "right") if hasattr(g, a)]
        pending = [k for k in kids if id(k) not in sizes]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        sizes[id(g)] = 1 + sum(sizes[id(k)] for k in kids)
    return len(sizes), sizes[id(root)]


def _count_check(counts: Counter, args, kwargs, result) -> None:
    m, formulas = args[0], args[1]
    counts["kripke.checks"] += len(formulas)
    counts["kripke.worlds"] += len(m.worlds) * len(formulas)


def _count_valid(counts: Counter, args, kwargs, result) -> None:
    counts["kripke.checks"] += 1
    counts["kripke.worlds"] += len(args[0].worlds)


def _count_model(counts: Counter, args, kwargs, result) -> None:
    counts["kripke.models"] += 1


def _count_parse(counts: Counter, args, kwargs, result) -> None:
    counts["syntax.parse.bytes_in"] += len(args[0].encode())


def _count_format(counts: Counter, args, kwargs, result) -> None:
    counts["syntax.format_formula.bytes_out"] += len(result.encode())


def _count_rows(counts: Counter, args, kwargs, result) -> None:
    counts["countermodel.chains_checked"] += len(result)


def _count_stdout(counts: Counter, args, kwargs, result) -> None:
    out = kwargs.get("out", args[1] if len(args) > 1 else None)
    if out is not None:
        counts["cli.stdout_bytes"] += len(out.getvalue().encode())


COUNT_HOOKS: dict[str, Callable] = {
    "kripke.batch_truth_masks": _count_check,
    "kripke.valid_in_model": _count_valid,
    "kripke.random_model": _count_model,
    "kripke.parse_model": _count_model,
    "syntax.parse": _count_parse,
    "syntax.format_formula": _count_format,
    "countermodel.refutation_table": _count_rows,
    "cli.main": _count_stdout,
}


class Tracer:
    """Spans and counters of traced passes. install() and uninstall()
    bracket the traced region; everything else stays untouched."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, op, name, tag, start, end, self)
        self.counts: Counter = Counter()
        self.fixpoint_results: list = []
        self._stack: list[list] = []  # [id, name, tag, start, child_time]
        self._next_id = 0
        self.op = -1
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str, tag: str = "") -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, tag, perf_counter(), 0.0])

    def end(self) -> None:
        t = perf_counter()
        sid, name, tag, start, child = self._stack.pop()
        dur = t - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += dur
        self.spans.append((sid, parent[0] if parent else 0, self.op, name, tag, start, t, dur - child))

    def root(self, op: int, fn: Callable):
        """Run one benchmark operation under a root span."""
        self.op = op
        self.begin(ROOT_SPAN)
        try:
            return fn()
        finally:
            self.end()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = COUNT_HOOKS.get(name)
        calls = name + ".calls"
        counts = self.counts

        if name in GENERATORS:
            def gen_wrapper(*args, **kwargs):
                counts[calls] += 1
                inner = fn(*args, **kwargs)
                while True:
                    self.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.end()
                    counts["kripke.models"] += 1
                    yield item
            return gen_wrapper

        is_cli = name == "cli.main"
        is_fixpoint = name.startswith("fixpoint.")

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            tag = ""
            if is_cli:
                argv = args[0] if args else kwargs.get("argv")
                tag = argv[0] if argv else ""
                counts[f"cli.main.{tag}.calls"] += 1
            self.begin(name, tag)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if hook is not None:
                hook(counts, args, kwargs, result)
            if is_fixpoint:
                self.fixpoint_results.append(result.result)
            return result

        return wrapper

    def install(self, mf) -> None:
        """Replace each traced function wherever a modalfix module binds it."""
        modules = [mf.package, mf.syntax, mf.kripke, mf.fixpoint, mf.countermodel, mf.cli]
        for module_name, funcs in LAYERS.items():
            home = getattr(mf, module_name)
            for func in funcs:
                orig = getattr(home, func)
                wrapper = self._wrap(f"{module_name}.{func}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def take_pass(self, first_span: int, prefix: str = "") -> dict[str, float]:
        """Per-layer metrics of the spans recorded since index first_span,
        plus the counters of that pass; resets the counters. With prefix
        SETUP, the set-up metrics of the same spans."""
        totals: Counter = Counter()
        for _, _, _, name, tag, start, end, self_s in self.spans[first_span:]:
            totals[name + ".s"] += end - start
            totals[name + ".self_s"] += self_s
            if tag:
                totals[f"{name}.{tag}.self_s"] += self_s
        tree = dag = 0
        for r in self.fixpoint_results:
            d, t = node_counts(r)
            dag += d
            tree += t
        self.counts["fixpoint.result_tree_nodes"] += tree
        self.counts["fixpoint.result_dag_nodes"] += dag
        out = {name: 0 if unit == "count" else 0.0 for name, unit, _ in per_layer_metrics()
               if name.startswith(SETUP) == (prefix == SETUP)}
        for key, value in (totals | self.counts).items():
            if prefix + key in out:
                out[prefix + key] = value
        out[prefix + "trace.self_sum_s"] = sum(s[7] for s in self.spans[first_span:])
        self.counts.clear()
        self.fixpoint_results.clear()
        return out

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
