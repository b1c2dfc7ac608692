#!/usr/bin/env python3
"""modalfix benchmark: one workload per run, single process, single thread.

    python3 bench/run.py --workload {sweep,stages,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.
Set-up (import of modalfix plus building the workload's inputs from the
seed) is timed SETUP_REPEATS times: once before the first pass, then
spread over the run between passes. Passes of the workload's fixed
operation list run, one after another, until S seconds have gone and at
least two passes are done. Each pass is gated outside the timed region,
its work counters must equal those of the first pass, and one more pass
built from HELDOUT_SEED goes through the same gate.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes, traces one more set-up, and prints the per-layer
metrics, with the tracing overhead. Both print a readable report, write a run record (and with
--trace 1 the spans) under bench/out, and end with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 21
MIN_PASSES = 2
# Never used while tuning the benchmark, so claims can be checked on it.
HELDOUT_SEED = 9_999_991


def import_program() -> types.SimpleNamespace:
    """Import modalfix afresh from the checkout's src directory."""
    for name in [n for n in sys.modules if n == "modalfix" or n.startswith("modalfix.")]:
        del sys.modules[name]
    package = importlib.import_module("modalfix")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: modalfix was imported from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        package=package,
        syntax=importlib.import_module("modalfix.syntax"),
        kripke=importlib.import_module("modalfix.kripke"),
        fixpoint=importlib.import_module("modalfix.fixpoint"),
        countermodel=importlib.import_module("modalfix.countermodel"),
        cli=importlib.import_module("modalfix.cli"),
    )


def set_up(workload_cls, seed: int, tiny: bool):
    """One set-up from scratch: (modalfix modules, workload, seconds)."""
    gc.collect()
    t0 = perf_counter()
    mf = import_program()
    wl = workload_cls(mf, seed, tiny)
    return mf, wl, perf_counter() - t0


def traced_set_up(workload_cls, seed: int, tiny: bool, tracer) -> dict[str, float]:
    """The set-up metrics of one more set-up, built under the tracer."""
    from spans import SETUP

    gc.collect()
    t0 = perf_counter()
    mf = import_program()
    import_s = perf_counter() - t0
    first_span = len(tracer.spans)
    tracer.install(mf)
    try:
        t0 = perf_counter()
        wl = tracer.root(-1, lambda: workload_cls(mf, seed, tiny))
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    wl.close()
    return tracer.take_pass(first_span, SETUP) | {f"{SETUP}import_s": import_s, f"{SETUP}trace.wall_s": wall}


def run_pass(wl, tracer=None):
    """One pass: (pass seconds, per-op seconds, per-op digests for the gate).

    The pass time is the sum of the operation times. Each result is
    reduced to its digest between operations, outside the timing, so that
    large outputs do not pile up in memory during the pass and make later
    operations pay for garbage collection of earlier ones."""
    ops = wl.pass_ops()
    digests, latencies = [], []
    gc.collect()
    for i, fn in enumerate(ops):
        t0 = perf_counter()
        try:
            r = tracer.root(i, fn) if tracer else fn()
        except Exception as exc:  # a failing operation fails the gate, not the run
            r = exc
        latencies.append(perf_counter() - t0)
        digests.append(r if isinstance(r, Exception) else wl.digest(r))
        del r
    return sum(latencies), latencies, digests


def measure(wl, mf, seconds: float, set_up_again, tracer=None) -> dict:
    """Timed passes until `seconds` have gone and MIN_PASSES are done; with
    a tracer, untraced and traced passes alternate. Each pass is gated.

    Between passes, set_up_again() times another set-up, about every
    seconds / SETUP_REPEATS, so that the set-up times sample the whole run
    and not only its first moments."""
    walls: dict[bool, list[float]] = {False: [], True: []}
    op_latencies: list[list[float]] = []  # per untraced pass, the latency of each operation
    layer_passes: list[dict] = []
    setups: list[float] = []
    counters = None
    repeat_ok = True
    attempted = failed = 0
    start = perf_counter()
    while len(walls[False]) + len(walls[True]) < MIN_PASSES or perf_counter() - start < seconds:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        if traced:
            first_span = len(tracer.spans)
            tracer.install(mf)
            try:
                wall, lat, results = run_pass(wl, tracer)
            finally:
                tracer.uninstall()
            layer_passes.append(tracer.take_pass(first_span) | {"trace.wall_s": wall})
        else:
            wall, lat, results = run_pass(wl)
            op_latencies.append(lat)
        walls[traced].append(wall)
        ok, pass_counters = wl.gate(results)
        del results
        attempted += len(ok)
        failed += ok.count(False)
        counters = counters or pass_counters
        repeat_ok &= pass_counters == counters
        if len(setups) < SETUP_REPEATS - 1 and perf_counter() - start >= (len(setups) + 1) * seconds / SETUP_REPEATS:
            setups.append(set_up_again())
    while len(setups) < SETUP_REPEATS - 1:
        setups.append(set_up_again())
    return dict(passes=walls[False], traced_passes=walls[True], op_latencies=op_latencies,
                layer_passes=layer_passes, setups=setups, counters=counters, repeat_ok=repeat_ok,
                attempted=attempted, failed=failed)


def fastest_op_times(run: dict) -> list[float]:
    """Each operation's fastest time over the run's untraced passes.

    Other tenants of a shared machine only ever add time, and on the
    machine this was tuned on they slow whole stretches of a run, some
    seconds to tens of seconds long, by up to 2x. A median then flips
    between a fast and a slow mode from run to run, and even the fastest
    whole pass needs a quiet stretch of a full pass. An operation's
    fastest time needs only one quiet moment for that operation."""
    return [min(times) for times in zip(*run["op_latencies"])]


def end_to_end(run: dict, setup_times: list[float], peak_rss_mb: float) -> dict[str, tuple[float, str, int]]:
    """(value, unit, sample count) of each end-to-end metric."""
    fastest = fastest_op_times(run)
    percentiles = statistics.quantiles([t * 1e3 for t in fastest], n=100)
    passes = len(run["passes"])
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (sum(fastest), "s", passes),
        "op_p50_ms": (percentiles[49], "ms", len(fastest)),
        "op_p90_ms": (percentiles[89], "ms", len(fastest)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }


def per_layer(run: dict, setup_layers: dict[str, float]) -> tuple[dict[str, tuple[float, str]], bool]:
    """Median over the traced passes of each per-layer metric, the metrics
    of the traced set-up, and whether every count was the same in each
    traced pass."""
    from spans import SETUP, per_layer_metrics

    layers, repeat_ok = {}, True
    for name, unit, _ in per_layer_metrics():
        if name.startswith(SETUP):
            layers[name] = (setup_layers[name], unit)
            continue
        values = [p[name] for p in run["layer_passes"]]
        if unit == "count":
            repeat_ok &= len(set(values)) == 1
            layers[name] = (values[0], unit)
        else:
            layers[name] = (statistics.median(values), unit)
    untraced = statistics.median(run["passes"])
    layers["trace.untraced_wall_s"] = (untraced, "s")
    layers["trace.overhead"] = (layers["trace.wall_s"][0] / untraced - 1, "ratio")
    return layers, repeat_ok


def print_layers(layers: dict[str, tuple[float, str]], run: dict) -> None:
    from spans import COUNTERS, SETUP, per_layer_metrics

    wall = layers["trace.wall_s"][0]
    print(f"per-layer, median of {len(run['layer_passes'])} traced passes "
          f"(overhead {layers['trace.overhead'][0]:+.3%} against {len(run['passes'])} untraced passes; "
          f"self times sum to {layers['trace.self_sum_s'][0] / wall:.2%} of traced wall_s)")
    print_table(layers, [n for n, _, _ in per_layer_metrics() if not n.startswith(SETUP)], wall)
    for name in COUNTERS:
        print(f"  {name:<38} {layers[name][0]}")
    setup_wall = layers[f"{SETUP}trace.wall_s"][0]
    print(f"set-up, one traced build: {setup_wall:.4f} s after an import of "
          f"{layers[f'{SETUP}import_s'][0]:.4f} s; {layers[f'{SETUP}kripke.models'][0]} models")
    print_table(layers, [n for n, _, _ in per_layer_metrics() if n.startswith(SETUP)], setup_wall)


def print_table(layers: dict[str, tuple[float, str]], names: list[str], wall: float) -> None:
    print(f"  {'span':<38} {'calls':>8} {'s':>10} {'self_s':>10} {'self %':>7}")
    rows = [n[:-len(".self_s")] for n in names if n.endswith(".self_s")]
    for name in sorted(rows, key=lambda n: (".main." in n, -layers[n + ".self_s"][0])):
        calls = layers.get(name + ".calls", ("-",))[0]
        total = layers.get(name + ".s")
        self_s = layers[name + ".self_s"][0]
        if self_s or calls:
            total = "-" if total is None else f"{total[0]:.4f}"
            print(f"  {name:<38} {calls:>8} {total:>10} {self_s:10.4f} {self_s / wall:7.2%}")


def main(argv=None) -> int:
    from workloads import OUT_DIR, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "modalfix" / "__init__.py").is_file():
        print(f"error: no modalfix sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    workload_cls = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    def set_up_again() -> float:
        _, other, seconds = set_up(workload_cls, args.seed, args.tiny)
        other.close()
        return seconds

    mf, wl, first_setup = set_up(workload_cls, args.seed, args.tiny)
    try:
        run = measure(wl, mf, args.seconds, set_up_again, tracer)
        acceptance_ok = wl.acceptance_ok()
        setup_layers = traced_set_up(workload_cls, args.seed, args.tiny, tracer) if tracer else {}
    finally:
        wl.close()
    del wl
    # The workload's peak: set-ups and passes, but not the held-out pass.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_times = [first_setup] + run["setups"]
    held = workload_cls(mf, HELDOUT_SEED, args.tiny)
    try:
        held_ok, held_counters = held.gate(run_pass(held)[2])
    finally:
        held.close()

    attempted = run["attempted"] + len(held_ok)
    failed = run["failed"] + held_ok.count(False)
    repeat_ok = run["repeat_ok"]
    if args.trace:
        layers, layers_repeat = per_layer(run, setup_layers)
        repeat_ok &= layers_repeat
    correct = failed == 0 and repeat_ok and acceptance_ok
    tag = f"{args.workload}-seed{args.seed}" + ("-tiny" if args.tiny else "")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "python": sys.version.split()[0],
        "correct": correct, "attempted": attempted, "failed": failed,
        "counters": run["counters"], "counters_repeat": repeat_ok,
        "acceptance_counts_match": acceptance_ok,
        "heldout": {"seed": HELDOUT_SEED, "ops": len(held_ok), "failed": held_ok.count(False),
                    "counters": held_counters},
        "setup_s": setup_times, "pass_wall_s": run["passes"], "traced_pass_wall_s": run["traced_passes"],
        "pass_op_s": run["op_latencies"],
    }

    print(f"workload {args.workload}  seed {args.seed}  python {record['python']}")
    print(f"gate: {'pass' if correct else 'FAIL'}  attempted {attempted}  failed {failed}  "
          f"fail_ratio {failed / attempted:.6f} (n={attempted})  counters repeat: {repeat_ok}  "
          f"acceptance counts: {acceptance_ok}  held-out seed {HELDOUT_SEED}: "
          f"{held_ok.count(False)} of {len(held_ok)} failed")
    print(f"counters per pass: {json.dumps(run['counters'])}")
    if args.trace:
        print_layers(layers, run)
        record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        spans_path = OUT_DIR / f"spans-{tag}.jsonl"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                                  "fields": ["id", "parent", "op", "name", "tag", "start", "end", "self_s"]})
        print(f"spans: {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        result_metrics = record["metrics"]
    else:
        metrics = end_to_end(run, setup_times, peak_rss_mb)
        for name, (value, unit, n) in metrics.items():
            print(f"  {name:<14} {value:14.6f} {unit:<5} (n={n})")
        print(f"  (each operation's fastest time over n passes: wall_s is their sum, op_p50_ms and "
              f"op_p90_ms their percentiles over the n operations; setup_s: median of n set-ups)")
        checks = run["counters"].get("checks")
        if checks:
            per_s = checks / metrics["wall_s"][0]
            print(f"  {'checks_per_s':<14} {per_s:14.1f} 1/s   (n={len(run['passes'])})")
        record["metrics"] = {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()}
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}

    (OUT_DIR / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
