"""Benchmark of checked simulator runs, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload transfer_flood --seed 1 --seconds 15 --trace 0

A checked run is `run(scenario)` followed by `check_invariants` on its
trace. The benchmark builds a seeded batch of scenario dicts for the chosen
workload (see workloads.py), loads them with `Scenario.from_dict`, and cycles
through the batch for `--seconds` seconds of checked runs. It fails on a run
that does not quiesce, breaks an invariant or misses the workload's expected
result, and on a re-run of the first scenario whose serialized trace differs.
Timings are wall times scaled to a nominal host speed by a reference kernel
timed before each run (see REF_NOMINAL_S); the raw wall values are printed
next to them.

With `--trace 1` it then repeats the measurement with a span recorded
around each public call of each layer (see spans.py) and reports per-layer
counts and self times instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
each metric with its sample count, the golden trace digests and the
layer accounting.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import (  # noqa: E402
    TARGETS,
    Instrumentation,
    SpanRecorder,
    layer_of,
    leftover_wrappers,
    roots,
    self_times,
)
from workloads import WORKLOADS, outcome  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
GOLDEN = BENCH_DIR / "golden.json"

SETUP_REPEATS = 5
# Reference kernel: fixed pure-Python work, independent of the program, run
# before every checked run. On a shared 2-vCPU virtual machine the speed of
# every process was seen to change by up to a third within minutes.
# Each run's wall time is scaled by the kernel's local speed (the median of
# the kernel samples taken within REF_WINDOW_S before or after the run, and
# at least the five nearest on each side) to the nominal speed at which the
# kernel takes REF_NOMINAL_S; the raw wall figures are printed too.
REF_ITEMS = 60
REF_NOMINAL_S = 0.0005
REF_WINDOW_S = 0.25
TAIL_LADDER = (50, 75, 90, 95, 99)
# The traced phase ends early once this many spans are held in memory.
SPAN_CAP = 1_000_000

# Callables whose raised exceptions are counted as `<span>.errors`.
ERROR_SPANS = ("validator.process_tx", "validator.process_cert",
               "validator.process_unlock_rqt", "validator.process_unlock_cert",
               "validator.process_checkpoint_cert", "sequencer.submit")
# "bench" is the checked run's own self time, mostly its garbage collection.
LAYERS = ("crypto", "types", "authenticators", "validator", "client",
          "sequencer", "counters", "scenario", "runner", "trace", "invariants",
          "bench")

simnet = None  # the program's simulator package, bound by load_program()


def load_program():
    """Import `fastpath.simnet` from this checkout's src/ or exit with 2."""
    global simnet
    if not (SRC / "fastpath" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fastpath.simnet
    if not Path(fastpath.simnet.__file__).resolve().is_relative_to(SRC):
        print("error: fastpath was imported from outside this checkout",
              file=sys.stderr)
        sys.exit(2)
    simnet = fastpath.simnet
    return simnet


def import_seconds() -> float:
    """Time to import the simulator package in a fresh interpreter."""
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
             "t = time.perf_counter(); import fastpath.simnet; "
             "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", probe, str(SRC)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout)


def checked_run(scenario):
    """`run` then `check_invariants`, then a collection of the cyclic garbage
    left since the previous run. Automatic collection is off while the
    benchmark measures, so every run pays for its own garbage instead of
    whichever run a periodic full collection lands on."""
    trace = simnet.run(scenario)
    violations = simnet.check_invariants(trace)
    gc.collect()
    return trace, violations


def reference_kernel() -> int:
    table = {}
    for i in range(REF_ITEMS):
        table[("obj", i % 31, i)] = hashlib.sha256(b"%d:%d" % (i, 7 * i)).digest()
    events = [{"tick": i, "actor": f"v{i % 4}", "kind": "vote",
               "tx": table[("obj", i % 31, i)].hex()} for i in range(REF_ITEMS)]
    text = "\n".join(json.dumps(e, sort_keys=True, separators=(",", ":"))
                     for e in events)
    return len(text) + len(sorted(table, key=lambda k: k[2] % 13))


def time_reference() -> float:
    started = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - started


def moving_median(values, half: int) -> list[float]:
    return [statistics.median(values[max(0, i - half):i + half + 1])
            for i in range(len(values))]


def window_runs(samples) -> int:
    """Kernel samples on each side of a run that span about REF_WINDOW_S."""
    return max(5, round(REF_WINDOW_S * len(samples) / sum(samples)))


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(count: int) -> int:
    """Highest percentile of the ladder with at least ten samples beyond."""
    return max([p for p in TAIL_LADDER if count * (100 - p) / 100 >= 10],
               default=TAIL_LADDER[0])


@dataclass
class Phase:
    """What one measured interval of checked runs produced."""

    samples: list[float] = field(default_factory=list)  # wall s per run
    refs: list[float] = field(default_factory=list)  # kernel s before each
    failures: list[str] = field(default_factory=list)
    finalized: int = 0
    actions: int = 0
    sent: int = 0
    dropped: int = 0
    events: Counter = field(default_factory=Counter)
    trace_chars: int = 0
    serialized: int = 0
    # first pass over the batch: per-scenario trace digests and results
    digests: list[str] = field(default_factory=list)
    batch_digest: str = ""
    finalized_per_scenario: list[int] = field(default_factory=list)
    action_ticks: list[int] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.samples)

    def scaled(self) -> list[float]:
        """Run times in seconds at the nominal host speed."""
        local = moving_median(self.refs, window_runs(self.samples))
        return [s * REF_NOMINAL_S / r for s, r in zip(self.samples, local)]

    def scenario_medians(self, times: list[float]) -> list[float]:
        """Each scenario's median over its repeated runs. A scenario does the
        same work every time, so the spread of its repeats is host noise."""
        size = len(self.finalized_per_scenario)
        return [statistics.median(times[k::size]) for k in range(size)]

    def throughput(self, times: list[float]) -> float:
        """Transactions finalized by one pass over the batch, per second of
        a pass in which every scenario takes its median run time."""
        return (sum(self.finalized_per_scenario)
                / sum(self.scenario_medians(times)))


def measure(workload, datas, scenarios, seconds: float, checked=checked_run,
            per_run=None, stop=lambda: False) -> Phase:
    """Cycle through the batch for `seconds` (at least one full pass),
    timing each checked run and judging its trace outside the timed part."""
    phase = Phase()
    batch = hashlib.sha256()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(scenarios) or (time.perf_counter() < deadline and not stop()):
        k = i % len(scenarios)
        phase.refs.append(time_reference())
        started = time.perf_counter()
        trace, violations = checked(scenarios[k])
        phase.samples.append(time.perf_counter() - started)

        judged = outcome(datas[k], trace, violations, workload.expect)
        if i < len(scenarios):
            text = trace.serialize()
            batch.update(text.encode())
            phase.digests.append(hashlib.sha256(text.encode()).hexdigest())
            phase.finalized_per_scenario.append(judged.finalized)
            phase.action_ticks.extend(judged.action_ticks)
        elif judged.finalized != phase.finalized_per_scenario[k]:
            judged.ok = False
            judged.reason = "finalized count differs from the first pass"
        if not judged.ok:
            phase.failures.append(f"scenario {k}: {judged.reason}")
        phase.finalized += judged.finalized
        phase.actions += len(datas[k]["script"])
        phase.sent += trace.sent
        phase.dropped += trace.dropped
        if per_run is not None:
            per_run(phase, trace)
        i += 1
    phase.batch_digest = batch.hexdigest()
    return phase


def src_lines() -> int:
    return sum(len(path.read_text().splitlines())
               for path in sorted((SRC / "fastpath").rglob("*.py")))


def golden_digest(workload, golden_seed: int, seed: int, phase: Phase) -> str:
    """Digest of the workload's serialized traces at the golden seed."""
    if seed == golden_seed:
        return phase.batch_digest
    batch = hashlib.sha256()
    for data in workload.build(golden_seed):
        trace, _ = checked_run(simnet.Scenario.from_dict(data))
        batch.update(trace.serialize().encode())
    return batch.hexdigest()


def end_to_end(phase: Phase, setup: tuple[float, float], rss_mb: float,
               lines: list[str]) -> dict:
    """End-to-end metrics; timings at the nominal host speed.

    `setup` is (wall seconds, reference-kernel seconds measured with it)."""
    scaled = phase.scaled()
    wall = [s * 1000 for s in phase.scenario_medians(phase.samples)]
    ms = [s * 1000 for s in phase.scenario_medians(scaled)]
    run_tail = tail_percentile(len(ms))
    ticks = phase.action_ticks
    ticks_tail = tail_percentile(len(ticks))
    setup_wall, setup_ref = setup
    passes = phase.runs / len(phase.finalized_per_scenario)
    metrics = {
        "setup_s": (setup_wall * REF_NOMINAL_S / setup_ref, "s"),
        "run_ms_p50": (statistics.median(ms), "ms"),
        "run_ms_tail": (percentile(ms, run_tail), "ms"),
        "finalized_tx_per_s": (phase.throughput(scaled), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "action_ticks_p50": (percentile(ticks, 50), "ticks"),
        "action_ticks_tail": (percentile(ticks, ticks_tail), "ticks"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} imports plus median of "
                   f"{SETUP_REPEATS} set-ups; "
                   f"wall {setup_wall:.4f} s",
        "run_ms_p50": f"n={len(ms)} scenarios, each the median of its "
                      f"runs, {phase.runs} runs in all; wall "
                      f"{statistics.median(wall):.4f} ms",
        "run_ms_tail": f"p{run_tail} over the same n={len(ms)} scenarios; "
                       f"wall {percentile(wall, run_tail):.4f} ms",
        "finalized_tx_per_s": f"{passes:.1f} passes over the batch, "
                              f"{phase.finalized} transactions in all; wall "
                              f"{phase.throughput(phase.samples):.2f} 1/s",
        "peak_rss_mb": "n=1 process",
        "action_ticks_p50": f"n={len(ticks)} scripted actions",
        "action_ticks_tail": f"p{ticks_tail}, n={len(ticks)}",
    }
    speed = REF_NOMINAL_S / statistics.median(phase.refs)
    lines.append(f"host speed: reference kernel median "
                 f"{statistics.median(phase.refs) * 1e3:.4f} ms, so timings "
                 f"below are wall times x{speed:.3f} on median")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit} ({notes[name]})")
    failed = len(phase.failures)
    lines.append(f"failed_share = {failed / phase.runs:.6g} "
                 f"({failed}/{phase.runs} runs)")
    return metrics


def per_layer(recorder: SpanRecorder, traced: Phase, untraced: Phase,
              wall_ns: int, lines: list[str]) -> dict:
    """Per-layer metrics from the traced phase, per checked run; the traced
    set-up loads the batch once, so `scenario.from_dict` is per set-up."""
    names = recorder.names
    name_ids = recorder.column("name")
    parents = recorder.column("parent")
    durations = array("q", (e - s for s, e in zip(recorder.column("start"),
                                                  recorder.column("end"))))
    selfs = self_times(parents, durations)
    top = roots(parents)
    checked_id = names.index("bench.checked_run")
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    layer_ns: Counter = Counter()
    for i, nid in enumerate(name_ids):
        calls[names[nid]] += 1
        self_ns[names[nid]] += selfs[i]
        if name_ids[top[i]] == checked_id:
            layer_ns[layer_of(names[nid])] += selfs[i]
    runs = traced.runs
    finalized = max(traced.finalized, 1)

    metrics: dict = {}
    for name, _, _ in TARGETS:
        if name == "scenario.from_dict":
            metrics[f"{name}.calls"] = (calls[name], "count/setup")
            metrics[f"{name}.self_ms"] = (self_ns[name] / 1e6, "ms/setup")
            continue
        metrics[f"{name}.calls"] = (calls[name] / runs, "count/run")
        metrics[f"{name}.self_ms"] = (self_ns[name] / runs / 1e6, "ms/run")
        if name in ERROR_SPANS:
            metrics[f"{name}.errors"] = (recorder.errors[name] / runs,
                                         "count/run")
    for checker, _ in sys.modules["fastpath.simnet.invariants"].CHECKERS:
        name = f"invariants.{checker}"
        metrics[f"{name}.ms_per_run"] = (self_ns[name] / runs / 1e6, "ms/run")
    for name in ("trace.serialize", "trace.parse"):
        metrics[f"{name}.ms_per_run"] = (self_ns[name] / traced.serialized
                                         / 1e6, "ms/run")
    timer_calls = (calls["client.FastPathDriver.on_timer"]
                   + calls["client.FastUnlockDriver.on_timer"])
    delivered = untraced.sent - untraced.dropped
    metrics.update({
        "crypto.verify.per_finalized_tx": (calls["crypto.verify"] / finalized,
                                           "count/tx"),
        "client.retries.per_action": (timer_calls / max(traced.actions, 1),
                                      "count/action"),
        "sequencer.accept_ratio": (traced.events["sequenced"]
                                   / max(calls["sequencer.submit"], 1),
                                   "ratio"),
        "counters.budget_rejects": (traced.events["budget_reject"] / runs,
                                    "count/run"),
        "counters.consolidations": (traced.events["consolidations"] / runs,
                                    "count/run"),
        "runner.msgs_per_finalized_tx": (traced.sent / finalized, "count/tx"),
        "runner.drop_ratio": (traced.dropped / max(traced.sent, 1), "ratio"),
        "runner.us_per_delivered_msg": (sum(untraced.scaled()) * 1e6
                                        / max(delivered, 1), "us/msg"),
        "trace.bytes_per_run": (traced.trace_chars / traced.serialized,
                                "B/run"),
    })
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_ms"] = (layer_ns[layer] / runs / 1e6,
                                             "ms/run")
    traced_p50 = statistics.median(
        traced.scenario_medians(traced.scaled())) * 1000
    untraced_p50 = statistics.median(
        untraced.scenario_medians(untraced.scaled())) * 1000
    covered = sum(d for d, p in zip(durations, parents) if p < 0)
    metrics["tracing.overhead_ms"] = (traced_p50 - untraced_p50, "ms")
    metrics["tracing.accounted_share"] = (covered / wall_ns, "ratio")

    layer_total = sum(layer_ns.values())
    lines.append(f"traced phase: {runs} checked runs, {len(recorder)} spans")
    lines.append("wall self time per checked run, by layer (traced):")
    for layer in LAYERS:
        share = layer_ns[layer] / layer_total if layer_total else 0.0
        lines.append(f"  {layer:<15} {layer_ns[layer] / runs / 1e6:10.3f} ms"
                     f"  {share:6.1%}")
    checked_ns = sum(d for d, n in zip(durations, name_ids) if n == checked_id)
    lines.append(f"  {'sum of layers':<15} {layer_total / runs / 1e6:10.3f} ms"
                 f" = mean traced checked run {checked_ns / runs / 1e6:.3f} ms")
    lines.append(f"traced wall {wall_ns / 1e9:.3f} s: spans cover "
                 f"{covered / 1e9:.3f} s, the benchmark's own checks outside "
                 f"spans {(wall_ns - covered) / 1e9:.3f} s")
    lines.append(f"tracing overhead: run_ms_p50 traced {traced_p50:.3f} ms - "
                 f"untraced {untraced_p50:.3f} ms = "
                 f"{traced_p50 - untraced_p50:.3f} ms")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    return metrics


def traced_phase(workload, datas, seconds: float, phase_untraced: Phase,
                 lines: list[str]):
    """Measure again with spans around every public call; restore after."""
    recorder = SpanRecorder()
    spanned_run = recorder.wrap("bench.checked_run", checked_run)
    spanned_serialize = recorder.wrap("trace.serialize",
                                      simnet.Trace.serialize)
    spanned_parse = recorder.wrap("trace.parse", simnet.Trace.parse)

    def checked(scenario):
        recorder.run_id += 1
        return spanned_run(scenario)

    def per_run(phase, trace):
        text = spanned_serialize(trace)
        spanned_parse(text)
        phase.serialized += 1
        phase.trace_chars += len(text)
        for event in trace.events:
            if event["kind"] in ("sequenced", "budget_reject"):
                phase.events[event["kind"]] += 1
            elif event["kind"] == "spend_done":
                phase.events["consolidations"] += event["consolidations"]

    started = time.perf_counter_ns()
    with Instrumentation(recorder):
        scenarios = [simnet.Scenario.from_dict(d) for d in datas]
        gc.freeze()
        traced = measure(workload, datas, scenarios, seconds, checked=checked,
                         per_run=per_run,
                         stop=lambda: len(recorder) > SPAN_CAP)
    wall_ns = time.perf_counter_ns() - started
    leftovers = leftover_wrappers()
    metrics = per_layer(recorder, traced, phase_untraced, wall_ns, lines)
    OUT_DIR.mkdir(exist_ok=True)
    recorder.write(OUT_DIR / f"spans-{workload.name}.tsv.gz")
    return traced, metrics, leftovers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import_s = time.perf_counter() - _STARTED
    workload = WORKLOADS[args.workload]

    # set-up = importing the program + building the inputs + one warm-up
    # run; the import is repeated in fresh interpreters
    imports, setup_times, setup_refs = [import_s], [], []
    for i in range(SETUP_REPEATS):
        setup_refs.extend(time_reference() for _ in range(3))
        if i:
            imports.append(import_seconds())
        started = time.perf_counter()
        datas = workload.build(args.seed)
        scenarios = [simnet.Scenario.from_dict(d) for d in datas]
        checked_run(scenarios[0])
        setup_times.append(time.perf_counter() - started)
    setup = (statistics.median(imports) + statistics.median(setup_times),
             statistics.median(setup_refs))

    gc.collect()
    gc.freeze()  # set-up objects stay out of the per-run collections
    gc.disable()
    try:
        return measured(args, workload, datas, scenarios, setup)
    finally:
        gc.enable()
        gc.unfreeze()


def measured(args, workload, datas, scenarios, setup) -> int:
    phase = measure(workload, datas, scenarios, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    lines = [f"workload {workload.name}: {workload.why}",
             f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
             f"batch of {len(datas)} scenarios",
             f"src_lines = {src_lines()}"]
    metrics = end_to_end(phase, setup, rss_mb, lines)
    failures = list(phase.failures)

    rerun, _ = checked_run(scenarios[0])
    rerun_digest = hashlib.sha256(rerun.serialize().encode()).hexdigest()
    if rerun_digest != phase.digests[0]:
        failures.append("re-run of the first scenario gave a different trace")
    lines.append(f"determinism: re-run of scenario 0 "
                 f"{'identical' if rerun_digest == phase.digests[0] else 'DIFFERS'}"
                 f" (sha256 {rerun_digest[:16]})")
    lines.append(f"trace_sha256 seed={args.seed} {phase.batch_digest}")
    golden = json.loads(GOLDEN.read_text())
    expected = golden["sha256"].get(workload.name)
    actual = golden_digest(workload, golden["seed"], args.seed, phase)
    verdict = ("match" if actual == expected else
               "missing" if expected is None else "MISMATCH")
    lines.append(f"golden {workload.name} seed={golden['seed']} {actual} "
                 f"{verdict}")

    attempted = phase.runs
    if args.trace:
        traced, metrics, leftovers = traced_phase(workload, datas, args.seconds,
                                                  phase, lines)
        attempted += traced.runs
        failures.extend(traced.failures)
        if traced.digests != phase.digests:
            failures.append("traced runs produced different traces")
        if leftovers:
            failures.append(f"span wrappers left behind: {leftovers}")

    for failure in failures[:10]:
        lines.append(f"FAILED {failure}")
    print("\n".join(lines))
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
