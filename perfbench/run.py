"""clipcritic benchmark: one workload per run, one JSON result on the last line.

    python3 perfbench/run.py --workload oracle_suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 1 --smoke

Run it from the repository root; it imports clipcritic from `src/` and the
oracle suite from `tests/`, and writes only under `.perfbench_work/`,
which it removes on exit. Each workload is a closed loop with one client:
the next item starts when the previous one has returned. A run writes the
workload's generated inputs once, untimed. It then alternates, in a fixed
number of rounds, setting the program up several times (the median is
`setup_s`) and running whole cycles of the workload's items until another
cycle would pass the round's share of `--seconds`. Item times are on the
workload's clock (`hostclock.py`): wall time where items wait on the
model, CPU time rescaled to a nominal host speed where they compute;
set-ups, which never wait on a model, are on the CPU clock. With
`--trace 1` it sets up once, measures half of `--seconds` untraced, then
the same cycles again with spans on, and prints the per-layer metrics and
the tracing overhead instead of the end-to-end ones. `--smoke` shrinks the
videos to 10 minutes, drops the model latency and runs one set-up and one
cycle, for the benchmark's own test. The exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import clipcritic  # noqa: E402  (fails fast without the sources)

if not os.path.abspath(clipcritic.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"clipcritic was imported from {clipcritic.__file__}, not from {ROOT}/src")

import spans  # noqa: E402
from hostclock import Clock  # noqa: E402
from fakemodel import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CLOCK = Clock()

LAYER_NAMES = (
    "model_wait", "modelclient", "fixtures", "tools", "dsl", "toolkit",
    "agent", "critic", "core", "evalcli",
)


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile of the samples."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Run:
    """The timed items of one measurement: per-item ms, failures, costs."""

    def __init__(self):
        self.item_ms: list[float] = []
        self.errors: list[str] = []
        self.wall_s = 0.0
        self.cycles = 0
        self.spent: Counter = Counter()

    def add(self, other: "Run") -> None:
        self.item_ms += other.item_ms
        self.errors += other.errors
        self.wall_s += other.wall_s
        self.cycles += other.cycles
        self.spent += other.spent


def measure(wl, seconds: float, cycles: int | None = None, tracer=None,
            totals=None) -> Run:
    """Whole cycles of wl.ops; stops before a cycle that would pass `seconds`."""
    run = Run()
    before = wl.spent()
    start = time.perf_counter()
    while True:
        CLOCK.calibrate()
        for op in wl.ops:
            if tracer:
                tracer.begin_item(wl.label(op))
            mark = CLOCK.start()
            try:
                result = wl.run(op)
            except Exception as exc:  # a failed operation, counted and reported
                result = exc
            run.item_ms.append(CLOCK.elapsed(mark, wl.wall_clock) * 1000.0)
            if tracer:
                fold(totals, tracer.end_item())
            if isinstance(result, Exception):
                error = f"{wl.label(op)}: {type(result).__name__}: {result}"
            else:
                error = wl.check(op, result)
            wl.clear(op, result)
            if error:
                run.errors.append(error)
        run.cycles += 1
        elapsed = time.perf_counter() - start
        if cycles is not None:
            if run.cycles >= cycles:
                break
        elif elapsed * (run.cycles + 1) / run.cycles > seconds:
            break
    run.wall_s = time.perf_counter() - start
    run.spent = wl.spent() - before
    return run


def fold(totals: dict, item: dict) -> None:
    totals["items"] = totals.get("items", 0) + 1
    for key, counter in item.items():
        totals.setdefault(key, Counter()).update(counter)


def setup_once(wl, work: str) -> float:
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    CLOCK.calibrate()
    mark = CLOCK.start()
    wl.setup(work)
    return CLOCK.elapsed(mark, wall=False)  # no set-up waits on a model


def setup_repeated(wl, work: str, count: int) -> list[float]:
    """Set up `count` times; the workload keeps the last set-up."""
    return [setup_once(wl, os.path.join(work, f"setup{i % 2}")) for i in range(count)]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, run: Run, setup_times: list[float]) -> dict:
    n = len(run.item_ms)
    spent = run.spent
    tail = percentile(run.item_ms, wl.tail_pct)
    beyond = sum(1 for ms in run.item_ms if ms > tail)
    by_layer = ", ".join(
        f"{layer} {spent[f'calls.{layer}'] / n:g}/{spent[f'frames.{layer}'] / n:g}/"
        f"{spent[f'chars.{layer}'] / n / 1000.0:.1f}"
        for layer in LAYERS
    )
    print(f"{wl.name}: {n} items in {run.cycles} cycles, {run.wall_s:.2f} s wall, "
          f"{sum(run.item_ms) / 1000.0:.2f} s item time on the {'wall' if wl.wall_clock else 'cpu'} clock; "
          f"item_ms_tail is p{wl.tail_pct:g} with {beyond} of {n} samples beyond it; "
          f"frames_per_item {spent['frames'] / n:.1f}; "
          f"per item by layer (calls/frames/kchars) {by_layer}; "
          f"{len(setup_times)} set-ups, median {statistics.median(setup_times):.4f} s")
    return {
        "items_per_s": metric(n * 1000.0 / sum(run.item_ms), "1/s"),
        "item_ms_p50": metric(statistics.median(run.item_ms), "ms"),
        "item_ms_tail": metric(tail, "ms"),
        "model_calls_per_item": metric(spent["calls"] / n, "count"),
        "prompt_kchars_per_item": metric(spent["chars"] / n / 1000.0, "kchars"),
        "success_ratio": metric((n - len(run.errors)) / n, "ratio"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def per_layer(totals: dict, setup_totals: dict, tracer, untraced: Run, traced: Run) -> dict:
    n = totals["items"]
    incl, own, calls, counts = (totals.get(k, Counter()) for k in ("incl", "self", "calls", "counts"))

    def ms(counter, name):
        return counter[name] * 1000.0 / n

    def per(value):
        return value / n

    def layer_self(name):
        return sum(v for k, v in own.items() if spans.layer(k) == name)

    def ratio(num, den):
        return num / den if den else 0.0

    # cost units as the model counted them, the same source as the
    # end-to-end cost metrics
    spent = traced.spent
    tool_calls = sum(calls[f"tools.{t}"] for t in ("find_when", "retrieval_qa", "asr_understanding"))
    tool_model_calls = spent["calls.tool_window"] + spent["calls.asr_chunk"]
    item_s = incl["item"]
    shares = {name: layer_self(name) for name in LAYER_NAMES}
    shares["other"] = own["item"]
    untraced_ms = statistics.fmean(untraced.item_ms)
    traced_ms = statistics.fmean(traced.item_ms)
    setup_incl = setup_totals.get("incl", Counter())
    out = {
        **{f"modelclient.calls.{layer}": metric(per(spent[f"calls.{layer}"]), "count")
           for layer in LAYERS},
        "modelclient.wait.ms": metric(ms(incl, "model.wait"), "ms"),
        "modelclient.inflight_peak": metric(tracer.inflight_peak, "count"),
        "modelclient.unique_ratio": metric(ratio(counts["unique_requests"], counts["requests"]), "ratio"),
        "modelclient.frames": metric(per(spent["frames"]), "count"),
        "modelclient.fingerprint.calls": metric(per(calls["modelclient.fingerprint"]), "count"),
        "modelclient.fingerprint.ms": metric(ms(incl, "modelclient.fingerprint"), "ms"),
        "modelclient.replay.ms": metric(ms(own, "modelclient.replay"), "ms"),
        "modelclient.record.ms": metric(ms(own, "modelclient.record"), "ms"),
        "modelclient.cassette_open.ms": metric(ms(incl, "modelclient.cassette_open"), "ms"),
        "fixtures.windows.calls": metric(per(calls["fixtures.windows"]), "count"),
        "fixtures.windows.ms": metric(ms(incl, "fixtures.windows"), "ms"),
        "fixtures.sample_frames.calls": metric(per(calls["fixtures.sample_frames"]), "count"),
        "fixtures.sample_frames.ms": metric(ms(incl, "fixtures.sample_frames"), "ms"),
        "fixtures.load.ms": metric(setup_incl["fixtures.load"] * 1000.0, "ms"),
        "tools.find_when.calls": metric(per(calls["tools.find_when"]), "count"),
        "tools.retrieval_qa.calls": metric(per(calls["tools.retrieval_qa"]), "count"),
        "tools.asr_understanding.calls": metric(per(calls["tools.asr_understanding"]), "count"),
        "tools.self.ms": metric(layer_self("tools") * 1000.0 / n, "ms"),
        "tools.context_frames.ms": metric(ms(incl, "tools.context_frames"), "ms"),
        "tools.build_registry.ms": metric(ms(incl, "tools.build_registry"), "ms"),
        "tools.model_calls_per_tool_call": metric(ratio(tool_model_calls, tool_calls), "ratio"),
        "dsl.run_source.calls": metric(per(calls["dsl.run_source"]), "count"),
        "dsl.parse.ms": metric(ms(incl, "dsl.parse"), "ms"),
        "dsl.execute.ms": metric(ms(own, "dsl.execute"), "ms"),
        "dsl.parse_errors": metric(per(counts["dsl.errors"]), "count"),
        "toolkit.call.calls": metric(per(calls["toolkit.call"]), "count"),
        "toolkit.call.errors": metric(per(counts["toolkit.errors"]), "count"),
        "toolkit.render_api.ms": metric(ms(incl, "toolkit.render_api"), "ms"),
        "toolkit.load_prompt_text.calls": metric(per(calls["toolkit.load_prompt_text"]), "count"),
        "toolkit.load_prompt_text.ms": metric(ms(incl, "toolkit.load_prompt_text"), "ms"),
        "agent.episodes": metric(per(calls["agent.episode"]), "count"),
        "agent.turns": metric(per(spent["calls.agent_turn"]), "count"),
        "agent.self.ms": metric(layer_self("agent") * 1000.0 / n, "ms"),
        "agent.prompt_kchars": metric(per(spent["chars.agent_turn"]) / 1000.0, "kchars"),
        "agent.stop.finished": metric(per(counts["stop.finished"]), "count"),
        "agent.stop.forced_answer": metric(per(counts["stop.forced_answer"]), "count"),
        "critic.build_prompt.ms": metric(ms(incl, "critic.build_prompt"), "ms"),
        "critic.prompt_kchars": metric(per(spent["chars.critic"]) / 1000.0, "kchars"),
        "critic.parse_verdict.ms": metric(ms(incl, "critic.parse_verdict"), "ms"),
        "critic.fallback_ratio": metric(ratio(counts["critic.fallbacks"], counts["critic.runs"]), "ratio"),
        "core.iou.calls": metric(per(calls["core.iou"]), "count"),
        "core.iou.ms": metric(ms(incl, "core.iou"), "ms"),
        "core.parse_final_answer.ms": metric(ms(incl, "core.parse_final_answer"), "ms"),
        "evalcli.run_item.self.ms": metric(ms(own, "evalcli.run_item"), "ms"),
        "evalcli.persist.ms": metric(ms(incl, "evalcli.persist"), "ms"),
        "evalcli.persist.kbytes": metric(per(counts["persist.bytes"]) / 1000.0, "kB"),
        "evalcli.replay_compare.ms": metric(ms(own, "evalcli.replay_run"), "ms"),
        "evalcli.load_dataset.ms": metric(setup_incl["evalcli.load_dataset"] * 1000.0, "ms"),
        **{f"share.{name}": metric(100.0 * ratio(value, item_s), "%")
           for name, value in shares.items()},
        "trace.spans_per_item": metric(per(counts["spans"]), "count"),
        "trace.overhead_ms_per_item": metric(traced_ms - untraced_ms, "ms"),
        "trace.overhead_pct": metric(100.0 * ratio(traced_ms - untraced_ms, untraced_ms), "%"),
    }
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    wl = WORKLOADS[name](seed, smoke)
    work = os.path.join(ROOT, ".perfbench_work", f"{name}-{os.getpid()}")
    try:
        wl.prepare(os.path.join(work, "inputs"))
        cycles = 1 if smoke else None
        if not trace:
            # set-ups and measured cycles alternate in rounds, so both
            # sample the host's speed over the whole run, not one phase of it
            rounds = 1 if smoke else wl.rounds
            repeats = 1 if smoke else wl.setup_repeats // rounds
            setup_times, run = [], Run()
            for _ in range(rounds):
                setup_times += setup_repeated(wl, work, repeats)
                run.add(measure(wl, seconds / rounds, cycles))
            metrics = end_to_end(wl, run, setup_times)
            runs = [run]
        else:
            setup_once(wl, os.path.join(work, "setup"))
            untraced = measure(wl, seconds / 2.0, cycles)
            tracer = spans.Tracer()
            undo = spans.install(tracer)
            try:
                setup_totals: dict = {}
                tracer.begin_item("setup")
                setup_once(wl, os.path.join(work, "traced-setup"))
                fold(setup_totals, tracer.end_item())
                model = getattr(wl, "model", None)
                if model is not None:
                    model.spans = tracer
                totals: dict = {}
                traced = measure(wl, seconds, untraced.cycles, tracer, totals)
            finally:
                undo()
            metrics = per_layer(totals, setup_totals, tracer, untraced, traced)
            runs = [untraced, traced]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    attempted = sum(len(r.item_ms) for r in runs)
    errors = [e for r in runs for e in r.errors]
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, so peak RSS is per workload.

    A workload whose checks fail still reports its result and the others
    still run; the exit code is 1 if any workload failed or crashed.
    """
    results = {}
    crashed = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode not in (0, 1) or not isinstance(result, dict):
            print(f"{name}: exit code {proc.returncode} without a result", file=sys.stderr)
            crashed.append(name)
            continue
        results[name] = result
        print(f"{name}: {lines[-1]}")
    correct = not crashed and all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, sum(r["attempted"] for r in results.values())),
        "failed": sum(r["failed"] for r in results.values()) + len(crashed),
        "metrics": {f"{name}.{key}": value for name, r in results.items()
                    for key, value in r["metrics"].items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
