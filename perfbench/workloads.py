"""The three workloads: inputs, set-up, one cycle of operations, checks.

`prepare(inputs)` writes a workload's generated files once per run and is
not timed. `setup(work)` is the program's set-up that `setup_s` times:
loading the dataset and its fixtures, opening cassettes and, for
`cassette_replay`, recording the baselines it replays.

Each operation is one dataset item through a public entry point:
`evalcli.evaluate([item], ...)` or `evalcli.replay_run([item], ...)`. The
entry points are looked up on the module at call time so the traced run's
wrappers see them. `run(op)` is the timed part; `check(op, result)`
returns an error message, or None when the output is right; `clear(op,
result)`, untimed, removes the trace files the operation wrote.

Clearing matters for timing, not for the checks. A run repeats each
operation hundreds of times into the same directory, and on ext4
rewriting an existing file through truncation makes close() wait for the
disk (`auto_da_alloc`). Every item would then wait on the host's shared
disk, as a fresh evaluation run writing new trace files does not.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter

from clipcritic import evalcli
from clipcritic.evalcli import RunConfig
from clipcritic.modelclient import (
    Cassette,
    CassetteClient,
    CassetteMode,
    ConcurrencyLimitedClient,
)

from fakemodel import BenchModel, LiveReplies, ScriptReplies
import itemgen

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "oracle_records.json")

LONG_VIDEO_S = 2 * 3600
SMOKE_VIDEO_S = 600
LIVE_LATENCY_S = 0.020
CONCURRENCY = 2


def _live_config(traces_dir: str) -> RunConfig:
    return RunConfig(
        mode="agent_critic", backend="model", concurrency=CONCURRENCY, traces_dir=traces_dir
    )


def _remove_files(directory: str, names) -> None:
    for name in names:
        try:
            os.unlink(os.path.join(directory, name))
        except FileNotFoundError:
            pass


def _live_check(item, record) -> str | None:
    if "error" in record:
        return f"{item.task.id}: {record['error']}"
    if record.get("correct") is True or record.get("iou") == 1.0:
        return None
    return f"{item.task.id}: selected {record['selected']} is not the generated truth"


class OracleSuite:
    """The 20-task oracle suite in all five modes, zero-latency scripted model."""

    name = "oracle_suite"
    wall_clock = False
    tail_pct = 95.0
    setup_repeats = 100
    rounds = 10

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        with open(GOLDEN, encoding="utf-8") as fh:
            self.golden = json.load(fh)

    def prepare(self, inputs: str) -> None:
        import oracle_suite  # tests/oracle_suite.py, read only

        self.dataset = oracle_suite.write_suite(inputs)["all"]
        self.replies = ScriptReplies(oracle_suite.merged_scripts())

    def setup(self, work: str) -> None:
        items = evalcli.load_dataset(self.dataset)
        self.model = BenchModel(self.replies)
        self.configs = {
            mode: RunConfig(mode=mode, traces_dir=os.path.join(work, "traces"))
            for mode in evalcli.MODES
        }
        self.ops = [(mode, item) for mode in evalcli.MODES for item in items]
        random.Random(self.seed).shuffle(self.ops)

    def label(self, op) -> str:
        return f"{op[0]}:{op[1].task.id}"

    def run(self, op):
        mode, item = op
        self.replies.reset()
        return evalcli.evaluate([item], self.configs[mode], self.model)["items"][0]

    def check(self, op, record) -> str | None:
        mode, item = op
        if record != self.golden[mode][item.task.id]:
            return f"{mode}/{item.task.id}: record differs from the golden record"
        return None

    def clear(self, op, record) -> None:
        if isinstance(record, dict):
            _remove_files(self.configs[op[0]].traces_dir, record.get("trace_files", ()))

    def spent(self) -> Counter:
        """Cost units so far: calls, frames, chars, each also by tag layer."""
        return Counter(self.model.counts)


class LongVideoLive:
    """agent_critic over 2 h model-backed items, 20 ms per model call, recorded."""

    name = "long_video_live"
    wall_clock = True  # item time is model latency
    tail_pct = 100.0
    setup_repeats = 20
    rounds = 2

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.duration = SMOKE_VIDEO_S if smoke else LONG_VIDEO_S
        self.latency = 0.0 if smoke else LIVE_LATENCY_S

    def prepare(self, inputs: str) -> None:
        self.specs = itemgen.generate(self.seed, self.duration)
        self.dataset = itemgen.write_items(self.specs, inputs)

    def setup(self, work: str) -> None:
        items = evalcli.load_dataset(self.dataset)
        self.model = BenchModel(LiveReplies(self.specs), self.latency)
        cassette = Cassette.open(os.path.join(work, "live.cassette.jsonl"), CassetteMode.RECORD)
        self.client = CassetteClient(cassette, ConcurrencyLimitedClient(self.model, CONCURRENCY))
        self.config = _live_config(os.path.join(work, "traces"))
        self.ops = list(items)
        random.Random(self.seed).shuffle(self.ops)

    def label(self, op) -> str:
        return op.task.id

    def run(self, item):
        return evalcli.evaluate([item], self.config, self.client)["items"][0]

    def check(self, item, record) -> str | None:
        return _live_check(item, record)

    def clear(self, item, record) -> None:
        if isinstance(record, dict):
            _remove_files(self.config.traces_dir, record.get("trace_files", ()))

    def spent(self) -> Counter:
        return Counter(self.model.counts)


class CassetteReplay:
    """replay_run of long_video_live-shaped items recorded at set-up."""

    name = "cassette_replay"
    wall_clock = False
    tail_pct = 90.0
    setup_repeats = 12
    rounds = 4

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.duration = SMOKE_VIDEO_S if smoke else LONG_VIDEO_S

    prepare = LongVideoLive.prepare

    def setup(self, work: str) -> None:
        items = evalcli.load_dataset(self.dataset)
        model = BenchModel(LiveReplies(self.specs))
        self.recorded = {}
        self.costs = {}
        self.replayed: Counter = Counter()
        os.makedirs(os.path.join(work, "recorded"))
        for item in items:
            base = os.path.join(work, "recorded", item.task.id)
            paths = {
                "cassette_path": base + ".cassette.jsonl",
                "baseline_traces_dir": base + ".traces",
                "baseline_report_path": base + ".report.json",
                "out_dir": os.path.join(work, "replayed", item.task.id),
            }
            before = Counter(model.counts)
            client = CassetteClient(
                Cassette.open(paths["cassette_path"], CassetteMode.RECORD),
                ConcurrencyLimitedClient(model, CONCURRENCY),
            )
            report = evalcli.evaluate(
                [item], _live_config(paths["baseline_traces_dir"]), client
            )
            error = _live_check(item, report["items"][0])
            if error:
                raise RuntimeError(f"recording for replay failed: {error}")
            with open(paths["baseline_report_path"], "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            self.recorded[item.task.id] = paths
            self.costs[item.task.id] = Counter(model.counts) - before
        # replay_run writes to each item's out_dir instead of traces_dir
        self.config = _live_config(os.path.join(work, "replayed"))
        self.ops = list(items)
        random.Random(self.seed).shuffle(self.ops)

    def label(self, op) -> str:
        return op.task.id

    def run(self, item):
        try:
            evalcli.replay_run([item], self.config, **self.recorded[item.task.id])
        except evalcli.ReplayDivergence as exc:
            return str(exc)
        return None

    def check(self, item, divergence) -> str | None:
        if divergence:
            return f"{item.task.id}: {divergence}"
        # a replay that matched issued exactly the recorded requests
        self.replayed.update(self.costs[item.task.id])
        return None

    def clear(self, item, divergence) -> None:
        out_dir = self.recorded[item.task.id]["out_dir"]
        if os.path.isdir(out_dir):
            _remove_files(out_dir, os.listdir(out_dir))

    def spent(self) -> Counter:
        return Counter(self.replayed)


WORKLOADS = {w.name: w for w in (OracleSuite, LongVideoLive, CassetteReplay)}
