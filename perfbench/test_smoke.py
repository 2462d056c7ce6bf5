"""The benchmark's own test: every workload at smoke size, in seconds.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each metric BENCHMARK.json names is printed with its unit for
every workload, untraced and traced, that every output check passed, and
that the deterministic counters repeat exactly for the same seed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oracle_suite", "long_video_live", "cassette_replay")
DETERMINISTIC = ("model_calls_per_item", "prompt_kchars_per_item", "success_ratio")
LAYER_COUNTS = (
    "modelclient.calls.agent_turn", "modelclient.calls.tool_window",
    "modelclient.calls.asr_chunk", "modelclient.calls.critic",
    "modelclient.frames", "modelclient.unique_ratio", "dsl.run_source.calls",
    "toolkit.call.calls", "agent.prompt_kchars", "critic.prompt_kchars",
)


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return result["metrics"]


def _assert_named(metrics: dict, named: list) -> None:
    for workload in WORKLOADS:
        for spec in named:
            got = metrics[f"{workload}.{spec['name']}"]
            assert got["unit"] == spec["unit"], (workload, spec["name"])
            assert isinstance(got["value"], (int, float)), (workload, spec["name"])


def test_untraced_prints_every_end_to_end_metric_and_repeats_counts():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    first, second = _run(trace=0), _run(trace=0)
    _assert_named(first, bench["end_to_end"])
    for workload in WORKLOADS:
        assert first[f"{workload}.success_ratio"]["value"] == 1.0
        for name in DETERMINISTIC:
            key = f"{workload}.{name}"
            assert first[key] == second[key], key


def test_traced_prints_every_per_layer_metric_and_repeats_counts():
    bench = _benchmark()
    first, second = _run(trace=1), _run(trace=1)
    _assert_named(first, bench["per_layer"])
    for workload in WORKLOADS:
        for name in LAYER_COUNTS:
            key = f"{workload}.{name}"
            assert first[key] == second[key], key
    # the per-layer calls are the model's own count, as in the end-to-end run
    untraced = _run(trace=0)
    for workload in WORKLOADS:
        by_layer = sum(first[f"{workload}.modelclient.calls.{layer}"]["value"]
                       for layer in ("agent_turn", "tool_window", "asr_chunk", "critic"))
        total = untraced[f"{workload}.model_calls_per_item"]["value"]
        assert abs(by_layer - total) < 1e-9, workload
    # the layers each workload exists for
    assert first["oracle_suite.modelclient.calls.tool_window"]["value"] == 0
    assert first["long_video_live.modelclient.record.ms"]["value"] > 0
    assert first["cassette_replay.modelclient.replay.ms"]["value"] > 0
