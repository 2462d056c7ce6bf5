"""The benchmark tracer's wrap points still see the calls they time.

`perfbench/spans.py` wraps clipcritic's functions by name at their call
sites. A refactor that renames or bypasses one of them leaves its
per-layer metric at zero without failing anything, so this runs one
oracle item under the tracer and checks the span counts.
"""

import importlib.util
import os

import pytest

import oracle_suite
from clipcritic.evalcli import RunConfig, evaluate, load_dataset

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_calls(tmp_path, mode):
    """Span counts of oracle item v01 evaluated in `mode` under the tracer."""
    spans = load_spans()
    item = load_dataset(oracle_suite.write_suite(str(tmp_path / "suite"))["all"])[0]
    assert item.task.id == "v01"
    config = RunConfig(mode=mode, traces_dir=str(tmp_path / "traces"))
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        tracer.begin_item(item.task.id)
        report = evaluate([item], config, oracle_suite.scripted_model())
        calls = tracer.end_item()["calls"]
    finally:
        undo()
    assert "error" not in report["items"][0]
    return calls


def test_tracer_sees_every_layer_of_an_agent_critic_item(tmp_path):
    calls = traced_calls(tmp_path, "agent_critic")
    assert calls["agent.episode"] == 3
    assert calls["tools.build_registry"] == 3
    assert calls["toolkit.render_api"] == 2
    assert calls["toolkit.call"] == 8
    assert calls["dsl.run_source"] == 7
    assert calls["dsl.parse"] == 7
    assert calls["dsl.execute"] == 7


# mode -> (toolkit.call, dsl.run_source) for item v01
BASELINE_COUNTS = {
    "direct": (1, 0),
    "single_program": (3, 1),
    "agent": (4, 4),
    "self_eval": (1, 1),
}


@pytest.mark.parametrize("mode", sorted(BASELINE_COUNTS))
def test_tracer_sees_the_episode_of_every_baseline_mode(tmp_path, mode):
    calls = traced_calls(tmp_path, mode)
    assert calls["agent.episode"] == 1
    assert calls["tools.build_registry"] == 1
    assert (calls["toolkit.call"], calls["dsl.run_source"]) == BASELINE_COUNTS[mode]
