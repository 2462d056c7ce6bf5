"""The benchmark tracer's wrap points still see the calls they time.

`perfbench/spans.py` wraps clipcritic's functions by name at their call
sites. A refactor that renames or bypasses one of them leaves its
per-layer metric at zero without failing anything, so this runs one
oracle item under the tracer and checks the span counts.
"""

import importlib.util
import os

import oracle_suite
from clipcritic.evalcli import RunConfig, evaluate, load_dataset

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer_of_an_agent_critic_item(tmp_path):
    spans = load_spans()
    item = load_dataset(oracle_suite.write_suite(str(tmp_path / "suite"))["all"])[0]
    config = RunConfig(mode="agent_critic", traces_dir=str(tmp_path / "traces"))
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        tracer.begin_item(item.task.id)
        report = evaluate([item], config, oracle_suite.scripted_model())
        calls = tracer.end_item()["calls"]
    finally:
        undo()
    assert "error" not in report["items"][0]
    assert calls["agent.episode"] == 3
    assert calls["tools.build_registry"] == 3
    assert calls["toolkit.render_api"] == 2
    assert calls["toolkit.call"] == 8
    assert calls["dsl.run_source"] == 7
    assert calls["dsl.parse"] == 7
    assert calls["dsl.execute"] == 7
