"""The benchmark tracer's wrap points still see the calls they time.

`perfbench/spans.py` wraps clipcritic's functions by name at their call
sites. A refactor that renames or bypasses one of them leaves its
per-layer metric at zero without failing anything, so this runs one
oracle item, and one replay of it, under the tracer and checks the span
counts.
"""

import importlib.util
import os
from pathlib import Path

import pytest

import oracle_suite
from clipcritic import evalcli
from clipcritic.core import pretty_json
from clipcritic.evalcli import RunConfig, evaluate, load_dataset
from clipcritic.modelclient import (
    CallableModel,
    Cassette,
    CassetteClient,
    CassetteMode,
    ConcurrencyLimitedClient,
)

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_v01(tmp_path):
    item = load_dataset(oracle_suite.write_suite(str(tmp_path / "suite"))["all"])[0]
    assert item.task.id == "v01"
    return item


def traced_calls(tmp_path, mode):
    """Span counts of oracle item v01 evaluated in `mode` under the tracer."""
    spans = load_spans()
    item = oracle_v01(tmp_path)
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


def test_tracer_times_every_fixture_load(tmp_path):
    spans = load_spans()
    path = oracle_suite.write_suite(str(tmp_path / "suite"))["all"]
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        tracer.begin_item("setup")
        items = evalcli.load_dataset(path)  # the module attribute is the one wrapped
        calls = tracer.end_item()["calls"]
    finally:
        undo()
    assert calls["evalcli.load_dataset"] == 1
    assert calls["fixtures.load"] == len(items) == 20


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


def test_tracer_sees_the_cassette_layer_of_a_replay(tmp_path):
    item = oracle_v01(tmp_path)
    config = RunConfig(mode="agent_critic", traces_dir=str(tmp_path / "traces"))
    cassette = str(tmp_path / "run.cassette.jsonl")
    recorder = CassetteClient(
        Cassette.open(cassette, CassetteMode.RECORD), oracle_suite.scripted_model()
    )
    report_path = tmp_path / "report.json"
    report_path.write_text(pretty_json(evaluate([item], config, recorder)))
    recorded = Path(cassette).read_bytes().count(b"\n")
    assert recorded > 0
    spans = load_spans()
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        tracer.begin_item(item.task.id)
        evalcli.replay_run(  # the module attribute is the one wrapped
            [item], config, cassette, config.traces_dir, str(report_path),
            str(tmp_path / "replayed"),
        )
        calls = tracer.end_item()["calls"]
    finally:
        undo()
    assert calls["modelclient.cassette_open"] == 1
    assert calls["evalcli.replay_run"] == 1
    assert calls["modelclient.replay"] == recorded
    assert calls["modelclient.fingerprint"] == recorded


def test_tracer_counts_each_model_request_once(tmp_path):
    """The tracer counts a request at the outermost `ModelClient.complete`
    on its thread, so each request must pass through `complete` once on one
    thread, whether the capped client runs it alone or in a batch."""
    from test_evalcli import WindowedModel, long_asr_item

    items = long_asr_item(tmp_path)
    windowed, served = WindowedModel(), []
    model = CallableModel(lambda req: served.append(req.tag) or windowed(req))
    recorder = CassetteClient(
        Cassette.open(str(tmp_path / "run.cassette.jsonl"), CassetteMode.RECORD),
        ConcurrencyLimitedClient(model, 2),
    )
    config = RunConfig(mode="agent_critic", backend="model", traces_dir=str(tmp_path / "traces"))
    spans = load_spans()
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        tracer.begin_item(items[0].task.id)
        report = evaluate(items, config, recorder)
        counts = tracer.end_item()["counts"]
    finally:
        undo()
    assert "error" not in report["items"][0]
    assert any("/window/" in tag for tag in served)  # tool windows went out as batches
    assert counts["requests"] == len(served)
