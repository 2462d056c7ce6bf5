"""Dataset loading, evaluation modes, ablation, replay, and the CLI."""

import dataclasses
import json
import os
import re
import sys
import threading
import time
import zlib
from importlib import resources
from pathlib import Path

import pytest

import oracle_suite
from clipcritic import critic, evalcli
from clipcritic.core import Choice, Ranges, TaskKind, UsageError
from clipcritic.evalcli import (
    DataError,
    ReplayDivergence,
    RunConfig,
    ablate_fixed_subsets,
    evaluate,
    load_config_file,
    load_dataset,
    main,
    replay_run,
    run_item,
)
from clipcritic.modelclient import (
    CallableModel,
    Cassette,
    CassetteClient,
    CassetteMode,
    ConcurrencyLimitedClient,
    FatalTransportError,
    FramesPart,
    HttpModelClient,
    ModelTransportError,
    ScriptedModel,
    episode_key,
)
from clipcritic.toolkit import PROFILES, StrategySubset, profile_for_task


@pytest.fixture(scope="module")
def suite_paths(tmp_path_factory):
    return oracle_suite.write_suite(str(tmp_path_factory.mktemp("suite")))


@pytest.fixture(scope="module")
def all_items(suite_paths):
    return load_dataset(suite_paths["all"])


@pytest.fixture(scope="module")
def temporal_items(suite_paths):
    return load_dataset(suite_paths["temporal"])


def config(mode, tmp_path, **kw):
    return RunConfig(mode=mode, traces_dir=str(tmp_path / "traces"), **kw)


# --- dataset loading ---


def test_load_dataset_suite(suite_paths, all_items):
    assert len(all_items) == 20
    by_id = {item.task.id: item for item in all_items}
    v01 = by_id["v01"]
    assert v01.task.kind is TaskKind.MULTIPLE_CHOICE
    assert v01.task.options is not None and len(v01.task.options) == 3
    assert v01.truth == Choice(2)
    assert not v01.task.allow_asr
    assert by_id["a01"].task.allow_asr
    r01 = by_id["r01"]
    assert r01.task.kind is TaskKind.TEMPORAL_RANGE
    assert isinstance(r01.truth, Ranges)
    assert [(s.start, s.end) for s in r01.truth.segments] == [(420, 450)]
    # video paths resolve relative to the dataset file
    assert r01.task.video.duration == 600


def write_rows(tmp_path, rows, video="clip.json"):
    fixture = oracle_suite.base_fixture()
    (tmp_path / video).write_text(json.dumps(fixture))
    path = tmp_path / "data.jsonl"
    lines = []
    for row in rows:
        lines.append(row if isinstance(row, str) else json.dumps(row))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


GOOD_ROW = {
    "id": "t1",
    "video": "clip.json",
    "question": "What happens?",
    "options": ["a", "b"],
    "answer": 2,
}


@pytest.mark.parametrize(
    "mutate, line_no, fragment",
    [
        (lambda r: "not json", 2, "invalid JSON"),
        (lambda r: {**r, "id": "t0"} | {"question": ""}, 2, "question must be"),
        (lambda r: dict((k, v) for k, v in r.items() if k != "answer") | {"id": "t0"}, 2, "missing required key 'answer'"),
        (lambda r: {**r, "id": "t0", "answer": 5}, 2, "out of range"),
        (lambda r: {**r, "id": "t1"}, 2, "duplicate id 't1'"),
        (lambda r: {**r, "id": "t0", "allow_asr": "yes"}, 2, "allow_asr must be a boolean"),
        (lambda r: {**r, "id": "t0", "video": "missing.json"}, 2, "missing.json"),
        (
            lambda r: {"id": "t0", "video": "clip.json", "question": "When?", "answer": [[30, 10]]},
            2,
            "invalid range",
        ),
        (lambda r: {**r, "id": "grp/v01"}, 2, "id 'grp/v01' must not contain '/'"),
        (
            lambda r: {"id": "t0", "video": "clip.json", "question": "When?", "answer": [[0, float("inf")]]},
            2,
            "bad range value inf: expected whole seconds",
        ),
        (
            lambda r: {"id": "t0", "video": "clip.json", "question": "When?", "answer": [[1.5, 3.9]]},
            2,
            "bad range value 1.5: expected whole seconds",
        ),
        (lambda r: {**r, "id": "t0", "answer": True}, 2, "MCQ answer must be an integer index"),
    ],
)
def test_load_dataset_diagnostics(tmp_path, mutate, line_no, fragment):
    path = write_rows(tmp_path, [GOOD_ROW, mutate(GOOD_ROW)])
    with pytest.raises(DataError, match=fragment) as err:
        load_dataset(path)
    assert f"{path}:{line_no}" in str(err.value)


def test_load_dataset_missing_file(tmp_path):
    with pytest.raises(DataError, match="dataset not found"):
        load_dataset(str(tmp_path / "nope.jsonl"))


def test_load_dataset_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n\n")
    with pytest.raises(DataError, match="dataset is empty"):
        load_dataset(str(path))


def test_load_dataset_profile_mismatch(tmp_path):
    # a temporal profile cannot host an options task
    path = write_rows(tmp_path, [GOOD_ROW])
    with pytest.raises(DataError, match="profile"):
        load_dataset(path, profile="temporal_range")


def test_load_dataset_of_one_task_reads_one_video(tmp_path):
    rows = [GOOD_ROW, {**GOOD_ROW, "id": "t2", "video": "missing.json"}]
    with pytest.raises(DataError, match="no task with id 't9'"):
        load_dataset(write_rows(tmp_path, rows), task_id="t9")
    for select in ({"task_id": "t1"}, {"first": True}):
        path = write_rows(tmp_path, rows)
        assert [item.task.id for item in load_dataset(path, **select)] == ["t1"]
        # every row still gets its JSON, id and duplicate-id checks
        for row, fragment in [("not json", "invalid JSON"), (GOOD_ROW, "duplicate id 't1'"), ({**GOOD_ROW, "id": ""}, "id must be")]:
            with pytest.raises(DataError, match=fragment):
                load_dataset(write_rows(tmp_path, [GOOD_ROW, row]), **select)


def test_load_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mode": "direct", "step_budget": 4}))
    cfg = load_config_file(str(path))
    assert cfg.mode == "direct"
    assert cfg.step_budget == 4

    path.write_text(json.dumps({"mystery": 1}))
    with pytest.raises(DataError, match="unknown config key 'mystery'"):
        load_config_file(str(path))

    path.write_text(json.dumps([1, 2]))
    with pytest.raises(DataError, match="must be a JSON object"):
        load_config_file(str(path))


@pytest.mark.parametrize(
    "data, fragment",
    [
        ({"concurrency": "4"}, "config key 'concurrency' must be int"),
        ({"step_budget": "ten"}, "config key 'step_budget' must be int"),
        ({"step_budget": True}, "config key 'step_budget' must be int"),
        ({"profile": 3}, "config key 'profile' must be str | None"),
        ({"transport": "http://x"}, "config key 'transport' must be dict"),
        ({"step_budget": 0}, "config key 'step_budget' must be >= 1"),
        ({"concurrency": -2}, "config key 'concurrency' must be >= 1"),
        ({"backend": "oracel"}, "config key 'backend' must be one of oracle, model"),
        ({"mode": "critic"}, "config key 'mode' must be one of direct, single_program"),
        ({"profile": "visual"}, "config key 'profile' must be one of asr_mcq"),
        ({"max_rounds": 0}, "config key 'max_rounds' must be >= 1"),
        ({"elide_over": 4000}, "unknown config key 'elide_over'"),
        ({"example_count": 4}, "unknown config key 'example_count'"),
        ({"window_stride": 2}, "unknown config key 'window_stride'"),
        ({"examples_files": {"visul_mcq": "x.json"}}, r"examples_files\['visul_mcq'\] must map"),
        ({"examples_files": {"visual_mcq": 3}}, r"examples_files\['visual_mcq'\] must map"),
    ],
)
def test_load_config_file_checks_types(tmp_path, data, fragment):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    with pytest.raises(DataError, match=fragment.replace("|", r"\|")):
        load_config_file(str(path))


def test_load_config_file_accepts_named_values(tmp_path):
    path = tmp_path / "config.json"
    data = {"mode": "self_eval", "backend": "model", "profile": "asr_mcq", "max_rounds": 1}
    path.write_text(json.dumps(data))
    cfg = load_config_file(str(path))
    assert (cfg.mode, cfg.backend, cfg.profile, cfg.max_rounds) == tuple(data.values())


def test_load_config_file_accepts_optional_none(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"profile": None, "cassette": None, "concurrency": 2}))
    cfg = load_config_file(str(path))
    assert cfg.profile is None and cfg.cassette is None
    assert cfg.concurrency == 2


# --- evaluation modes ---


def test_agent_critic_run(tmp_path, all_items):
    report = evaluate(
        all_items, config("agent_critic", tmp_path), oracle_suite.scripted_model(), persist=False
    )
    agg = report["aggregate"]
    assert agg == {"count": 20, "accuracy": 1.0, "miou": 1.0}
    record = report["items"][0]
    assert record["id"] == "v01"
    assert record["strategy"] == "A"
    assert record["winners"] == ["A"]
    assert record["fallback_used"] is False
    assert record["selected"]["kind"] == "choice"
    assert record["selected"]["value"] == 2
    assert record["trace_files"] == ["v01.A.json", "v01.B.json", "v01.C.json"]


def test_mode_score_ladder(tmp_path, all_items):
    scores = {}
    for mode in ("agent_critic", "agent", "single_program", "direct"):
        report = evaluate(
            all_items, config(mode, tmp_path), oracle_suite.scripted_model(), persist=False
        )
        agg = report["aggregate"]
        scores[mode] = (agg["accuracy"], agg["miou"])
        assert not any(r.get("error") for r in report["items"])
    assert scores["agent_critic"] == (1.0, 1.0)
    assert scores["agent"] == (0.2, 0.4)
    assert scores["single_program"] == (0.0, 0.0)
    assert scores["direct"] == (0.4, 0.0)
    # the composed pipeline strictly dominates its parts on this suite
    assert scores["single_program"][0] < scores["agent"][0] < scores["agent_critic"][0]
    assert scores["single_program"][1] < scores["agent"][1] < scores["agent_critic"][1]


def test_agent_mode_fails_exactly_on_poisoned_tasks(tmp_path, all_items):
    report = evaluate(
        all_items, config("agent", tmp_path), oracle_suite.scripted_model(), persist=False
    )
    succeeded = {
        r["id"] for r in report["items"] if r.get("correct") or r.get("iou") == 1.0
    }
    expected = {c.task_id for c in oracle_suite.build_cases() if c.agent_correct}
    assert succeeded == expected


def test_trace_persistence(tmp_path, all_items):
    cfg = config("agent_critic", tmp_path)
    evaluate(all_items[:1], cfg, oracle_suite.scripted_model())
    names = sorted(os.listdir(cfg.traces_dir))
    assert names == ["v01.A.json", "v01.B.json", "v01.C.json"]
    body = Path(cfg.traces_dir, "v01.A.json").read_text()
    assert body.endswith("\n")
    data = json.loads(body)
    assert body == json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert data["task_id"] == "v01"
    assert data["strategy_label"] == "A"
    assert data["final"]["value"] == 2


def test_empty_dataset_refused(tmp_path):
    with pytest.raises(DataError, match="empty dataset"):
        evaluate([], config("agent", tmp_path), ScriptedModel({}))


def test_report_config_snapshot_is_machine_independent(tmp_path, all_items):
    cfg = config("direct", tmp_path, cassette="replay:/tmp/x", transport={"endpoint": "e"})
    report = evaluate(all_items[:1], cfg, ScriptedModel({}), persist=False)
    assert sorted(report["config"]) == [
        "backend",
        "concurrency",
        "max_rounds",
        "mode",
        "profile",
        "step_budget",
    ]


def test_per_item_failure_is_absorbed(tmp_path, all_items):
    scripts = oracle_suite.merged_scripts()
    for key in [k for k in scripts if k.startswith("v03/")]:
        del scripts[key]
    report = evaluate(
        all_items, config("agent_critic", tmp_path), ScriptedModel(scripts), persist=False
    )
    records = {r["id"]: r for r in report["items"]}
    assert "no script for tag 'v03/A/0'" in records["v03"]["error"]
    assert records["v03"]["correct"] is False
    assert records["v01"]["correct"] is True
    assert report["aggregate"]["count"] == 20
    assert report["aggregate"]["accuracy"] == pytest.approx(14 / 15)


def test_transport_failure_after_retries_is_an_item_error(tmp_path, all_items):
    def unreachable(payload):
        raise OSError("connection refused")

    model = HttpModelClient(
        "http://localhost:9/v1", "m", transport=unreachable, sleep=lambda s: None
    )
    for mode in ("agent", "agent_critic", "self_eval"):
        report = evaluate(all_items[:2], config(mode, tmp_path), model)
        for record in report["items"]:
            assert record["error_type"] == "ModelTransportError", mode
            assert f"request '{record['id']}/" in record["error"]
            assert "failed after" in record["error"]
        assert report["aggregate"]["accuracy"] == 0.0


@pytest.mark.parametrize(
    "content, fragment",
    [
        (None, "^critic examples not found: .*examples.json$"),
        ("not json", "invalid JSON"),
        ("{}", "expected a nonempty JSON array"),
        ('[{"input_block": 1, "winners": ["A"]}]', "input_block string"),
        (
            '[{"input_block": "Strategy A (x):", "winners": ["Z"]}]',
            r"^critic examples: .*examples\.json\[0\]: winner 'Z' does not appear",
        ),
        (
            '[{"input_block": "Strategy A (x):", "critique": 5, "winners": ["A"]}]',
            r"^critic examples: .*examples\.json\[0\]: critique must be a string",
        ),
    ],
    ids=["missing", "not-json", "object", "int-block", "absent-winner", "int-critique"],
)
def test_bad_examples_file_stops_the_run(tmp_path, all_items, content, fragment):
    path = tmp_path / "examples.json"
    if content is not None:
        path.write_text(content)
    cfg = config("agent_critic", tmp_path, examples_files={"visual_mcq": str(path)})
    with pytest.raises(DataError, match=fragment):
        evaluate(all_items, cfg, oracle_suite.scripted_model())


@pytest.mark.parametrize("profile", ["temporal_range", "asr_mcq"])
def test_bad_examples_file_fails_before_any_model_call(tmp_path, all_items, profile):
    """The files are read before the first item, so a bad one for a late
    item's profile costs no earlier item's model calls."""
    path = tmp_path / "examples.json"
    path.write_text("{}")
    cfg = config("agent_critic", tmp_path, examples_files={profile: str(path)})
    model = oracle_suite.scripted_model()
    with pytest.raises(DataError, match="expected a nonempty JSON array"):
        evaluate(all_items, cfg, model)
    assert model.calls == []
    assert not os.path.exists(cfg.traces_dir)


@pytest.mark.parametrize("concurrency", [1, 8])
def test_examples_file_is_read_once_per_run(tmp_path, all_items, monkeypatch, concurrency):
    packaged = resources.files("clipcritic") / "critic_examples" / "visual_mcq.json"
    example = json.loads(packaged.read_text(encoding="utf-8"))[0]
    path = tmp_path / "examples.json"
    reads = []
    read = evalcli.load_examples_file
    monkeypatch.setattr(evalcli, "load_examples_file", lambda p: reads.append(p) or read(p))
    cfg = config(
        "agent_critic", tmp_path, concurrency=concurrency, examples_files={"visual_mcq": str(path)}
    )
    visual = {
        f"{i.task.id}/critic"
        for i in all_items
        if profile_for_task(i.task) is PROFILES["visual_mcq"]
    }
    # a file edited between two runs is read afresh by the second
    for runs, critique in enumerate(("first critique", "second critique"), start=1):
        path.write_text(json.dumps([{**example, "critique": critique}]))
        model = oracle_suite.scripted_model()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # items race to the first read
        try:
            report = evaluate(all_items, cfg, model, persist=False)
        finally:
            sys.setswitchinterval(interval)
        assert reads == [str(path)] * runs
        prompts = [c.parts[0].text for c in model.calls if c.tag in visual]
        assert len(prompts) == len(visual) == 11
        assert all(f"Critique:\n{critique}\n" in text for text in prompts)
        assert not any("error" in r for r in report["items"])


def test_concurrent_run_matches_serial(tmp_path, all_items):
    serial = evaluate(
        all_items, config("agent_critic", tmp_path), oracle_suite.scripted_model(), persist=False
    )
    concurrent = evaluate(
        all_items,
        config("agent_critic", tmp_path, concurrency=4),
        oracle_suite.scripted_model(),
        persist=False,
    )
    assert [r["id"] for r in concurrent["items"]] == [r["id"] for r in serial["items"]]
    stripped = lambda rep: {k: v for k, v in rep.items() if k != "timing"}
    serial["config"]["concurrency"] = concurrent["config"]["concurrency"]
    assert stripped(concurrent) == stripped(serial)


def test_fatal_error_cancels_queued_items(tmp_path, all_items):
    started = set()

    def respond(req):  # the first item stops the run; the others are slow
        started.add(req.tag.split("/")[0])
        if req.tag.startswith(f"{all_items[0].task.id}/"):
            raise UsageError("stops the run")
        time.sleep(0.2)
        return "```\nfinish(final_answer='Final Answer: (1)')\n```"

    with pytest.raises(UsageError, match="stops the run"):
        evaluate(all_items, config("agent", tmp_path, concurrency=2), CallableModel(respond))
    assert len(started) <= 3  # the item that failed and those already running


def failing_at(task_id):
    """The oracle suite's scripted model, except that every request of
    `task_id` meets a fault that stops the run."""
    scripted = oracle_suite.scripted_model()

    def respond(req):
        if req.tag.startswith(f"{task_id}/"):
            raise FatalTransportError(f"request '{req.tag}': HTTP Error 401: Unauthorized")
        return scripted.complete(req)

    return CallableModel(respond)


@pytest.mark.parametrize("concurrency", [1, 2])
def test_a_fatal_fault_keeps_the_traces_of_the_items_before_it(tmp_path, all_items, concurrency):
    k = 11
    cfg = config("agent_critic", tmp_path / "stopped", concurrency=concurrency)
    with pytest.raises(FatalTransportError) as info:
        evaluate(all_items, cfg, failing_at(all_items[k].task.id))
    whole = config("agent_critic", tmp_path / "whole")
    evaluate(all_items[:k], whole, oracle_suite.scripted_model())
    kept = sorted(os.listdir(cfg.traces_dir))
    assert len(kept) == 3 * k
    assert kept == sorted(os.listdir(whole.traces_dir))
    for name in kept:
        with open(os.path.join(cfg.traces_dir, name), "rb") as got, open(
            os.path.join(whole.traces_dir, name), "rb"
        ) as want:
            assert got.read() == want.read(), name
    assert info.value.finished == (
        f"{k} of 20 items finished; their traces are in {cfg.traces_dir}"
    )


def test_cli_fatal_fault_says_how_many_items_finished(tmp_path, suite_paths, all_items, capsys, monkeypatch):
    stop = all_items[3].task.id
    monkeypatch.setattr(evalcli, "build_model", lambda config: failing_at(stop))
    traces = tmp_path / "traces"
    argv = ["--mode", "agent_critic", "--traces-dir", str(traces), "eval", suite_paths["all"]]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"model transport error: request '{stop}/A/0': HTTP Error 401: Unauthorized\n"
        f"3 of 20 items finished; their traces are in {traces}\n"
    )
    # the finished items' traces, and no report
    assert sorted(os.listdir(traces)) == sorted(
        f"{item.task.id}.{label}.json" for item in all_items[:3] for label in "ABC"
    )


def test_one_item_runs_on_the_calling_thread(tmp_path, all_items, monkeypatch):
    threads = []
    run = evalcli.run_item
    monkeypatch.setattr(
        evalcli, "run_item", lambda *a: threads.append(threading.current_thread()) or run(*a)
    )
    evaluate(all_items[:1], config("agent_critic", tmp_path, concurrency=2), oracle_suite.scripted_model())
    assert threads == [threading.current_thread()]


def test_fixed_subset_override(tmp_path, temporal_items):
    subset = StrategySubset("S4", ("get_segment", "find_when"))
    report = evaluate(
        temporal_items,
        config("agent", tmp_path),
        oracle_suite.scripted_model(),
        fixed_subset=subset,
        persist=False,
    )
    assert report["aggregate"]["miou"] == pytest.approx(0.6)
    assert all(r["strategy"] == "S4" for r in report["items"])


def test_direct_mode_never_consults_model(tmp_path, all_items):
    # an empty script table would raise on the first model call
    report = evaluate(all_items, config("direct", tmp_path), ScriptedModel({}), persist=False)
    assert not any(r.get("error") for r in report["items"])
    assert report["aggregate"]["accuracy"] == pytest.approx(0.4)


@pytest.mark.parametrize("mode,label", [("single_program", "single"), ("self_eval", "self")])
def test_pool_modes_offer_only_the_profile_pool(tmp_path, all_items, mode, label):
    item = next(i for i in all_items if i.task.id == "v01")  # visual_mcq, no ASR
    program = "```\nasr_understanding('What is said?')\n```"
    model = ScriptedModel({f"v01/{label}": [program, "Final Answer: (2)"]})
    cfg = config(mode, tmp_path, step_budget=1, max_rounds=1)
    _, traces = run_item(item, cfg, model)
    assert "def asr_understanding(" not in model.calls[0].parts[0].text
    assert traces[0].to_dict()["modules"] == list(PROFILES["visual_mcq"].pool)
    assert "not available in this strategy" in traces[0].steps[0].result


# --- ablation sweep ---


def test_ablate_enumerates_temporal_pool(tmp_path, temporal_items):
    report = ablate_fixed_subsets(
        temporal_items, config("agent", tmp_path), oracle_suite.scripted_model()
    )
    assert report["metric"] == "miou"
    got = [(s["label"], tuple(s["modules"]), s["score"]) for s in report["subsets"]]
    assert got == [
        ("S1", ("retrieval_qa",), 0.0),
        ("S2", ("find_when",), 0.0),
        ("S3", ("get_segment", "retrieval_qa"), 0.0),
        ("S4", ("get_segment", "find_when"), 0.6),
        ("S5", ("retrieval_qa", "find_when"), 0.0),
        ("S6", ("get_segment", "retrieval_qa", "find_when"), 0.4),
    ]
    assert report["max"]["label"] == "S4"
    assert all(report["max"]["score"] >= s["score"] for s in report["subsets"])


def test_ablate_report_names_the_mode_it_ran(tmp_path, temporal_items):
    cfg = RunConfig(traces_dir=str(tmp_path / "traces"))
    assert cfg.mode == "agent_critic"
    report = ablate_fixed_subsets(temporal_items, cfg, oracle_suite.scripted_model())
    # every subset runs in agent mode; the rest of the caller's config stands
    assert report["config"] == {**cfg.snapshot(), "mode": "agent"}


def test_ablate_unknown_profile(tmp_path, temporal_items):
    cfg = config("agent", tmp_path, profile="mystery")
    with pytest.raises(DataError, match="unknown profile"):
        ablate_fixed_subsets(temporal_items, cfg, ScriptedModel({}))


def test_ablate_rejects_items_of_another_profile(tmp_path, suite_paths, all_items):
    # the first item is visual_mcq; a01 is the first that is not
    with pytest.raises(DataError, match="'a01' has profile 'asr_mcq'.*'visual_mcq'"):
        ablate_fixed_subsets(all_items, config("agent", tmp_path), ScriptedModel({}))
    assert main(["--traces-dir", str(tmp_path / "t"), "ablate", suite_paths["all"]]) == 2


def test_cli_ablate_report_creates_its_directory(tmp_path, suite_paths, capsys, monkeypatch):
    monkeypatch.setattr(evalcli, "build_model", lambda config: oracle_suite.scripted_model())
    report = tmp_path / "new" / "ablate.json"
    argv = ["--traces-dir", str(tmp_path / "t"), "ablate", suite_paths["temporal"], "--report", str(report)]
    assert main(argv) == 0
    assert json.loads(report.read_text()) == json.loads(capsys.readouterr().out)


def test_explicit_profile_mismatch_is_a_data_error(tmp_path, all_items):
    # visual_mcq takes multiple-choice tasks only; the `all` file has temporal ones
    temporal = next(i for i in all_items if i.task.kind is TaskKind.TEMPORAL_RANGE)
    cfg = config("agent", tmp_path, profile="visual_mcq")
    match = f"item '{temporal.task.id}'.*profile 'visual_mcq' expects multiple_choice"
    with pytest.raises(DataError, match=match):
        evaluate([temporal], cfg, ScriptedModel({}))
    with pytest.raises(DataError, match=match):
        ablate_fixed_subsets(all_items, cfg, ScriptedModel({}))


# --- record and replay ---


def record_baseline(tmp_path, items, mode="agent_critic"):
    cassette_path = str(tmp_path / "run.cassette.jsonl")
    cfg = RunConfig(mode=mode, traces_dir=str(tmp_path / "traces"))
    model = CassetteClient(
        Cassette.open(cassette_path, CassetteMode.RECORD), oracle_suite.scripted_model()
    )
    report = evaluate(items, cfg, model)
    report_path = str(tmp_path / "report.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return cfg, cassette_path, report_path


def test_replay_reproduces_recorded_run(tmp_path, all_items):
    cfg, cassette_path, report_path = record_baseline(tmp_path, all_items)
    out_dir = str(tmp_path / "replayed")
    replay_run(all_items, cfg, cassette_path, cfg.traces_dir, report_path, out_dir)
    baseline = sorted(os.listdir(cfg.traces_dir))
    assert sorted(os.listdir(out_dir)) == baseline
    assert len(baseline) == 60
    for name in baseline:
        want = Path(cfg.traces_dir, name).read_bytes()
        got = Path(out_dir, name).read_bytes()
        assert want == got, name


def test_replay_reports_recorded_calls_it_did_not_replay(tmp_path, all_items):
    item = all_items[0]
    assert item.task.id == "v01"
    cfg, cassette_path, report_path = record_baseline(tmp_path, [item], mode="agent")
    lines = Path(cassette_path).read_bytes()
    assert lines.count(b"\n") == 4
    Path(cassette_path).write_bytes(lines * 2)  # a second recording onto the same file
    match = f"^{re.escape(cassette_path)}: 4 recorded calls of episode 'v01/C' were not replayed$"
    with pytest.raises(ReplayDivergence, match=match):
        replay_run([item], cfg, cassette_path, cfg.traces_dir, report_path, str(tmp_path / "replayed"))


def test_replay_detects_tampered_trace(tmp_path, all_items):
    cfg, cassette_path, report_path = record_baseline(tmp_path, all_items[:2])
    victim = os.path.join(cfg.traces_dir, sorted(os.listdir(cfg.traces_dir))[0])
    body = Path(victim).read_text().replace("Final Answer", "FinalAnswer", 1)
    Path(victim).write_text(body)
    with pytest.raises(ReplayDivergence, match="differs"):
        replay_run(
            all_items[:2], cfg, cassette_path, cfg.traces_dir, report_path,
            str(tmp_path / "replayed"),
        )


def test_replay_detects_prompt_drift(tmp_path, suite_paths, all_items):
    cfg, cassette_path, report_path = record_baseline(tmp_path, all_items[:2])
    # same ids, one question changed: recorded fingerprints no longer match
    rows = [json.loads(line) for line in Path(suite_paths["all"]).read_text().splitlines()][:2]
    rows[1]["question"] = rows[1]["question"] + " Really?"
    drifted = tmp_path / "drifted.jsonl"
    with open(drifted, "w") as fh:
        for row in rows:
            row["video"] = os.path.join(os.path.dirname(suite_paths["all"]), row["video"])
            fh.write(json.dumps(row) + "\n")
    items = load_dataset(str(drifted))
    with pytest.raises(ReplayDivergence):
        replay_run(
            items, cfg, cassette_path, cfg.traces_dir, report_path,
            str(tmp_path / "replayed"),
        )


def scripted_tool_turns(req):
    """Agent turn 0 asks find_when, turn 1 finishes; tool windows see nothing."""
    if req.tag == "t1/C/0":
        return "```\nfind_when(query='door')\n```"
    if req.tag == "t1/C/1":
        return "```\nfinish(final_answer='Final Answer: (2)')\n```"
    return ""


@pytest.mark.parametrize(
    "mode, tampered",
    [
        ("agent", "t1/C/find_when/window/0"),
        ("direct", "t1/B/retrieval_qa/window/0"),
    ],
)
def test_replay_names_diverging_tool_window(tmp_path, mode, tampered):
    items = load_dataset(write_rows(tmp_path, [GOOD_ROW]))
    cassette_path = str(tmp_path / "run.cassette.jsonl")
    cfg = RunConfig(mode=mode, backend="model", traces_dir=str(tmp_path / "traces"))
    model = CassetteClient(
        Cassette.open(cassette_path, CassetteMode.RECORD), CallableModel(scripted_tool_turns)
    )
    report = evaluate(items, cfg, model)
    report_path = str(tmp_path / "report.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    rows = [json.loads(line) for line in Path(cassette_path).read_text().splitlines()]
    assert tampered in [row["tag"] for row in rows]
    for row in rows:
        if row["tag"] == tampered:
            row["fingerprint"] = "0" * 64
    with open(cassette_path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    with pytest.raises(ReplayDivergence, match=f"replay mismatch at tag '{tampered}'"):
        replay_run(items, cfg, cassette_path, cfg.traces_dir, report_path, str(tmp_path / "replayed"))


class WindowedModel:
    """Replies to a model-backed agent_critic run on a long asr_mcq clip.

    Each call sleeps a few ms so windows overlap in flight; the peak in
    flight is kept. Every reply depends only on the request's content.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.inflight = 0
        self.peak = 0

    def __call__(self, req):
        with self.lock:
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
        try:
            time.sleep(0.003)
            return self.reply(req)
        finally:
            with self.lock:
                self.inflight -= 1

    @staticmethod
    def reply(req):
        tag, text = req.tag, req.parts[0].text
        turns = {
            "t1/A/0": "heard = asr_understanding('What is said?')",
            "t1/C/0": "seen = retrieval_qa('What happens?')",
            "t1/C/1": "spots = find_when('door')",
        }
        if tag in turns:
            return f"```\n{turns[tag]}\n```"
        if tag in ("t1/A/1", "t1/C/2"):
            return "```\nfinish(final_answer='Final Answer: (2)')\n```"
        if tag == "t1/critic":
            return "Winner: C"
        frames = [ref for part in req.parts if isinstance(part, FramesPart) for ref in part.frames]
        if "/find_when/window/" in tag:
            first, last = frames[0], frames[-1]
            if first.index % 200 == 0:
                return f'["{first.label()}", "{last.label()}"]: door at {first.index}'
            return ""
        if "/retrieval_qa/window/" in tag:
            return "\n".join(str(ref.index) for ref in frames[::16])
        if "/retrieval_qa/answer" in tag:
            return f"(2), from frames {[ref.index for ref in frames[:12]]}"
        if "/asr_understanding/chunk/" in tag:
            return text.split("\n")[1][:40]
        return "\n".join(line for line in text.split("\n") if line.startswith("(chunk"))


def long_asr_item(tmp_path):
    fixture = oracle_suite.base_fixture(
        asr=[
            {"t": oracle_suite.MM(t), "text": f"speaker talks about the door, line {t}"}
            for t in range(0, 1200, 3)
        ]
    )
    fixture["duration"] = oracle_suite.MM(1200)
    fixture["frames"] = [{"t": oracle_suite.MM(t), "caption": f"scene {t}"} for t in range(1200)]
    (tmp_path / "long.json").write_text(json.dumps(fixture))
    row = {**GOOD_ROW, "video": "long.json", "allow_asr": True}
    (tmp_path / "data.jsonl").write_text(json.dumps(row) + "\n")
    return load_dataset(str(tmp_path / "data.jsonl"))


def test_tool_windows_fan_out_to_serial_bytes(tmp_path):
    """Recording through a cap-3 client writes what a cap-1 run writes."""
    outputs = {}
    for run_cap in (1, 3):
        out = tmp_path / f"cap{run_cap}"
        out.mkdir(exist_ok=True)
        items = long_asr_item(out)
        windowed = WindowedModel()
        model = CassetteClient(
            Cassette.open(str(out / "run.cassette.jsonl"), CassetteMode.RECORD),
            ConcurrencyLimitedClient(CallableModel(windowed), run_cap),
        )
        cfg = RunConfig(mode="agent_critic", backend="model", traces_dir=str(out / "traces"))
        report = evaluate(items, cfg, model)
        del report["timing"]
        report_path = out / "report.json"
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        assert 1 <= windowed.peak <= run_cap
        if run_cap > 1:
            assert windowed.peak > 1
        # the recording replays against its own report and traces
        replay_run(items, cfg, str(out / "run.cassette.jsonl"), cfg.traces_dir,
                   str(report_path), str(out / "replayed"))
        outputs[run_cap] = {
            name: (out / name).read_bytes()
            for name in ["run.cassette.jsonl", "report.json"]
            + [f"traces/{f}" for f in sorted(os.listdir(out / "traces"))]
        }
    tags = [json.loads(line)["tag"] for line in outputs[1]["run.cassette.jsonl"].splitlines()]
    for fanned in ("t1/C/find_when/window/11", "t1/C/retrieval_qa/window/18",
                   "t1/A/asr_understanding/chunk/3"):
        assert fanned in tags
    assert len(outputs[1]) == 5  # cassette, report, three traces
    assert outputs[3] == outputs[1]


def test_concurrent_recording_matches_serial_per_episode(tmp_path, all_items):
    """Items recorded side by side may interleave their episodes' lines, but
    each episode's lines match a serial recording's, so replay, which reads
    one episode's slice at a time, matches the serial run."""
    serial_dir, fanned_dir = tmp_path / "serial", tmp_path / "fanned"
    serial_dir.mkdir()
    fanned_dir.mkdir()
    cfg, serial_path, report_path = record_baseline(serial_dir, all_items)
    scripted = oracle_suite.scripted_model()

    def slow(req):
        time.sleep(0.001)
        return scripted.complete(req)

    fanned_path = str(fanned_dir / "run.cassette.jsonl")
    model = CassetteClient(
        Cassette.open(fanned_path, CassetteMode.RECORD),
        ConcurrencyLimitedClient(CallableModel(slow), 4),
    )
    evaluate(all_items, config("agent_critic", fanned_dir, concurrency=4), model, persist=False)

    def per_episode(path):
        slices = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                slices.setdefault(episode_key(json.loads(line)["tag"]), []).append(line)
        return slices

    assert per_episode(fanned_path) == per_episode(serial_path)
    replay_run(all_items, cfg, fanned_path, cfg.traces_dir, report_path, str(tmp_path / "replayed"))


# --- strategies side by side ---


def first_requests_meet(parties):
    """A model wrapper whose first request of each episode (critic aside)
    waits until `parties` of them are in flight together."""
    barrier = threading.Barrier(parties, timeout=5)
    lock, seen = threading.Lock(), set()

    def wrap(reply):
        def respond(req):
            key = episode_key(req.tag)
            with lock:
                first = key not in seen and not key.endswith("/critic")
                seen.add(key)
            if first:
                barrier.wait()
            return reply(req)

        return respond

    return wrap


def test_strategies_run_side_by_side_when_the_model_is_wide(tmp_path):
    """Every strategy's first request is in flight before any of them returns."""
    items = long_asr_item(tmp_path)
    meet = first_requests_meet(3)
    model = ConcurrencyLimitedClient(CallableModel(meet(WindowedModel())), 3)
    cfg = RunConfig(mode="agent_critic", backend="model", traces_dir=str(tmp_path / "traces"))
    record = evaluate(items, cfg, model)["items"][0]
    assert "error" not in record, record["error"]
    assert record["trace_files"] == ["t1.A.json", "t1.B.json", "t1.C.json"]


def test_side_by_side_strategies_keep_the_cap(tmp_path):
    windowed = WindowedModel()
    model = ConcurrencyLimitedClient(CallableModel(windowed), 2)
    cfg = RunConfig(mode="agent_critic", backend="model", traces_dir=str(tmp_path / "traces"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        record = evaluate(long_asr_item(tmp_path), cfg, model)["items"][0]
    finally:
        sys.setswitchinterval(interval)
    assert "error" not in record
    assert windowed.peak == 2


def jittered(reply):
    """`reply` after a short sleep that varies by request, so the requests
    of episodes run side by side finish out of order."""
    return lambda req: time.sleep(0.0005 * (zlib.crc32(req.tag.encode()) % 4)) or reply(req)


def test_wide_recording_is_byte_identical_to_a_serial_one(tmp_path, all_items):
    """A cap-3 recording of the agent_critic items writes the cassette, the
    traces and the report a width-1 recording writes."""
    outputs = {}
    for cap in (1, 3):
        out = tmp_path / f"cap{cap}"
        scripted = oracle_suite.scripted_model()
        inner = scripted if cap == 1 else ConcurrencyLimitedClient(
            CallableModel(jittered(scripted.complete)), cap
        )
        model = CassetteClient(Cassette.open(str(tmp_path / f"cap{cap}.jsonl"), CassetteMode.RECORD), inner)
        report = evaluate(all_items, config("agent_critic", out), model)
        del report["timing"]
        outputs[cap] = (
            (tmp_path / f"cap{cap}.jsonl").read_bytes(),
            report,
            {n: (out / "traces" / n).read_bytes() for n in sorted(os.listdir(out / "traces"))},
        )
    assert len(outputs[1][2]) == 60
    assert outputs[3] == outputs[1]


def test_a_failed_strategy_records_what_a_serial_run_records(tmp_path, all_items):
    """Strategy A's transport error is the item's error, as in a serial run,
    and the cassette holds A's lines before it: none from B or C, though
    they ran beside it."""
    item = all_items[0]
    results = {}
    for cap in (1, 3):
        scripted = oracle_suite.scripted_model()
        others_served = threading.Event()

        def reply(req, cap=cap, scripted=scripted, others_served=others_served):
            if req.tag == f"{item.task.id}/A/1":
                if cap > 1:  # C, beside A, has recorded a line first
                    assert others_served.wait(5)
                raise ModelTransportError(f"request '{req.tag}': connection reset")
            response = scripted.complete(req)
            if req.tag.startswith(f"{item.task.id}/C/"):
                others_served.set()
            return response

        path = tmp_path / f"cap{cap}.jsonl"
        inner = CallableModel(reply)
        if cap > 1:
            inner = ConcurrencyLimitedClient(inner, cap)
        model = CassetteClient(Cassette.open(str(path), CassetteMode.RECORD), inner)
        record = evaluate([item], config("agent_critic", tmp_path / f"cap{cap}"), model)["items"][0]
        results[cap] = record, path.read_bytes()
    record, lines = results[1]
    assert record["error_type"] == "ModelTransportError"
    assert [json.loads(line)["tag"] for line in lines.splitlines()] == [f"{item.task.id}/A/0"]
    assert results[3] == results[1]


def test_episodes_after_a_failed_one_stop_at_their_next_request(tmp_path, all_items, monkeypatch):
    """Under a cap-3 model, C starts no model request once A's error has left
    A's episode: a serial run would not have started C at all."""
    item = all_items[0]
    scripted = oracle_suite.scripted_model()
    c_served, a_left = threading.Event(), threading.Event()
    started_late = []

    def episode(*args, **kwargs):
        try:
            return run_episode(*args, **kwargs)
        except ModelTransportError:
            a_left.set()
            raise

    run_episode = critic.run_episode
    monkeypatch.setattr(critic, "run_episode", episode)

    def reply(req):
        if a_left.is_set():
            started_late.append(req.tag)
        if req.tag == f"{item.task.id}/A/1":
            assert c_served.wait(5)
            raise ModelTransportError(f"request '{req.tag}': connection reset")
        response = scripted.complete(req)
        if req.tag.startswith(f"{item.task.id}/C/") and not c_served.is_set():
            c_served.set()  # C has more turns to take when A fails
            assert a_left.wait(5)
            time.sleep(0.05)  # A's thread marks its episode failed
        return response

    model = ConcurrencyLimitedClient(CallableModel(reply), 3)
    record = evaluate([item], config("agent_critic", tmp_path), model)["items"][0]
    assert record["error_type"] == "ModelTransportError"
    assert record["error"] == f"request '{item.task.id}/A/1': connection reset"
    assert started_late == []


def test_a_failed_episode_lets_the_ones_before_it_finish(tmp_path, all_items, monkeypatch):
    """Under a cap-3 model, C fails while A is between requests: A runs on to
    its end, so the item's error is C's, as in a serial run."""
    item = all_items[0]
    scripted = oracle_suite.scripted_model()
    c_left = threading.Event()

    def episode(*args, **kwargs):
        try:
            return run_episode(*args, **kwargs)
        except ModelTransportError:
            c_left.set()
            raise

    run_episode = critic.run_episode
    monkeypatch.setattr(critic, "run_episode", episode)

    def reply(req):
        if req.tag == f"{item.task.id}/C/0":
            raise ModelTransportError(f"request '{req.tag}': connection reset")
        if req.tag == f"{item.task.id}/A/0":
            assert c_left.wait(5)
            time.sleep(0.05)  # C's thread marks its episode failed
        return scripted.complete(req)

    model = ConcurrencyLimitedClient(CallableModel(reply), 3)
    record = evaluate([item], config("agent_critic", tmp_path), model)["items"][0]
    assert record["error_type"] == "ModelTransportError"
    assert record["error"] == f"request '{item.task.id}/C/0': connection reset"


def test_items_after_a_fatal_one_stop_at_their_next_request(tmp_path, all_items, monkeypatch):
    """At concurrency 2, item 1 starts no model request once item 0's fatal
    fault has left item 0's thread: its result would be dropped."""
    first, second = (item.task.id for item in all_items[:2])
    scripted = oracle_suite.scripted_model()
    second_served, first_left = threading.Event(), threading.Event()
    started_late = []

    def item(*args, **kwargs):
        try:
            return run_item(*args, **kwargs)
        except FatalTransportError:
            first_left.set()
            raise

    monkeypatch.setattr(evalcli, "run_item", item)

    def reply(req):
        if first_left.is_set():
            started_late.append(req.tag)
        if req.tag.startswith(f"{first}/"):
            assert second_served.wait(5)
            raise FatalTransportError(f"request '{req.tag}': HTTP Error 401: Unauthorized")
        response = scripted.complete(req)
        if req.tag.startswith(f"{second}/") and not second_served.is_set():
            second_served.set()  # item 1 has more turns to take when item 0 fails
            assert first_left.wait(5)
            time.sleep(0.05)  # item 0's thread marks its item failed
        return response

    model = ConcurrencyLimitedClient(CallableModel(reply), 2)
    with pytest.raises(FatalTransportError, match=f"request '{first}/"):
        evaluate(all_items[:2], config("agent", tmp_path, concurrency=2), model)
    assert second_served.is_set()
    assert started_late == []


def test_threads_stay_linear_in_the_cap(tmp_path):
    """8 model-backed agent_critic items at concurrency 8 behind a cap-8
    client: 8 item threads, 3 strategy threads per item and 8 request
    workers at most, 5 * 8 beside the main thread."""
    [item] = long_asr_item(tmp_path)
    items = [
        dataclasses.replace(item, task=dataclasses.replace(item.task, id=f"t{n}"))
        for n in range(1, 9)
    ]
    before, peak, lock = threading.active_count(), [0], threading.Lock()

    def reply(req):  # WindowedModel's replies, which are written for task t1
        with lock:
            peak[0] = max(peak[0], threading.active_count())
        time.sleep(0.002)
        return WindowedModel.reply(dataclasses.replace(req, tag="t1" + req.tag[req.tag.index("/"):]))

    model = ConcurrencyLimitedClient(CallableModel(reply), 8)
    cfg = RunConfig(mode="agent_critic", backend="model", concurrency=8,
                    traces_dir=str(tmp_path / "traces"))
    records = evaluate(items, cfg, model)["items"]
    assert all("error" not in record for record in records)
    assert peak[0] > before + 8
    assert peak[0] <= before + 5 * 8


def test_narrow_models_run_strategies_on_the_calling_thread(tmp_path, all_items, monkeypatch):
    threads = []
    for name in ("run_episode", "run_direct"):
        run = getattr(critic, name)
        monkeypatch.setattr(
            critic, name, lambda *a, run=run, **k: threads.append(threading.current_thread()) or run(*a, **k)
        )
    cfg, cassette_path, _ = record_baseline(tmp_path, all_items[:1])
    models = [
        oracle_suite.scripted_model(),
        ConcurrencyLimitedClient(oracle_suite.scripted_model(), 1),
        CassetteClient(Cassette.open(cassette_path, CassetteMode.REPLAY)),
    ]
    for model in models:
        record = evaluate(all_items[:1], cfg, model, persist=False)["items"][0]
        assert "error" not in record
    assert threads == [threading.current_thread()] * 3 * (1 + len(models))


# --- command line ---


def test_cli_eval_direct(tmp_path, suite_paths, capsys):
    report_path = str(tmp_path / "report.json")
    code = main(
        [
            "--mode", "direct",
            "--traces-dir", str(tmp_path / "traces"),
            "eval", suite_paths["all"],
            "--report", report_path,
        ]
    )
    assert code == 0
    report = json.loads(Path(report_path).read_text())
    assert report["aggregate"]["accuracy"] == pytest.approx(0.4)
    printed = json.loads(capsys.readouterr().out)
    assert printed == report["aggregate"]


def test_cli_run_prints_trace(tmp_path, suite_paths, capsys):
    code = main(
        [
            "--mode", "direct",
            "--traces-dir", str(tmp_path / "traces"),
            "run", suite_paths["all"],
            "--task", "v05",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert '"result"' in out
    assert '"v05"' in out
    assert os.path.exists(tmp_path / "traces" / "v05.B.json")


def test_cli_run_loads_only_the_named_task(tmp_path, suite_paths, capsys, monkeypatch):
    loads = []
    load = evalcli.video_ref_for
    monkeypatch.setattr(evalcli, "video_ref_for", lambda path: loads.append(path) or load(path))
    argv = ["--mode", "direct", "--traces-dir", str(tmp_path / "traces"), "run", suite_paths["all"]]
    assert main(argv + ["--task", "v05"]) == 0
    assert len(loads) == 1
    assert main(argv + ["--task", "v99"]) == 2
    assert "no task with id 'v99'" in capsys.readouterr().err


def test_cli_run_without_a_task_loads_only_the_first_video(tmp_path, suite_paths, monkeypatch):
    loads = []
    load = evalcli.video_ref_for
    monkeypatch.setattr(evalcli, "video_ref_for", lambda path: loads.append(path) or load(path))
    traces_dir = tmp_path / "traces"
    assert main(["--mode", "direct", "--traces-dir", str(traces_dir), "run", suite_paths["all"]]) == 0
    assert len(loads) == 1
    with open(suite_paths["all"], encoding="utf-8") as fh:
        first_id = json.loads(fh.readline())["id"]
    assert os.listdir(traces_dir) == [f"{first_id}.B.json"]


def test_cli_run_prints_traces_then_the_record(tmp_path, suite_paths, all_items, capsys, monkeypatch):
    monkeypatch.setattr(evalcli, "build_model", lambda config: oracle_suite.scripted_model())
    traces_dir = tmp_path / "traces"
    argv = ["--traces-dir", str(traces_dir), "run", suite_paths["all"], "--task", "v02"]
    assert main(argv) == 0
    item = next(i for i in all_items if i.task.id == "v02")
    record, traces = run_item(
        item, config("agent_critic", tmp_path), oracle_suite.scripted_model()
    )
    want = "".join(json.dumps(t.to_dict(), indent=2, sort_keys=True) + "\n" for t in traces)
    want += json.dumps({"result": record}, indent=2, sort_keys=True) + "\n"
    assert capsys.readouterr().out == want
    assert sorted(os.listdir(traces_dir)) == ["v02.A.json", "v02.B.json", "v02.C.json"]


def test_cli_run_records_an_item_failure(tmp_path, suite_paths, capsys, monkeypatch):
    def refused(req):
        raise ModelTransportError(f"request '{req.tag}' failed after 3 attempts: refused")

    monkeypatch.setattr(evalcli, "build_model", lambda config: CallableModel(refused))
    argv = ["--mode", "agent", "--traces-dir", str(tmp_path / "traces"), "run", suite_paths["all"]]
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == {
        "result": {
            "id": "v01",
            "kind": "multiple_choice",
            "error": "request 'v01/C/0' failed after 3 attempts: refused",
            "error_type": "ModelTransportError",
            "correct": False,
        }
    }


def test_cli_flags_set_their_config_keys(tmp_path, suite_paths, monkeypatch):
    monkeypatch.setattr(evalcli, "build_model", lambda config: oracle_suite.scripted_model())
    report_path = tmp_path / "report.json"
    argv = [
        "--profile", "temporal_range",
        "--budget", "12",
        "--concurrency", "3",
        "--traces-dir", str(tmp_path / "traces"),
        "eval", suite_paths["temporal"],
        "--report", str(report_path),
    ]
    assert main(argv) == 0
    report = json.loads(report_path.read_text())
    assert report["config"] == {
        "backend": "oracle",
        "concurrency": 3,
        "max_rounds": 3,
        "mode": "agent_critic",
        "profile": "temporal_range",
        "step_budget": 12,
    }


def test_build_model_caps_a_transport_at_the_configured_concurrency():
    transport = {"endpoint": "http://localhost:9/v1", "model_name": "m"}
    model = evalcli.build_model(RunConfig(transport=transport, concurrency=3))
    assert isinstance(model, ConcurrencyLimitedClient)
    assert model.width == 3
    assert isinstance(model.inner, HttpModelClient)
    assert model.inner.endpoint == "http://localhost:9/v1"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--budget", "0", "eval", "x.jsonl"],
        ["--concurrency", "0", "eval", "x.jsonl"],
        ["--mode", "mystery", "eval", "x.jsonl"],
        ["replay", "x.jsonl", "--report", "r.json"],  # no cassette given
    ],
)
def test_cli_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode, backend, command, code",
    [
        ("agent", "oracle", "run", 1),
        ("agent", "oracle", "eval", 1),
        ("direct", "model", "eval", 1),
        ("direct", "oracle", "eval", 0),  # oracle tools answer without a model
    ],
)
def test_cli_without_a_model(tmp_path, suite_paths, capsys, mode, backend, command, code):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"backend": backend}))
    argv = [
        "--config", str(config_path),
        "--mode", mode,
        "--traces-dir", str(tmp_path / "traces"),
        command, suite_paths["all"],
    ]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: ") and "no model is configured" in err


def test_cli_data_errors_exit_2(tmp_path, suite_paths, capsys):
    assert main(["eval", str(tmp_path / "missing.jsonl")]) == 2
    assert "data error" in capsys.readouterr().err
    code = main(
        [
            "--cassette", f"replay:{tmp_path / 'missing.cassette'}",
            "--traces-dir", str(tmp_path / "traces"),
            "replay", suite_paths["all"],
            "--report", str(tmp_path / "report.json"),
        ]
    )
    assert code == 2


def test_cli_unwritable_recording_stops_before_any_model_call(tmp_path, suite_paths, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(HttpModelClient, "_complete", lambda self, req: calls.append(req) or "")
    config_path = tmp_path / "config.json"
    transport = {"endpoint": "http://localhost:9/v1", "model_name": "m"}
    config_path.write_text(json.dumps({"transport": transport}))
    cassette = tmp_path / "nodir" / "run.cassette.jsonl"
    argv = [
        "--config", str(config_path),
        "--cassette", f"record:{cassette}",
        "--mode", "agent",
        "--traces-dir", str(tmp_path / "traces"),
        "eval", suite_paths["all"],
    ]
    assert main(argv) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert err == f"data error: {cassette}: cannot write cassette: No such file or directory\n"


@pytest.mark.parametrize(
    "transport, fault",
    [
        ({"endpoint": 5, "model_name": "m"}, "needs a string 'endpoint'"),
        ({"endpoint": "http://localhost:9/v1", "model_name": ["m"]}, "needs a string 'model_name'"),
        ({"endpoint": "http://localhost:9/v1", "model_name": "m", "api_key_env": None},
         "needs a string 'api_key_env'"),
        ({"endpoint": "localhost:9/v1", "model_name": "m"},
         "'endpoint' must be an http:// or https:// URL"),
        ({"endpoint": "ftp://localhost/v1", "model_name": "m"},
         "'endpoint' must be an http:// or https:// URL"),
        ({"model_name": "m"}, "needs a string 'endpoint'"),
    ],
)
def test_cli_bad_transport_is_a_data_error(tmp_path, suite_paths, capsys, monkeypatch, transport, fault):
    calls = []
    monkeypatch.setattr(HttpModelClient, "_complete", lambda self, req: calls.append(req) or "")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"transport": transport}))
    argv = [
        "--config", str(config_path),
        "--traces-dir", str(tmp_path / "traces"),
        "eval", suite_paths["all"],
    ]
    assert main(argv) == 2
    assert calls == []
    assert capsys.readouterr().err == f"data error: transport config {fault}\n"
    assert not os.path.exists(tmp_path / "traces")


def test_a_trace_that_cannot_be_encoded_leaves_no_file(tmp_path):
    from test_critic import fake_trace

    good, bad = fake_trace("A", Choice(1)), fake_trace("B", Choice(2))
    bad.steps[0].result = object()  # not JSON
    with pytest.raises(TypeError):
        evalcli.persist_traces([good, bad], str(tmp_path))
    assert os.listdir(tmp_path) == ["t1.A.json"]
    written = (tmp_path / "t1.A.json").read_text(encoding="utf-8")
    assert written == json.dumps(good.to_dict(), indent=2, sort_keys=True) + "\n"


def test_a_report_that_cannot_be_encoded_leaves_no_file(tmp_path, suite_paths, monkeypatch):
    report = {"aggregate": {"count": 1}, "items": [{"id": "v01", "result": object()}]}
    monkeypatch.setattr(evalcli, "evaluate", lambda *args, **kwargs: report)
    path = tmp_path / "report.json"
    with pytest.raises(TypeError):
        main(["--mode", "direct", "eval", suite_paths["all"], "--report", str(path)])
    assert not path.exists()


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        json.dumps({"fingerprint": "f", "response": "r"}),
        json.dumps('"fingerprint" "tag" "response"'),
    ],
    ids=["not-json", "no-tag", "json-string"],
)
def test_cli_malformed_cassette_exits_2(tmp_path, suite_paths, capsys, line):
    cassette = tmp_path / "bad.cassette.jsonl"
    cassette.write_text(line + "\n")
    argv = [
        "--cassette", f"replay:{cassette}",
        "--mode", "agent",
        "--traces-dir", str(tmp_path / "traces"),
        "eval", suite_paths["all"],
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {cassette}:1: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "mode, tag",
    [("agent", "v01/C/0"), ("agent_critic", "v01/A/0"), ("self_eval", "v01/self/0")],
)
def test_cli_fatal_transport_fault_exits_1(tmp_path, suite_paths, capsys, monkeypatch, mode, tag):
    monkeypatch.delenv("MODEL_API_KEY", raising=False)
    config_path = tmp_path / "config.json"
    transport = {"endpoint": "http://localhost:9/v1", "model_name": "m"}
    config_path.write_text(json.dumps({"transport": transport}))
    traces = tmp_path / "traces"
    argv = [
        "--config", str(config_path),
        "--mode", mode,
        "--traces-dir", str(traces),
        "eval", suite_paths["all"],
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == (
        f"model transport error: request '{tag}': "
        "environment variable MODEL_API_KEY is not set\n"
    )
    assert not traces.exists()  # neither a report nor a trace is written


@pytest.mark.parametrize(
    "video, files, fragment",
    [
        (
            "clip.json",
            {"clip.json": {"duration": "01:00", "frames": 5}},
            "clip.json: frames: expected a list",
        ),
        (
            "frames",
            {"frames/0.jpg": "", "frames/metadata.json": [1]},
            "metadata.json: top level must be an object",
        ),
    ],
)
def test_cli_malformed_video_exits_2(tmp_path, capsys, video, files, fragment):
    path = write_rows(tmp_path, [{**GOOD_ROW, "video": video}])
    (tmp_path / "frames").mkdir()
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content))
    argv = ["--mode", "direct", "--traces-dir", str(tmp_path / "traces"), "eval", path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and fragment in err


def test_cli_replay_tampered_cassette_exits_3(tmp_path, suite_paths, all_items, capsys):
    cfg, cassette_path, report_path = record_baseline(tmp_path, all_items)
    rows = [json.loads(line) for line in Path(cassette_path).read_text().splitlines()]
    rows[0]["fingerprint"] = "0" * 64
    with open(cassette_path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    code = main(
        [
            "--cassette", f"replay:{cassette_path}",
            "--traces-dir", cfg.traces_dir,
            "replay", suite_paths["all"],
            "--report", report_path,
            "--out-dir", str(tmp_path / "replayed"),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "replay divergence" in err
    # the message names the first divergent exchange
    assert "v01" in err


def test_cli_replay_roundtrip_and_divergence(tmp_path, suite_paths, all_items, capsys):
    cfg, cassette_path, report_path = record_baseline(tmp_path, all_items)
    argv = [
        "--cassette", f"replay:{cassette_path}",
        "--traces-dir", cfg.traces_dir,
        "replay", suite_paths["all"],
        "--report", report_path,
        "--out-dir", str(tmp_path / "replayed"),
    ]
    assert main(argv) == 0
    assert "replay matched" in capsys.readouterr().out

    # corrupt the baseline report: the rerun no longer matches it
    report = json.loads(Path(report_path).read_text())
    report["items"][0]["selected"]["value"] = 3
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    argv[-1] = str(tmp_path / "replayed2")
    assert main(argv) == 3
    assert "replay divergence" in capsys.readouterr().err
