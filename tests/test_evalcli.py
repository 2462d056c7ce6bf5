"""Dataset loading, evaluation modes, ablation, replay, and the CLI."""

import json
import os
import threading
import time

import pytest

import oracle_suite
from clipcritic.core import Choice, Ranges, TaskKind
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
    FramesPart,
    ScriptedModel,
)
from clipcritic.toolkit import PROFILES, StrategySubset


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
    body = open(os.path.join(cfg.traces_dir, "v01.A.json")).read()
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
        want = open(os.path.join(cfg.traces_dir, name), "rb").read()
        got = open(os.path.join(out_dir, name), "rb").read()
        assert want == got, name


def test_replay_detects_tampered_trace(tmp_path, all_items):
    cfg, cassette_path, report_path = record_baseline(tmp_path, all_items[:2])
    victim = os.path.join(cfg.traces_dir, sorted(os.listdir(cfg.traces_dir))[0])
    body = open(victim).read().replace("Final Answer", "FinalAnswer", 1)
    open(victim, "w").write(body)
    with pytest.raises(ReplayDivergence, match="differs"):
        replay_run(
            all_items[:2], cfg, cassette_path, cfg.traces_dir, report_path,
            str(tmp_path / "replayed"),
        )


def test_replay_detects_prompt_drift(tmp_path, suite_paths, all_items):
    cfg, cassette_path, report_path = record_baseline(tmp_path, all_items[:2])
    # same ids, one question changed: recorded fingerprints no longer match
    rows = [json.loads(line) for line in open(suite_paths["all"])][:2]
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
    rows = [json.loads(line) for line in open(cassette_path)]
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
    report = json.load(open(report_path))
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


def test_cli_replay_tampered_cassette_exits_3(tmp_path, suite_paths, all_items, capsys):
    cfg, cassette_path, report_path = record_baseline(tmp_path, all_items)
    rows = [json.loads(line) for line in open(cassette_path)]
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
    report = json.load(open(report_path))
    report["items"][0]["selected"]["value"] = 3
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    argv[-1] = str(tmp_path / "replayed2")
    assert main(argv) == 3
    assert "replay divergence" in capsys.readouterr().err
