"""End-to-end acceptance checks.

Each test prints one "criterion N: PASS/FAIL" line on the real stdout so the
full sweep is visible in captured pytest output as a checklist.
"""

import json
import math
import os
import random
import time
from pathlib import Path

import pytest

import oracle_suite
from clipcritic.agent import final_from_dict, run_self_eval
from clipcritic.core import (
    Choice,
    Ranges,
    TaskKind,
    TaskQuery,
    VideoSegment,
    answers_equal,
    interval_union_iou,
)
from clipcritic.critic import parse_verdict
from clipcritic.dsl import run_source
from clipcritic.evalcli import (
    RunConfig,
    ablate_fixed_subsets,
    evaluate,
    load_dataset,
    main,
    replay_run,
)
from clipcritic.fixtures import FrameRef, QaFact, VideoFixture
from clipcritic.modelclient import (
    CallableModel,
    Cassette,
    CassetteClient,
    CassetteMode,
    ScriptedModel,
    budget_frames,
)
from clipcritic.toolkit import PROFILES, StrategySubset, enumerate_module_subsets
from clipcritic.tools import NO_RANGES_SENTENCE, ToolSuite, build_registry

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def criterion(request):
    """Report one checklist line per criterion, past output capturing."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def emit(line):
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)

    def run(number, label, check):
        try:
            detail = check()
        except BaseException as exc:
            emit(f"criterion {number}: FAIL - {label}: {exc}")
            raise
        emit(f"criterion {number}: PASS - {detail}")

    return run


# --- shared scripted-suite runs ---


@pytest.fixture(scope="module")
def suite_paths(tmp_path_factory):
    return oracle_suite.write_suite(str(tmp_path_factory.mktemp("acceptance_suite")))


@pytest.fixture(scope="module")
def all_items(suite_paths):
    return load_dataset(suite_paths["all"])


@pytest.fixture(scope="module")
def mode_reports(tmp_path_factory, all_items):
    """One evaluation per mode over the 20-task suite; critic traces kept."""
    traces_root = tmp_path_factory.mktemp("acceptance_traces")
    reports = {}
    for mode in ("agent_critic", "agent", "single_program"):
        config = RunConfig(mode=mode, traces_dir=str(traces_root / mode))
        reports[mode] = evaluate(
            all_items, config, oracle_suite.scripted_model(),
            persist=(mode == "agent_critic"),
        )
        reports[mode]["traces_dir"] = config.traces_dir
    return reports


# --- criterion 1: program corpus ---


class _StubRegistry:
    terminal_tools = frozenset({"finish"})

    def call(self, name, args, kwargs):
        if name == "finish":
            return args[0] if args else kwargs.get("final_answer")
        if name == "get_segment":
            return VideoSegment(0, 10)
        return f"<{name}>"


def test_criterion_1_program_corpus(criterion):
    def check():
        corpus = json.loads((DATA_DIR / "golden_programs.json").read_text())
        blocks = sum(len(trace["programs"]) for trace in corpus)
        assert blocks >= 30
        started = time.perf_counter()
        for trace in corpus:
            env: dict = {}
            registry = _StubRegistry()
            for program in trace["programs"]:
                result = run_source(program, env, registry)
                assert result.error is None, f"{trace['listing']}: {result.error}"
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        return f"{blocks} programs parsed and executed in {elapsed:.3f}s"

    criterion(1, "program corpus executes cleanly", check)


# --- criterion 2: temporal metric vs a counting oracle ---


def _grid_iou(pred, truth, step=0.1):
    def cells(segments):
        out = set()
        for s in segments:
            out.update(range(round(s.start / step), round(s.end / step)))
        return out

    a, b = cells(pred), cells(truth)
    union = len(a | b)
    if union == 0:
        return 1.0 if a == b else 0.0
    return len(a & b) / union


def test_criterion_2_interval_metric(criterion):
    def check():
        reference = interval_union_iou(
            [VideoSegment(11, 24), VideoSegment(33, 41)], [VideoSegment(11, 41)]
        )
        assert abs(reference - 0.7) <= 1e-9
        same = [VideoSegment(3, 9), VideoSegment(20, 31)]
        assert interval_union_iou(same, list(same)) == 1.0
        rng = random.Random(20260822)
        for _ in range(100):
            def sample():
                segs = []
                for _ in range(rng.randint(0, 4)):
                    start = rng.randint(0, 599)
                    segs.append(VideoSegment(start, rng.randint(start + 1, 600)))
                return segs

            pred, truth = sample(), sample()
            got = interval_union_iou(pred, truth)
            want = _grid_iou(pred, truth)
            assert abs(got - want) <= 1e-3, (pred, truth, got, want)
        return "reference pair exact; 100 randomized pairs within 1e-3 of grid oracle"

    criterion(2, "interval metric matches counting oracle", check)


# --- criterion 3: frame window accounting ---


def test_criterion_3_window_accounting(criterion):
    def check():
        for n_frames in (64, 65, 2450, 7200):
            fixture = VideoFixture(
                n_frames, 1.0, tuple(FrameRef(i, float(i)) for i in range(n_frames))
            )
            task = TaskQuery("t1", "what?", TaskKind.MULTIPLE_CHOICE, fixture, ("a", "b"), False)
            log = []

            def respond(req):
                log.append(req)
                assert budget_frames(req.parts) <= 120, req.tag
                if "/find_when/window/" in req.tag:
                    return NO_RANGES_SENTENCE
                if "/retrieval_qa/window/" in req.tag:
                    return "none"
                return "Final Answer: (1)"

            suite = ToolSuite(
                task, backend="model", model=CallableModel(respond), tag_prefix="t1/A"
            )
            log.clear()
            suite.find_when("query")
            assert len(log) == math.ceil(n_frames / 100), n_frames
            log.clear()
            suite.retrieval_qa("question?")
            windows = [r for r in log if "/retrieval_qa/window/" in r.tag]
            assert len(windows) == math.ceil(n_frames / 64), n_frames
        return (
            "N in {64, 65, 2450, 7200}: ceil(N/100) localization and ceil(N/64) "
            "retrieval windows, every request within 120 frames"
        )

    criterion(3, "window accounting", check)


# --- criterion 4: verdict corpus ---


def test_criterion_4_verdict_corpus(criterion):
    def check():
        cases = json.loads((DATA_DIR / "verdict_cases.json").read_text())
        assert len(cases) >= 16
        singular = 0
        for case in cases:
            verdict = parse_verdict(case["text"], ["A", "B", "C"])
            assert list(verdict.winners) == case["winners"], case["text"][-120:]
            if "Winning Strategy:" in case["text"]:
                singular += 1
        assert singular >= 1
        return f"{len(cases)} verdicts parse to the expected winner sets"

    criterion(4, "verdict corpus", check)


# --- criteria 5 and 6: the scripted one-winner suite ---


def _strategy_successes(item, traces_dir):
    wins = {}
    for label in "ABC":
        doc = json.loads(Path(traces_dir, f"{item.task.id}.{label}.json").read_text())
        final = final_from_dict(doc["final"]) if doc["final"] else None
        if item.task.kind is TaskKind.MULTIPLE_CHOICE:
            wins[label] = final is not None and answers_equal(final, item.truth)
        else:
            pred = final.segments if isinstance(final, Ranges) else ()
            wins[label] = interval_union_iou(pred, item.truth.segments) == 1.0
    return wins


def test_criterion_5_critic_beats_fixed_policy(criterion, all_items, mode_reports):
    def check():
        cases = oracle_suite.build_cases()
        assert len(cases) >= 20
        designed = {c.task_id: c.winner for c in cases}
        traces_dir = mode_reports["agent_critic"]["traces_dir"]
        for item in all_items:
            wins = _strategy_successes(item, traces_dir)
            assert sum(wins.values()) == 1, (item.task.id, wins)
            assert wins[designed[item.task.id]], item.task.id
        agg = mode_reports["agent_critic"]["aggregate"]
        assert agg["accuracy"] == 1.0 and agg["miou"] == 1.0
        agent_agg = mode_reports["agent"]["aggregate"]
        assert agent_agg["accuracy"] < 1.0 and agent_agg["miou"] < 1.0
        succeeded = {
            r["id"] for r in mode_reports["agent"]["items"]
            if r.get("correct") or r.get("iou") == 1.0
        }
        assert succeeded == {c.task_id for c in cases if c.agent_correct}
        return (
            f"{len(cases)} tasks, exactly one winning strategy each; critic run "
            f"scores 100%, fixed full-pool agent {len(succeeded)}/{len(cases)}"
        )

    criterion(5, "critic selection beats any fixed policy", check)


def test_criterion_6_single_program_below_agent(criterion, mode_reports):
    def check():
        single = mode_reports["single_program"]["aggregate"]
        agent = mode_reports["agent"]["aggregate"]
        assert single["accuracy"] < agent["accuracy"]
        assert single["miou"] < agent["miou"]
        return (
            f"single-program accuracy {single['accuracy']:.2f} < agent "
            f"{agent['accuracy']:.2f}; miou {single['miou']:.2f} < {agent['miou']:.2f}"
        )

    criterion(6, "one-shot program below iterative agent", check)


# --- criterion 7: record and replay ---


def test_criterion_7_record_replay(criterion, tmp_path, suite_paths, all_items):
    def check():
        cassette_path = str(tmp_path / "run.cassette.jsonl")
        config = RunConfig(mode="agent_critic", traces_dir=str(tmp_path / "traces"))
        model = CassetteClient(
            Cassette.open(cassette_path, CassetteMode.RECORD),
            oracle_suite.scripted_model(),
        )
        report = evaluate(all_items, config, model)
        report_path = str(tmp_path / "report.json")
        with open(report_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")

        out_dir = str(tmp_path / "replayed")
        replay_run(all_items, config, cassette_path, config.traces_dir, report_path, out_dir)
        names = sorted(os.listdir(config.traces_dir))
        assert len(names) == 3 * len(all_items)
        for name in names:
            want = Path(config.traces_dir, name).read_bytes()
            got = Path(out_dir, name).read_bytes()
            assert want == got, name

        # corrupt the baseline report: the CLI replay must exit 3
        broken = json.loads(Path(report_path).read_text())
        broken["items"][0]["selected"]["value"] = 3
        broken_path = str(tmp_path / "broken_report.json")
        with open(broken_path, "w") as fh:
            json.dump(broken, fh, indent=2, sort_keys=True)
        code = main(
            [
                "--cassette", f"replay:{cassette_path}",
                "--traces-dir", config.traces_dir,
                "replay", suite_paths["all"],
                "--report", broken_path,
                "--out-dir", str(tmp_path / "replayed2"),
            ]
        )
        assert code == 3
        return (
            f"{len(names)} traces and the report replay byte-identical; "
            "divergence exits with code 3"
        )

    criterion(7, "record and replay", check)


# --- criterion 8: module-subset ablation ---


def test_criterion_8_ablation_sweep(criterion, tmp_path, suite_paths):
    def check():
        items = load_dataset(suite_paths["temporal"])
        profile = PROFILES["temporal_range"]
        assert len(profile.pool) == 3
        assert len(enumerate_module_subsets(profile)) == 6
        config = RunConfig(mode="agent", traces_dir=str(tmp_path / "traces"))
        report = ablate_fixed_subsets(items, config, oracle_suite.scripted_model())
        assert len(report["subsets"]) == 6
        labels = [s["label"] for s in report["subsets"]]
        assert labels == [f"S{i}" for i in range(1, 7)]
        best = report["max"]["score"]
        assert all(best >= s["score"] for s in report["subsets"])
        assert best > 0
        return (
            f"3-module pool enumerates 6 subsets; best subset "
            f"{report['max']['label']} scores {best:.2f}, >= every other subset"
        )

    criterion(8, "module-subset ablation", check)


# --- criterion 9: confidence-gated retry loop ---


def _self_eval(confidences, answers, max_rounds):
    fixture = VideoFixture(
        600, 1.0, tuple(FrameRef(i, float(i)) for i in range(600)),
        qa_facts=(QaFact(VideoSegment(100, 120), ("door",), "a red door"),),
    )
    task = TaskQuery(
        "t1", "What color is the door?", TaskKind.MULTIPLE_CHOICE, fixture, ("red", "blue"), False
    )
    subset = StrategySubset("self", PROFILES["visual_mcq"].pool)
    registry = build_registry(task, subset)
    turns = [f"```\nfinish(final_answer='Final Answer: ({a})')\n```" for a in answers]
    model = ScriptedModel({"t1/self/confidence": list(confidences), "t1/self": turns})
    trace = run_self_eval(task, subset, model, registry, max_rounds=max_rounds)
    rounds = sum(1 for c in model.calls if "/confidence/" in c.tag)
    return trace, rounds


def test_criterion_9_self_eval_termination(criterion):
    def check():
        trace, rounds = _self_eval(["3 certain"], [2], max_rounds=4)
        assert rounds == 1 and trace.final == Choice(2)
        trace, rounds = _self_eval(
            ["1 low", "2 medium", "3 high"], [1, 1, 2], max_rounds=5
        )
        assert rounds == 3 and trace.final == Choice(2)
        trace, rounds = _self_eval(
            ["1", "2", "1", "2", "2"], [1, 1, 1, 1, 2], max_rounds=5
        )
        assert rounds == 5 and trace.final == Choice(2)
        return (
            "stops at the first confidence-3 round, otherwise runs exactly "
            "max_rounds rounds"
        )

    criterion(9, "confidence-gated retries terminate", check)
