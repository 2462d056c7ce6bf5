"""Critic prompt assembly, verdict parsing, and answer selection."""

import json
from pathlib import Path

import pytest

from clipcritic.agent import Step, StopReason, Trace
from clipcritic.core import (
    Choice,
    TaskKind,
    TaskQuery,
    Unparsed,
    VideoSegment,
)
from clipcritic.critic import (
    ELIDE_OVER,
    ELISION_MARKER,
    build_critique_prompt,
    elide_middle,
    load_examples,
    parse_examples_json,
    parse_verdict,
    render_trace_block,
    run_agent_critic,
    run_critic,
    sample_strategies,
    select_answer,
)
from clipcritic.fixtures import FrameRef, QaFact, VideoFixture
from clipcritic.modelclient import budget_frames
from clipcritic.toolkit import PROFILES, StrategySubset
from clipcritic.tools import build_registry
from scripted_model import ScriptedModel

DATA_DIR = Path(__file__).parent / "data"


def make_fixture():
    frames = tuple(FrameRef(i, float(i)) for i in range(600))
    return VideoFixture(
        600, 1.0, frames, qa_facts=(QaFact(VideoSegment(100, 120), ("door",), "a red door"),)
    )


def make_task():
    return TaskQuery(
        "t1",
        "What color is the door?",
        TaskKind.MULTIPLE_CHOICE,
        make_fixture(),
        ("blue", "red"),
        False,
    )


def fake_trace(label, final, modules=("retrieval_qa",), direct=False):
    subset = StrategySubset(label, modules, direct=direct)
    raw = "Final Answer: (0)" if isinstance(final, Choice) else "text"
    steps = [Step(program="", result=str(final), terminal=True)]
    return Trace(
        task=make_task(),
        strategy=subset,
        steps=steps,
        final=final,
        raw_final=raw,
        stop_reason=StopReason.FINISHED,
    )


def test_verdict_corpus_parses_to_listed_winners():
    cases = json.loads((DATA_DIR / "verdict_cases.json").read_text())
    assert len(cases) >= 16
    for case in cases:
        verdict = parse_verdict(case["text"], ["A", "B", "C"])
        assert list(verdict.winners) == case["winners"], (
            f"{case['listing']} example {case['example']}"
        )


def test_verdict_singular_and_plural_markers():
    plural = parse_verdict("analysis...\n\nWinning Strategies:\nA, C\n", ["A", "B", "C"])
    assert plural.winners == ("A", "C")
    singular = parse_verdict("thoughts\nWinning Strategy:\nB\n", ["A", "B", "C"])
    assert singular.winners == ("B",)


def test_verdict_last_marker_wins():
    text = "Winning Strategies:\nA\n\nrevised view\n\nWinning Strategies:\nB, C\n"
    assert parse_verdict(text, ["A", "B", "C"]).winners == ("B", "C")


def test_verdict_filters_unpresented_and_duplicates():
    got = parse_verdict("Winning Strategies:\nD, A, A, B\n", ["A", "B"])
    assert got.winners == ("A", "B")


def test_verdict_empty_when_no_marker():
    got = parse_verdict("no verdict at all", ["A", "B", "C"])
    assert got.winners == ()


def test_select_answer_single_winner():
    traces = [fake_trace("A", Choice(1)), fake_trace("B", Choice(2)), fake_trace("C", Choice(3))]
    verdict = parse_verdict("Winning Strategies:\nB\n", ["A", "B", "C"])
    selection = select_answer(traces, verdict)
    assert selection.final == Choice(2)
    assert selection.label == "B"
    assert not selection.fallback_used


def test_select_answer_conflict_keeps_first_in_label_order():
    traces = [fake_trace("A", Choice(1)), fake_trace("B", Choice(2)), fake_trace("C", Choice(3))]
    verdict = parse_verdict("Winning Strategies:\nC, A\n", ["A", "B", "C"])
    selection = select_answer(traces, verdict)
    assert selection.label == "A"
    assert selection.final == Choice(1)
    assert selection.conflict


def test_select_answer_agreeing_winners_are_not_a_conflict():
    traces = [fake_trace("A", Choice(2)), fake_trace("B", Choice(2)), fake_trace("C", Choice(3))]
    verdict = parse_verdict("Winning Strategies:\nA, B\n", ["A", "B", "C"])
    selection = select_answer(traces, verdict)
    assert selection.final == Choice(2)
    assert not selection.conflict


def test_select_answer_empty_verdict_majority_vote():
    traces = [fake_trace("A", Choice(2)), fake_trace("B", Choice(3)), fake_trace("C", Choice(3))]
    verdict = parse_verdict("nothing parseable", ["A", "B", "C"])
    selection = select_answer(traces, verdict)
    assert selection.final == Choice(3)
    assert selection.fallback_used


def test_select_answer_majority_tie_takes_trace_order():
    traces = [fake_trace("A", Choice(1)), fake_trace("B", Choice(2))]
    verdict = parse_verdict("no verdict", ["A", "B"])
    selection = select_answer(traces, verdict)
    assert selection.final == Choice(1)
    assert selection.fallback_used


def test_fallback_vote_counts_only_parsed_finals():
    traces = [fake_trace("A", Unparsed("x")), fake_trace("B", Choice(2)), fake_trace("C", Unparsed("y"))]
    selection = select_answer(traces, parse_verdict("no verdict", ["A", "B", "C"]))
    assert selection.label == "B"
    assert selection.final == Choice(2)
    assert selection.fallback_used


def test_fallback_without_parsed_finals_takes_first_label():
    traces = [fake_trace("B", Unparsed("y")), fake_trace("A", Unparsed("x")), fake_trace("C", Unparsed("y"))]
    selection = select_answer(traces, parse_verdict("no verdict", ["A", "B", "C"]))
    assert selection.label == "A"
    assert selection.final == Unparsed("x")
    assert selection.fallback_used


def test_selected_answer_is_always_a_presented_final():
    traces = [fake_trace("A", Choice(1)), fake_trace("B", Unparsed("free"))]
    verdict = parse_verdict("Winning Strategies:\nB\n", ["A", "B"])
    selection = select_answer(traces, verdict)
    assert selection.final == Unparsed("free")


def test_load_examples_per_profile():
    for name in ("visual_mcq", "asr_mcq", "temporal_range"):
        examples = load_examples(PROFILES[name])
        assert len(examples) == 4
        for example in examples:
            assert example.input_block.endswith("\n")
            assert example.winners


def test_packaged_examples_are_parsed_once():
    examples = load_examples(PROFILES["visual_mcq"])
    assert isinstance(examples, tuple)
    assert load_examples(PROFILES["visual_mcq"]) is examples
    # a configured examples file is read afresh on every run:
    # test_evalcli.py::test_examples_file_is_read_once_per_run


def test_parse_examples_json_validates_labels():
    good = json.dumps(
        [{"input_block": "Strategy A (x):\nsteps\n", "critique": "c", "winners": ["A"]}]
    )
    examples = parse_examples_json(good, "inline")
    assert examples[0].winners == ("A",)
    bad = json.dumps(
        [{"input_block": "Strategy A (x):\nsteps\n", "critique": "c", "winners": ["Z"]}]
    )
    with pytest.raises(ValueError):
        parse_examples_json(bad, "inline")


GOOD_EXAMPLE = {"input_block": "Strategy A (x):\nsteps\n", "critique": "c", "winners": ["A"]}


@pytest.mark.parametrize(
    "entry, message",
    [
        ({**GOOD_EXAMPLE, "winners": ["Z"]}, "winner 'Z' does not appear in the example's strategies"),
        ({**GOOD_EXAMPLE, "critique": 5}, "critique must be a string or null"),
        ({**GOOD_EXAMPLE, "critique": ["c"]}, "critique must be a string or null"),
    ],
    ids=["absent-winner", "int-critique", "list-critique"],
)
def test_parse_examples_names_the_entry_at_fault(entry, message):
    with pytest.raises(ValueError) as exc_info:
        parse_examples_json(json.dumps([GOOD_EXAMPLE, entry]), "inline")
    assert str(exc_info.value) == f"inline[1]: {message}"


def test_a_critique_may_be_null_or_absent():
    absent = {k: v for k, v in GOOD_EXAMPLE.items() if k != "critique"}
    examples = parse_examples_json(json.dumps([absent, {**GOOD_EXAMPLE, "critique": None}]), "x")
    assert [e.critique for e in examples] == [None, None]


def test_elide_middle():
    short = "short text"
    assert elide_middle(short, ELIDE_OVER) == short
    long = "x" * 10000
    got = elide_middle(long, 4000)
    assert ELISION_MARKER in got
    assert len(got) <= 4000 + len(ELISION_MARKER) + 2
    assert got.startswith("x") and got.endswith("x")


def scripted_pipeline(critic_response):
    task = make_task()
    profile = PROFILES["visual_mcq"]
    model = ScriptedModel(
        {
            "t1/A": [
                "```\nans = retrieval_qa('What color is the door?')\n```",
                "```\nfinish(final_answer=f'Final Answer: (2) {ans}')\n```",
            ],
            "t1/C": ["```\nfinish(final_answer='Final Answer: (1)')\n```"],
            "t1/critic": [critic_response],
        }
    )
    factory = lambda subset: build_registry(task, subset)
    return task, profile, model, factory


def test_sample_strategies_runs_every_profile_strategy():
    task, profile, model, factory = scripted_pipeline("unused")
    traces = sample_strategies(task, model, factory, profile)
    assert [t.strategy.label for t in traces] == ["A", "B", "C"]
    # B is direct: the oracle tool answered without any model turn
    assert traces[1].final == Unparsed("a red door")


def test_build_critique_prompt_shape():
    task, profile, model, factory = scripted_pipeline("unused")
    traces = sample_strategies(task, model, factory, profile)
    examples = load_examples(profile)
    request = build_critique_prompt(task, traces, examples)
    assert request.tag == "t1/critic"
    assert budget_frames(request.parts) == 0
    text = request.parts[0].text
    assert text.endswith("Critique:")
    live = text[text.rfind("Input:"):]
    for label in ("A", "B", "C"):
        assert live.count(f"Strategy {label} (") == 1
    # all four in-context examples precede the live block
    assert text.count("Winning Strateg") >= 4


def test_build_critique_prompt_validations():
    task, profile, model, factory = scripted_pipeline("unused")
    traces = sample_strategies(task, model, factory, profile)
    examples = load_examples(profile)
    with pytest.raises(ValueError):
        build_critique_prompt(task, traces[:1], examples)
    with pytest.raises(ValueError):
        build_critique_prompt(task, [traces[0], traces[0]], examples)


def test_render_trace_block_elides_long_results():
    trace = fake_trace("A", Choice(1))
    trace.steps[0] = Step(program="x = think(thought='t')", result="y" * 9000, terminal=False)
    block = render_trace_block(trace)
    assert ELISION_MARKER in block
    assert block.startswith("Strategy A (")


def test_run_critic_selects_named_winner():
    task, profile, model, factory = scripted_pipeline(
        "Critique:\nStrategy A verified the color. Strategy C guessed.\n\nWinning Strategies:\nA\n"
    )
    traces = sample_strategies(task, model, factory, profile)
    verdict, selection, response = run_critic(
        task, traces, model, load_examples(profile)
    )
    assert verdict.winners == ("A",)
    assert selection.final == Choice(2)
    assert not selection.fallback_used
    assert "Winning Strategies" in response


def test_run_critic_falls_back_on_unparseable_verdict():
    task, profile, model, factory = scripted_pipeline("I cannot decide.")
    traces = sample_strategies(task, model, factory, profile)
    verdict, selection, _ = run_critic(task, traces, model, load_examples(profile))
    assert verdict.winners == ()
    assert selection.fallback_used
    # majority between Choice(2), Unparsed, Choice(1) is a tie; trace order wins
    assert selection.final == Choice(2)


def test_run_agent_critic_end_to_end():
    task, profile, model, factory = scripted_pipeline(
        "The direct read is unreliable here.\n\nWinning Strategies:\nA, C\n"
    )
    selection, traces, verdict = run_agent_critic(task, model, factory, profile)
    assert len(traces) == 3
    assert verdict.winners == ("A", "C")
    # conflict between A and C resolves to the first in label order
    assert selection.label == "A"
    assert selection.final == Choice(2)
