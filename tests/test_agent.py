"""Agent episode loop: budgets, transcripts, direct/single/self-eval modes."""

import pytest

from clipcritic.agent import (
    StopReason,
    final_from_dict,
    final_to_dict,
    run_direct,
    run_episode,
    run_self_eval,
    run_single_program,
    task_statement,
)
from clipcritic.core import (
    Choice,
    Ranges,
    TaskKind,
    TaskQuery,
    Unparsed,
    VideoSegment,
)
from clipcritic.fixtures import FrameRef, QaFact, VideoFixture
from clipcritic.toolkit import PROFILES, StrategySubset
from clipcritic.tools import build_registry
from scripted_model import ScriptedModel


def make_fixture():
    frames = tuple(FrameRef(i, float(i)) for i in range(600))
    facts = (QaFact(VideoSegment(100, 120), ("door",), "a red door"),)
    return VideoFixture(600, 1.0, frames, qa_facts=facts)


def make_task(kind=TaskKind.MULTIPLE_CHOICE):
    options = ("blue", "red") if kind is TaskKind.MULTIPLE_CHOICE else None
    question = (
        "What color is the door?"
        if kind is TaskKind.MULTIPLE_CHOICE
        else "When is the door open?"
    )
    return TaskQuery("t1", question, kind, make_fixture(), options, False)


def episode_setup(scripts=None, subset=None):
    task = make_task()
    subset = subset or PROFILES["visual_mcq"].strategies[0]
    registry = build_registry(task, subset)
    model = ScriptedModel(scripts or {})
    return task, subset, model, registry


def test_task_statement_shapes():
    mcq = task_statement(make_task())
    assert mcq.startswith("You will be given a question about a video and two possible")
    assert "(1) blue" in mcq and "(2) red" in mcq
    assert mcq.endswith("Video length: 10:00")
    temporal = task_statement(make_task(TaskKind.TEMPORAL_RANGE))
    assert temporal == "Question: When is the door open?\nVideo length: 10:00"


def test_three_turn_episode():
    scripts = {
        "t1/A": [
            "Trim first.\n```\nseg = get_segment('01:30', '02:30')\n```",
            "Ask now.\n```\nans = retrieval_qa('What color is the door?', video_segment=seg)\n```",
            "Done.\n```\nfinish(final_answer=f\"Final Answer: (2) because {ans}\")\n```",
        ]
    }
    task, subset, model, registry = episode_setup(scripts=scripts)
    trace = run_episode(task, subset, model, registry)
    assert trace.stop_reason is StopReason.FINISHED
    assert trace.final == Choice(2)
    assert [s.terminal for s in trace.steps] == [False, False, True]
    assert trace.steps[1].result == "a red door"
    assert trace.raw_final == "Final Answer: (2) because a red door"


def test_transcript_accumulates_programs_and_results():
    scripts = {
        "t1/A": [
            "```\nseg = get_segment('01:30', '02:30')\n```",
            "```\nans = retrieval_qa('What color is the door?', video_segment=seg)\n```",
            "```\nfinish(final_answer='Final Answer: (2)')\n```",
        ]
    }
    task, subset, model, registry = episode_setup(scripts=scripts)
    run_episode(task, subset, model, registry)
    last_prompt = model.calls[-1].parts[0].text
    # every earlier program and its rendered result appear verbatim, in order
    needles = [
        "seg = get_segment('01:30', '02:30')",
        "['01:30', '02:30']",
        "ans = retrieval_qa('What color is the door?', video_segment=seg)",
        "a red door",
    ]
    position = -1
    for needle in needles:
        found = last_prompt.find(needle, position + 1)
        assert found > position, f"missing or out of order: {needle}"
        position = found
    # tags number the turns within the episode
    assert [c.tag for c in model.calls] == ["t1/A/0", "t1/A/1", "t1/A/2"]


def test_first_prompt_lists_only_subset_tools():
    scripts = {"t1/A": ["Final Answer: (1)"]}
    task, subset, model, registry = episode_setup(scripts=scripts)
    run_episode(task, subset, model, registry)
    prompt = model.calls[0].parts[0].text
    assert "def get_segment(" in prompt
    assert "def retrieval_qa(" in prompt
    assert "def find_when(" not in prompt
    assert task_statement(task) in prompt


def test_budget_exhaustion_forces_answer():
    scripts = {"t1/A": ["```\nthink(thought='still looking')\n```"] * 10 + ["Final Answer: (2)"]}
    task, subset, model, registry = episode_setup(scripts=scripts)
    trace = run_episode(task, subset, model, registry)
    assert trace.stop_reason is StopReason.FORCED_ANSWER
    # the forced-answer exchange is not a step
    assert len(trace.steps) == 10
    assert len(model.calls) == 11
    assert trace.final == Choice(2)


def test_code_free_reply_with_final_answer_terminates():
    scripts = {"t1/A": ["Looking at the door, Final Answer: (1)"]}
    task, subset, model, registry = episode_setup(scripts=scripts)
    trace = run_episode(task, subset, model, registry)
    assert trace.stop_reason is StopReason.FINISHED
    assert len(trace.steps) == 1
    assert trace.steps[0].terminal
    assert trace.final == Choice(1)


def test_code_free_reply_without_answer_gets_corrective_turn():
    scripts = {
        "t1/A": [
            "I am musing without code",
            "```\nfinish(final_answer='Final Answer: (2)')\n```",
        ]
    }
    task, subset, model, registry = episode_setup(scripts=scripts)
    trace = run_episode(task, subset, model, registry)
    assert trace.stop_reason is StopReason.FINISHED
    # the corrective exchange consumed a step
    assert len(trace.steps) == 2
    assert trace.steps[0].result == "I am musing without code"
    assert trace.final == Choice(2)


def test_parse_errors_are_fed_back_as_results():
    scripts = {
        "t1/A": [
            "```\nseg = get_segment('01:30' '02:30')\n```",
            "```\nfinish(final_answer='Final Answer: (2)')\n```",
        ]
    }
    task, subset, model, registry = episode_setup(scripts=scripts)
    trace = run_episode(task, subset, model, registry)
    assert trace.steps[0].result.startswith("error: parse error at line 1")
    assert trace.steps[0].result in model.calls[-1].parts[0].text
    assert trace.final == Choice(2)


def test_run_direct_uses_tool_not_model():
    task = make_task()
    subset = PROFILES["visual_mcq"].strategies[1]
    registry = build_registry(task, subset)
    model = ScriptedModel({})  # never consulted with the oracle backend
    trace = run_direct(task, subset, model, registry)
    assert trace.stop_reason is StopReason.FINISHED
    assert len(trace.steps) == 1
    assert trace.steps[0].result == "a red door"
    # the oracle answer has no final-answer marker, so it stays unparsed
    assert trace.final == Unparsed("a red door")
    assert model.calls == []


def test_run_direct_requires_answer_capable_module():
    task = make_task()
    bad = StrategySubset("B", ("get_segment",), direct=True)
    registry = build_registry(task, bad)
    with pytest.raises(ValueError, match="cannot answer"):
        run_direct(task, bad, ScriptedModel({}), registry)
    nondirect = StrategySubset("A", ("retrieval_qa",), direct=False)
    with pytest.raises(ValueError, match="direct"):
        run_direct(task, nondirect, ScriptedModel({}), registry)


def test_run_single_program_is_one_model_call():
    program = (
        "```\nseg = get_segment('00:00', '00:15')\n"
        "ans = retrieval_qa('What color is the door?', video_segment=seg)\n"
        "finish(final_answer=f'Final Answer: (1) {ans}')\n```"
    )
    task = make_task()
    subset = StrategySubset("single", PROFILES["visual_mcq"].pool)
    registry = build_registry(task, subset)
    model = ScriptedModel({"t1/single": [program]})
    trace = run_single_program(task, subset, model, registry)
    assert len(model.calls) == 1
    assert trace.strategy.label == "single"
    assert len(trace.steps) == 1
    assert trace.final == Choice(1)
    # a fixed program cannot react to the miss: the early segment has no door
    assert "not visible in this segment" in trace.steps[0].result


def test_run_single_program_without_code_is_unparsed():
    task = make_task()
    subset = StrategySubset("single", PROFILES["visual_mcq"].pool)
    registry = build_registry(task, subset)
    model = ScriptedModel({"t1/single": ["no code at all"]})
    trace = run_single_program(task, subset, model, registry)
    assert trace.final == Unparsed("no code at all")


def finish_turn(index):
    return f"```\nfinish(final_answer='Final Answer: ({index})')\n```"


def run_self_eval_with(confidences, answers=None, max_rounds=3):
    task = make_task()
    subset = StrategySubset("self", PROFILES["visual_mcq"].pool)
    registry = build_registry(task, subset)
    rounds = len(confidences)
    episode_turns = [finish_turn(a) for a in (answers or [2] * rounds)]
    model = ScriptedModel(
        {"t1/self/confidence": list(confidences), "t1/self": episode_turns}
    )
    trace = run_self_eval(task, subset, model, registry, max_rounds=max_rounds)
    asked = sum(1 for c in model.calls if "/confidence/" in c.tag)
    return trace, asked


def test_self_eval_stops_at_first_high_confidence():
    for reply in ("3 certain", "Confidence (1-3): 3"):
        trace, rounds = run_self_eval_with([reply], max_rounds=3)
        assert rounds == 1
        assert trace.final == Choice(2)


def test_self_eval_retries_until_confident():
    trace, rounds = run_self_eval_with(["1 low", "2 medium", "3 high"], answers=[1, 1, 2])
    assert rounds == 3
    # the confident round's answer is the one kept
    assert trace.final == Choice(2)


def test_self_eval_gives_up_at_max_rounds():
    trace, rounds = run_self_eval_with(["1", "2", "1", "2", "2"], answers=[1, 1, 1, 1, 2], max_rounds=5)
    assert rounds == 5
    assert trace.final == Choice(2)


def test_self_eval_unscorable_confidence_counts_as_low():
    trace, rounds = run_self_eval_with(["??", "3 sure"], answers=[1, 2])
    assert rounds == 2
    assert trace.final == Choice(2)


def test_trace_round_trips_through_dict():
    scripts = {"t1/A": [finish_turn(2)]}
    task, subset, model, registry = episode_setup(scripts=scripts)
    trace = run_episode(task, subset, model, registry)
    data = trace.to_dict()
    assert data["task_id"] == "t1"
    assert data["strategy_label"] == "A"
    assert data["stop_reason"] == "Finished"
    assert final_from_dict(data["final"]) == trace.final


def test_final_answer_dict_forms():
    choice = final_to_dict(Choice(2), "Final Answer: (2)")
    assert choice == {"kind": "choice", "value": 2, "raw": "Final Answer: (2)"}
    ranges = Ranges((VideoSegment(11, 24),))
    encoded = final_to_dict(ranges, "Final Answer: [00:11, 00:24]")
    assert encoded["kind"] == "ranges"
    assert encoded["value"] == [[11, 24]]
    assert final_from_dict(encoded) == ranges
    unparsed = final_to_dict(Unparsed("free text"), "free text")
    assert unparsed == {"kind": "unparsed", "value": None, "raw": "free text"}
    assert final_from_dict(unparsed) == Unparsed("free text")
