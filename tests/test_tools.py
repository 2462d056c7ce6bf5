"""Video tool backends: oracle semantics and model-side window accounting."""

import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clipcritic.core import (
    TaskKind,
    TaskQuery,
    VideoSegment,
    VideoSource,
    format_timestamp,
)
from clipcritic.dsl import DslExecutionError
from clipcritic.fixtures import ASR_CHUNK_CHARS, AsrLine, Event, FrameRef, QaFact, VideoFixture
from clipcritic.modelclient import CallableModel, FramesPart, budget_frames, fingerprint
from clipcritic.toolkit import PROFILES, StrategySubset, api_listing
from clipcritic.tools import (
    FALLBACK_NOTE,
    NO_RANGES_SENTENCE,
    NO_RELEVANT_SPEECH_SENTENCE,
    NO_SPEECH_SENTENCE,
    NOT_VISIBLE_SENTENCE,
    RETRIEVAL_CAP,
    STOPWORDS,
    ToolSuite,
    build_registry,
    content_tokens,
)
from test_modelclient import reference_fingerprint, reference_frame_id


def make_task(video, kind=TaskKind.MULTIPLE_CHOICE, question="What color is the man's suit?"):
    options = ("red", "blue") if kind is TaskKind.MULTIPLE_CHOICE else None
    return TaskQuery("t1", question, kind, video, options, False)


def plain_fixture(duration, step=1, **extra):
    frames = tuple(FrameRef(i, float(i)) for i in range(0, duration, step))
    return VideoFixture(duration=duration, fps=1.0, frames=frames, **extra)


SUIT_FIXTURE = plain_fixture(
    2450,
    step=10,
    events=(
        Event(VideoSegment(100, 160), "a crowd gathers", "people assemble"),
        Event(VideoSegment(700, 760), "man in blue suit walks in", "he enters the hall"),
    ),
    asr=(
        AsrLine(83, "take a deep inhale during the descent"),
        AsrLine(200, "unrelated words"),
    ),
    qa_facts=(QaFact(VideoSegment(730, 740), ("suit",), "a blue suit"),),
)


def oracle_suite(fixture=SUIT_FIXTURE, task=None):
    return ToolSuite(task or make_task(fixture))


def test_content_tokens_drop_stopwords():
    tokens = content_tokens("When does the man in the blue suit first appear?")
    assert "when" not in tokens
    assert "the" not in tokens
    assert {"man", "blue", "suit"} <= tokens
    # "during" carries meaning in temporal questions and is kept
    assert "during" not in STOPWORDS
    assert "during" in content_tokens("what happens during the descent")


def test_get_segment_clamps_to_video():
    suite = oracle_suite()
    assert suite.get_segment("01:40", "03:20") == VideoSegment(100, 200)
    assert suite.get_segment("40:00", "50:00") == VideoSegment(2400, 2450)


def test_get_segment_rejects_degenerate_clamp():
    suite = oracle_suite()
    with pytest.raises(ValueError) as exc_info:
        suite.get_segment("45:00", "50:00")
    assert (
        str(exc_info.value)
        == "inverted range: '45:00' to '50:00' clamps to ['40:50', '40:50'] on a 40:50 video"
    )


def test_find_when_oracle_matches_event_tokens():
    suite = oracle_suite()
    got = suite.find_when("when does the man in the suit walk in?")
    assert got == '["11:40", "12:40"]: he enters the hall'
    # restricting to a window that only holds token-mismatched events
    assert suite.find_when("suit", video_segment=VideoSegment(0, 300)) == NO_RANGES_SENTENCE
    # never phrased as a final answer, so a direct caller cannot parse it as one
    assert "Final Answer" not in got


def test_find_when_oracle_multiple_hits_in_time_order():
    fixture = plain_fixture(
        600,
        events=(
            Event(VideoSegment(300, 360), "dog runs", "later run"),
            Event(VideoSegment(30, 60), "dog sleeps", "early nap"),
        ),
    )
    got = oracle_suite(fixture, make_task(fixture, question="what does the dog do?")).find_when(
        "dog"
    )
    lines = got.split("\n")
    assert lines[0].startswith('["00:30", "01:00"]')
    assert lines[1].startswith('["05:00", "06:00"]')


def test_retrieval_qa_oracle_needs_overlapping_evidence():
    suite = oracle_suite()
    hit = suite.retrieval_qa("What color is the man's suit?", video_segment=VideoSegment(700, 760))
    assert hit == "a blue suit"
    miss = suite.retrieval_qa("What color is the man's suit?", video_segment=VideoSegment(0, 60))
    assert miss == NOT_VISIBLE_SENTENCE
    whole = suite.retrieval_qa("What color is the man's suit?")
    assert whole == "a blue suit"


def test_retrieval_qa_oracle_first_matching_fact_wins():
    fixture = plain_fixture(
        600,
        qa_facts=(
            QaFact(VideoSegment(10, 20), ("door",), "decoy answer"),
            QaFact(VideoSegment(10, 20), ("door", "red"), "specific answer"),
        ),
    )
    suite = oracle_suite(fixture, make_task(fixture, question="Is the red door open?"))
    assert suite.retrieval_qa("Is the red door open?") == "decoy answer"


def test_asr_oracle_variants():
    suite = oracle_suite()
    hit = suite.asr_understanding("what should you do during the descent?")
    assert hit == "[01:23] take a deep inhale during the descent"
    silent = ToolSuite(make_task(plain_fixture(2450, step=10)))
    assert silent.asr_understanding("anything?") == NO_SPEECH_SENTENCE
    assert suite.asr_understanding("zebra gymnastics?") == NO_RELEVANT_SPEECH_SENTENCE


def test_think_and_finish_echo():
    suite = oracle_suite()
    assert suite.think("pondering") == "pondering"
    assert suite.finish("Final Answer: (2)") == "Final Answer: (2)"


@pytest.mark.parametrize("n_frames", [64, 65, 2450, 7200])
def test_window_accounting(n_frames):
    fixture = plain_fixture(n_frames)
    task = make_task(fixture, question="what?")
    log = []

    def respond(req):
        log.append(req)
        assert budget_frames(req.parts) <= 120
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
    assert len(log) == math.ceil(n_frames / 100)

    log.clear()
    suite.retrieval_qa("question?")
    phase1 = [r for r in log if "/retrieval_qa/window/" in r.tag]
    answers = [r for r in log if "/retrieval_qa/answer" in r.tag]
    assert len(phase1) == math.ceil(n_frames / 64)
    assert len(answers) == 1


def test_retrieval_model_phase2_composition():
    n = 1000
    fixture = plain_fixture(n)
    log = []

    def respond(req):
        log.append(req)
        if "/retrieval_qa/window/" in req.tag:
            shown = [r.index for p in req.parts if isinstance(p, FramesPart) for r in p.frames]
            return "\n".join(str(i) for i in shown[:3])
        return "ANSWER TEXT"

    suite = ToolSuite(
        make_task(fixture), backend="model", model=CallableModel(respond),
        tag_prefix="t1/A",
    )
    assert suite.retrieval_qa("question?", video_segment=VideoSegment(100, 400)) == "ANSWER TEXT"
    answer_req = [r for r in log if "/retrieval_qa/answer" in r.tag][0]
    shown = [
        r.index for p in answer_req.parts if isinstance(p, FramesPart) for r in p.frames
    ]
    inside = [i for i in shown if 100 <= i <= 400]
    outside = [i for i in shown if not (100 <= i <= 400)]
    # retrieved frames from the target segment plus uniform outside context
    assert inside == sorted(inside)
    assert len(outside) == 56
    assert budget_frames(answer_req.parts) <= 120


def test_retrieval_model_fallback_note():
    fixture = plain_fixture(300)
    def respond(req):
        if "/retrieval_qa/window/" in req.tag:
            return "nothing useful here"
        return "GUESSED ANSWER"

    suite = ToolSuite(
        make_task(fixture), backend="model", model=CallableModel(respond),
        tag_prefix="t1/A",
    )
    got = suite.retrieval_qa("question?")
    assert got == FALLBACK_NOTE + "\nGUESSED ANSWER"


def skipping_frames_directory():
    """A 1 fps frames directory missing every index that is 1 mod 3."""
    refs = tuple(
        FrameRef(i, float(i), path=f"frames/{i:04d}.jpg") for i in range(400) if i % 3 != 1
    )
    return VideoFixture(400, 1.0, refs, source=VideoSource.FRAMES_DIRECTORY)


def test_window_requests_carry_a_key_table_fragment():
    log = []

    def respond(req):
        log.append(req)
        if "/retrieval_qa/window/" in req.tag:
            return "\n".join(str(r.index) for r in req.parts[1].frames[::7])
        return ""

    suite = ToolSuite(
        make_task(skipping_frames_directory()), backend="model",
        model=CallableModel(respond), tag_prefix="t1/A",
    )
    suite.find_when("the door")
    suite.retrieval_qa("question?", video_segment=VideoSegment(100, 300))
    window_requests = [r for r in log if "/window/" in r.tag]
    assert {r.tag.split("/")[2] for r in window_requests} == {"find_when", "retrieval_qa"}
    # the answer request's frames are picked rows of the table, and every
    # frames part cuts its keys from the video's one key table
    (answer,) = [r for r in log if r.tag.endswith("/retrieval_qa/answer")]
    picked = [p for p in answer.parts if isinstance(p, FramesPart)]
    assert len(picked) == 2
    video = suite.video
    for part in [req.parts[1] for req in window_requests] + picked:
        per_frame = ",".join(json.dumps(reference_frame_id(r)) for r in part.frames)
        assert part.frames.columns is video.frames.columns
        assert bytes(part.frames.key_fragment()) == per_frame.encode("ascii")
    assert all(fingerprint(req) == reference_fingerprint(req) for req in log)


def reference_retrieved(phase1, replies):
    """The frames phase 1 retrieves, by the rule of one index set per window
    and one index-to-frame map over every window."""
    retrieved, ref_by_index = set(), {}
    for req, reply in zip(phase1, replies):
        refs = req.parts[1].frames
        ref_by_index.update((ref.index, ref) for ref in refs)
        allowed = {ref.index for ref in refs}
        for line in reply.split("\n"):
            line = line.strip()
            if re.fullmatch("[0-9]+", line) and int(line) in allowed:
                retrieved.add(int(line))
    return tuple(ref_by_index[i] for i in sorted(retrieved)[:RETRIEVAL_CAP])


def test_retrieval_picks_frames_by_the_reference_rule():
    video = skipping_frames_directory()
    table = [r.index for r in video.frames]
    replies, log = [], []

    def respond(req):
        log.append(req)
        if "/retrieval_qa/window/" not in req.tag:
            return "ANSWER"
        indices = [r.index for r in req.parts[1].frames]
        at = table.index(indices[0])
        neighbours = table[max(at - 1, 0) : at] + table[at + len(indices) :][:1]
        skipped = next(i for i in range(indices[0], indices[-1]) if i not in indices)
        arabic = "".join(chr(0x660 + int(d)) for d in str(indices[2]))
        reply = "\n".join(
            [
                str(indices[0]),
                str(skipped),  # inside the window's span, but no such frame
                *map(str, neighbours),  # the neighbouring windows' frames
                str(indices[1]), str(indices[1]),  # a repeat
                f"  {indices[3]:06d}  ",  # padded
                arabic,  # non-ASCII digits name no frame
                f"frame {indices[4]}", f"{indices[5]}.", f"-{indices[6]}", "", "none",
            ]
        )
        replies.append(reply)
        return reply

    suite = ToolSuite(
        make_task(video), backend="model", model=CallableModel(respond), tag_prefix="t1/A"
    )
    assert suite.retrieval_qa("question?") == "ANSWER"
    phase1 = [r for r in log if "/retrieval_qa/window/" in r.tag]
    assert len(phase1) > 1
    chosen = log[-1].parts[1].frames
    assert chosen == reference_retrieved(phase1, replies)
    assert len(chosen) == 3 * len(phase1)


def retrieval_with_replies(window_reply):
    """The answer of retrieval_qa and the frames its answer request carried,
    when every phase 1 window is answered with window_reply(indices)."""
    log = []

    def respond(req):
        log.append(req)
        if "/retrieval_qa/window/" in req.tag:
            return window_reply([r.index for r in req.parts[1].frames])
        return "ANSWER"

    suite = ToolSuite(
        make_task(plain_fixture(300)), backend="model", model=CallableModel(respond),
        tag_prefix="t1/A",
    )
    return suite.retrieval_qa("question?"), log[-1].parts[1].frames


@pytest.mark.parametrize("zero", ["\u0660", "\uff10"])  # Arabic-Indic, fullwidth
def test_retrieval_takes_only_ascii_digit_lines(zero):
    def digits(i):
        return "".join(chr(ord(zero) + int(d)) for d in str(i))

    answer, _ = retrieval_with_replies(lambda shown: "\n".join(map(digits, shown[:10])))
    assert answer == FALLBACK_NOTE + "\nANSWER"
    # beside an ASCII line, the other line changes nothing
    ascii_only = retrieval_with_replies(lambda shown: str(shown[1]))
    assert ascii_only[0] == "ANSWER"
    mixed = retrieval_with_replies(lambda shown: f"{digits(shown[0])}\n{shown[1]}")
    assert mixed == ascii_only


def test_retrieval_skips_a_line_too_long_to_convert():
    ascii_only = retrieval_with_replies(lambda shown: str(shown[2]))
    assert ascii_only[0] == "ANSWER"
    assert retrieval_with_replies(lambda shown: f"{'9' * 5000}\n{shown[2]}") == ascii_only


def test_asr_model_chunks_and_consolidates():
    n = 1000
    lines = tuple(AsrLine(t, f"line {t} " + "word " * 40) for t in range(0, n, 10))
    fixture = plain_fixture(n, asr=lines)
    log = []

    def respond(req):
        log.append(req)
        if "/asr_understanding/chunk/" in req.tag:
            return "chunk notes"
        return "CONSOLIDATED"

    suite = ToolSuite(
        make_task(fixture), backend="model", model=CallableModel(respond),
        tag_prefix="t1/A",
    )
    assert suite.asr_understanding("what was said?") == "CONSOLIDATED"
    chunk_tags = [r.tag for r in log if "/asr_understanding/chunk/" in r.tag]
    final_tags = [r.tag for r in log if r.tag.endswith("/asr_understanding/final")]
    assert len(chunk_tags) > 1
    assert len(final_tags) == 1
    transcript_chars = sum(len(l.text) for l in lines)
    assert len(chunk_tags) == pytest.approx(transcript_chars / 4000, abs=2)


def reference_chunks(lines):
    """The chunking `_asr_model` did on every call before a video came to
    keep its `asr_chunks`."""
    rendered = [f"[{format_timestamp(line.t)}] {line.text}" for line in lines]
    chunks = []
    current = []
    size = 0
    for line in rendered:
        if current and size + len(line) + 1 > ASR_CHUNK_CHARS:
            chunks.append("\n".join(current))
            current = []
            size = 0
        current.append(line)
        size += len(line) + 1
    if current:
        chunks.append("\n".join(current))
    return chunks


# "[MM:SS] " is 8 characters, and each line counts one more for its newline:
# text of 3991 characters fills a chunk alone, 1991 fills it in two lines and
# 991 in four; 3992 and up make a line longer than a chunk
TEXT_LENGTHS = st.integers(0, 60) | st.sampled_from(
    (990, 991, 992, 1990, 1991, 1992, 3990, 3991, 3992, 4000, 9000)
)


@settings(max_examples=200, deadline=None)
@given(lengths=st.lists(TEXT_LENGTHS, max_size=12), letters=st.text("ab é\n", min_size=1))
@example(lengths=[], letters="a")
@example(lengths=[1991, 1991, 1991], letters="a")
@example(lengths=[991] * 8 + [0], letters="a")
@example(lengths=[5, 9000, 5], letters="a")
def test_asr_chunks_equal_the_per_call_chunking(lengths, letters):
    text = letters * 9000
    lines = tuple(AsrLine(10 * i, text[:n]) for i, n in enumerate(lengths))
    video = plain_fixture(600, asr=lines)
    assert video.asr_chunks == tuple(reference_chunks(lines))
    assert video.asr_chunks is video.asr_chunks  # rendered once


def test_two_suites_on_one_video_send_the_same_chunk_requests():
    lines = tuple(AsrLine(t, f"line {t} " + "word " * 40) for t in range(0, 1000, 10))
    video = plain_fixture(1000, asr=lines)
    fresh = plain_fixture(1000, asr=lines)  # renders its own chunks

    def chunk_requests(fixture):
        log = []
        model = CallableModel(lambda req: log.append(req) or "notes")
        suite = ToolSuite(make_task(fixture), backend="model", model=model, tag_prefix="t1/A")
        suite.asr_understanding("what was said?", ["yes", "no"])
        return [r for r in log if "/asr_understanding/chunk/" in r.tag]

    first, second, third = chunk_requests(video), chunk_requests(video), chunk_requests(fresh)
    assert len(first) == len(reference_chunks(lines)) > 1
    assert first == second == third
    assert [fingerprint(r) for r in first] == [fingerprint(r) for r in third]
    for req, chunk in zip(first, reference_chunks(lines)):
        assert chunk in req.parts[0].text


def test_model_retrieval_on_a_video_without_frames_is_not_visible():
    calls = []
    suite = ToolSuite(
        make_task(VideoFixture(duration=30, fps=1.0, frames=())), backend="model",
        model=CallableModel(lambda req: calls.append(req) or "1"),
    )
    assert suite.retrieval_qa("What is shown?", ["a", "b"]) == NOT_VISIBLE_SENTENCE
    assert suite.find_when("the door") == NO_RANGES_SENTENCE
    assert calls == []


def test_model_backend_requires_client():
    with pytest.raises(ValueError):
        ToolSuite(make_task(plain_fixture(300)), backend="model", model=None)


def test_oracle_backend_requires_fixture():
    frames_only = VideoFixture(
        duration=10,
        fps=1.0,
        frames=(FrameRef(0, 0.0, path="a.jpg"),),
        source=VideoSource.FRAMES_DIRECTORY,
    )
    task = TaskQuery("t1", "What is shown?", TaskKind.MULTIPLE_CHOICE, frames_only, ("a", "b"))
    with pytest.raises(ValueError, match="oracle backends need a fixture video"):
        ToolSuite(task, backend="oracle")


def test_build_registry_exposes_all_tools():
    all_six = PROFILES["asr_mcq"].strategies[2]
    registry = build_registry(make_task(SUIT_FIXTURE), all_six)
    assert sorted(registry.backends) == sorted(
        ["think", "get_segment", "find_when", "asr_understanding", "retrieval_qa", "finish"]
    )
    got = registry.call("retrieval_qa", [], {"question": "What color is the man's suit?"})
    assert got == "a blue suit"


def test_registry_tags_tool_requests_under_its_episode():
    log = []
    model = CallableModel(lambda req: log.append(req.tag) or "")
    task = make_task(plain_fixture(300))
    subset = StrategySubset("A", ("find_when", "asr_understanding"))
    build_registry(task, subset, backend="model", model=model).call("find_when", ["door"], {})
    assert log == ["t1/A/find_when/window/0", "t1/A/find_when/window/1", "t1/A/find_when/window/2"]
    log.clear()
    ToolSuite(task, backend="model", model=model).find_when("door")
    assert log[0] == "find_when/window/0"  # a bare suite tags without a prefix


# every profile strategy, and the pools the single-program and self-eval modes offer
EPISODE_SUBSETS = {
    f"{p.name}-{s.label}": s
    for p in PROFILES.values()
    for s in (*p.strategies, StrategySubset("single", p.pool), StrategySubset("self", p.pool))
}


@pytest.mark.parametrize("subset", EPISODE_SUBSETS.values(), ids=list(EPISODE_SUBSETS))
def test_registry_holds_only_its_strategy_tools(subset):
    registry = build_registry(make_task(SUIT_FIXTURE), subset)
    listing = api_listing()
    held = subset.effective_modules()
    want = "".join(block for name, block in listing.blocks.items() if name in held)
    assert registry.render_api() == listing.header + want
    for name in listing.blocks:
        if name not in held:
            with pytest.raises(DslExecutionError, match=f"^error: tool '{name}' is not available in this strategy$"):
                registry.call(name, ["x"], {})
    for name in ("nope", "_find_when_model", "render_api"):
        with pytest.raises(DslExecutionError, match=f"^error: unknown tool '{name}'$"):
            registry.call(name, [], {})


@pytest.mark.parametrize("module", ["_find_when_model", "bogus"])
def test_build_registry_rejects_unlisted_modules(module):
    with pytest.raises(ValueError, match=f"subset names unregistered tool '{module}'"):
        build_registry(make_task(SUIT_FIXTURE), StrategySubset("X", (module,)))
