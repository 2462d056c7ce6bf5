"""Timestamp parsing, answer parsing, interval IOU scoring, and the JSON
writer of traces and reports."""

import enum
import json
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clipcritic.core import (
    Choice,
    Ranges,
    TaskKind,
    TaskQuery,
    TimestampError,
    Unparsed,
    VideoSegment,
    answer_key,
    answers_equal,
    format_timestamp,
    interval_union_iou,
    merge_segments,
    parse_final_answer,
    parse_timestamp,
    pretty_json,
)
from clipcritic.fixtures import VideoFixture


def test_parse_timestamp_known_values():
    assert parse_timestamp("40:50") == 2450
    assert parse_timestamp("01:25:00") == 5100
    assert parse_timestamp("0:05") == 5
    assert parse_timestamp("00:00") == 0
    # minutes are unbounded in the two-field form
    assert parse_timestamp("90:00") == 5400
    assert parse_timestamp("  40:50  ") == 2450


@pytest.mark.parametrize(
    "text",
    ["1:60", "1:5", "1:2:3", "01:60:00", "-1:00", "", "abc", "1:-05", "::", "40"],
)
def test_parse_timestamp_rejects_malformed(text):
    with pytest.raises(TimestampError):
        parse_timestamp(text)


NON_ASCII_TIMES = (
    "\u0660\u0661:\u0660\u0662",  # Arabic-Indic 01:02
    "\uff10\uff11:\uff10\uff12",  # fullwidth 01:02
    "00:\u0660\u0665",
    "1:00:0\uff15",
)


@pytest.mark.parametrize("text", NON_ASCII_TIMES)
def test_parse_timestamp_takes_only_ascii_digits(text):
    # these are digits to int() and to a regex's \d, but not to MM:SS
    with pytest.raises(TimestampError):
        parse_timestamp(text)


def test_parse_final_answer_ranges_read_only_ascii_digits():
    raw = "Final Answer: [\u0660\u0661:\u0660\u0662, \u0660\u0661:\u0660\u0665]"
    assert parse_final_answer(raw, TaskKind.TEMPORAL_RANGE) == Unparsed(raw)
    mixed = raw + ", [00:03, 00:04]"
    assert parse_final_answer(mixed, TaskKind.TEMPORAL_RANGE) == Ranges((VideoSegment(3, 4),))


def test_parse_final_answer_choice_reads_only_ascii_digits():
    raw = "Final Answer: (\u0662)"
    assert parse_final_answer(raw, TaskKind.MULTIPLE_CHOICE) == Unparsed(raw)
    mixed = "Final Answer: (1)\nFinal Answer: (\uff12)"
    assert parse_final_answer(mixed, TaskKind.MULTIPLE_CHOICE) == Choice(1)


LONG = "9" * 5000  # past the interpreter's default int conversion limit


def test_parse_final_answer_skips_a_choice_too_long_to_convert():
    raw = f"Final Answer: ({LONG})"
    assert parse_final_answer(raw, TaskKind.MULTIPLE_CHOICE) == Unparsed(raw)
    earlier = "Final Answer: (2)\n" + raw
    assert parse_final_answer(earlier, TaskKind.MULTIPLE_CHOICE) == Choice(2)


@pytest.mark.parametrize(
    "pair", [f"[{LONG}:00, 00:04]", f"[00:01, {LONG}:00:00]"], ids=["minutes", "hours"]
)
def test_parse_final_answer_skips_a_range_too_long_to_convert(pair):
    raw = f"Final Answer: {pair}"
    assert parse_final_answer(raw, TaskKind.TEMPORAL_RANGE) == Unparsed(raw)
    mixed = raw + ", [00:03, 00:04]"
    assert parse_final_answer(mixed, TaskKind.TEMPORAL_RANGE) == Ranges((VideoSegment(3, 4),))


@pytest.mark.parametrize("text", [f"{LONG}:00", f"{LONG}:00:00"], ids=["minutes", "hours"])
def test_parse_timestamp_too_long_to_convert_is_a_timestamp_error(text):
    # not int()'s ValueError, whose text names an interpreter setting
    with pytest.raises(TimestampError, match="^leading field has too many digits") as info:
        parse_timestamp(text)
    assert "int_max_str_digits" not in str(info.value)


def test_format_timestamp_always_two_fields():
    assert format_timestamp(2450) == "40:50"
    assert format_timestamp(5100) == "85:00"
    assert format_timestamp(5) == "00:05"
    assert format_timestamp(0) == "00:00"
    with pytest.raises(TimestampError):
        format_timestamp(-5)


def f_string_timestamp(t):
    """format_timestamp as it was first written."""
    if t < 0:
        raise TimestampError(f"negative timestamp {t!r}")
    return f"{t // 60:02d}:{t % 60:02d}"


@given(st.integers(min_value=-(10**6), max_value=10**30) | st.booleans())
def test_format_timestamp_matches_the_f_string(t):
    try:
        want = f_string_timestamp(t)
    except TimestampError as exc:
        with pytest.raises(TimestampError, match=f"^{re.escape(str(exc))}$"):
            format_timestamp(t)
    else:
        assert format_timestamp(t) == want


@given(st.integers(min_value=0, max_value=360000))
def test_timestamp_round_trip(t):
    assert parse_timestamp(format_timestamp(t)) == t


def test_video_segment_validation():
    seg = VideoSegment(150, 175)
    assert seg.duration == 25
    assert seg.as_strings() == ("02:30", "02:55")
    assert VideoSegment(3, 3).duration == 0
    with pytest.raises(ValueError):
        VideoSegment(5, 3)
    with pytest.raises(ValueError):
        VideoSegment(-1, 3)


def test_task_query_requires_options_for_multiple_choice():
    video = VideoFixture(duration=60, fps=1.0, frames=())
    with pytest.raises(ValueError):
        TaskQuery("t1", "q?", TaskKind.MULTIPLE_CHOICE, video, (), False)
    with pytest.raises(ValueError):
        TaskQuery("t1", "q?", TaskKind.TEMPORAL_RANGE, video, ("a",), False)
    task = TaskQuery("t1", "q?", TaskKind.TEMPORAL_RANGE, video, None, False)
    assert task.kind is TaskKind.TEMPORAL_RANGE


def test_answer_constructors_validate():
    with pytest.raises(ValueError):
        Choice(0)
    with pytest.raises(ValueError):
        Ranges(())
    assert Choice(1).index == 1


def test_parse_final_answer_choice_last_marker_wins():
    assert parse_final_answer("x Final Answer: (1)", TaskKind.MULTIPLE_CHOICE) == Choice(1)
    text = "Final Answer: (2)\nsome revision\nFinal Answer: (3)"
    assert parse_final_answer(text, TaskKind.MULTIPLE_CHOICE) == Choice(3)
    got = parse_final_answer("nothing here", TaskKind.MULTIPLE_CHOICE)
    assert got == Unparsed("nothing here")


def test_parse_final_answer_ranges():
    got = parse_final_answer(
        "Final Answer: [00:11, 00:24], [00:33, 00:41]", TaskKind.TEMPORAL_RANGE
    )
    assert got == Ranges((VideoSegment(11, 24), VideoSegment(33, 41)))
    # quoted timestamps are accepted
    got = parse_final_answer('Final Answer: ["02:30", "02:55"]', TaskKind.TEMPORAL_RANGE)
    assert got == Ranges((VideoSegment(150, 175),))
    # inverted pairs are skipped; if all pairs are inverted the text is unparsed
    got = parse_final_answer(
        "Final Answer: [00:24, 00:11], [00:33, 00:41]", TaskKind.TEMPORAL_RANGE
    )
    assert got == Ranges((VideoSegment(33, 41),))
    raw = "Final Answer: [00:24, 00:11]"
    assert parse_final_answer(raw, TaskKind.TEMPORAL_RANGE) == Unparsed(raw)


@given(st.text(max_size=200), st.sampled_from(list(TaskKind)))
@settings(max_examples=200)
def test_parse_final_answer_never_raises(text, kind):
    got = parse_final_answer(text, kind)
    assert isinstance(got, (Choice, Ranges, Unparsed))


def test_merge_segments_merges_overlap_and_adjacency():
    merged = merge_segments(
        [VideoSegment(5, 10), VideoSegment(8, 12), VideoSegment(12, 20), VideoSegment(30, 40)]
    )
    assert merged == [VideoSegment(5, 20), VideoSegment(30, 40)]
    assert merge_segments([]) == []


def test_interval_iou_reference_case():
    pred = [VideoSegment(11, 24), VideoSegment(33, 41)]
    truth = [VideoSegment(11, 41)]
    assert interval_union_iou(pred, truth) == pytest.approx(0.7, abs=1e-9)


def test_interval_iou_edge_conventions():
    assert interval_union_iou([], []) == 1.0
    assert interval_union_iou([VideoSegment(1, 2)], []) == 0.0
    assert interval_union_iou([], [VideoSegment(1, 2)]) == 0.0
    same = [VideoSegment(3, 9), VideoSegment(20, 25)]
    assert interval_union_iou(same, list(same)) == 1.0
    # degenerate point predictions compare as point sets
    assert interval_union_iou([VideoSegment(5, 5)], [VideoSegment(5, 5)]) == 1.0
    assert interval_union_iou([VideoSegment(5, 5)], [VideoSegment(6, 6)]) == 0.0


def _grid_iou(pred, truth, step=0.1):
    # counting oracle: mark tenth-of-second cells covered by each side
    def cells(segs):
        out = set()
        for s in segs:
            k = round(s.start / step)
            stop = round(s.end / step)
            out.update(range(k, stop))
        return out

    a, b = cells(pred), cells(truth)
    union = len(a | b)
    if union == 0:
        return 1.0 if a == b else 0.0
    return len(a & b) / union


def _random_segments(rng, max_count=4, limit=600):
    out = []
    for _ in range(rng.randint(0, max_count)):
        start = rng.randint(0, limit - 1)
        end = rng.randint(start + 1, limit)
        out.append(VideoSegment(start, end))
    return out


def test_interval_iou_matches_counting_oracle():
    rng = random.Random(20260822)
    for _ in range(100):
        pred = _random_segments(rng)
        truth = _random_segments(rng)
        want = _grid_iou(pred, truth)
        assert interval_union_iou(pred, truth) == pytest.approx(want, abs=1e-3)


_segment = st.builds(
    lambda a, b: VideoSegment(min(a, b), max(a, b)),
    st.integers(min_value=0, max_value=600),
    st.integers(min_value=0, max_value=600),
)
_segment_list = st.lists(_segment, max_size=5)


@given(_segment_list, _segment_list)
@settings(max_examples=150)
def test_interval_iou_symmetric_and_bounded(a, b):
    forward = interval_union_iou(a, b)
    backward = interval_union_iou(b, a)
    assert forward == pytest.approx(backward, abs=1e-12)
    assert 0.0 <= forward <= 1.0


def test_answers_equal_and_keys():
    split = Ranges((VideoSegment(0, 5), VideoSegment(5, 10)))
    whole = Ranges((VideoSegment(0, 10),))
    assert answers_equal(split, whole)
    assert answer_key(split) == answer_key(whole)
    assert answers_equal(Choice(2), Choice(2))
    assert not answers_equal(Choice(2), Choice(3))
    assert not answers_equal(Choice(2), whole)
    assert answers_equal(Unparsed("zz"), Unparsed("zz"))
    assert answer_key(Choice(2)) == ("choice", 2)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


_json_leaf = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64)
    | st.integers(max_value=-(2**64))
    | st.floats()  # NaN, both infinities and -0.0 among them
    | st.sampled_from(list(_Level))
    # every code point: non-ASCII text, control characters, lone surrogates
    | st.text(st.characters(exclude_categories=()))
)
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(st.characters(exclude_categories=()), max_size=4), inner, max_size=4),
    max_leaves=20,
)


@given(_json_value)
@settings(max_examples=300)
@example(float("nan"))
@example([float("inf"), float("-inf"), -0.0, 0.0])
@example({"big": 2**64, "neg": -(2**70), "level": _Level.HIGH, "flag": True, "none": None})
@example({"": [], "a": {}, "b": (), "c": [[{}], {"d": ["\ud800", "\u00e9\n\u2028"]}]})
def test_pretty_json_writes_what_json_dumps_writes(value):
    assert pretty_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "value",
    [object(), [1, {"a": object()}], {1: "one"}, {"a": {("a",): 1}}, {"x": {1, 2}}],
    ids=["object", "nested-object", "int-key", "tuple-key", "set"],
)
def test_pretty_json_rejects_what_it_cannot_write(value):
    with pytest.raises(TypeError):
        pretty_json(value)
