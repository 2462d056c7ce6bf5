"""Fixture loading, uniform frame sampling, and frame windowing."""

import dataclasses
import gc
import json
import math
import os
import sys
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clipcritic.core import VideoSegment, VideoSource, format_timestamp, parse_timestamp
from clipcritic.fixtures import (
    AsrLine,
    Event,
    FixtureError,
    FrameRef,
    FrameTable,
    QaFact,
    VideoFixture,
    _canonical_times,
    _parse_time_field,
    _read_header,
    _segment_field,
    load_fixture,
    load_frames_directory,
    sample_frames,
    video_ref_for,
    windows,
)


def clip(duration, fps=1.0):
    frames = tuple(FrameRef(i, float(i), caption=f"frame {i}") for i in range(duration))
    return VideoFixture(duration=duration, fps=fps, frames=frames)


FIXTURE_DOC = {
    "duration": "01:00",
    "fps": 1,
    "frames": [{"t": "00:00", "caption": "start"}, {"t": "00:30", "caption": "middle"}],
    "events": [
        {"start": "00:10", "end": "00:20", "label": "door opens", "justification": "a door"}
    ],
    "asr": [{"t": "00:05", "text": "hello there"}],
    "qa_facts": [
        {"start": "00:10", "end": "00:20", "keywords": ["door"], "answer": "the door opens"}
    ],
}


def write_fixture(tmp_path, doc, name="clip.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_uniform_sampling_snaps_to_available_frames():
    video = clip(60)
    got = sample_frames(video, VideoSegment(0, 60), 6)
    assert [f.index for f in got] == [0, 12, 24, 36, 48, 59]


def test_uniform_sampling_degenerate_segment():
    video = clip(60)
    got = sample_frames(video, VideoSegment(10, 10), 3)
    assert [f.index for f in got] == [10]
    got = sample_frames(video, VideoSegment(0, 60), 1)
    assert [f.index for f in got] == [0]


def test_uniform_sampling_never_duplicates():
    video = clip(10)
    got = sample_frames(video, VideoSegment(0, 10), 30)
    indices = [f.index for f in got]
    assert indices == sorted(set(indices))
    assert len(indices) <= 10


def test_frame_access_rejects_counts_below_one():
    video = clip(10)
    with pytest.raises(ValueError, match="k >= 1"):
        sample_frames(video, VideoSegment(0, 10), 0)
    with pytest.raises(ValueError, match="window size must be >= 1"):
        windows(video, VideoSegment(0, 10), 0)


def test_windows_chunking():
    video = clip(2450)
    chunks = windows(video, VideoSegment(0, 2450), 100)
    assert len(chunks) == 25
    assert [len(c.refs) for c in chunks[:-1]] == [100] * 24
    assert len(chunks[-1].refs) == 50

    exact = windows(clip(64), VideoSegment(0, 64), 64)
    assert [len(c.refs) for c in exact] == [64]

    over = windows(clip(65), VideoSegment(0, 65), 64)
    assert [len(c.refs) for c in over] == [64, 1]


def test_windows_cover_segment_in_order():
    video = clip(300)
    chunks = windows(video, VideoSegment(30, 290), 64)
    flattened = [f.index for c in chunks for f in c.refs]
    assert flattened == sorted(flattened)
    assert flattened[0] >= 30
    assert flattened[-1] <= 290


def test_frame_label_formats_timestamp():
    assert FrameRef(5, 5.0).label() == "00:05"
    assert FrameRef(0, 150.0).label() == "02:30"


def test_load_fixture_round_trip(tmp_path):
    path = write_fixture(tmp_path, FIXTURE_DOC)
    fixture = load_fixture(path)
    assert fixture.duration == 60
    assert len(fixture.frames) == 2
    assert fixture.events[0].label == "door opens"
    assert fixture.qa_facts[0].keywords == ("door",)
    assert fixture.asr[0].t == 5


PAST_FLOAT = "1" + "0" * 400 + ":00"  # a frame time float() cannot hold


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.pop("duration"), "missing required key 'duration'"),
        (lambda d: d.update(frames=[{"t": "00:30"}, {"t": "00:10"}]), "frames[1]"),
        (lambda d: d.update(frames=[{"t": "05:00"}]), "frames[0]: t 300 outside the video"),
        (lambda d: d.update(frames=5), "frames: expected a list"),
        (lambda d: d.update(frames=None), "frames: expected a list"),
        (lambda d: d.update(events={"a": 1}), "events: expected a list"),
        (lambda d: d.update(asr="00:05 hello"), "asr: expected a list"),
        (
            lambda d: d.update(events=[{"start": "00:20", "end": "00:10", "label": "x"}]),
            "events[0]",
        ),
        (
            lambda d: d.update(
                events=[{"start": "00:10", "end": "05:00", "label": "x"}]
            ),
            "events[0]",
        ),
        (
            lambda d: d.update(asr=[{"t": "00:20", "text": "b"}, {"t": "00:10", "text": "a"}]),
            "asr[1]",
        ),
        (
            lambda d: d.update(
                qa_facts=[{"start": "00:01", "end": "00:02", "keywords": [], "answer": "x"}]
            ),
            "keywords",
        ),
        (lambda d: d.update(fps=0), "fps"),
        (lambda d: d.update(fps=True), "fps must be a positive number"),
        (lambda d: d.update(fps=float("nan")), "fps must be a positive number"),
        (lambda d: d.update(fps=float("inf")), "fps must be a positive number"),
        (lambda d: d.update(fps=10**400), "fps must be a positive number"),
        (lambda d: d.update(duration="00:00"), "duration must be positive"),
        (
            lambda d: d.update(duration=PAST_FLOAT, frames=[{"t": PAST_FLOAT}]),
            "duration must be positive and fit a float",
        ),
        (
            lambda d: d.update(duration="01:00", frames=[{"t": PAST_FLOAT}]),
            "frames[0]: t inf outside the video",
        ),
    ],
)
def test_load_fixture_diagnostics(tmp_path, mutate, fragment):
    doc = json.loads(json.dumps(FIXTURE_DOC))
    mutate(doc)
    path = write_fixture(tmp_path, doc)
    with pytest.raises(FixtureError, match="clip.json"):
        try:
            load_fixture(path)
        except FixtureError as exc:
            assert fragment in str(exc)
            raise


@pytest.mark.parametrize("t", ["\u0660\u0661:\u0660\u0662", "\uff10\uff11:\uff10\uff12"])
def test_load_fixture_rejects_non_ascii_digits(tmp_path, t):
    doc = {**FIXTURE_DOC, "frames": [{"t": "00:00"}, {"t": t}]}
    with pytest.raises(FixtureError, match=r"clip\.json: frames\[1\]\.t: malformed timestamp"):
        load_fixture(write_fixture(tmp_path, doc))


def test_load_fixture_missing_file():
    with pytest.raises(FixtureError, match="not found"):
        load_fixture("/nonexistent/clip.json")


def test_frames_directory_adapter(tmp_path):
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    for i in range(5):
        (frame_dir / f"{i:04d}.jpg").write_bytes(b"\xff\xd8\xff")
    (frame_dir / "metadata.json").write_text(json.dumps({"duration": "00:05", "fps": 1}))
    source = load_frames_directory(str(frame_dir))
    assert isinstance(source, VideoFixture)
    assert source.events == source.asr == source.qa_facts == ()
    assert source.duration == 5
    assert len(source.frames) == 5
    assert source.frames[0].path.endswith("0000.jpg")
    assert source.source is VideoSource.FRAMES_DIRECTORY

    loaded = video_ref_for(str(frame_dir))
    assert loaded.source is VideoSource.FRAMES_DIRECTORY
    assert loaded.duration == 5
    got = sample_frames(loaded, VideoSegment(0, 5), 2)
    assert [f.path for f in got] == [source.frames[0].path, source.frames[-1].path]


def frames_dir(tmp_path, names, duration="00:11", fps=1):
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    for name in names:
        (frame_dir / name).write_bytes(b"\xff\xd8\xff")
    (frame_dir / "metadata.json").write_text(json.dumps({"duration": duration, "fps": fps}))
    return str(frame_dir)


def test_frames_directory_numbers_frames_by_file_stem(tmp_path):
    names = ["0.jpg", "1.jpg", "2.jpg", "3.jpg", "5.jpg", "10.jpg"]
    source = load_frames_directory(frames_dir(tmp_path, names, fps=2))
    every = source.frames
    assert [(f.index, f.t) for f in every] == [
        (0, 0.0), (1, 0.5), (2, 1.0), (3, 1.5), (5, 2.5), (10, 5.0)
    ]
    assert [os.path.basename(f.path) for f in every] == names
    (got,) = windows(source, VideoSegment(2, 5), len(names))
    assert [f.index for f in got.refs] == [5, 10]


def test_frames_directory_rejects_duplicate_index(tmp_path):
    path = frames_dir(tmp_path, ["0.jpg", "01.jpg", "1.jpg"])
    with pytest.raises(FixtureError, match=r"01\.jpg and 1\.jpg share the index 1"):
        load_frames_directory(path)


def test_frames_directory_rejects_frame_past_duration(tmp_path):
    path = frames_dir(tmp_path, ["0.jpg", "11.jpg", "30.jpg"])
    with pytest.raises(FixtureError, match=r"frame 30\.jpg .* past the duration 00:11"):
        load_frames_directory(path)


def test_video_fixture_rejects_unsorted_frames():
    with pytest.raises(FixtureError, match=r"frames\[2\]: frame times must be strictly increasing"):
        VideoFixture(10, 1.0, (FrameRef(0, 0.0), FrameRef(1, 5.0), FrameRef(2, 5.0)))
    with pytest.raises(FixtureError, match=r"frames\[1\]"):
        VideoFixture(10, 1.0, (FrameRef(0, 3.0), FrameRef(1, 2.0)))
    with pytest.raises(FixtureError, match=r"frames\[2\]: frame indices must be strictly increasing"):
        VideoFixture(10, 1.0, (FrameRef(0, 0.0), FrameRef(2, 1.0), FrameRef(2, 2.0)))
    with pytest.raises(FixtureError, match=r"frames\[0\]: t 11 outside the video"):
        VideoFixture(10, 1.0, (FrameRef(0, 11.0),))


@pytest.mark.parametrize(
    "duration, fps, fragment",
    [
        (0, 1.0, "duration must be positive"),
        (-5, 1.0, "duration must be positive"),
        (10, 0.0, "fps must be positive"),
        (10, -1.0, "fps must be positive"),
        (10, math.nan, "fps must be positive"),
    ],
)
def test_video_fixture_rejects_nonpositive_shape(duration, fps, fragment):
    with pytest.raises(FixtureError, match=fragment):
        VideoFixture(duration=duration, fps=fps, frames=())


def test_frames_directory_requires_metadata(tmp_path):
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    (frame_dir / "0000.jpg").write_bytes(b"x")
    with pytest.raises(FixtureError, match="metadata.json"):
        load_frames_directory(str(frame_dir))


@pytest.mark.parametrize(
    "meta, fragment",
    [
        ([1], "metadata.json: top level must be an object"),
        ("not json", "metadata.json: invalid JSON"),
        ({"fps": 1}, "metadata.json: missing required key 'duration'"),
        ({"duration": "00:00"}, "metadata.json: duration must be positive"),
        ({"duration": "00:10", "fps": True}, "metadata.json: fps must be a positive number"),
    ],
)
def test_frames_directory_metadata_diagnostics(tmp_path, meta, fragment):
    path = frames_dir(tmp_path, ["0.jpg"])
    text = meta if isinstance(meta, str) else json.dumps(meta)
    (tmp_path / "frames" / "metadata.json").write_text(text)
    with pytest.raises(FixtureError) as err:
        load_frames_directory(path)
    assert fragment in str(err.value)


def test_video_ref_for_fixture_file(tmp_path):
    path = write_fixture(tmp_path, FIXTURE_DOC)
    video = video_ref_for(path)
    assert isinstance(video, VideoFixture)
    assert video.source is VideoSource.FIXTURE_PATH
    assert video.duration == 60


def test_sampling_is_pure():
    video = clip(40)
    first = sample_frames(video, VideoSegment(0, 40), 4)
    second = sample_frames(video, VideoSegment(0, 40), 4)
    assert first == second
    assert video.frames == clip(40).frames


# --- malformed input: a FixtureError or a video, never another exception ---

FIXTURE_KEYS = ("duration", "fps", "frames", "events", "asr", "qa_facts")
METADATA_KEYS = ("duration", "fps")
FIELD_NAMES = (
    "t", "caption", "start", "end", "label", "justification", "text", "keywords", "answer"
)

# Arbitrary JSON, seasoned with timestamps and the schema's own field
# names so that draws also reach the checks past the first type test.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(("00:00", "00:05", "00:30", "01:00", "05:00", "1:00:00", "00:60")),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=4), inner, max_size=5),
    max_leaves=12,
)


def loads_or_fixture_error(load, path):
    try:
        video = load(path)
    except FixtureError:
        return
    assert isinstance(video, VideoFixture)


@settings(max_examples=300, deadline=None)
@given(changes=st.dictionaries(st.sampled_from(FIXTURE_KEYS), json_values, min_size=1))
def test_load_fixture_never_raises_another_error(tmp_path_factory, changes):
    path = tmp_path_factory.getbasetemp() / "arbitrary_clip.json"
    path.write_text(json.dumps({**FIXTURE_DOC, **changes}))
    loads_or_fixture_error(load_fixture, str(path))


@settings(max_examples=200, deadline=None)
@given(
    meta=st.dictionaries(st.sampled_from(METADATA_KEYS), json_values) | json_values
)
def test_load_frames_directory_never_raises_another_error(tmp_path_factory, meta):
    frame_dir = tmp_path_factory.getbasetemp() / "arbitrary_frames"
    frame_dir.mkdir(exist_ok=True)
    for name in ("0.jpg", "1.jpg", "3.jpg"):
        (frame_dir / name).write_bytes(b"\xff\xd8\xff")
    (frame_dir / "metadata.json").write_text(json.dumps(meta))
    loads_or_fixture_error(load_frames_directory, str(frame_dir))


# --- column passes against the per-entry loader ---


def reference_objects(data, key, path):
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise FixtureError(f"{path}: {key}: expected a list")
    for i, entry in enumerate(entries):
        where = f"{path}: {key}[{i}]"
        if not isinstance(entry, dict):
            raise FixtureError(f"{where}: expected an object")
        yield where, entry


def reference_transcript(objects, duration):
    """The transcript loop as it was before column passes, over the
    (where, entry) pairs of the `asr` list."""
    asr = []
    prev_t = -1
    for where, entry in objects:
        t = _parse_time_field(entry.get("t"), f"{where}.t")
        if t > duration:
            raise FixtureError(f"{where}: t beyond video duration")
        if t < prev_t:
            raise FixtureError(f"{where}: transcript times must be non-decreasing")
        text = entry.get("text")
        if not isinstance(text, str):
            raise FixtureError(f"{where}.text: expected a string")
        asr.append(AsrLine(t, text))
        prev_t = t
    return asr


def reference_load_fixture(path):
    """The loader as it was before column passes: every entry checked in
    turn, every time through `_parse_time_field`, every frame built by
    `FrameRef(...)`."""
    data, duration, fps = _read_header(path)

    def objects(key):
        return reference_objects(data, key, path)

    frames = []
    for i, (where, entry) in enumerate(objects("frames")):
        t = _parse_time_field(entry.get("t"), f"{where}.t")
        caption = entry.get("caption", "")
        if not isinstance(caption, str):
            raise FixtureError(f"{where}.caption: expected a string")
        frames.append(FrameRef(index=i, t=float(t), caption=caption))
    events = []
    for where, entry in objects("events"):
        segment = _segment_field(entry, where, duration)
        label = entry.get("label")
        if not isinstance(label, str) or not label:
            raise FixtureError(f"{where}.label: expected a nonempty string")
        justification = entry.get("justification", "")
        if not isinstance(justification, str):
            raise FixtureError(f"{where}.justification: expected a string")
        events.append(Event(segment, label, justification))
    asr = reference_transcript(objects("asr"), duration)
    qa_facts = []
    for where, entry in objects("qa_facts"):
        evidence = _segment_field(entry, where, duration)
        keywords = entry.get("keywords")
        if (
            not isinstance(keywords, list)
            or not keywords
            or not all(isinstance(k, str) and k for k in keywords)
        ):
            raise FixtureError(f"{where}.keywords: expected a nonempty string list")
        answer = entry.get("answer")
        if not isinstance(answer, str) or not answer:
            raise FixtureError(f"{where}.answer: expected a nonempty string")
        qa_facts.append(QaFact(evidence, tuple(keywords), answer))
    try:
        return VideoFixture(
            duration=duration,
            fps=fps,
            frames=tuple(frames),
            events=tuple(events),
            asr=tuple(asr),
            qa_facts=tuple(qa_facts),
        )
    except FixtureError as exc:
        raise FixtureError(f"{path}: {exc}") from exc


OVER_LONG = "1" * (sys.get_int_max_str_digits() + 1)  # more digits than int() takes

# Strings the fast path must decline or parse exactly as parse_timestamp does:
# lenient forms, whitespace, newlines, non-ASCII digits and over-long runs.
time_texts = st.one_of(
    st.from_regex(r"[0-9]{1,4}:[0-9]{2}", fullmatch=True),
    st.text(alphabet="0123456789:\n \t\u0660\u0665\uff10\uff15x", max_size=12),
    st.sampled_from(("00:00\n00:01", " 00:05", "00:05\n", "0:05", "1:00:00", "00:60")),
    st.sampled_from((OVER_LONG + ":00", "00:" + OVER_LONG, OVER_LONG[:-2] + ":00")),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(time_texts, max_size=6))
def test_canonical_times_equal_parse_timestamp(values):
    got = _canonical_times(values)
    if got is not None:
        assert got == [parse_timestamp(v) for v in values]
    # a list is taken whole or declined whole
    for v in values:
        if _canonical_times([v]) is None:
            assert got is None


def test_canonical_times_decline_what_they_cannot_read_exactly():
    assert _canonical_times(["00:00", "0:05", "119:59", "007:07"]) == [0, 5, 7199, 427]
    assert _canonical_times([]) == []
    for value in [
        "00:00\n00:01", " 00:05", "00:05\n", "1:00:00", "00:60", "\u0660\u0661:\u0660\u0662",
        OVER_LONG + ":00", 5, None,
    ]:
        assert _canonical_times(["00:00", value]) is None, value


def rendered(seconds, form):
    canonical = format_timestamp(seconds)
    return {
        "canonical": canonical,
        "short": f"{seconds // 60}:{seconds % 60:02d}",
        "hours": f"{seconds // 3600}:{seconds // 60 % 60:02d}:{seconds % 60:02d}",
        "padded": f" {canonical}\t",
    }[form]


BAD_ENTRIES = (
    7, None, "00:01", [],
    {"t": 5}, {"t": None}, {}, {"t": "1:60"}, {"t": "00:60"}, {"t": "1:2:3"}, {"t": ""},
    {"t": "\u0660\u0661:\u0660\u0662"}, {"t": "\uff10\uff11:\uff10\uff12"},
    {"t": "00:00\n00:01"}, {"t": OVER_LONG + ":00"}, {"t": "99:00"},
)


@st.composite
def fixture_docs(draw):
    """FIXTURE_DOC with frames and a transcript over a 10 minute video, in
    canonical and lenient times, and at most one bad entry."""
    forms = st.sampled_from(("canonical", "canonical", "short", "hours", "padded"))
    frame_times = sorted(draw(st.sets(st.integers(0, 600), max_size=12)))
    frames = [
        {"t": rendered(t, draw(forms)), "caption": draw(st.text(max_size=3))}
        for t in frame_times
    ]
    asr_times = sorted(draw(st.lists(st.integers(0, 600), max_size=8)))
    asr = [{"t": rendered(t, draw(forms)), "text": draw(st.text(max_size=3))} for t in asr_times]
    doc = {**FIXTURE_DOC, "duration": "10:00", "frames": frames, "asr": asr}
    target = draw(st.sampled_from((None, "frames", "asr")))
    entries = doc[target] if target else []
    if entries:
        i = draw(st.integers(0, len(entries) - 1))
        fault = draw(st.sampled_from(("replace", "reorder", "field")))
        if fault == "replace":
            entries[i] = draw(st.sampled_from(BAD_ENTRIES))
        elif fault == "reorder" and i:
            # frames must strictly increase; transcript lines must not go back
            entries[i]["t"] = format_timestamp(max(0, parse_timestamp(entries[i - 1]["t"]) - 1))
        else:
            text_key = "caption" if target == "frames" else "text"
            entries[i][text_key] = draw(st.sampled_from((3, None, ["x"])))
    return doc


@settings(max_examples=400, deadline=None)
@given(doc=fixture_docs())
def test_load_fixture_matches_per_entry_loader(tmp_path_factory, doc):
    path = str(tmp_path_factory.getbasetemp() / "column_clip.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    try:
        want = reference_load_fixture(path)
    except FixtureError as exc:
        with pytest.raises(FixtureError) as err:
            load_fixture(path)
        assert str(err.value) == str(exc)
        return
    got = load_fixture(path)
    assert got == want
    assert [repr(f) for f in got.frames] == [repr(f) for f in want.frames]


TRANSCRIPT_FAULTS = (
    7, None, "00:01", [], {},
    {"t": "00:05"}, {"t": "00:05", "text": 3}, {"t": "00:05", "text": None},
    {"t": "00:05", "text": ["x"]}, {"text": "x"}, {"t": 5, "text": "x"},
    {"t": "10:01", "text": "x"}, {"t": "99:00", "text": "x"}, {"t": "0:10:01", "text": "x"},
    {"t": OVER_LONG + ":00", "text": "x"}, {"t": OVER_LONG[:-2] + ":00", "text": "x"},
    {"t": "00:" + OVER_LONG, "text": "x"}, {"t": "00:60", "text": "x"},
    {"t": "\u0660\u0661:\u0660\u0662", "text": "x"}, {"t": "00:00\n00:01", "text": "x"},
)


@st.composite
def transcripts(draw):
    """The `asr` list of a 10 minute video: lines in canonical and lenient
    times, in order or not, with up to three entries replaced by faults."""
    forms = st.sampled_from(("canonical", "canonical", "canonical", "short", "hours", "padded"))
    times = draw(st.lists(st.integers(0, 600), max_size=10))
    if draw(st.booleans()):
        times.sort()
    entries = [{"t": rendered(t, draw(forms)), "text": draw(st.text(max_size=3))} for t in times]
    for _ in range(draw(st.integers(0, 3)) if entries else 0):
        entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(TRANSCRIPT_FAULTS))
    return entries


@settings(max_examples=400, deadline=None)
@given(asr=transcripts())
@example(asr=[{"t": "00:05", "text": "a"}, {"t": "00:05", "text": "b"}])
@example(asr=[{"t": " 00:05", "text": "a"}, {"t": "0:01:00", "text": "b"}])
@example(asr=[{"t": "00:05", "text": "a"}, {"t": "00:04", "text": "b"}])
@example(asr=[{"t": "00:05", "text": "a"}, {"t": "10:01", "text": "b"}])
def test_transcript_column_pass_matches_per_entry_loop(tmp_path_factory, asr):
    path = str(tmp_path_factory.getbasetemp() / "transcript_clip.json")
    doc = {"duration": "10:00", "frames": [], "asr": asr}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    try:
        want = reference_transcript(reference_objects(doc, "asr", path), 600)
    except FixtureError as exc:
        with pytest.raises(FixtureError) as err:
            load_fixture(path)
        assert str(err.value) == str(exc)
        return
    got = load_fixture(path).asr
    assert got == tuple(want)
    assert [(repr(line), hash(line), type(line.t)) for line in got] == [
        (repr(line), hash(line), int) for line in want
    ]
    for line in got[:1]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            line.text = "changed"


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.floats(allow_nan=False),
            st.none() | st.text(max_size=4),
            st.none() | st.text(max_size=4),
        ),
        max_size=8,
    )
)
def test_frame_table_refs_are_constructed_refs(rows):
    indices, times, captions, paths = [list(column) for column in zip(*rows)] or [[]] * 4
    table = FrameTable(indices, array("d", times), captions, paths)
    assert len(table) == len(rows)
    # iterating builds a run of refs in one pass; indexing builds one ref
    read = [*table, *(table[i] for i in range(len(rows)))]
    for ref, row in zip(read, rows + rows, strict=True):
        want = FrameRef(*row)
        assert ref == want and hash(ref) == hash(want) and repr(ref) == repr(want)
        assert ref.key == want.key
        for name in ("index", "t", "caption", "path"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ref, name, None)


def test_a_long_video_holds_no_frame_refs(tmp_path):
    doc = {
        "duration": format_timestamp(7200),
        "frames": [{"t": format_timestamp(t), "caption": f"frame {t}"} for t in range(7200)],
    }
    path = write_fixture(tmp_path, doc)

    def live_refs():
        gc.collect()
        return sum(type(o) is FrameRef for o in gc.get_objects())

    before = live_refs()
    video = load_fixture(path)
    keys = bytes(video.frames.key_fragment())
    assert keys.startswith(b'"0@0","1@1",') and len(video.frames) == 7200
    assert live_refs() == before
    assert video.frames[4321] == video.frames[4321] == FrameRef(4321, 4321.0, "frame 4321")
