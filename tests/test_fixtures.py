"""Fixture loading, uniform frame sampling, and frame windowing."""

import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clipcritic.core import VideoSegment, VideoSource
from clipcritic.fixtures import (
    FixtureError,
    FrameRef,
    VideoFixture,
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
