"""Properties of frame access: sampling, windowing and the frame budget."""

import hashlib
import json
import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clipcritic.core import TaskKind, TaskQuery, VideoSegment, VideoSource, format_timestamp
from clipcritic.fixtures import (
    FixtureError,
    FrameRef,
    FrameTable,
    VideoFixture,
    sample_frames,
    windows,
)
from clipcritic.modelclient import (
    FRAME_BUDGET,
    CallableModel,
    FramesPart,
    ModelRequest,
    TextPart,
    budget_frames,
    fingerprint,
)
from clipcritic.toolkit import load_prompt_text
from clipcritic.tools import CONTEXT_FRAMES, FIND_WHEN_WINDOW, RETRIEVAL_WINDOW, ToolSuite

FPS = (0.3, 0.5, 1.0, 2.0, 3.0, 29.97)


@st.composite
def sources(draw):
    """A source and its frames: a dense fixture or a sparse one."""
    duration = draw(st.integers(1, 600))
    fps = draw(st.sampled_from(FPS))
    kind = draw(st.sampled_from(("dense", "sparse", "sparse_float")))
    if kind == "dense":
        times = [i / fps for i in range(int(duration * fps) + 1) if i / fps <= duration]
    else:
        elements = (
            st.integers(0, duration)
            if kind == "sparse"
            else st.floats(0, duration, allow_nan=False)
        )
        times = sorted(draw(st.sets(elements, max_size=40)))
    frames = tuple(FrameRef(i, float(t), caption=f"f{i}") for i, t in enumerate(times))
    return VideoFixture(duration, fps, frames), list(frames)


@st.composite
def frames_directories(draw):
    """A frames directory as `load_frames_directory` reads one: files at
    some indices, frame i at t = i / fps, fps often fractional."""
    fps = draw(st.sampled_from(FPS + (0.7, 12.5, 23.976)))
    indices = sorted(draw(st.sets(st.integers(0, 4000), min_size=1, max_size=300)))
    duration = draw(st.integers(math.ceil(indices[-1] / fps), math.ceil(indices[-1] / fps) + 5))
    frames = tuple(FrameRef(i, i / fps, path=f"frames/{i:05d}.jpg") for i in indices)
    video = VideoFixture(max(duration, 1), fps, frames, source=VideoSource.FRAMES_DIRECTORY)
    return video, list(frames)


videos = st.one_of(sources(), frames_directories())


@st.composite
def segments(draw, duration):
    a = draw(st.integers(0, duration + 3))
    b = draw(st.integers(0, duration + 3))
    return VideoSegment(min(a, b), max(a, b))


COUNTS = st.sampled_from((1, 2, 3, 8, 64, 200))


def reference_sample(frames, segment, k):
    """Frame sampling by a linear scan and min() over every frame."""

    def nearest(refs, target):
        return min(refs, key=lambda r: (abs(r.t - target), r.t))

    candidates = [r for r in frames if segment.start <= r.t <= segment.end]
    if not candidates:
        return [nearest(frames, segment.start)] if frames else []
    if segment.duration == 0 or k == 1:
        return [nearest(candidates, segment.start)]
    picked = []
    span = segment.end - segment.start
    for i in range(k):
        ref = nearest(candidates, segment.start + span * i / (k - 1))
        if not picked or ref.index > picked[-1].index:
            picked.append(ref)
    return picked


@settings(max_examples=300, deadline=None)
@given(data=st.data(), source=sources(), k=COUNTS)
def test_sample_frames_matches_linear_scan(data, source, k):
    video, frames = source
    segment = data.draw(segments(video.duration))
    assert list(sample_frames(video, segment, k)) == reference_sample(frames, segment, k)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), source=sources(), size=st.integers(1, 100))
def test_default_stride_windows_partition_segment_frames(data, source, size):
    video, frames = source
    segment = data.draw(segments(video.duration))
    inside = [r for r in frames if segment.start <= r.t <= segment.end]
    grid = windows(video, segment, size)
    assert [r for w in grid for r in w.refs] == inside
    assert all(len(w.refs) == size for w in grid[:-1])
    assert all(1 <= len(w.refs) <= size for w in grid)


def reference_windows(frames, segment, size):
    """Windows as a frozen record with a `VideoSegment` built them: the
    segment's frames by a linear scan, cut every `size` frames, each
    spanning the whole seconds from its first frame to its last, with its
    frames' keys written one by one by `json.dumps`."""
    inside = [r for r in frames if segment.start <= r.t <= segment.end]
    out = []
    for i in range(0, len(inside), size):
        chunk = tuple(inside[i : i + size])
        span = VideoSegment(int(math.floor(chunk[0].t)), int(math.ceil(chunk[-1].t)))
        keys = ",".join(json.dumps(r.path or f"{r.index}@{r.t:g}") for r in chunk)
        out.append((chunk, span, keys))
    return out


@settings(max_examples=300, deadline=None)
@given(data=st.data(), source=videos, size=st.integers(1, 100))
def test_windows_match_the_reference_record(data, source, size):
    video, frames = source
    segment = data.draw(segments(video.duration))
    grid = windows(video, segment, size)
    assert all(type(w.start) is int and type(w.end) is int for w in grid)
    got = [
        (w.refs, VideoSegment(w.start, w.end), bytes(w.refs.key_fragment()).decode("ascii"))
        for w in grid
    ]
    assert got == reference_windows(frames, segment, size)


def reference_fingerprint(req):
    """sha256 of the parts written whole by `json.dumps`."""
    parts = [
        {"text": p.text} if isinstance(p, TextPart)
        else {"frames": [r.path or f"{r.index}@{r.t:g}" for r in p.frames]}
        for p in req.parts
    ]
    return hashlib.sha256(
        json.dumps(parts, sort_keys=True, separators=(",", ":")).encode("ascii")
    ).hexdigest()


def reference_window_requests(frames, segment, query, question, prefix):
    """The window requests of `find_when(query)` then `retrieval_qa(question)`,
    each tag built whole and each prompt part built per window."""
    tag = lambda suffix: f"{prefix}/{suffix}" if prefix else suffix
    find = load_prompt_text("find_when_window.txt")
    requests = [
        ModelRequest(
            parts=(
                TextPart(
                    find.format(
                        query=query,
                        start=format_timestamp(span.start),
                        end=format_timestamp(span.end),
                    )
                ),
                FramesPart(refs),
            ),
            tag=tag(f"find_when/window/{i}"),
        )
        for i, (refs, span, _) in enumerate(reference_windows(frames, segment, FIND_WHEN_WINDOW))
    ]
    phase1 = load_prompt_text("retrieval_phase1.txt")
    requests += [
        ModelRequest(
            parts=(TextPart(phase1.format(question=question)), FramesPart(refs)),
            tag=tag(f"retrieval_qa/window/{i}"),
        )
        for i, (refs, _, _) in enumerate(reference_windows(frames, segment, RETRIEVAL_WINDOW))
    ]
    return requests


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    source=videos,
    prefix=st.sampled_from(("", "t1/A", "v07/C")),
    query=st.text(min_size=1, max_size=12).filter(str.strip),
)
def test_tool_window_requests_match_the_reference(data, source, prefix, query):
    video, frames = source
    segment = data.draw(segments(video.duration))
    sent = []
    task = TaskQuery("t1", "What is shown?", TaskKind.MULTIPLE_CHOICE, video, ("a", "b"), False)
    model = CallableModel(lambda req: sent.append(req) or "")
    suite = ToolSuite(task, backend="model", model=model, tag_prefix=prefix)
    suite.find_when(query, segment)
    suite.retrieval_qa(query, ["a", "b"], segment)
    got = [req for req in sent if "/window/" in req.tag]
    want = reference_window_requests(frames, segment, query, query, prefix)
    assert [req.tag for req in got] == [req.tag for req in want]
    assert got == want  # texts and frames
    assert [fingerprint(req) for req in got] == [reference_fingerprint(req) for req in want]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), source=sources(), retrieve_all=st.booleans())
def test_model_tool_requests_stay_within_frame_budget(data, source, retrieve_all):
    video, _ = source
    segment = data.draw(segments(video.duration))
    used = []

    def respond(req):
        used.append(budget_frames(req.parts))
        if retrieve_all and req.tag.startswith("retrieval_qa/window/"):
            frames = [p for p in req.parts if isinstance(p, FramesPart)][0].frames
            return "\n".join(str(r.index) for r in frames)
        return ""

    task = TaskQuery(
        "t1", "What is shown?", TaskKind.MULTIPLE_CHOICE, video, ("a", "b"), False
    )
    suite = ToolSuite(task, backend="model", model=CallableModel(respond))
    suite.find_when("the door", segment)
    suite.retrieval_qa("What is shown?", ["a", "b"], segment)
    assert all(n <= FRAME_BUDGET for n in used)


# --- column tables against a plain tuple of FrameRefs ---

# quotes, backslashes, control characters and non-ASCII text in paths
PATH_NAMES = st.text(st.sampled_from('ab"\\\x00\né€'), max_size=3)


@st.composite
def column_videos(draw):
    """The columns a loader hands over, and the same frames as a tuple of
    FrameRefs: a fixture table (indices a range, captions, no paths) or a
    frames-directory table (sparse indices, paths, no captions)."""
    fps = draw(st.sampled_from(FPS))
    dense = draw(st.booleans())  # dense tables have frames enough to pick context from
    if draw(st.booleans()):
        times = (
            list(range(draw(st.integers(0, 9)), 601, draw(st.integers(1, 9))))
            if dense
            else sorted(draw(st.sets(st.integers(0, 600), max_size=150)))
        )
        captions = draw(st.lists(st.text(max_size=3), min_size=len(times), max_size=len(times)))
        columns = (range(len(times)), array("d", times), captions, None)
        duration, source = 600, VideoSource.FIXTURE_PATH
    else:
        indices = (
            list(range(draw(st.integers(0, 9)), draw(st.integers(10, 1800)), draw(st.integers(1, 9))))
            if dense
            else sorted(draw(st.sets(st.integers(0, 1800), min_size=1, max_size=150)))
        )
        names = draw(st.lists(PATH_NAMES, min_size=len(indices), max_size=len(indices)))
        paths = [f"d/{name}{i}.jpg" for i, name in zip(indices, names)]
        columns = (indices, array("d", [i / fps for i in indices]), None, paths)
        duration, source = math.ceil(indices[-1] / fps) + 1, VideoSource.FRAMES_DIRECTORY
    refs = tuple(FrameRef(*row) for row in zip(*(c or [None] * len(columns[1]) for c in columns)))
    return duration, fps, source, columns, refs


def reference_validate(duration, refs):
    """The per-frame check every frame table passes, over plain refs."""
    prev_t = prev_index = -math.inf
    for i, ref in enumerate(refs):
        if ref.t <= prev_t:
            raise FixtureError(f"frames[{i}]: frame times must be strictly increasing")
        if ref.index <= prev_index:
            raise FixtureError(f"frames[{i}]: frame indices must be strictly increasing")
        if not 0 <= ref.t <= duration:
            raise FixtureError(f"frames[{i}]: t {ref.t:g} outside the video [0, {duration}]")
        prev_t, prev_index = ref.t, ref.index


def reference_context(frames, segment):
    """Context frames by listing every frame outside the segment and picking
    CONTEXT_FRAMES of them evenly."""
    outside = [r for r in frames if not segment.start <= r.t <= segment.end]
    if len(outside) <= CONTEXT_FRAMES:
        return outside
    picked = []
    for i in range(CONTEXT_FRAMES):
        ref = outside[round(i * (len(outside) - 1) / (CONTEXT_FRAMES - 1))]
        if not picked or ref.index > picked[-1].index:
            picked.append(ref)
    return picked


def key_body(refs):
    return ",".join(json.dumps(r.path or f"{r.index}@{r.t:g}") for r in refs).encode("ascii")


@settings(max_examples=200, deadline=None)
@given(data=st.data(), video=column_videos(), size=st.integers(1, 100), k=COUNTS)
def test_column_tables_match_a_tuple_of_refs(data, video, size, k):
    duration, fps, source, columns, refs = video
    got = VideoFixture(duration, fps, FrameTable(*columns), source=source)
    assert got.frames == refs and list(got.frames) == list(refs)
    assert got == VideoFixture(duration, fps, refs, source=source)
    assert bytes(got.frames.key_fragment()) == key_body(refs)
    assert [bytes(got.frames[i : i + 1].key_fragment()) for i in range(len(refs))] == [
        key_body([r]) for r in refs
    ]
    # a stepped slice and rows picked out of order join their keys entry by entry
    start, step = data.draw(st.integers(0, 5)), data.draw(st.sampled_from((2, 3, 7, -1, -4)))
    rows = data.draw(st.lists(st.integers(0, len(refs) - 1), max_size=12)) if refs else []
    for table, want_refs in (
        (got.frames[start::step], refs[start::step]),
        (got.frames.select(rows), [refs[row] for row in rows]),
    ):
        assert list(table) == list(want_refs)
        assert bytes(table.key_fragment()) == key_body(want_refs)
        if want_refs:
            req = ModelRequest((TextPart("q"), FramesPart(table)))
            assert fingerprint(req) == reference_fingerprint(req)
    segment = data.draw(segments(duration))
    grid = windows(got, segment, size)
    assert [
        (tuple(w.refs), VideoSegment(w.start, w.end), bytes(w.refs.key_fragment())) for w in grid
    ] == [
        (chunk, span, keys.encode("ascii"))
        for chunk, span, keys in reference_windows(refs, segment, size)
    ]
    assert list(sample_frames(got, segment, k)) == reference_sample(refs, segment, k)
    task = TaskQuery("t1", "What is shown?", TaskKind.MULTIPLE_CHOICE, got, ("a", "b"), False)
    suite = ToolSuite(task, backend="model", model=CallableModel(lambda req: ""))
    context = suite._context_frames(segment)
    want = reference_context(refs, segment)
    assert list(context) == want
    parts = [TextPart("q")] + [FramesPart(w.refs) for w in grid]
    want_parts = [{"text": "q"}] + [
        {"frames": [r.path or f"{r.index}@{r.t:g}" for r in chunk]}
        for chunk, _, _ in reference_windows(refs, segment, size)
    ]
    if want:
        parts.append(FramesPart(context))
        want_parts.append({"frames": [r.path or f"{r.index}@{r.t:g}" for r in want]})
    req = ModelRequest(tuple(parts))
    plain = ModelRequest(
        tuple(FramesPart(tuple(p.frames)) if isinstance(p, FramesPart) else p for p in parts)
    )
    written = json.dumps(want_parts, sort_keys=True, separators=(",", ":"))
    assert fingerprint(req) == fingerprint(plain) == hashlib.sha256(written.encode()).hexdigest()


@settings(max_examples=200, deadline=None)
@given(
    video=column_videos().filter(lambda v: len(v[4]) >= 2),
    fault=st.sampled_from(("repeated time", "falling index", "time out of range", "NaN time")),
    data=st.data(),
)
def test_bad_column_tables_name_the_first_bad_frame(video, fault, data):
    duration, fps, source, (indices, times, captions, paths), _ = video
    indices, times = list(indices), array("d", times)
    i = data.draw(st.integers(1, len(times) - 1))
    if fault == "repeated time":
        times[i] = times[i - 1]
    elif fault == "falling index":
        indices[i] = indices[i - 1] - 1
    elif fault == "time out of range":
        times[i] = duration + 1.5
    else:
        times[i] = math.nan
    refs = tuple(
        FrameRef(index, t, (captions or [None] * len(times))[j], (paths or [None] * len(times))[j])
        for j, (index, t) in enumerate(zip(indices, times))
    )
    with pytest.raises(FixtureError) as want:
        reference_validate(duration, refs)
    for frames in (FrameTable(indices, times, captions, paths), refs):
        with pytest.raises(FixtureError) as got:
            VideoFixture(duration, fps, frames, source=source)
        assert str(got.value) == str(want.value)
