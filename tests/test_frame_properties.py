"""Properties of frame access: sampling, windowing and the frame budget."""

from hypothesis import given, settings
from hypothesis import strategies as st

from clipcritic.core import TaskKind, TaskQuery, VideoSegment
from clipcritic.fixtures import FrameRef, VideoFixture, sample_frames, windows
from clipcritic.modelclient import FRAME_BUDGET, CallableModel, FramesPart, budget_frames
from clipcritic.tools import ToolSuite

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
    assert sample_frames(video, segment, k) == reference_sample(frames, segment, k)


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
