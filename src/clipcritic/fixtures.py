"""Videos as frame tables, their loaders, and frame access for tools.

Every video is a `VideoFixture`: its duration, fps, source kind, and a
frame table whose times strictly increase within the video. A fixture file
is a JSON description of a video: captioned frames, labeled events, an
optional transcript, and question-answering facts, so oracle tools answer
from it deterministically and the whole pipeline runs without pixels or
models. A frames directory (image files plus a sidecar metadata.json)
loads as a `VideoFixture` with no annotations, for model-backed tools.
"""

from __future__ import annotations

import math
import os
import re
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import accumulate, repeat
from json.encoder import encode_basestring_ascii
from operator import add, attrgetter, mul
from typing import Sequence

from .core import (
    DataError,
    VideoSegment,
    VideoSource,
    format_timestamp,
    parse_timestamp,
    read_json,
)


class FixtureError(DataError):
    """A fixture file that violates the schema, with a field-level message."""


@dataclass(frozen=True, slots=True)
class FrameRef:
    """One addressable frame: ordinal within the video, time, and payload."""

    index: int
    t: float
    caption: str | None = None
    path: str | None = None
    _key: str | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def key(self) -> str:
        """The frame's id in request fingerprints: its path, or `index@t`
        without one. Memoised on first read; racing threads store the same."""
        key = self._key
        if key is None:
            key = self.path or f"{self.index}@{self.t:g}"
            object.__setattr__(self, "_key", key)
        return key

    def label(self) -> str:
        return format_timestamp(int(round(self.t)))


@dataclass(frozen=True)
class Event:
    segment: VideoSegment
    label: str
    justification: str


@dataclass(frozen=True)
class AsrLine:
    t: int
    text: str


@dataclass(frozen=True)
class QaFact:
    evidence: VideoSegment
    keywords: tuple[str, ...]
    answer: str


@dataclass(frozen=True)
class VideoFixture:
    """A video's frame table, and the annotations oracle tools answer from
    (none for a frames directory)."""

    # a task carries its video, so the tables stay out of the task's repr
    duration: int
    fps: float
    frames: tuple[FrameRef, ...] = field(repr=False)
    events: tuple[Event, ...] = field(default=(), repr=False)
    asr: tuple[AsrLine, ...] = field(default=(), repr=False)
    qa_facts: tuple[QaFact, ...] = field(default=(), repr=False)
    source: VideoSource = VideoSource.FIXTURE_PATH

    def __post_init__(self):
        if not self.duration > 0:
            raise FixtureError("duration must be positive")
        if not self.fps > 0:
            raise FixtureError("fps must be positive")
        # Frame access bisects on `t`, and retrieval on `index`, so both must
        # strictly increase; and the frames outside a segment are two slices
        # of the table, so every frame must lie within the video.
        prev_t = prev_index = -math.inf
        for i, ref in enumerate(self.frames):
            if ref.t <= prev_t:
                raise FixtureError(f"frames[{i}]: frame times must be strictly increasing")
            if ref.index <= prev_index:
                raise FixtureError(f"frames[{i}]: frame indices must be strictly increasing")
            if not 0 <= ref.t <= self.duration:
                raise FixtureError(
                    f"frames[{i}]: t {ref.t:g} outside the video [0, {self.duration}]"
                )
            prev_t, prev_index = ref.t, ref.index

    @cached_property
    def key_table(self) -> tuple[bytes, array]:
        """Every frame's `key` encoded as `json.dumps` writes it, joined by
        commas, and where each frame's entry starts, so the JSON list body of
        frames[i:j] is `table[starts[i]:starts[j] - 1]`. Built on first use;
        threads racing to build it build equal tables."""
        encoded = [encode_basestring_ascii(ref.key) for ref in self.frames]
        starts = array("q", accumulate((len(e) + 1 for e in encoded), initial=0))
        return ",".join(encoded).encode("ascii"), starts


@dataclass(frozen=True)
class FrameWindow:
    refs: tuple[FrameRef, ...]
    segment: VideoSegment
    # the JSON list body of the refs' keys, a slice of the video's key table
    fragment: memoryview = field(repr=False, compare=False)


# --- loading ---


def _parse_time_field(value, where: str) -> int:
    if not isinstance(value, str):
        raise FixtureError(f"{where}: expected an MM:SS string, got {value!r}")
    try:
        return parse_timestamp(value)
    except ValueError as exc:  # a TimestampError, or too many digits for int()
        raise FixtureError(f"{where}: {exc}") from exc


def _segment_field(obj: dict, where: str, duration: int) -> VideoSegment:
    start = _parse_time_field(obj.get("start"), f"{where}.start")
    end = _parse_time_field(obj.get("end"), f"{where}.end")
    if start > end:
        raise FixtureError(f"{where}: start {start} after end {end}")
    if end > duration:
        raise FixtureError(
            f"{where}: segment ends at {format_timestamp(end)} "
            f"but the video lasts {format_timestamp(duration)}"
        )
    return VideoSegment(start, end)


def _read_header(path: str, what: str = "fixture") -> tuple[dict, int, float]:
    """A JSON object file and its video's duration and fps (default 1)."""
    data = read_json(path, what, FixtureError)
    if not isinstance(data, dict):
        raise FixtureError(f"{path}: top level must be an object")
    if "duration" not in data:
        raise FixtureError(f"{path}: missing required key 'duration'")
    duration = _parse_time_field(data["duration"], f"{path}: duration")
    # frame times are floats, so the video must end within float range
    if not 0 < duration <= sys.float_info.max:
        raise FixtureError(f"{path}: duration must be positive and fit a float")
    fps = data.get("fps", 1)
    # NaN fails both comparisons; infinity and ints past float range fail the second
    if (
        isinstance(fps, bool)
        or not isinstance(fps, (int, float))
        or not 0 < fps <= sys.float_info.max
    ):
        raise FixtureError(f"{path}: fps must be a positive number")
    return data, duration, float(fps)


def _object_list(data: dict, key: str, path: str) -> list:
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise FixtureError(f"{path}: {key}: expected a list")
    return entries


def _objects(data: dict, key: str, path: str):
    """(where, entry) for each entry of the optional object list `data[key]`."""
    for i, entry in enumerate(_object_list(data, key, path)):
        where = f"{path}: {key}[{i}]"
        if not isinstance(entry, dict):
            raise FixtureError(f"{where}: expected an object")
        yield where, entry


# Column passes: a list's entries are checked one field at a time, in C-level
# loops, and the `where` of a message is built only by the per-entry checks
# that a failed pass falls back to, so each error names the first bad entry
# with the same text as before.


def _all(check_type: type, values: list) -> bool:
    return all(map(isinstance, values, repeat(check_type)))


def _column(entries: list, key: str, default=None) -> list:
    return list(map(dict.get, entries, repeat(key), repeat(default)))


_CANONICAL_TIMES = re.compile(r"(?:[0-9]+:[0-5][0-9]\n)*[0-9]+:[0-5][0-9]")


def _canonical_times(values: list) -> list[int] | None:
    """The seconds of each value when all are ASCII `[0-9]+:[0-5][0-9]`
    strings, else None. The values are matched as one newline-joined string,
    so a value holding a newline of its own fails on the newline count."""
    if not values:
        return []
    if not _all(str, values):
        return None
    joined = "\n".join(values)
    if joined.count("\n") != len(values) - 1 or not _CANONICAL_TIMES.fullmatch(joined):
        return None
    try:
        parts = list(map(int, joined.replace("\n", ":").split(":")))
    except ValueError:  # more digits than int() converts
        return None
    return list(map(add, map(mul, parts[0::2], repeat(60)), parts[1::2]))


_FRAME_SLOTS = tuple(FrameRef.__dict__[f.name].__set__ for f in fields(FrameRef))


def _frame_table(indices: Sequence[int], times, captions, paths) -> tuple[FrameRef, ...]:
    """The frames `FrameRef(i, t, caption, path)` for the rows of the columns,
    built slot by slot: each slot is set through its descriptor in one map
    loop, with no `__init__` call per frame. The refs stay frozen."""
    refs = tuple(map(object.__new__, repeat(FrameRef, len(indices))))
    for set_slot, column in zip(_FRAME_SLOTS, (indices, times, captions, paths, repeat(None))):
        deque(map(set_slot, refs, column), maxlen=0)
    return refs


def _frames(data: dict, path: str) -> tuple[FrameRef, ...]:
    entries = _object_list(data, "frames", path)
    times = captions = None
    if _all(dict, entries):
        times, captions = _canonical_times(_column(entries, "t")), _column(entries, "caption", "")
    if times is None or not _all(str, captions):
        times, captions = [], []
        for where, entry in _objects(data, "frames", path):
            times.append(_parse_time_field(entry.get("t"), f"{where}.t"))
            caption = entry.get("caption", "")
            if not isinstance(caption, str):
                raise FixtureError(f"{where}.caption: expected a string")
            captions.append(caption)
    if max(times, default=0) > sys.float_info.max:  # past float range, so past the video
        times = [t if t <= sys.float_info.max else math.inf for t in times]
    return _frame_table(range(len(times)), map(float, times), captions, repeat(None))


def load_fixture(path: str) -> VideoFixture:
    """Load and validate a fixture file; diagnostics name the bad field."""
    data, duration, fps = _read_header(path)
    frames = _frames(data, path)

    events = []
    for where, entry in _objects(data, "events", path):
        segment = _segment_field(entry, where, duration)
        label = entry.get("label")
        if not isinstance(label, str) or not label:
            raise FixtureError(f"{where}.label: expected a nonempty string")
        justification = entry.get("justification", "")
        if not isinstance(justification, str):
            raise FixtureError(f"{where}.justification: expected a string")
        events.append(Event(segment, label, justification))

    asr = []
    prev_t = -1
    for where, entry in _objects(data, "asr", path):
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

    qa_facts = []
    for where, entry in _objects(data, "qa_facts", path):
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
            frames=frames,
            events=tuple(events),
            asr=tuple(asr),
            qa_facts=tuple(qa_facts),
        )
    except FixtureError as exc:
        raise FixtureError(f"{path}: {exc}") from exc


def load_frames_directory(path: str) -> VideoFixture:
    """Directory of image files named by integer index, plus metadata.json.

    A file `<index>.<ext>` holds the frame at t = index / fps; zero padding
    is allowed, but two files may not share an index and no frame may lie
    past the duration. The video carries no annotations.
    """
    _, duration, fps = _read_header(os.path.join(path, "metadata.json"), "frames metadata")
    name_by_index: dict[int, str] = {}
    for name in sorted(os.listdir(path)):
        stem = os.path.splitext(name)[0]
        if not re.fullmatch(r"[0-9]+", stem):
            continue
        index = int(stem)
        if index in name_by_index:
            raise FixtureError(
                f"{path}: frames {name_by_index[index]} and {name} "
                f"share the index {index}"
            )
        if index / fps > duration:
            raise FixtureError(
                f"{path}: frame {name} at t={index / fps:g}s lies past "
                f"the duration {format_timestamp(duration)}"
            )
        name_by_index[index] = name
    if not name_by_index:
        raise FixtureError(f"{path}: no frame image files")
    indices = sorted(name_by_index)
    return VideoFixture(
        duration=duration,
        fps=fps,
        frames=_frame_table(
            indices,
            (i / fps for i in indices),
            repeat(None),
            (os.path.join(path, name_by_index[i]) for i in indices),
        ),
        source=VideoSource.FRAMES_DIRECTORY,
    )


def video_ref_for(path: str) -> VideoFixture:
    """The video a dataset path names: a frames directory or a fixture file."""
    return load_frames_directory(path) if os.path.isdir(path) else load_fixture(path)


# --- frame access ---


_TIME = attrgetter("t")


def _bounds(frames: Sequence[FrameRef], segment: VideoSegment) -> tuple[int, int]:
    """Slice bounds of the frames with segment.start <= t <= segment.end."""
    return (
        bisect_left(frames, segment.start, key=_TIME),
        bisect_right(frames, segment.end, key=_TIME),
    )


def frames_outside(video: VideoFixture, segment: VideoSegment) -> list[FrameRef]:
    """The source's frames before and after the segment, in time order."""
    frames = video.frames
    lo, hi = _bounds(frames, segment)
    return [*frames[:lo], *frames[hi:]]


def _nearest(refs: Sequence[FrameRef], target: float) -> FrameRef:
    # the frame minimising (|t - target|, t): ties break toward the earlier frame
    i = bisect_left(refs, target, key=_TIME)
    if i < len(refs) and (
        i == 0 or abs(refs[i].t - target) < abs(refs[i - 1].t - target)
    ):
        return refs[i]
    # refs[i - 1] is nearest; frames further back tie with it only through
    # rounding, and then the earliest of them wins
    i -= 1
    gap = abs(refs[i].t - target)
    while i and abs(refs[i - 1].t - target) == gap:
        i -= 1
    return refs[i]


def sample_frames(video: VideoFixture, segment: VideoSegment, k: int) -> list[FrameRef]:
    """Up to k frames spread uniformly over a segment, in time order.

    Spaces k target times evenly across the segment (endpoints included
    for k >= 2) and snaps each to the nearest frame in it, deduplicating;
    a degenerate segment yields the single nearest frame, and a segment
    holding no frame yields the nearest frame of the whole video.
    """
    if k < 1:
        raise ValueError("uniform sampling needs k >= 1")
    frames = video.frames
    lo, hi = _bounds(frames, segment)
    if lo == hi:
        # segment between frames, or degenerate beyond the last frame time:
        # fall back to the nearest frame in the whole video
        return [_nearest(frames, segment.start)] if frames else []
    candidates = frames[lo:hi]
    if segment.duration == 0 or k == 1:
        return [_nearest(candidates, segment.start)]
    picked: list[FrameRef] = []
    span = segment.end - segment.start
    for i in range(k):
        target = segment.start + span * i / (k - 1)
        ref = _nearest(candidates, target)
        if not picked or ref.index > picked[-1].index:
            picked.append(ref)
    return picked


def windows(video: VideoFixture, segment: VideoSegment, size: int) -> list[FrameWindow]:
    """Partition the segment's frames into consecutive windows of `size`.

    Every frame in the segment lands in exactly one window, in time order:
    ceil(N / size) windows, the last possibly short.
    """
    if size < 1:
        raise ValueError("window size must be >= 1")
    frames = video.frames
    lo, hi = _bounds(frames, segment)
    table, starts = video.key_table
    view = memoryview(table)
    out: list[FrameWindow] = []
    for i in range(lo, hi, size):
        j = min(i + size, hi)
        chunk = frames[i:j]
        out.append(
            FrameWindow(
                refs=chunk,
                segment=VideoSegment(
                    int(math.floor(chunk[0].t)), int(math.ceil(chunk[-1].t))
                ),
                fragment=view[starts[i] : starts[j] - 1],
            )
        )
    return out
