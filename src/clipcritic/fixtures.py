"""Synthetic annotated videos and frame access for tools and tests.

A fixture is a JSON description of a video: captioned frames, labeled
events, an optional transcript, and question-answering facts. Tools backed
by fixtures behave deterministically, which makes the whole pipeline
testable without pixels or models. A frames directory plus sidecar
metadata serves the same role for live runs.
"""

from __future__ import annotations

import json
import math
import os
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Sequence

from .core import (
    TimestampError,
    VideoRef,
    VideoSegment,
    VideoSource,
    format_timestamp,
    parse_timestamp,
)


class FixtureError(ValueError):
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


def _check_frame_table(frames: Sequence[FrameRef], duration: int) -> None:
    """Frame access bisects on `t`, so times must strictly increase; and
    the frames outside a segment are two slices of the table, so every
    frame must lie within the video."""
    prev_t = -math.inf
    for i, ref in enumerate(frames):
        if ref.t <= prev_t:
            raise FixtureError(f"frames[{i}]: frame times must be strictly increasing")
        if not 0 <= ref.t <= duration:
            raise FixtureError(f"frames[{i}]: t {ref.t:g} outside the video [0, {duration}]")
        prev_t = ref.t


@dataclass(frozen=True)
class VideoFixture:
    duration: int
    fps: float
    frames: tuple[FrameRef, ...]
    events: tuple[Event, ...] = ()
    asr: tuple[AsrLine, ...] = ()
    qa_facts: tuple[QaFact, ...] = ()

    def __post_init__(self):
        _check_frame_table(self.frames, self.duration)

    def full_segment(self) -> VideoSegment:
        return VideoSegment(0, self.duration)


@dataclass(frozen=True)
class FramesDirectory:
    duration: int
    fps: float
    frames: tuple[FrameRef, ...]

    def __post_init__(self):
        _check_frame_table(self.frames, self.duration)

    def full_segment(self) -> VideoSegment:
        return VideoSegment(0, self.duration)


FrameSource = VideoFixture | FramesDirectory


@dataclass(frozen=True)
class FrameWindow:
    refs: tuple[FrameRef, ...]
    segment: VideoSegment


# --- loading ---


def _parse_time_field(value, where: str) -> int:
    if not isinstance(value, str):
        raise FixtureError(f"{where}: expected an MM:SS string, got {value!r}")
    try:
        return parse_timestamp(value)
    except TimestampError as exc:
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


def load_fixture(path: str) -> VideoFixture:
    """Load and validate a fixture file; diagnostics name the bad field."""
    if not os.path.exists(path):
        raise FixtureError(f"fixture file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FixtureError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FixtureError(f"{path}: top level must be an object")
    if "duration" not in data:
        raise FixtureError(f"{path}: missing required key 'duration'")
    duration = _parse_time_field(data["duration"], f"{path}: duration")
    if duration <= 0:
        raise FixtureError(f"{path}: duration must be positive")
    fps = data.get("fps", 1)
    if not isinstance(fps, (int, float)) or fps <= 0:
        raise FixtureError(f"{path}: fps must be a positive number")

    frames = []
    prev_t = -1
    for i, entry in enumerate(data.get("frames", [])):
        where = f"{path}: frames[{i}]"
        if not isinstance(entry, dict):
            raise FixtureError(f"{where}: expected an object")
        t = _parse_time_field(entry.get("t"), f"{where}.t")
        if t <= prev_t:
            raise FixtureError(f"{where}: frame times must be strictly increasing")
        if t > duration:
            raise FixtureError(f"{where}: t beyond video duration")
        caption = entry.get("caption", "")
        if not isinstance(caption, str):
            raise FixtureError(f"{where}.caption: expected a string")
        frames.append(FrameRef(index=i, t=float(t), caption=caption))
        prev_t = t

    events = []
    for i, entry in enumerate(data.get("events", [])):
        where = f"{path}: events[{i}]"
        if not isinstance(entry, dict):
            raise FixtureError(f"{where}: expected an object")
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
    for i, entry in enumerate(data.get("asr", [])):
        where = f"{path}: asr[{i}]"
        if not isinstance(entry, dict):
            raise FixtureError(f"{where}: expected an object")
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
    for i, entry in enumerate(data.get("qa_facts", [])):
        where = f"{path}: qa_facts[{i}]"
        if not isinstance(entry, dict):
            raise FixtureError(f"{where}: expected an object")
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

    return VideoFixture(
        duration=duration,
        fps=float(fps),
        frames=tuple(frames),
        events=tuple(events),
        asr=tuple(asr),
        qa_facts=tuple(qa_facts),
    )


def load_frames_directory(path: str) -> FramesDirectory:
    """Directory of image files named by integer index, plus metadata.json.

    A file `<index>.<ext>` holds the frame at t = index / fps; zero padding
    is allowed, but two files may not share an index and no frame may lie
    past the duration.
    """
    if not os.path.isdir(path):
        raise FixtureError(f"frames directory not found: {path}")
    meta_path = os.path.join(path, "metadata.json")
    if not os.path.exists(meta_path):
        raise FixtureError(f"{path}: missing sidecar metadata.json")
    with open(meta_path, encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FixtureError(f"{meta_path}: invalid JSON: {exc}") from exc
    duration = _parse_time_field(meta.get("duration"), f"{meta_path}: duration")
    fps = meta.get("fps", 1)
    if not isinstance(fps, (int, float)) or fps <= 0:
        raise FixtureError(f"{meta_path}: fps must be a positive number")
    fps = float(fps)
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
    return FramesDirectory(
        duration=duration,
        fps=fps,
        frames=tuple(
            FrameRef(index=i, t=i / fps, path=os.path.join(path, name_by_index[i]))
            for i in sorted(name_by_index)
        ),
    )


def video_ref_for(path: str) -> tuple[VideoRef, FrameSource]:
    """Build a VideoRef (and its loaded frame source) from a dataset path."""
    if os.path.isdir(path):
        source = load_frames_directory(path)
        ref = VideoRef(
            source=VideoSource.FRAMES_DIRECTORY,
            path=path,
            duration=source.duration,
            fps=source.fps,
        )
        return ref, source
    fixture = load_fixture(path)
    ref = VideoRef(
        source=VideoSource.FIXTURE_PATH,
        path=path,
        duration=fixture.duration,
        fps=fixture.fps,
    )
    return ref, fixture


# --- frame access ---


_TIME = attrgetter("t")


def _bounds(frames: Sequence[FrameRef], segment: VideoSegment) -> tuple[int, int]:
    """Slice bounds of the frames with segment.start <= t <= segment.end."""
    return (
        bisect_left(frames, segment.start, key=_TIME),
        bisect_right(frames, segment.end, key=_TIME),
    )


def frames_outside(video: FrameSource, segment: VideoSegment) -> list[FrameRef]:
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


def sample_frames(video: FrameSource, segment: VideoSegment, k: int) -> list[FrameRef]:
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


def windows(video: FrameSource, segment: VideoSegment, size: int) -> list[FrameWindow]:
    """Partition the segment's frames into consecutive windows of `size`.

    Every frame in the segment lands in exactly one window, in time order:
    ceil(N / size) windows, the last possibly short.
    """
    if size < 1:
        raise ValueError("window size must be >= 1")
    frames = video.frames
    lo, hi = _bounds(frames, segment)
    out: list[FrameWindow] = []
    for i in range(lo, hi, size):
        chunk = frames[i : min(i + size, hi)]
        out.append(
            FrameWindow(
                refs=chunk,
                segment=VideoSegment(
                    int(math.floor(chunk[0].t)), int(math.ceil(chunk[-1].t))
                ),
            )
        )
    return out
