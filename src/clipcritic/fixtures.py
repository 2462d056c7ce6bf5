"""Videos as frame tables, their loaders, and frame access for tools.

Every video is a `VideoFixture`: its duration, fps, source kind, and a
`FrameTable` whose times strictly increase within the video. The table
holds the frames as columns and builds a `FrameRef` only where a frame is
read, so a long video costs a few arrays, not an object per frame. A
fixture file is a JSON description of a video: captioned frames, labeled
events, an optional transcript, and question-answering facts, so oracle
tools answer from it deterministically and the whole pipeline runs
without pixels or models. A frames directory (image files plus a sidecar metadata.json)
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
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import accumulate, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import add, le, lt
from typing import NamedTuple

from .core import (
    DataError,
    TimestampError,
    VideoSegment,
    VideoSource,
    all_instances,
    column,
    format_timestamp,
    parse_timestamp,
    read_json,
)


ASR_CHUNK_CHARS = 4000  # transcript characters per asr_understanding chunk


class FixtureError(DataError):
    """A fixture file that violates the schema, with a field-level message."""


@dataclass(frozen=True, slots=True)
class FrameRef:
    """One addressable frame: ordinal within the video, time, and payload."""

    index: int
    t: float
    caption: str | None = None
    path: str | None = None

    @property
    def key(self) -> str:
        """The frame's id in request fingerprints: its path, or `index@t`
        without one."""
        return self.path or f"{self.index}@{self.t:g}"

    def label(self) -> str:
        return format_timestamp(int(round(self.t)))


@dataclass(frozen=True)
class Event:
    segment: VideoSegment
    label: str
    justification: str


@dataclass(frozen=True, slots=True)
class AsrLine:
    t: int
    text: str


@dataclass(frozen=True)
class QaFact:
    evidence: VideoSegment
    keywords: tuple[str, ...]
    answer: str


@dataclass(slots=True, eq=False)
class FrameColumns:
    """One video's frames as columns: row i holds frame i of the table. Every
    table of the columns cuts its fingerprint keys from their key table."""

    indices: Sequence[int]  # a range for a fixture file, a list for a frames directory
    times: array  # array('d')
    captions: list[str | None] | None = None  # None where no frame has one
    paths: list[str | None] | None = None
    _keys: tuple[memoryview, array] | None = field(default=None, init=False, repr=False)

    def key_table(self) -> tuple[memoryview, array]:
        """Every row's `FrameRef.key` as `json.dumps` writes it, joined by
        commas, and where each row's entry starts, so the JSON list body of
        rows i:j is `table[starts[i]:starts[j] - 1]`. Built on first use,
        straight from the columns; threads racing to build it build equal
        tables."""
        keys = self._keys
        if keys is None:
            if self.paths is None:  # every key is `index@t`, which JSON writes unescaped
                encoded = list(map('"{}@{:g}"'.format, self.indices, self.times))
            else:
                encoded = [
                    encode_basestring_ascii(path or f"{index}@{t:g}")
                    for index, t, path in zip(self.indices, self.times, self.paths)
                ]
            starts = array("q", accumulate((len(e) + 1 for e in encoded), initial=0))
            keys = self._keys = (memoryview(",".join(encoded).encode("ascii")), starts)
        return keys


class FrameTable(Sequence):
    """A read-only sequence of frames, read from one video's columns.

    A table reads the `rows` of its columns, in order: a range (the whole
    video, or a run of it such as a window) or a list (frames picked from
    it). Selecting rows, and so a slice, costs one table and shares the
    columns, and so their key table. A `FrameRef` is built only where a
    frame is read: indexing builds one, and iterating builds the table's
    refs in one pass over each column.
    """

    __slots__ = ("columns", "rows")

    def __init__(self, indices: Sequence[int], times: array, captions=None, paths=None):
        self.columns = FrameColumns(indices, times, captions, paths)
        self.rows: range | list[int] = range(len(times))

    @classmethod
    def of(cls, refs) -> FrameTable:
        """The table of the given frames."""
        refs = tuple(refs)
        captions = [ref.caption for ref in refs]
        paths = [ref.path for ref in refs]
        return cls(
            [ref.index for ref in refs],
            array("d", [ref.t for ref in refs]),
            None if captions.count(None) == len(refs) else captions,
            None if paths.count(None) == len(refs) else paths,
        )

    def select(self, rows: range | list[int]) -> FrameTable:
        """The table of the given rows of the same columns."""
        table = object.__new__(FrameTable)
        table.columns, table.rows = self.columns, rows
        return table

    def _values(self) -> list:
        """Each column's values at the table's rows (None for a missing column)."""
        rows, cols = self.rows, self.columns
        columns = (cols.indices, cols.times, cols.captions, cols.paths)
        if isinstance(rows, range) and rows.step == 1:
            run = slice(rows.start, rows.stop)
            return [None if c is None else c[run] for c in columns]
        return [None if c is None else list(map(c.__getitem__, rows)) for c in columns]

    def key_fragment(self) -> bytes | memoryview:
        """The JSON list body of the table's frame keys, cut from its columns'
        key table: one slice for a run of rows, the rows' entries joined for
        any other."""
        table, starts = self.columns.key_table()
        rows = self.rows
        if isinstance(rows, range) and rows.step == 1 and rows:
            return table[starts[rows.start] : starts[rows.stop] - 1]
        return b",".join([table[starts[row] : starts[row + 1] - 1] for row in rows])

    def row_of(self, index: int) -> int | None:
        """The row, in the table's columns, of its frame with the given
        index, or None when it has none. The table's frame indices must
        increase, as those of a video and of any run of its rows do."""
        rows, indices = self.rows, self.columns.indices
        i = bisect_left(rows, index, key=indices.__getitem__)
        if i < len(rows) and indices[rows[i]] == index:
            return rows[i]
        return None

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.select(self.rows[i])
        row = self.rows[i]
        return next(iter(self.select(range(row, row + 1))))

    def __iter__(self):
        values = (repeat(None) if v is None else v for v in self._values())
        return iter(_rows(FrameRef, len(self.rows), *values))

    def __eq__(self, other):
        if isinstance(other, (FrameTable, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"FrameTable({list(self)!r})"


def _increasing(values: Sequence) -> bool:
    """Whether the values strictly increase; a range does when its step is
    positive."""
    if isinstance(values, range):
        return values.step > 0
    return all(map(lt, values, islice(values, 1, None)))


@dataclass(frozen=True)
class VideoFixture:
    """A video's frame table, and the annotations oracle tools answer from
    (none for a frames directory)."""

    # a task carries its video, so the tables stay out of the task's repr
    duration: int
    fps: float
    # a sequence of FrameRefs given here is turned into a table once
    frames: FrameTable = field(repr=False)
    events: tuple[Event, ...] = field(default=(), repr=False)
    asr: tuple[AsrLine, ...] = field(default=(), repr=False)
    qa_facts: tuple[QaFact, ...] = field(default=(), repr=False)
    source: VideoSource = VideoSource.FIXTURE_PATH

    def __post_init__(self):
        if not self.duration > 0:
            raise FixtureError("duration must be positive")
        if not self.fps > 0:
            raise FixtureError("fps must be positive")
        frames = self.frames
        if not isinstance(frames, FrameTable) or frames.rows != range(len(frames.columns.times)):
            frames = FrameTable.of(frames)
            object.__setattr__(self, "frames", frames)
        # Frame access bisects on `t`, and retrieval on `index`, so both must
        # strictly increase; and the frames outside a segment are two slices
        # of the table, so every frame must lie within the video. The columns
        # are checked in passes (a NaN time fails them); the loop runs only to
        # name the first bad frame.
        indices, times = frames.columns.indices, frames.columns.times
        if (
            _increasing(times)
            and _increasing(indices)
            and (not times or 0 <= times[0] and times[-1] <= self.duration)
        ):
            return
        prev_t = prev_index = -math.inf
        for i, (index, t) in enumerate(zip(indices, times)):
            if t <= prev_t:
                raise FixtureError(f"frames[{i}]: frame times must be strictly increasing")
            if index <= prev_index:
                raise FixtureError(f"frames[{i}]: frame indices must be strictly increasing")
            if not 0 <= t <= self.duration:
                raise FixtureError(f"frames[{i}]: t {t:g} outside the video [0, {self.duration}]")
            prev_t, prev_index = t, index

    @cached_property
    def asr_chunks(self) -> tuple[str, ...]:
        """The transcript as `[MM:SS] text` lines, cut into chunks of whole
        lines: a chunk takes lines while it stays within ASR_CHUNK_CHARS
        (each line counting one more for its newline), and a line longer
        than that is a chunk of its own. Built on first use."""
        chunks: list[str] = []
        current: list[str] = []
        size = 0
        for line in self.asr:
            text = f"[{format_timestamp(line.t)}] {line.text}"
            if current and size + len(text) + 1 > ASR_CHUNK_CHARS:
                chunks.append("\n".join(current))
                current = []
                size = 0
            current.append(text)
            size += len(text) + 1
        if current:
            chunks.append("\n".join(current))
        return tuple(chunks)


class FrameWindow(NamedTuple):
    """A run of consecutive frames, and the whole seconds it spans."""

    refs: FrameTable  # a run of the video's rows, sharing its columns
    start: int  # the first frame's time, rounded down
    end: int  # the last frame's time, rounded up


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


# Column passes (`core.all_instances`, `core.column`): the `where` of a
# message is built only by the per-entry checks that a failed pass falls back
# to, so each error names the first bad entry with the same text as before.


_CANONICAL_TIMES = re.compile(r"(?:[0-9]+:[0-5][0-9]\n)*[0-9]+:[0-5][0-9]")
_SECONDS = {f"{s:02d}": s for s in range(60)}  # every seconds field the regex takes


def _canonical_times(values: list) -> list[int] | None:
    """The seconds of each value when all are ASCII `[0-9]+:[0-5][0-9]`
    strings, else None. The values are matched as one newline-joined string,
    so a value holding a newline of its own fails on the newline count."""
    if not values:
        return []
    if not all_instances(str, values):
        return None
    joined = "\n".join(values)
    if joined.count("\n") != len(values) - 1 or not _CANONICAL_TIMES.fullmatch(joined):
        return None
    fields = joined.replace("\n", ":").split(":")
    minutes = fields[0::2]
    try:  # the times of one video share few minutes, so each is converted once
        minute_seconds = {m: int(m) * 60 for m in set(minutes)}
    except ValueError:  # more digits than int() converts
        return None
    return list(
        map(add, map(minute_seconds.__getitem__, minutes), map(_SECONDS.__getitem__, fields[1::2]))
    )


_SLOTS = {
    cls: tuple(cls.__dict__[f.name].__set__ for f in fields(cls)) for cls in (FrameRef, AsrLine)
}


def _rows(cls: type, n: int, *columns) -> list:
    """n objects of the frozen slotted dataclass `cls`, one per row of the
    columns of its field values, built slot by slot: each slot is set through
    its descriptor in one map loop, with no `__init__` call per object."""
    rows = list(map(object.__new__, repeat(cls, n)))
    for set_slot, values in zip(_SLOTS[cls], columns, strict=True):
        deque(map(set_slot, rows, values), maxlen=0)
    return rows


def _frames(data: dict, path: str) -> FrameTable:
    entries = _object_list(data, "frames", path)
    times = captions = None
    if all_instances(dict, entries):
        times, captions = _canonical_times(column(entries, "t")), column(entries, "caption", "")
    if times is None or not all_instances(str, captions):
        times, captions = [], []
        for where, entry in _objects(data, "frames", path):
            times.append(_parse_time_field(entry.get("t"), f"{where}.t"))
            caption = entry.get("caption", "")
            if not isinstance(caption, str):
                raise FixtureError(f"{where}.caption: expected a string")
            captions.append(caption)
    if max(times, default=0) > sys.float_info.max:  # past float range, so past the video
        times = [t if t <= sys.float_info.max else math.inf for t in times]
    return FrameTable(range(len(times)), array("d", times), captions)


def _transcript(data: dict, path: str, duration: int) -> tuple[AsrLine, ...]:
    entries = _object_list(data, "asr", path)
    if not entries:  # most videos have no transcript
        return ()
    times = texts = None
    if all_instances(dict, entries):
        times, texts = _canonical_times(column(entries, "t")), column(entries, "text")
    if (
        times is None
        or not all_instances(str, texts)
        or not all(map(le, times, islice(times, 1, None)))
        or times[-1] > duration  # the last time is the latest
    ):
        times, texts = [], []
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
            times.append(t)
            texts.append(text)
            prev_t = t
    return tuple(_rows(AsrLine, len(times), times, texts))


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

    asr = _transcript(data, path, duration)

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
            asr=asr,
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
        frames=FrameTable(
            indices,
            array("d", [i / fps for i in indices]),
            paths=[os.path.join(path, name_by_index[i]) for i in indices],
        ),
        source=VideoSource.FRAMES_DIRECTORY,
    )


def video_ref_for(path: str) -> VideoFixture:
    """The video a dataset path names: a frames directory or a fixture file."""
    return load_frames_directory(path) if os.path.isdir(path) else load_fixture(path)


# --- frame access ---


def _bounds(times: array, segment: VideoSegment) -> tuple[int, int]:
    """Slice bounds of the frames with segment.start <= t <= segment.end."""
    return bisect_left(times, segment.start), bisect_right(times, segment.end)


def frames_outside(video: VideoFixture, segment: VideoSegment, k: int) -> FrameTable:
    """Up to k of the frames before and after the segment, in time order:
    all of them when they are k or fewer, else the ones at k evenly spaced
    positions among them (rounded, first and last included)."""
    frames = video.frames
    lo, hi = _bounds(frames.columns.times, segment)
    inside = hi - lo
    outside = len(frames) - inside
    positions = range(outside)
    if outside > k:
        positions = sorted({round(i * (outside - 1) / (k - 1)) for i in range(k)})
    return frames.select([p if p < lo else p + inside for p in positions])


def _nearest(times: array, lo: int, hi: int, target: float) -> int:
    """The row in lo:hi minimising (|t - target|, t): ties break toward the
    earlier frame."""
    i = bisect_left(times, target, lo, hi)
    if i < hi and (i == lo or abs(times[i] - target) < abs(times[i - 1] - target)):
        return i
    # row i - 1 is nearest; rows further back tie with it only through
    # rounding, and then the earliest of them wins
    i -= 1
    gap = abs(times[i] - target)
    while i > lo and abs(times[i - 1] - target) == gap:
        i -= 1
    return i


def sample_frames(video: VideoFixture, segment: VideoSegment, k: int) -> FrameTable:
    """Up to k frames spread uniformly over a segment, in time order.

    Spaces k target times evenly across the segment (endpoints included
    for k >= 2) and snaps each to the nearest frame in it, deduplicating;
    a degenerate segment yields the single nearest frame, and a segment
    holding no frame yields the nearest frame of the whole video.
    """
    if k < 1:
        raise ValueError("uniform sampling needs k >= 1")
    frames = video.frames
    times = frames.columns.times
    lo, hi = _bounds(times, segment)
    if lo == hi:
        # segment between frames, or degenerate beyond the last frame time:
        # fall back to the nearest frame in the whole video
        rows = [_nearest(times, 0, len(times), segment.start)] if times else []
    elif segment.duration == 0 or k == 1:
        rows = [_nearest(times, lo, hi, segment.start)]
    else:
        rows = []
        span = segment.end - segment.start
        for i in range(k):
            row = _nearest(times, lo, hi, segment.start + span * i / (k - 1))
            if not rows or row > rows[-1]:
                rows.append(row)
    return frames.select(rows)


def windows(video: VideoFixture, segment: VideoSegment, size: int) -> list[FrameWindow]:
    """Partition the segment's frames into consecutive windows of `size`.

    Every frame in the segment lands in exactly one window, in time order:
    ceil(N / size) windows, the last possibly short.
    """
    if size < 1:
        raise ValueError("window size must be >= 1")
    frames = video.frames
    times = frames.columns.times
    lo, hi = _bounds(times, segment)
    select = frames.select
    new = tuple.__new__  # a named tuple without the Python-level NamedTuple.__new__
    out: list[FrameWindow] = []
    for i in range(lo, hi, size):
        j = min(i + size, hi)
        start, end = math.floor(times[i]), math.ceil(times[j - 1])
        out.append(new(FrameWindow, (select(range(i, j)), start, end)))
    return out
