"""Foundational domain types shared by every module, and the input-file reader.

Timestamps are whole seconds rendered as MM:SS strings (minutes unbounded,
so a two hour mark renders "120:00"). Hour-form strings like "01:25:00" are
accepted on input only, and only the ASCII digits 0-9 are digits. Final
answers are one of three variants: a 1-based multiple-choice index, a list
of time ranges, or the raw unparsed text.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Union

if TYPE_CHECKING:  # fixtures imports this module
    from .fixtures import VideoFixture

Timestamp = int  # non-negative whole seconds


class FatalError(Exception):
    """A fault that stops the whole run; any other exception fails only the
    item it met. Each subclass names the exit code and the stderr label the
    command line reports it with."""

    exit_code: int
    label: str


class UsageError(FatalError):
    exit_code, label = 1, "usage error"


class DataError(FatalError):
    exit_code, label = 2, "data error"


class ReplayDivergence(FatalError):
    exit_code, label = 3, "replay divergence"


def input_error(exc: Exception, path: str, what: str, error=DataError) -> DataError:
    """The error for an input path that `open` or `listdir` failed on."""
    if isinstance(exc, (FileNotFoundError, ValueError)):  # ValueError: a NUL in the path
        return error(f"{what} not found: {path}")
    return error(f"{path}: cannot read {what}: {exc.strerror}")


def read_bytes(path: str, what: str, error=DataError) -> bytes:
    """The bytes of an input file; any fault is an `error` naming the file."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise input_error(exc, path, what, error) from exc


def _decode_json(data: bytes, where: str, error=DataError):
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
        raise error(f"{where}: invalid JSON: {exc}") from exc


def read_json(path: str, what: str, error=DataError):
    """The JSON value of an input file, read as `read_bytes` reads it."""
    return _decode_json(read_bytes(path, what, error), path, error)


def read_json_lines(path: str, what: str):
    """(`path:n`, value) for each nonblank line n of a JSON-lines input file."""
    for n, line in enumerate(read_bytes(path, what).split(b"\n"), start=1):
        if line.strip():
            where = f"{path}:{n}"
            yield where, _decode_json(line, where)


class TimestampError(ValueError):
    """Raised for text that does not parse as a timestamp."""


# only ASCII digits: `\d` also takes Arabic-Indic, fullwidth and other digits
_TWO_FIELD = re.compile(r"^([0-9]+):([0-9]{2})$")
_THREE_FIELD = re.compile(r"^([0-9]+):([0-9]{2}):([0-9]{2})$")


def parse_timestamp(text: str) -> Timestamp:
    """Parse "MM:SS" (canonical) or lenient "H:MM:SS" into whole seconds."""
    token = text.strip()
    m = _TWO_FIELD.match(token)
    if m:
        minutes, seconds = int(m.group(1)), int(m.group(2))
        if seconds >= 60:
            raise TimestampError(f"seconds field out of range in {token!r}")
        return minutes * 60 + seconds
    m = _THREE_FIELD.match(token)
    if m:
        hours, minutes, seconds = (int(g) for g in m.groups())
        if minutes >= 60 or seconds >= 60:
            raise TimestampError(f"field out of range in {token!r}")
        return hours * 3600 + minutes * 60 + seconds
    raise TimestampError(f"malformed timestamp {token!r}")


def format_timestamp(t: Timestamp) -> str:
    """Render whole seconds as zero-padded MM:SS with unbounded minutes."""
    if t < 0:
        raise TimestampError(f"negative timestamp {t!r}")
    return f"{t // 60:02d}:{t % 60:02d}"


@dataclass(frozen=True)
class VideoSegment:
    """A span of a video in whole seconds, start <= end."""

    start: Timestamp
    end: Timestamp

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid segment ({self.start}, {self.end})")

    @property
    def duration(self) -> int:
        return self.end - self.start

    def as_strings(self) -> tuple[str, str]:
        return format_timestamp(self.start), format_timestamp(self.end)


class TaskKind(enum.Enum):
    MULTIPLE_CHOICE = "multiple_choice"
    TEMPORAL_RANGE = "temporal_range"


class VideoSource(enum.Enum):
    FIXTURE_PATH = "fixture_path"
    FRAMES_DIRECTORY = "frames_directory"


@dataclass(frozen=True)
class TaskQuery:
    """One question over one video."""

    id: str
    question: str
    kind: TaskKind
    video: VideoFixture
    options: tuple[str, ...] | None = None
    allow_asr: bool = False

    def __post_init__(self) -> None:
        if self.kind is TaskKind.MULTIPLE_CHOICE and not self.options:
            raise ValueError("multiple-choice tasks need options")
        if self.kind is TaskKind.TEMPORAL_RANGE and self.options is not None:
            raise ValueError("temporal-range tasks take no options")


@dataclass(frozen=True)
class Choice:
    """A 1-based answer index."""

    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("choice index is 1-based")


@dataclass(frozen=True)
class Ranges:
    """One or more predicted time ranges."""

    segments: tuple[VideoSegment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("ranges answer needs at least one segment")


@dataclass(frozen=True)
class Unparsed:
    """Fallback for responses with no recognizable final-answer marker."""

    text: str


FinalAnswer = Union[Choice, Ranges, Unparsed]

_CHOICE_PATTERN = re.compile(r"Final Answer:\s*\(([0-9]+)\)")
_FINAL_MARKER = re.compile(r"Final Answer:")
_RANGE_PAIR = re.compile(
    r"\[\s*[\"']?([0-9]+:[0-9]{2}(?::[0-9]{2})?)[\"']?\s*,"
    r"\s*[\"']?([0-9]+:[0-9]{2}(?::[0-9]{2})?)[\"']?\s*\]"
)


def parse_final_answer(text: str, kind: TaskKind) -> FinalAnswer:
    """Extract a final answer from model text; never raises.

    Multiple choice: the last "Final Answer: (N)" occurrence wins.
    Temporal range: every bracketed [MM:SS, MM:SS] pair after the last
    "Final Answer:" marker. Anything else comes back as Unparsed.
    """
    if kind is TaskKind.MULTIPLE_CHOICE:
        for m in reversed(list(_CHOICE_PATTERN.finditer(text))):
            index = int(m.group(1))
            if index >= 1:
                return Choice(index)
        return Unparsed(text)
    markers = list(_FINAL_MARKER.finditer(text))
    if not markers:
        return Unparsed(text)
    tail = text[markers[-1].end():]
    segments = []
    for m in _RANGE_PAIR.finditer(tail):
        try:
            start, end = parse_timestamp(m.group(1)), parse_timestamp(m.group(2))
        except TimestampError:
            continue
        if start <= end:
            segments.append(VideoSegment(start, end))
    if not segments:
        return Unparsed(text)
    return Ranges(tuple(segments))


def merge_segments(segments: Sequence[VideoSegment]) -> list[VideoSegment]:
    """Union of a segment list as sorted, disjoint, measure-positive spans."""
    spans = sorted((s.start, s.end) for s in segments if s.end > s.start)
    merged: list[VideoSegment] = []
    for start, end in spans:
        if merged and start <= merged[-1].end:
            last = merged[-1]
            if end > last.end:
                merged[-1] = VideoSegment(last.start, end)
        else:
            merged.append(VideoSegment(start, end))
    return merged


def interval_union_iou(
    predicted: Sequence[VideoSegment], truth: Sequence[VideoSegment]
) -> float:
    """Measure of intersection over measure of union of the two interval unions.

    Degenerate zero-length segments carry no measure. When both sides have
    zero measure the result is 1.0 exactly when they cover the same point
    set (in particular, both empty), else 0.0.
    """
    a = merge_segments(predicted)
    b = merge_segments(truth)
    union = sum(s.duration for s in a) + sum(s.duration for s in b)
    inter = 0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i].start, b[j].start)
        hi = min(a[i].end, b[j].end)
        if hi > lo:
            inter += hi - lo
        if a[i].end <= b[j].end:
            i += 1
        else:
            j += 1
    union -= inter
    if union == 0:
        points_a = {(s.start, s.end) for s in predicted}
        points_b = {(s.start, s.end) for s in truth}
        return 1.0 if points_a == points_b else 0.0
    return inter / union


def answers_equal(a: FinalAnswer, b: FinalAnswer) -> bool:
    """Comparable-answer equality used by the critic's conflict rule."""
    return answer_key(a) == answer_key(b)


def answer_key(answer: FinalAnswer) -> tuple:
    """Canonical hashable form of a final answer.

    Ranges compare by their union so reorderings and internal overlaps of
    the same coverage count as the same answer.
    """
    if isinstance(answer, Choice):
        return ("choice", answer.index)
    if isinstance(answer, Ranges):
        merged = merge_segments(answer.segments)
        if not merged:
            # all-degenerate prediction, keep the points
            return ("ranges", tuple(sorted({(s.start, s.end) for s in answer.segments})))
        return ("ranges", tuple((s.start, s.end) for s in merged))
    return ("unparsed", answer.text)
