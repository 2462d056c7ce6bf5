"""Foundational domain types shared by every module, the input-file reader,
its output twins, and the JSON writer of every trace and report.

Timestamps are whole seconds rendered as MM:SS strings (minutes unbounded,
so a two hour mark renders "120:00"). Hour-form strings like "01:25:00" are
accepted on input only, and only the ASCII digits 0-9 are digits. Final
answers are one of three variants: a 1-based multiple-choice index, a list
of time ranges, or the raw unparsed text.
"""

from __future__ import annotations

import contextlib
import enum
import json
import os
import re
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring_ascii
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
    # when the fault stopped a run after some items finished: how many, and
    # where their traces are (set by `evalcli.evaluate`)
    finished: str | None = None


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


@contextlib.contextmanager
def writing(path: str, what: str):
    """The output twin of `read_bytes`: an OSError raised in the block, by
    making `path`'s directory or writing it, or the ValueError of a NUL in
    `path`, is a DataError naming `path`."""
    try:
        yield
    except (OSError, ValueError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise DataError(f"{path}: cannot write {what}: {reason}") from exc


_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_CLOEXEC


def write_bytes(path: str, data: bytes, what: str) -> None:
    """Create or truncate the output file `path` and write `data` to it, on
    a raw descriptor: no buffer, and none of the fstat, isatty and lseek
    calls `open` makes. A fault is `writing`'s DataError."""
    with writing(path, what):
        fd = os.open(path, _WRITE_FLAGS, 0o666)
        try:
            written = 0
            while written < len(data):
                written += os.write(fd, data[written:])
        finally:
            os.close(fd)


_LITERALS = {None: "null", True: "true", False: "false"}
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # keyed by float.__repr__


def pretty_json(value) -> str:
    """`json.dumps(value, indent=2, sort_keys=True) + "\\n"`, the text of every
    trace and report a run writes, built without the pure-Python encoder
    `json` falls back to when `indent` is set. A value `json` cannot write,
    or a dict key that is not a `str`, raises TypeError.
    """
    out: list[str] = []
    _write_json(value, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    # the stdlib's type tests in its order: bool and IntEnum write as ints,
    # and a str, int or float subclass as its base type
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append(_LITERALS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        out.append(_NON_FINITE.get(text, text))
    elif isinstance(value, (list, tuple, dict)) and not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):  # a key that is not a str raises TypeError
            out += (sep, encode_basestring_ascii(key), ": ")
            _write_json(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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
    return json_lines(read_bytes(path, what), path)


def json_lines(data: bytes, path: str):
    """`read_json_lines` over `data`, the bytes read from `path`. A line is
    blank when `bytes.strip` empties it."""
    for n, line in enumerate(data.split(b"\n"), start=1):
        if line.strip():
            where = f"{path}:{n}"
            yield where, _decode_json(line, where)


_SCAN = json.JSONDecoder().scan_once  # the C scanner behind `json.loads`


def scan_json_lines(data: bytes) -> list | None:
    """The values `json_lines` reads from `data`, decoded in C-level passes:
    the blank lines are dropped as bytes, the rest decoded as one text and
    each line scanned once. None when a nonblank line is not one UTF-8 JSON
    value that fills it; `json_lines` then decodes it or names the line."""
    lines = list(filter(bytes.strip, data.split(b"\n")))
    if not lines:
        return []
    try:
        texts = b"\n".join(lines).decode("utf-8").split("\n")
        scanned = list(map(_SCAN, texts, repeat(0)))
    except (ValueError, RecursionError):  # not UTF-8, not JSON, or too deep
        return None
    # a line that starts with no value raises StopIteration, which ends the map
    if len(scanned) < len(texts):
        return None
    values, ends = zip(*scanned)
    return list(values) if list(ends) == list(map(len, texts)) else None


# Column passes: a list of decoded entries is checked one field at a time, in
# C-level loops; a failed pass falls back to the per-entry checks, which
# build the message naming the first bad entry.


def all_instances(check_type: type, values: list) -> bool:
    return all(map(isinstance, values, repeat(check_type)))


def column(entries: list, key: str, default=None) -> list:
    return list(map(dict.get, entries, repeat(key), repeat(default)))


def ascii_int(text: str) -> int | None:
    """The int of a run of the ASCII digits 0-9, or None for any other text
    and for a run of more digits than `int` converts
    (`sys.get_int_max_str_digits()`)."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        return None


class TimestampError(ValueError):
    """Raised for text that does not parse as a timestamp."""


# only ASCII digits: `\d` also takes Arabic-Indic, fullwidth and other digits
_TWO_FIELD = re.compile(r"^([0-9]+):([0-9]{2})$")
_THREE_FIELD = re.compile(r"^([0-9]+):([0-9]{2}):([0-9]{2})$")


def parse_timestamp(text: str) -> Timestamp:
    """Parse "MM:SS" (canonical) or lenient "H:MM:SS" into whole seconds."""
    token = text.strip()
    m = _TWO_FIELD.match(token) or _THREE_FIELD.match(token)
    if not m:
        raise TimestampError(f"malformed timestamp {token!r}")
    lead, *rest = m.groups()
    whole = ascii_int(lead)
    if whole is None:
        raise TimestampError(f"leading field has too many digits ({len(lead)}) in a timestamp")
    # the later fields are two ASCII digits each, which int() always converts
    if len(rest) == 1:
        seconds = int(rest[0])
        if seconds >= 60:
            raise TimestampError(f"seconds field out of range in {token!r}")
        return whole * 60 + seconds
    minutes, seconds = map(int, rest)
    if minutes >= 60 or seconds >= 60:
        raise TimestampError(f"field out of range in {token!r}")
    return whole * 3600 + minutes * 60 + seconds


def format_timestamp(t: Timestamp) -> str:
    """Render whole seconds as zero-padded MM:SS with unbounded minutes."""
    if t < 0:
        raise TimestampError(f"negative timestamp {t!r}")
    return "%02d:%02d" % divmod(t, 60)


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
    "Final Answer:" marker. Anything else comes back as Unparsed. An
    occurrence whose digits `int` will not convert (more than
    `sys.get_int_max_str_digits()` of them) is skipped.
    """
    if kind is TaskKind.MULTIPLE_CHOICE:
        for m in reversed(list(_CHOICE_PATTERN.finditer(text))):
            index = ascii_int(m.group(1))
            if index is not None and index >= 1:
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
