"""Model access for the agent, the critic, and model-backed tools.

Everything upstream speaks ModelRequest: ordered text and frame-reference
parts plus a bookkeeping tag. Backends include an adapter for a plain
function, a record/replay cassette for deterministic reruns, and a live HTTP
transport. Frame references are resolved to bytes only inside the live
transport, so the rest of the system never touches pixels.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar, copy_context
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, Union

from .core import (
    DataError,
    FatalError,
    ReplayDivergence,
    all_instances,
    column,
    json_lines,
    read_bytes,
    scan_json_lines,
    writing,
)
from .fixtures import FrameTable

FRAME_BUDGET = 120  # frames per request, the context-size proxy
MAX_ATTEMPTS = 3  # live transport attempts per request
REQUEST_TIMEOUT_S = 120  # seconds a live attempt's connect, or one read of its reply, may wait
BACKOFF_BASE = 1.0  # seconds before the second attempt, doubling after


class ModelTransportError(RuntimeError):
    """Live transport failed for one request; only the item it served fails."""


class FatalTransportError(ModelTransportError, FatalError):
    """A transport fault no retry mends, so the run stops: a missing key,
    a 4xx other than 429, a JSON reply with no string text, or a frame with no image."""

    exit_code, label = 1, "model transport error"


class BudgetExceededError(ValueError):
    """A request was constructed with more frames than the budget allows."""


class ReplayMismatchError(ReplayDivergence):
    """A replayed request diverged from the recorded cassette."""

    def __init__(self, tag: str, detail: str):
        self.tag = tag
        self.detail = detail
        super().__init__(f"replay mismatch at tag '{tag}': {detail}")


class EpisodeStopped(RuntimeError):
    """An item or episode run side by side stopped at its next request, as
    one before it failed: a serial run would not have started it."""


# in one of `in_order`'s side-by-side items, and the requests it asks for:
# whether an item before it has failed, or the item that called it must stop
_stop: ContextVar[Callable[[], bool]] = ContextVar("stop", default=lambda: False)
# in a recording `CassetteClient`'s side-by-side episode: it, and the episode's lines
_buffer: ContextVar[tuple] = ContextVar("buffer", default=(None, None))


def _stop_if_an_earlier_episode_failed() -> None:
    if _stop.get()():
        raise EpisodeStopped("an earlier item or episode failed")


@dataclass(frozen=True)
class TextPart:
    text: str


@dataclass(frozen=True)
class FramesPart:
    frames: FrameTable  # any other sequence of FrameRefs is turned into one

    def __post_init__(self):
        frames = self.frames
        if type(frames) is not FrameTable:
            frames = FrameTable.of(frames)
            object.__setattr__(self, "frames", frames)
        if not len(frames):
            raise ValueError("a frames part carries at least one frame")


PromptPart = Union[TextPart, FramesPart]


@dataclass(frozen=True)
class ModelRequest:
    parts: tuple[PromptPart, ...]
    tag: str = ""


def budget_frames(parts) -> int:
    """Total frame count across all frame parts."""
    total = 0
    for part in parts:
        if isinstance(part, FramesPart):
            total += len(part.frames)
    return total


def fingerprint(req: ModelRequest) -> str:
    """Stable digest of a request's content; the tag is bookkeeping only.

    The sha256 of the parts as `json.dumps` writes them, sorted keys and no
    spaces: `[{"text":...},{"frames":[<key>,...]},...]`. The bytes are fed
    piece by piece, each string through `json.dumps`' own C escaper, and a
    frames part's keys as `FrameTable.key_fragment` cuts them.
    """
    digest = hashlib.sha256(b"[")
    for i, part in enumerate(req.parts):
        if i:
            digest.update(b",")
        if isinstance(part, TextPart):
            digest.update(b'{"text":%s}' % encode_basestring_ascii(part.text).encode("ascii"))
        else:
            digest.update(b'{"frames":[')
            digest.update(part.frames.key_fragment())
            digest.update(b"]}")
    digest.update(b"]")
    return digest.hexdigest()


def text_request(text: str, tag: str = "") -> ModelRequest:
    return ModelRequest(parts=(TextPart(text),), tag=tag)


def episode_key(tag: str) -> str:
    """The episode slice a tagged request belongs to (task id + strategy):
    the tag up to its second `/`, or the whole tag without one."""
    end = tag.find("/", tag.find("/") + 1)
    return tag if end < 0 else tag[:end]


def in_order(
    call, items: list, width: int, pool: ThreadPoolExecutor | None = None
) -> tuple[list, Exception | None]:
    """Apply `call` to each item, up to `width` at once, in item order.

    Returns the results before the first item, in order, whose call raised,
    and that error (None when every call returned). At width 1, or for one
    item, the items run one after another on the calling thread, and none
    after the first that raised. Side by side, the calling thread and
    `min(width, len(items)) - 1` helpers, from `pool` or from a pool of its
    own, take the items in order from one cursor, each helper in a copy of
    the caller's context. No item starts once an item before it has raised,
    and an item already under way, or whose caller's own stop is true,
    stops at its next request.
    """
    workers = min(width, len(items))
    if workers < 2:
        results = []
        for item in items:
            try:
                results.append(call(item))
            except Exception as exc:
                return results, exc
        return results, None
    if pool is None:
        with ThreadPoolExecutor(workers - 1) as pool:
            return in_order(call, items, width, pool)
    results = [None] * len(items)
    first = [len(items), None]  # the first failed position so far, and its error
    lock = threading.Lock()
    outer = _stop.get()
    positions = iter(range(len(items)))  # one cursor; next() on it is atomic

    def take() -> None:
        for position in positions:
            if position > first[0]:  # an item before it failed
                return
            token = _stop.set(lambda position=position: position > first[0] or outer())
            try:
                results[position] = call(items[position])
            except Exception as exc:
                with lock:
                    if position < first[0]:
                        first[:] = position, exc
                return
            finally:
                _stop.reset(token)

    helpers = [pool.submit(copy_context().run, take) for _ in range(workers - 1)]
    try:
        take()
    except BaseException:  # an interrupt: the helpers take no more items
        first[0] = -1
        raise
    finally:
        for helper in helpers:  # one still queued when the items are done is not needed
            if not helper.cancel():
                helper.result()
    end, error = first
    return results[:end], error


class ModelClient:
    """Base client: enforces the frame budget then delegates."""

    width = 1  # above 1, `episodes` runs a task's episodes side by side

    def complete(self, req: ModelRequest) -> str:
        _stop_if_an_earlier_episode_failed()
        used = budget_frames(req.parts)
        if used > FRAME_BUDGET:
            raise BudgetExceededError(
                f"request uses {used} frames, budget is {FRAME_BUDGET}"
            )
        return self._complete(req)

    def complete_all(self, requests: list[ModelRequest]) -> list[str]:
        """Complete independent requests; responses come back in request
        order. The first request, in order, that fails raises its error;
        requests not yet sent are not sent."""
        _stop_if_an_earlier_episode_failed()
        responses, error = self._complete_each(requests)
        if error is not None:
            raise error
        return responses

    def _complete_each(self, requests: list[ModelRequest]) -> tuple[list, Exception | None]:
        """`complete_all`'s responses up to the first failed request, and its error."""
        return in_order(self.complete, requests, 1)

    def episodes(self, run, items: list) -> list:
        """`run(item)` for each of one task's independent episodes, results
        in item order, through `in_order`: all side by side, sharing this
        client's cap, when its width is above 1, and else one after another
        on the calling thread. The first episode, in order, that fails
        raises its error."""
        results, error = in_order(run, items, len(items) if self.width > 1 else 1)
        if error is not None:
            raise error
        return results

    def _complete(self, req: ModelRequest) -> str:
        raise NotImplementedError


class CallableModel(ModelClient):
    """Adapter for a plain function (request -> text); handy in tests."""

    def __init__(self, fn: Callable[[ModelRequest], str]):
        self._fn = fn

    def _complete(self, req: ModelRequest) -> str:
        return self._fn(req)


class CassetteMode(Enum):
    RECORD = "record"
    REPLAY = "replay"


_ENTRY_FIELDS = ("fingerprint", "tag", "response")


def _well_formed(entries: list) -> bool:
    """Whether every entry is an object with the three string fields."""
    return all_instances(dict, entries) and all(
        all_instances(str, column(entries, key)) for key in _ENTRY_FIELDS
    )


@dataclass
class Cassette:
    """JSON-lines store of (fingerprint, tag, response) call records."""

    path: str
    mode: CassetteMode
    entries: list[dict] = field(default_factory=list)  # replayed; a recording stays empty

    @classmethod
    def open(cls, path: str, mode: CassetteMode) -> "Cassette":
        """Replay reads and checks every line; record opens the file for
        append once, so a path it cannot write, or a cassette that already
        holds lines, fails before any model call.

        Replay decodes the lines with `scan_json_lines` and checks the
        entries in column passes. A file either pass finds irregular is
        decoded again line by line, and a fault is a DataError naming its
        line."""
        if mode is CassetteMode.RECORD:
            with writing(path, "cassette"), open(path, "a", encoding="utf-8") as fh:
                if fh.tell():  # replay would serve the lines already there first
                    raise DataError(f"{path}: cassette is not empty; record into a new file")
            return cls(path=path, mode=mode)
        data = read_bytes(path, "cassette")
        entries = scan_json_lines(data)
        if entries is None or not _well_formed(entries):
            entries = []
            for where, entry in json_lines(data, path):
                if not isinstance(entry, dict):
                    raise DataError(f"{where}: cassette entry must be an object")
                for key in _ENTRY_FIELDS:
                    if not isinstance(entry.get(key), str):
                        raise DataError(f"{where}: cassette entry needs a string '{key}'")
                entries.append(entry)
        return cls(path=path, mode=mode, entries=entries)


class CassetteClient(ModelClient):
    """Record or replay model calls against a cassette.

    Replay partitions the recorded entries by episode (task id + strategy
    label from the tag) so concurrent episodes each replay their own slice
    in order. Replay is serial (width 1).

    Recording writes one task's lines in the order a serial run writes
    them. A `complete_all` batch goes out through the inner client, then is
    recorded on the calling thread in request order. `episodes` runs a
    task's strategies side by side, each recording into a buffer its
    context holds; after the join the buffers are appended in item order,
    up to and including the first episode that failed. Only the lines of
    tasks run side by side may interleave.
    """

    def __init__(self, cassette: Cassette, inner: ModelClient | None = None):
        self.cassette = cassette
        self.inner = inner
        self._lock = threading.Lock()
        if cassette.mode is CassetteMode.RECORD and inner is None:
            raise ValueError("record mode needs an inner client")
        self._slices: dict[str, deque] = {}
        if cassette.mode is CassetteMode.REPLAY:
            for entry in cassette.entries:
                self._slices.setdefault(episode_key(entry["tag"]), deque()).append(
                    entry
                )

    def unconsumed(self) -> tuple[str, int] | None:
        """The first episode, in cassette order, whose recorded calls no
        request replayed, and how many are left; None when every one was."""
        return next(((key, len(queue)) for key, queue in self._slices.items() if queue), None)

    @property
    def width(self) -> int:
        if self.cassette.mode is CassetteMode.REPLAY:
            return 1
        return self.inner.width

    def _complete_each(self, requests: list[ModelRequest]) -> tuple[list, Exception | None]:
        if self.cassette.mode is not CassetteMode.RECORD:
            return super()._complete_each(requests)
        responses, error = self.inner._complete_each(requests)
        # after a failure, only the responses before it, as a serial run
        self._record(requests, responses)
        return responses, error

    def episodes(self, run, items: list) -> list:
        if self.width == 1:  # replay, or a narrow recording: serial
            return super().episodes(run, items)
        buffers = [[] for _ in items]

        def buffered(job):
            token = _buffer.set((self, job[0]))
            try:
                return run(job[1])
            finally:  # one item runs in the caller's own context
                _buffer.reset(token)

        results, error = in_order(buffered, list(zip(buffers, items)), len(items))
        # as in complete_all: what a serial run records before it stops
        self._append("".join(chain.from_iterable(buffers[: len(results) + 1])))
        if error is not None:
            raise error
        return results

    def _record(self, requests, responses) -> None:
        entries = [
            {"fingerprint": fingerprint(req), "tag": req.tag, "response": response}
            for req, response in zip(requests, responses)
        ]
        self._append("".join(json.dumps(entry, sort_keys=True) + "\n" for entry in entries))

    def _append(self, lines: str) -> None:
        """Lines go to the running episode's buffer, or else to the file
        alone: nothing reads a recording's entries back, and a long
        recording would hold every response in memory."""
        owner, buffer = _buffer.get()
        if owner is self:
            buffer.append(lines)
        elif lines:
            path = self.cassette.path
            with self._lock, writing(path, "cassette"), open(path, "a", encoding="utf-8") as fh:
                fh.write(lines)

    def _complete(self, req: ModelRequest) -> str:
        if self.cassette.mode is CassetteMode.RECORD:
            response = self.inner.complete(req)
            self._record([req], [response])
            return response
        key = episode_key(req.tag)
        with self._lock:
            queue = self._slices.get(key)
            if not queue:
                raise ReplayMismatchError(
                    req.tag, f"no recorded calls remain for episode '{key}'"
                )
            entry = queue.popleft()
        want = fingerprint(req)
        if entry["fingerprint"] != want:
            raise ReplayMismatchError(
                req.tag,
                f"request fingerprint {want[:12]} does not match recorded "
                f"{entry['fingerprint'][:12]} (recorded tag '{entry['tag']}')",
            )
        return entry["response"]


class ConcurrencyLimitedClient(ModelClient):
    """Shared concurrency cap over an inner client: at most `max_concurrent`
    inner requests in flight, each run on the thread that asks for it.

    A `complete_all` batch runs through `in_order` at the cap, with the
    client's one pool for its helpers. Under its slot, the inner client's
    `complete` checks the stop, which is true once an earlier request of
    the batch has failed or the caller must stop, so a batch stops within
    the requests already in flight. A helper runs only inner requests, so the pool cannot
    deadlock; its threads end once the client is dropped."""

    def __init__(self, inner: ModelClient, max_concurrent: int):
        if max_concurrent < 1:
            raise ValueError("concurrency cap must be >= 1")
        self.inner = inner
        self.width = max_concurrent
        self._slots = threading.BoundedSemaphore(max_concurrent)
        self._pool = ThreadPoolExecutor(max_concurrent - 1) if max_concurrent > 1 else None

    def _complete(self, req: ModelRequest) -> str:
        # `complete` has checked the request here, and calling it again would
        # make one request look like two to a wrapper of it; the stop is checked
        # again, as it may have turned true while the request waited for a slot
        with self._slots:
            _stop_if_an_earlier_episode_failed()
            return self.inner._complete(req)

    def _complete_each(self, requests: list[ModelRequest]) -> tuple[list, Exception | None]:
        return in_order(self._capped, requests, self.width, self._pool)

    def _capped(self, req: ModelRequest) -> str:
        with self._slots:
            return self.inner.complete(req)


def _retryable(exc: Exception) -> bool:
    """Transport faults worth another attempt: network errors, replies cut
    off mid-body, 429 and 5xx."""
    # the HTTP stack (and the ssl and email modules it brings) loads only
    # in these fault checks and in HttpModelClient: most runs never call out
    import http.client
    import urllib.error

    if isinstance(exc, urllib.error.HTTPError):
        return exc.code == 429 or exc.code >= 500
    # URLError, timeouts and connection errors are all OSErrors;
    # IncompleteRead and other broken replies are HTTPExceptions
    return isinstance(exc, (OSError, http.client.HTTPException))


def _fatal(exc: Exception) -> bool:
    """Faults that every later request would meet too: a 4xx other than 429,
    or what the default transport raises as FatalTransportError."""
    import urllib.error

    if isinstance(exc, urllib.error.HTTPError):
        return 400 <= exc.code < 500 and exc.code != 429
    return isinstance(exc, FatalTransportError)


def _equal_jitter(delay: float) -> float:
    return delay / 2 + random.uniform(0, delay / 2)


class HttpModelClient(ModelClient):
    """Minimal live transport: JSON POST with bounded retry.

    Only transport faults (`_retryable`) are retried, up to MAX_ATTEMPTS
    times with exponential backoff passed through `jitter`. A fault no retry
    mends (`_fatal`) raises FatalTransportError at once and stops the run;
    any other fault, or retries that run out, raises ModelTransportError and
    fails only its item. Both errors name the request's tag.
    Credentials come from an environment variable so keys never live in run
    configuration files.
    The wire format is isolated here; everything upstream sees only
    request/response text.
    """

    def __init__(
        self,
        endpoint: str,
        model_name: str,
        api_key_env: str = "MODEL_API_KEY",
        transport: Callable[[dict], str] | None = None,
        sleep: Callable[[float], None] = time.sleep,
        jitter: Callable[[float], float] = _equal_jitter,
    ):
        self.endpoint = endpoint
        self.model_name = model_name
        self.api_key_env = api_key_env
        self._transport = transport or self._http_post
        self._sleep = sleep
        self._jitter = jitter

    def _payload(self, req: ModelRequest) -> dict:
        import base64

        content = []
        for part in req.parts:
            if isinstance(part, TextPart):
                content.append({"type": "text", "text": part.text})
            else:
                for ref in part.frames:
                    if not ref.path:
                        raise FatalTransportError(
                            f"request '{req.tag}': frame {ref.index} has no "
                            "image path to upload"
                        )
                    data = base64.b64encode(read_bytes(ref.path, "frame image"))
                    content.append(
                        {
                            "type": "image",
                            "index": ref.index,
                            "timestamp": ref.label(),
                            "data": data.decode("ascii"),
                        }
                    )
        return {
            "model": self.model_name,
            "temperature": 0.0,
            "max_output": 1024,
            "content": content,
        }

    def _http_post(self, payload: dict) -> str:
        import urllib.request

        api_key = os.environ.get(self.api_key_env)
        if not api_key:
            raise FatalTransportError(
                f"environment variable {self.api_key_env} is not set"
            )
        body = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.endpoint,
            data=body,
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {api_key}",
            },
        )
        with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT_S) as response:
            reply = json.loads(response.read().decode("utf-8"))
        text = reply.get("text") if isinstance(reply, dict) else None
        if not isinstance(text, str):
            raise FatalTransportError(f"malformed transport reply: {reply!r}")
        return text

    def _complete(self, req: ModelRequest) -> str:
        payload = self._payload(req)
        for attempt in range(MAX_ATTEMPTS):
            try:
                return self._transport(payload)
            except Exception as exc:
                if _fatal(exc):
                    raise FatalTransportError(f"request '{req.tag}': {exc}") from exc
                if not _retryable(exc):
                    raise ModelTransportError(f"request '{req.tag}': {exc}") from exc
                if attempt + 1 == MAX_ATTEMPTS:
                    raise ModelTransportError(
                        f"request '{req.tag}' failed after {MAX_ATTEMPTS} "
                        f"attempts: {exc}"
                    ) from exc
                self._sleep(self._jitter(BACKOFF_BASE * (2**attempt)))
