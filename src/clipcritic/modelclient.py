"""Model access for the agent, the critic, and model-backed tools.

Everything upstream speaks ModelRequest: ordered text and frame-reference
parts plus a bookkeeping tag. Backends include scripted responses for
tests, a record/replay cassette for deterministic reruns, and a live HTTP
transport. Frame references are resolved to bytes only inside the live
transport, so the rest of the system never touches pixels.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import http.client
import json
import os
import random
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Union

from .core import DataError, FatalError, ReplayDivergence, read_bytes, read_json_lines
from .fixtures import FrameRef

FRAME_BUDGET = 120  # frames per request, the context-size proxy
MAX_ATTEMPTS = 3  # live transport attempts per request
BACKOFF_BASE = 1.0  # seconds before the second attempt, doubling after


class ModelTransportError(RuntimeError):
    """Live transport failed for one request; only the item it served fails."""


class FatalTransportError(ModelTransportError, FatalError):
    """A transport fault no retry mends, so the run stops: a missing key,
    a 4xx other than 429, a JSON reply with no text, or a frame with no image."""

    exit_code, label = 1, "model transport error"


class BudgetExceededError(ValueError):
    """A request was constructed with more frames than the budget allows."""


class ReplayMismatchError(ReplayDivergence):
    """A replayed request diverged from the recorded cassette."""

    def __init__(self, tag: str, detail: str):
        self.tag = tag
        self.detail = detail
        super().__init__(f"replay mismatch at tag '{tag}': {detail}")


class ScriptExhaustedError(RuntimeError):
    """A scripted backend ran out of responses (a test setup bug)."""


@dataclass(frozen=True)
class TextPart:
    text: str


@dataclass(frozen=True)
class FramesPart:
    frames: tuple[FrameRef, ...]
    # the JSON list body of the frames' keys, when the frames are a run of
    # their video's table (`FrameWindow.fragment`); it spares fingerprint
    # encoding them one by one
    fragment: memoryview | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.frames:
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
    piece by piece, a frames part's keys from its fragment when it has one.
    """
    digest = hashlib.sha256(b"[")
    for i, part in enumerate(req.parts):
        if i:
            digest.update(b",")
        if isinstance(part, TextPart):
            digest.update(b'{"text":%s}' % json.dumps(part.text).encode("ascii"))
        elif part.fragment is not None:
            digest.update(b'{"frames":[')
            digest.update(part.fragment)
            digest.update(b"]}")
        else:
            keys = json.dumps([r.key for r in part.frames], separators=(",", ":"))
            digest.update(b'{"frames":%s}' % keys.encode("ascii"))
    digest.update(b"]")
    return digest.hexdigest()


def text_request(text: str, tag: str = "") -> ModelRequest:
    return ModelRequest(parts=(TextPart(text),), tag=tag)


def episode_key(tag: str) -> str:
    """The episode slice a tagged request belongs to (task id + strategy)."""
    return "/".join(tag.split("/")[:2])


def in_order(call, items: list, width: int) -> tuple[list, Exception | None]:
    """Apply `call` to each item, up to `width` at once, in item order.

    Returns the results before the first item, in order, whose call raised,
    and that error (None when every call returned). Items not yet started
    when it is reached are cancelled. At width 1, or for one item, no
    thread is started.
    """
    workers = min(width, len(items))
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    results = []
    try:
        pending = [
            pool.submit(call, item).result if pool else functools.partial(call, item)
            for item in items
        ]
        for result in pending:
            results.append(result())
    except Exception as exc:
        return results, exc
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    return results, None


class ModelClient:
    """Base client: enforces the frame budget then delegates."""

    width = 1  # requests complete_all keeps in flight at once

    def complete(self, req: ModelRequest) -> str:
        used = budget_frames(req.parts)
        if used > FRAME_BUDGET:
            raise BudgetExceededError(
                f"request uses {used} frames, budget is {FRAME_BUDGET}"
            )
        return self._complete(req)

    def complete_all(self, requests: list[ModelRequest]) -> list[str]:
        """Complete independent requests, up to `width` at once.

        Responses come back in request order. The first request, in order,
        that fails raises its error; requests still queued are cancelled.
        """
        responses, error = in_order(self.complete, requests, self.width)
        if error is not None:
            raise error
        return responses

    def _complete(self, req: ModelRequest) -> str:
        raise NotImplementedError


class ScriptedModel(ModelClient):
    """Responses keyed by tag prefix, consumed in order per key.

    The empty-string key is a catch-all queue. The longest matching prefix
    wins, so per-strategy scripts coexist with a shared default.
    """

    def __init__(self, scripts: dict[str, list[str]]):
        self._scripts = {k: deque(v) for k, v in scripts.items()}
        self._lock = threading.Lock()
        self.calls: list[ModelRequest] = []

    @classmethod
    def from_queue(cls, responses: list[str]) -> "ScriptedModel":
        return cls({"": list(responses)})

    def _complete(self, req: ModelRequest) -> str:
        with self._lock:
            self.calls.append(req)
            match = None
            for key in self._scripts:
                if req.tag.startswith(key):
                    if match is None or len(key) > len(match):
                        match = key
            if match is None:
                raise ScriptExhaustedError(f"no script for tag '{req.tag}'")
            queue = self._scripts[match]
            if not queue:
                raise ScriptExhaustedError(
                    f"script for '{match}' exhausted at tag '{req.tag}'"
                )
            return queue.popleft()


class CallableModel(ModelClient):
    """Adapter for a plain function (request -> text); handy in tests."""

    def __init__(self, fn: Callable[[ModelRequest], str]):
        self._fn = fn

    def _complete(self, req: ModelRequest) -> str:
        return self._fn(req)


class CassetteMode(Enum):
    RECORD = "record"
    REPLAY = "replay"


@dataclass
class Cassette:
    """JSON-lines store of (fingerprint, tag, response) call records."""

    path: str
    mode: CassetteMode
    entries: list[dict] = field(default_factory=list)  # replayed; a recording stays empty

    @classmethod
    def open(cls, path: str, mode: CassetteMode) -> "Cassette":
        """Replay reads and checks every line in one pass; record opens the file
        for append once, so a path it cannot write fails before any model call."""
        entries = []
        if mode is CassetteMode.RECORD:
            try:
                open(path, "a", encoding="utf-8").close()
            except OSError as exc:
                raise DataError(f"{path}: cannot write cassette: {exc.strerror}") from exc
        else:
            for where, entry in read_json_lines(path, "cassette"):
                if not isinstance(entry, dict):
                    raise DataError(f"{where}: cassette entry must be an object")
                for key in ("fingerprint", "tag", "response"):
                    if not isinstance(entry.get(key), str):
                        raise DataError(f"{where}: cassette entry needs a string '{key}'")
                entries.append(entry)
        return cls(path=path, mode=mode, entries=entries)


class CassetteClient(ModelClient):
    """Record or replay model calls against a cassette.

    Replay partitions the recorded entries by episode (task id + strategy
    label from the tag) so concurrent episodes each replay their own slice
    in order. Recording keeps request order: `complete_all` fans out
    through the inner client, then appends the batch on the calling thread
    in request order, so each episode's lines read as a serial run's would
    (episodes run side by side may interleave). Replay is serial (width 1).
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

    @property
    def width(self) -> int:
        if self.cassette.mode is CassetteMode.REPLAY:
            return 1
        return self.inner.width

    def complete_all(self, requests: list[ModelRequest]) -> list[str]:
        if self.cassette.mode is not CassetteMode.RECORD:
            return super().complete_all(requests)
        responses, error = in_order(self.inner.complete, requests, self.width)
        # after a failure only the responses before it are recorded, as in
        # a serial run
        self._record(requests, responses)
        if error is not None:
            raise error
        return responses

    def _record(self, requests, responses) -> None:
        entries = [
            {"fingerprint": fingerprint(req), "tag": req.tag, "response": response}
            for req, response in zip(requests, responses)
        ]
        if not entries:
            return
        # the file only: nothing reads a recording's entries back, and a long
        # recording would hold every response in memory
        lines = "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in entries)
        with self._lock, open(self.cassette.path, "a", encoding="utf-8") as fh:
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
    """Shared concurrency cap over an inner client."""

    def __init__(self, inner: ModelClient, max_concurrent: int):
        if max_concurrent < 1:
            raise ValueError("concurrency cap must be >= 1")
        self.inner = inner
        self.width = max_concurrent
        self._semaphore = threading.BoundedSemaphore(max_concurrent)

    def _complete(self, req: ModelRequest) -> str:
        with self._semaphore:
            return self.inner.complete(req)


def _retryable(exc: Exception) -> bool:
    """Transport faults worth another attempt: network errors, replies cut
    off mid-body, 429 and 5xx."""
    if isinstance(exc, urllib.error.HTTPError):
        return exc.code == 429 or exc.code >= 500
    # URLError, timeouts and connection errors are all OSErrors;
    # IncompleteRead and other broken replies are HTTPExceptions
    return isinstance(exc, (OSError, http.client.HTTPException))


def _fatal(exc: Exception) -> bool:
    """Faults that every later request would meet too: a 4xx other than 429,
    or what the default transport raises as FatalTransportError."""
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
        with urllib.request.urlopen(request, timeout=120) as response:
            reply = json.loads(response.read().decode("utf-8"))
        try:
            return reply["text"]
        except (TypeError, KeyError) as exc:
            raise FatalTransportError(f"malformed transport reply: {reply!r}") from exc

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
