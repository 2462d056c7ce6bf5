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

from .fixtures import FrameRef

FRAME_BUDGET = 120  # frames per request, the context-size proxy


class ModelTransportError(RuntimeError):
    """Live transport failed: a fatal fault, or retryable ones on every attempt."""


class BudgetExceededError(ValueError):
    """A request was constructed with more frames than the budget allows."""


class ReplayMismatchError(RuntimeError):
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

    def __post_init__(self):
        if not self.frames:
            raise ValueError("a frames part carries at least one frame")


PromptPart = Union[TextPart, FramesPart]


@dataclass(frozen=True)
class ModelRequest:
    parts: tuple[PromptPart, ...]
    temperature: float = 0.0
    max_output: int = 1024
    tag: str = ""


def budget_frames(parts) -> int:
    """Total frame count across all frame parts."""
    total = 0
    for part in parts:
        if isinstance(part, FramesPart):
            total += len(part.frames)
    return total


def fingerprint(req: ModelRequest) -> str:
    """Stable digest of a request's content; the tag is bookkeeping only."""
    normalized = []
    for part in req.parts:
        if isinstance(part, TextPart):
            normalized.append({"text": part.text})
        else:
            normalized.append({"frames": [r.key for r in part.frames]})
    payload = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def text_request(text: str, tag: str = "") -> ModelRequest:
    return ModelRequest(parts=(TextPart(text),), tag=tag)


def episode_key(tag: str) -> str:
    """The episode slice a tagged request belongs to (task id + strategy)."""
    return "/".join(tag.split("/")[:2])


def _in_order(call, requests: list, width: int) -> tuple[list, Exception | None]:
    """Apply `call` to each request, up to `width` at once, in request order.

    Returns the responses before the first request, in order, whose call
    raised, and that error (None when every call returned). Requests not
    yet started when it is reached are cancelled.
    """
    workers = min(width, len(requests))
    pool = ThreadPoolExecutor(workers) if workers > 1 else None
    responses = []
    try:
        pending = [
            pool.submit(call, req).result if pool else functools.partial(call, req)
            for req in requests
        ]
        for result in pending:
            responses.append(result())
    except Exception as exc:
        return responses, exc
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    return responses, None


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
        responses, error = _in_order(self.complete, requests, self.width)
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
    entries: list[dict] = field(default_factory=list)

    @classmethod
    def open(cls, path: str, mode: CassetteMode) -> "Cassette":
        entries = []
        if mode is CassetteMode.REPLAY:
            if not os.path.exists(path):
                raise FileNotFoundError(f"cassette not found: {path}")
            with open(path, encoding="utf-8") as fh:
                for line_no, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise ValueError(
                            f"{path}:{line_no}: invalid cassette line: {exc}"
                        ) from exc
                    for key in ("fingerprint", "tag", "response"):
                        if key not in entry:
                            raise ValueError(
                                f"{path}:{line_no}: cassette entry missing '{key}'"
                            )
                    entries.append(entry)
        return cls(path=path, mode=mode, entries=entries)


class CassetteClient(ModelClient):
    """Record or replay model calls against a cassette.

    Replay partitions the recorded entries by episode (task id + strategy
    label from the tag) so concurrent episodes each replay their own slice
    in order. Recording keeps request order: `complete_all` fans out
    through the inner client, then appends the batch on the calling thread
    in request order, so the cassette reads as a serial run's would.
    Replay is serial (width 1).
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
        responses, error = _in_order(self.inner.complete, requests, self.width)
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
        lines = "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in entries)
        with self._lock:
            self.cassette.entries.extend(entries)
            with open(self.cassette.path, "a", encoding="utf-8") as fh:
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
    """Transport faults worth another attempt: network errors, 429 and 5xx."""
    if isinstance(exc, urllib.error.HTTPError):
        return exc.code == 429 or exc.code >= 500
    # URLError, timeouts and connection errors are all OSErrors
    return isinstance(exc, OSError)


def _equal_jitter(delay: float) -> float:
    return delay / 2 + random.uniform(0, delay / 2)


class HttpModelClient(ModelClient):
    """Minimal live transport: JSON POST with bounded retry.

    Only transport faults (`_retryable`) are retried, with exponential
    backoff passed through `jitter`; a missing key, any other 4xx or a
    malformed reply fails on the first attempt. Credentials come from an
    environment variable so keys never live in run configuration files.
    The wire format is isolated here; everything upstream sees only
    request/response text.
    """

    def __init__(
        self,
        endpoint: str,
        model_name: str,
        api_key_env: str = "MODEL_API_KEY",
        max_attempts: int = 3,
        backoff_base: float = 1.0,
        transport: Callable[[dict], str] | None = None,
        sleep: Callable[[float], None] = time.sleep,
        jitter: Callable[[float], float] = _equal_jitter,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.endpoint = endpoint
        self.model_name = model_name
        self.api_key_env = api_key_env
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
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
                        raise ModelTransportError(
                            f"frame {ref.index} has no image path to upload"
                        )
                    with open(ref.path, "rb") as fh:
                        data = base64.b64encode(fh.read()).decode("ascii")
                    content.append(
                        {
                            "type": "image",
                            "index": ref.index,
                            "timestamp": ref.label(),
                            "data": data,
                        }
                    )
        return {
            "model": self.model_name,
            "temperature": req.temperature,
            "max_output": req.max_output,
            "content": content,
        }

    def _http_post(self, payload: dict) -> str:
        api_key = os.environ.get(self.api_key_env)
        if not api_key:
            raise ModelTransportError(
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
            raise ModelTransportError(f"malformed transport reply: {reply!r}") from exc

    def _complete(self, req: ModelRequest) -> str:
        payload = self._payload(req)
        for attempt in range(self.max_attempts):
            try:
                return self._transport(payload)
            except ModelTransportError:
                raise
            except Exception as exc:
                if not _retryable(exc):
                    raise ModelTransportError(f"transport failed: {exc}") from exc
                if attempt + 1 == self.max_attempts:
                    raise ModelTransportError(
                        f"transport failed after {self.max_attempts} attempts: {exc}"
                    ) from exc
                self._sleep(self._jitter(self.backoff_base * (2**attempt)))
