"""A model client that replays scripted responses, for tests and the
oracle suite. No run path uses it, so it lives beside the tests."""

import threading
from collections import deque

from clipcritic.modelclient import ModelClient, ModelRequest


class ScriptExhaustedError(RuntimeError):
    """A scripted backend ran out of responses (a test setup bug)."""


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
