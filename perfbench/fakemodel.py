"""The benchmark's own model: a CallableModel that replies by tag.

Every request is answered in O(1) by its tag layer, after a fixed sleep
that stands in for a model round-trip. The model counts calls, frames and
prompt characters per layer so the cost units come from the one place
every request passes through.
"""

from __future__ import annotations

import re
import threading
import time
from collections import Counter

from clipcritic.modelclient import CallableModel, FramesPart, TextPart

LAYERS = ("agent_turn", "tool_window", "asr_chunk", "critic")

_TOOL_LAYER = {
    "find_when": "tool_window",
    "retrieval_qa": "tool_window",
    "asr_understanding": "asr_chunk",
}


def layer_of(tag: str) -> str:
    """Tag layer: `<task>/critic`, `<task>/<label>/<tool>/...` or an agent turn."""
    parts = tag.split("/")
    if len(parts) == 2 and parts[1] == "critic":
        return "critic"
    if len(parts) >= 3 and parts[2] in _TOOL_LAYER:
        return _TOOL_LAYER[parts[2]]
    return "agent_turn"


def request_cost(req) -> tuple[int, int]:
    """(frames, prompt characters) carried by one request."""
    frames = chars = 0
    for part in req.parts:
        if isinstance(part, TextPart):
            chars += len(part.text)
        else:
            frames += len(part.frames)
    return frames, chars


class BenchModel(CallableModel):
    """Fixed-latency model that answers through a `reply(req)` function."""

    def __init__(self, reply, latency_s: float = 0.0):
        super().__init__(self._serve)
        self._reply = reply
        self.latency_s = latency_s
        self.spans = None  # a spans.Tracer while a traced run is on
        self._lock = threading.Lock()
        self.counts: Counter = Counter()

    def _serve(self, req) -> str:
        span = self.spans.open("model.wait") if self.spans else None
        try:
            if self.latency_s:
                time.sleep(self.latency_s)
            text = self._reply(req)
        finally:
            if span is not None:
                self.spans.close(span)
        frames, chars = request_cost(req)
        layer = layer_of(req.tag)
        with self._lock:
            self.counts["calls"] += 1
            self.counts["frames"] += frames
            self.counts["chars"] += chars
            self.counts[f"calls.{layer}"] += 1
            self.counts[f"frames.{layer}"] += frames
            self.counts[f"chars.{layer}"] += chars
        return text


class ScriptReplies:
    """Scripted replies keyed by tag with the trailing turn number dropped.

    `merged_scripts()` keys look like `v01/A` or `v01/self/confidence`; a
    request tagged `v01/A/2` takes the next reply of `v01/A`. `reset()`
    rewinds every script, so the same item can be evaluated again.
    """

    def __init__(self, scripts: dict[str, list[str]]):
        self._scripts = scripts
        self._cursor: Counter = Counter()

    def reset(self) -> None:
        self._cursor.clear()

    def __call__(self, req) -> str:
        head, _, last = req.tag.rpartition("/")
        key = head if last.isdigit() else req.tag
        script = self._scripts.get(key)
        if script is None:
            raise LookupError(f"no script for tag '{req.tag}'")
        i = self._cursor[key]
        if i >= len(script):
            raise LookupError(f"script for '{key}' exhausted at tag '{req.tag}'")
        self._cursor[key] = i + 1
        return script[i]


# --- replies for generated long-video items ---

_RANGE = re.compile(r'\["(\d+:\d{2})", "(\d+:\d{2})"\]')
_OPTION = re.compile(r"^\((\d+)\) (.+)$", re.M)
_WORD = re.compile(r"[a-z0-9']+")
GROUNDED = "evidence at"


def words(text: str) -> frozenset[str]:
    return frozenset(_WORD.findall(text.lower()))


def _between(text: str, start: str, end: str) -> str:
    i = text.index(start) + len(start)
    return text[i : text.index(end, i)]


def mmss(t: float) -> str:
    """Whole seconds as MM:SS with unbounded minutes, as clipcritic prints them."""
    t = int(round(t))
    return f"{t // 60:02d}:{t % 60:02d}"


class LiveReplies:
    """A perfect vision and speech model plus scripted agents and critic.

    Tool windows are answered from the captions of the frames they carry
    and ASR chunks from their transcript lines, so an answer is right only
    if the pipeline sent the right frames or text. Agent turns follow
    `itemgen.ItemSpec.policy`. The critic names every strategy whose trace
    holds a grounded final answer.
    """

    def __init__(self, specs):
        self._specs = {spec.task_id: spec for spec in specs}
        self._caption_words: dict[str, frozenset[str]] = {}

    def __call__(self, req) -> str:
        text = req.parts[0].text
        parts = req.tag.split("/")
        if len(parts) == 2:
            return self._critic(text)
        if len(parts) == 3:
            return self._specs[parts[0]].policy(parts[1], int(parts[2]), text)
        tool, step = parts[2], parts[3]
        if tool == "find_when":
            return self._find_when(text, req.parts[1].frames)
        if tool == "retrieval_qa" and step == "window":
            return self._retrieve(text, req.parts[1].frames)
        if tool == "retrieval_qa":
            return self._answer_from_frames(text, req.parts[1].frames)
        if step == "chunk":
            return self._asr_chunk(text)
        return self._asr_final(text)

    def _relevant(self, query_words, frames):
        out = []
        for ref in frames:
            seen = self._caption_words.get(ref.caption)
            if seen is None:
                seen = self._caption_words[ref.caption] = words(ref.caption)
            if query_words & seen:
                out.append(ref)
        return out

    def _find_when(self, text, frames) -> str:
        query = words(_between(text, "Query: ", "\n"))
        hits = self._relevant(query, frames)
        if not hits:
            return ""
        return f'["{mmss(hits[0].t)}", "{mmss(hits[-1].t)}"]: {hits[0].caption}'

    def _retrieve(self, text, frames) -> str:
        question = words(_between(text, "Question: ", "\n"))
        return "\n".join(str(ref.index) for ref in self._relevant(question, frames))

    def _answer_from_frames(self, text, frames) -> str:
        question = words(_between(text, "Question: ", "\n"))
        hits = self._relevant(question, frames)
        if not hits:
            return "No frame shows it. Final Answer: (1)"
        caption = hits[0].caption
        found = f"{GROUNDED} {mmss(hits[0].t)}: {caption}."
        for index, option in _OPTION.findall(text):
            if option in words(caption):
                return f"{found} Final Answer: ({index})"
        return found

    def _asr_chunk(self, text) -> str:
        question = words(_between(text, "Question: ", "\n"))
        chunk = _between(text, "Transcript excerpt:\n", "\nQuestion: ")
        return "\n".join(
            line for line in chunk.split("\n") if question & words(line)
        )

    def _asr_final(self, text) -> str:
        findings = _between(text, "transcript:\n", "\nQuestion: ")
        for index, option in _OPTION.findall(text):
            for line in findings.split("\n"):
                if option in words(line):
                    stamp = line[line.index("[") + 1 : line.index("]")]
                    return f"{GROUNDED} {stamp}: {line}. Final Answer: ({index})"
        return "Nothing relevant was said. Final Answer: (1)"

    def _critic(self, text) -> str:
        live = text[text.rindex("Input:\n") :]
        blocks = re.split(r"^Strategy ([A-Z]) \(", live, flags=re.M)
        winners = [
            label
            for label, block in zip(blocks[1::2], blocks[2::2])
            if GROUNDED in block.rpartition("Final Answer:")[0]
        ]
        critique = "Only grounded traces are trusted; the others guessed."
        return f"Critique:\n{critique}\n\nWinning Strategies:\n{', '.join(winners)}\n"


def first_range(prompt: str) -> tuple[str, str] | None:
    m = _RANGE.search(prompt)
    return (m.group(1), m.group(2)) if m else None
