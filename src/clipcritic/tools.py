"""The six built-in tools, each with two interchangeable backends.

Model backends construct prompts and cut the video into windows of the
fixed sizes below, each within the per-request frame budget. Oracle
backends answer deterministically from fixture annotations, which lets
every pipeline layer run in tests without a model. Fallback sentences are
fixed module constants so tests and scripted policies can rely on them
byte-for-byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import (
    TaskQuery,
    VideoSegment,
    format_timestamp,
    parse_timestamp,
)
from .fixtures import (
    FrameRef,
    FrameSource,
    VideoFixture,
    frames_outside,
    sample_frames,
    windows,
)
from .modelclient import FramesPart, ModelClient, ModelRequest, TextPart
from .toolkit import ToolRegistry, api_listing, load_prompt_text

BACKENDS = ("oracle", "model")

NO_RANGES_SENTENCE = "no relevant ranges found"
NOT_VISIBLE_SENTENCE = "not visible in this segment"
NO_SPEECH_SENTENCE = "no speech available"
NO_RELEVANT_SPEECH_SENTENCE = "no relevant speech found"
FALLBACK_NOTE = "[no relevant frames retrieved; fell back to uniform sampling]"

FIND_WHEN_WINDOW = 100  # frames per find_when window request
RETRIEVAL_WINDOW = 64  # frames per retrieval_qa phase-1 window request
# The retrieval_qa answer request carries up to RETRIEVAL_CAP retrieved
# frames plus CONTEXT_FRAMES from the rest of the video; 64 + 56 = 120 is
# modelclient.FRAME_BUDGET, so the answer request always fits.
RETRIEVAL_CAP = 64
CONTEXT_FRAMES = 56
ASR_CHUNK_CHARS = 4000  # transcript characters per asr_understanding chunk

# articles, pronouns, and bare interrogatives never count as content
STOPWORDS = frozenset(
    """a an the
    i you he she it we they me him her us them
    my your his its our their mine yours hers ours theirs
    this that these those who whom
    when what where""".split()
)


def content_tokens(text: str) -> set[str]:
    return {
        tok
        for tok in re.findall(r"[a-z0-9']+", text.lower())
        if tok not in STOPWORDS
    }


def segments_intersect(a: VideoSegment, b: VideoSegment) -> bool:
    lo = max(a.start, b.start)
    hi = min(a.end, b.end)
    if lo > hi:
        return False
    if lo < hi:
        return True
    # touching endpoints only count when one side is a degenerate segment
    return a.duration == 0 or b.duration == 0


@dataclass(frozen=True)
class LocalizationFinding:
    segment: VideoSegment
    justification: str


def format_findings(findings: list[LocalizationFinding]) -> str:
    lines = []
    for f in findings:
        start, end = f.segment.as_strings()
        lines.append(f'["{start}", "{end}"]: {f.justification}')
    return "\n".join(lines)


@dataclass(frozen=True)
class TagContext:
    """The request-tag prefix of one episode's tools: `<task>/<label>`."""

    base: str = ""

    def tag(self, suffix: str) -> str:
        return f"{self.base}/{suffix}" if self.base else suffix


def _options_block(answer_options) -> str:
    if not answer_options:
        return ""
    lines = [f"({i}) {text}" for i, text in enumerate(answer_options, start=1)]
    return "Possible answers:\n" + "\n".join(lines) + "\n"


class ToolSuite:
    """Backends for one episode, bound to a task, a video, and a model."""

    def __init__(
        self,
        task: TaskQuery,
        video: FrameSource,
        backend: str = "oracle",
        model: ModelClient | None = None,
        tags: TagContext | None = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"unknown tool backend '{backend}'")
        if backend == "oracle" and not isinstance(video, VideoFixture):
            raise ValueError("oracle backends need a fixture video")
        if backend == "model" and model is None:
            raise ValueError("model backends need a model client")
        self.task = task
        self.video = video
        self.backend = backend
        self.model = model
        self.tags = tags or TagContext()

    # --- think / finish ---

    def think(self, thought):
        return thought

    def finish(self, final_answer):
        return final_answer

    # --- get_segment ---

    def get_segment(self, start, end) -> VideoSegment:
        s = parse_timestamp(start)
        e = parse_timestamp(end)
        duration = self.video.duration
        cs = min(max(s, 0), duration)
        ce = min(max(e, 0), duration)
        if cs > ce or (cs == ce and s != e):
            raise ValueError(
                f"inverted range: '{start}' to '{end}' clamps to "
                f"['{format_timestamp(cs)}', '{format_timestamp(ce)}'] "
                f"on a {format_timestamp(duration)} video"
            )
        return VideoSegment(cs, ce)

    # --- find_when ---

    def find_when(self, query, video_segment=None) -> str:
        if not isinstance(query, str) or not query.strip():
            raise ValueError("query must be a non-empty string")
        segment = video_segment or VideoSegment(0, self.video.duration)
        if self.backend == "oracle":
            return self._find_when_oracle(query, segment)
        return self._find_when_model(query, segment)

    def _find_when_oracle(self, query: str, segment: VideoSegment) -> str:
        tokens = content_tokens(query)
        findings = [
            LocalizationFinding(ev.segment, ev.justification or ev.label)
            for ev in sorted(self.video.events, key=lambda e: e.segment.start)
            if segments_intersect(ev.segment, segment)
            and tokens & content_tokens(ev.label)
        ]
        if not findings:
            return NO_RANGES_SENTENCE
        return format_findings(findings)

    def _find_when_model(self, query: str, segment: VideoSegment) -> str:
        template = load_prompt_text("find_when_window.txt")
        requests = [
            ModelRequest(
                parts=(
                    TextPart(
                        template.format(
                            query=query,
                            start=format_timestamp(window.segment.start),
                            end=format_timestamp(window.segment.end),
                        )
                    ),
                    FramesPart(window.refs),
                ),
                tag=self.tags.tag(f"find_when/window/{i}"),
            )
            for i, window in enumerate(windows(self.video, segment, FIND_WHEN_WINDOW))
        ]
        parts_out = [
            line.rstrip()
            for response in self.model.complete_all(requests)
            for line in response.split("\n")
            if line.strip()
        ]
        if not parts_out:
            return NO_RANGES_SENTENCE
        return "\n".join(parts_out)

    # --- retrieval_qa ---

    def retrieval_qa(self, question, answer_options=None, video_segment=None) -> str:
        if not isinstance(question, str) or not question.strip():
            raise ValueError("question must be a non-empty string")
        segment = video_segment or VideoSegment(0, self.video.duration)
        if self.backend == "oracle":
            return self._retrieval_oracle(question, segment)
        return self._retrieval_model(question, answer_options, segment)

    def _retrieval_oracle(self, question: str, segment: VideoSegment) -> str:
        lowered = question.lower()
        for fact in self.video.qa_facts:
            if all(k.lower() in lowered for k in fact.keywords) and segments_intersect(
                fact.evidence, segment
            ):
                return fact.answer
        return NOT_VISIBLE_SENTENCE

    def _retrieval_model(self, question, answer_options, segment: VideoSegment) -> str:
        phase1 = load_prompt_text("retrieval_phase1.txt")
        grid = windows(self.video, segment, RETRIEVAL_WINDOW)
        prompt = phase1.format(question=question)
        responses = self.model.complete_all(
            [
                ModelRequest(
                    parts=(TextPart(prompt), FramesPart(window.refs)),
                    tag=self.tags.tag(f"retrieval_qa/window/{i}"),
                )
                for i, window in enumerate(grid)
            ]
        )
        retrieved: set[int] = set()
        ref_by_index: dict[int, FrameRef] = {}
        fell_back = False
        for window, response in zip(grid, responses):
            for ref in window.refs:
                ref_by_index[ref.index] = ref
            allowed = {ref.index for ref in window.refs}
            for line in response.split("\n"):
                line = line.strip()
                if re.fullmatch(r"\d+", line):
                    idx = int(line)
                    if idx in allowed:
                        retrieved.add(idx)
        if retrieved:
            chosen = [ref_by_index[i] for i in sorted(retrieved)[:RETRIEVAL_CAP]]
        else:
            fell_back = True
            chosen = sample_frames(self.video, segment, RETRIEVAL_CAP)
            if not chosen:  # the video has no frames at all
                return NOT_VISIBLE_SENTENCE
        context = self._context_frames(segment)
        parts: list = [
            TextPart(
                load_prompt_text("retrieval_phase2.txt").format(
                    question=question,
                    options_block=_options_block(answer_options),
                )
            ),
            FramesPart(tuple(chosen)),
        ]
        if context:
            parts.append(TextPart("Context frames from the rest of the video:"))
            parts.append(FramesPart(tuple(context)))
        answer = self.model.complete(
            ModelRequest(parts=tuple(parts), tag=self.tags.tag("retrieval_qa/answer"))
        )
        if fell_back:
            return f"{FALLBACK_NOTE}\n{answer}"
        return answer

    def _context_frames(self, target: VideoSegment) -> list[FrameRef]:
        candidates = frames_outside(self.video, target)
        if len(candidates) <= CONTEXT_FRAMES:
            return candidates
        picked = []
        for i in range(CONTEXT_FRAMES):
            j = round(i * (len(candidates) - 1) / (CONTEXT_FRAMES - 1))
            ref = candidates[j]
            if not picked or ref.index > picked[-1].index:
                picked.append(ref)
        return picked

    # --- asr_understanding ---

    def asr_understanding(self, question, answer_options=None) -> str:
        if not isinstance(question, str) or not question.strip():
            raise ValueError("question must be a non-empty string")
        if self.backend == "oracle":
            return self._asr_oracle(question)
        return self._asr_model(question, answer_options)

    def _asr_oracle(self, question: str) -> str:
        lines = getattr(self.video, "asr", ())
        if not lines:
            return NO_SPEECH_SENTENCE
        lowered = question.lower()
        for fact in self.video.qa_facts:
            if all(k.lower() in lowered for k in fact.keywords) and any(
                fact.evidence.start <= line.t <= fact.evidence.end for line in lines
            ):
                return fact.answer
        tokens = content_tokens(question)
        matched = [
            f"[{format_timestamp(line.t)}] {line.text}"
            for line in lines
            if tokens & content_tokens(line.text)
        ]
        if matched:
            return "\n".join(matched)
        return NO_RELEVANT_SPEECH_SENTENCE

    def _asr_model(self, question, answer_options) -> str:
        lines = getattr(self.video, "asr", ())
        if not lines:
            return NO_SPEECH_SENTENCE
        rendered = [f"[{format_timestamp(line.t)}] {line.text}" for line in lines]
        chunks: list[str] = []
        current: list[str] = []
        size = 0
        for line in rendered:
            if current and size + len(line) + 1 > ASR_CHUNK_CHARS:
                chunks.append("\n".join(current))
                current = []
                size = 0
            current.append(line)
            size += len(line) + 1
        if current:
            chunks.append("\n".join(current))
        options_block = _options_block(answer_options)
        chunk_template = load_prompt_text("asr_chunk.txt")
        responses = self.model.complete_all(
            [
                ModelRequest(
                    parts=(
                        TextPart(
                            chunk_template.format(
                                chunk=chunk,
                                question=question,
                                options_block=options_block,
                            )
                        ),
                    ),
                    tag=self.tags.tag(f"asr_understanding/chunk/{i}"),
                )
                for i, chunk in enumerate(chunks)
            ]
        )
        findings = [
            f"(chunk {i + 1}) {response.strip()}"
            for i, response in enumerate(responses)
            if response.strip()
        ]
        consolidation = load_prompt_text("asr_consolidate.txt").format(
            findings="\n".join(findings) if findings else "(none)",
            question=question,
            options_block=options_block,
        )
        return self.model.complete(
            ModelRequest(
                parts=(TextPart(consolidation),),
                tag=self.tags.tag("asr_understanding/final"),
            )
        )


def build_registry(
    task: TaskQuery,
    video: FrameSource,
    backend: str = "oracle",
    model: ModelClient | None = None,
    tags: TagContext | None = None,
    answer_capable: frozenset[str] = frozenset({"retrieval_qa"}),
) -> ToolRegistry:
    """A registry with all six built-ins bound to one task and video."""
    suite = ToolSuite(task, video, backend=backend, model=model, tags=tags)
    backends = {name: getattr(suite, name) for name in api_listing().blocks}
    return ToolRegistry(backends, answer_capable)
