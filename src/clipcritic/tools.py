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

from .core import (
    TaskQuery,
    VideoSegment,
    VideoSource,
    ascii_int,
    format_timestamp,
    parse_timestamp,
)
from .fixtures import FrameTable, frames_outside, sample_frames, windows
from .modelclient import FramesPart, ModelClient, ModelRequest, TextPart
from .toolkit import StrategySubset, ToolRegistry, api_listing, load_prompt_text

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


def _options_block(answer_options) -> str:
    if not answer_options:
        return ""
    lines = [f"({i}) {text}" for i, text in enumerate(answer_options, start=1)]
    return "Possible answers:\n" + "\n".join(lines) + "\n"


class ToolSuite:
    """Backends for one episode, bound to a task (and so its video), a model,
    and the prefix of the episode's request tags."""

    def __init__(
        self,
        task: TaskQuery,
        backend: str = "oracle",
        model: ModelClient | None = None,
        tag_prefix: str = "",
    ):
        if backend not in BACKENDS:
            raise ValueError(f"unknown tool backend '{backend}'")
        if backend == "oracle" and task.video.source is not VideoSource.FIXTURE_PATH:
            raise ValueError("oracle backends need a fixture video")
        if backend == "model" and model is None:
            raise ValueError("model backends need a model client")
        self.video = task.video
        self.backend = backend
        self.model = model
        self.tag_prefix = tag_prefix

    def _tag(self, suffix: str) -> str:
        return f"{self.tag_prefix}/{suffix}" if self.tag_prefix else suffix

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
            '["{}", "{}"]: {}'.format(*ev.segment.as_strings(), ev.justification or ev.label)
            for ev in sorted(self.video.events, key=lambda e: e.segment.start)
            if segments_intersect(ev.segment, segment)
            and tokens & content_tokens(ev.label)
        ]
        return "\n".join(findings) or NO_RANGES_SENTENCE

    def _find_when_model(self, query: str, segment: VideoSegment) -> str:
        template = load_prompt_text("find_when_window.txt")
        prefix = self._tag("find_when/window/")
        requests = [
            ModelRequest(
                (
                    TextPart(
                        template.format(
                            query=query,
                            start=format_timestamp(start),
                            end=format_timestamp(end),
                        )
                    ),
                    FramesPart(refs),
                ),
                prefix + str(i),
            )
            for i, (refs, start, end) in enumerate(
                windows(self.video, segment, FIND_WHEN_WINDOW)
            )
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
        prompt = TextPart(load_prompt_text("retrieval_phase1.txt").format(question=question))
        prefix = self._tag("retrieval_qa/window/")
        grid = windows(self.video, segment, RETRIEVAL_WINDOW)
        responses = self.model.complete_all(
            [
                ModelRequest((prompt, FramesPart(refs)), prefix + str(i))
                for i, (refs, _, _) in enumerate(grid)
            ]
        )
        # a reply line names a frame by index; only frames of its own window
        # count, and a frames directory may skip indices, so the row found
        # must carry the index asked for
        retrieved: dict[int, int] = {}  # frame index -> its row in the video's table
        fell_back = False
        for window, response in zip(grid, responses):
            for line in response.split("\n"):
                idx = ascii_int(line.strip())
                row = None if idx is None else window.refs.row_of(idx)
                if row is not None:
                    retrieved[idx] = row
        if retrieved:
            rows = [retrieved[i] for i in sorted(retrieved)[:RETRIEVAL_CAP]]
            chosen = self.video.frames.select(rows)
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
            FramesPart(chosen),
        ]
        if context:
            parts.append(TextPart("Context frames from the rest of the video:"))
            parts.append(FramesPart(context))
        answer = self.model.complete(
            ModelRequest(parts=tuple(parts), tag=self._tag("retrieval_qa/answer"))
        )
        if fell_back:
            return f"{FALLBACK_NOTE}\n{answer}"
        return answer

    def _context_frames(self, target: VideoSegment) -> FrameTable:
        return frames_outside(self.video, target, CONTEXT_FRAMES)

    # --- asr_understanding ---

    def asr_understanding(self, question, answer_options=None) -> str:
        if not isinstance(question, str) or not question.strip():
            raise ValueError("question must be a non-empty string")
        if self.backend == "oracle":
            return self._asr_oracle(question)
        return self._asr_model(question, answer_options)

    def _asr_oracle(self, question: str) -> str:
        lines = self.video.asr
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
        chunks = self.video.asr_chunks
        if not chunks:
            return NO_SPEECH_SENTENCE
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
                    tag=self._tag(f"asr_understanding/chunk/{i}"),
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
                tag=self._tag("asr_understanding/final"),
            )
        )


def build_registry(
    task: TaskQuery,
    subset: StrategySubset,
    backend: str = "oracle",
    model: ModelClient | None = None,
    answer_capable: frozenset[str] = frozenset({"retrieval_qa"}),
) -> ToolRegistry:
    """The tools of one episode: `subset`'s modules bound to one task and its
    video, their requests tagged under the episode's prefix."""
    suite = ToolSuite(task, backend, model, subset.tag_prefix(task))
    backends = {}
    for name in subset.effective_modules():
        if name not in api_listing().blocks:
            raise ValueError(f"subset names unregistered tool '{name}'")
        backends[name] = getattr(suite, name)
    return ToolRegistry(backends, answer_capable)
