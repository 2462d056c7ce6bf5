"""The reasoning loop: prompt assembly, iterate generate-execute until a
finish call or the step budget, plus the direct, single-program, and
self-evaluation runners. The agent episode, the single-program baseline
and the self-evaluation rounds all take their turns through one transcript.

The agent prompt is text only; video reaches the model exclusively through
tools. Each turn appends the emitted program and its rendered result to
the transcript, so the prompt for turn i+1 contains every prior exchange
verbatim.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .core import (
    Choice,
    FinalAnswer,
    Ranges,
    TaskKind,
    TaskQuery,
    Unparsed,
    VideoSegment,
    format_timestamp,
    parse_final_answer,
)
from .dsl import DslExecutionError, extract_code_block, run_source
from .modelclient import ModelClient, ModelTransportError, text_request
from .toolkit import StrategySubset, ToolRegistry, load_prompt_text

DEFAULT_STEP_BUDGET = 10

_NUMBER_WORDS = {
    2: "two",
    3: "three",
    4: "four",
    5: "five",
    6: "six",
    7: "seven",
    8: "eight",
    9: "nine",
    10: "ten",
}


class StopReason(Enum):
    FINISHED = "Finished"
    FORCED_ANSWER = "ForcedAnswer"


@dataclass
class Step:
    program: str  # empty for turns with no code block (direct answers, prose)
    result: str
    terminal: bool = False


@dataclass
class Trace:
    task: TaskQuery
    strategy: StrategySubset
    steps: list[Step]
    final: FinalAnswer
    raw_final: str
    stop_reason: StopReason
    step_budget: int

    def to_dict(self) -> dict:
        return {
            "task_id": self.task.id,
            "strategy_label": self.strategy.label,
            "modules": list(self.strategy.modules),
            "steps": [
                {"program": s.program, "result": s.result, "terminal": s.terminal}
                for s in self.steps
            ],
            "final": final_to_dict(self.final, self.raw_final),
            "stop_reason": self.stop_reason.value,
        }


def final_to_dict(final: FinalAnswer, raw: str) -> dict:
    if isinstance(final, Choice):
        return {"kind": "choice", "value": final.index, "raw": raw}
    if isinstance(final, Ranges):
        return {
            "kind": "ranges",
            "value": [[s.start, s.end] for s in final.segments],
            "raw": raw,
        }
    return {"kind": "unparsed", "value": None, "raw": final.text}


def final_from_dict(data: dict) -> FinalAnswer:
    kind = data.get("kind")
    if kind == "choice":
        return Choice(data["value"])
    if kind == "ranges":
        return Ranges(tuple(VideoSegment(s, e) for s, e in data["value"]))
    return Unparsed(data.get("raw", ""))


def task_statement(task: TaskQuery) -> str:
    """The task block shown to the agent and echoed in critic prompts."""
    length = format_timestamp(task.video.duration)
    if task.kind is TaskKind.MULTIPLE_CHOICE:
        count = len(task.options)
        word = _NUMBER_WORDS.get(count, str(count))
        options = "\n".join(
            f"({i}) {text}" for i, text in enumerate(task.options, start=1)
        )
        return (
            f"You will be given a question about a video and {word} possible "
            f"answer options. Question: {task.question}"
            f"Possible answer choices:\n{options}\nVideo length: {length}"
        )
    return f"Question: {task.question}\nVideo length: {length}"


def render_step(step: Step) -> str:
    if step.program:
        return f"```\n{step.program}\n```\n{step.result}\n\n"
    return f"{step.result}\n\n"


class _Transcript:
    """One agent transcript: the prompt so far, the DSL environment, the
    steps taken, and the turn counter that numbers request tags."""

    def __init__(
        self,
        task: TaskQuery,
        subset: StrategySubset,
        model: ModelClient,
        registry: ToolRegistry,
        preamble: str,
    ):
        self.task = task
        self.subset = subset
        self.model = model
        self.snapshot = registry.with_subset(subset)
        self.base = f"{task.id}/{subset.label}"
        self.env: dict = {}
        self.steps: list[Step] = []
        self.turn = 0
        self.prompt = (
            load_prompt_text(preamble)
            + self.snapshot.render_api(subset)
            + "\n"
            + task_statement(task)
            + "\n\n"
        )

    def ask(self, suffix) -> str:
        return self.model.complete(
            text_request(self.prompt, tag=f"{self.base}/{suffix}")
        )

    def take_turns(self, budget: int, force: bool = True) -> tuple[str, StopReason]:
        """Take turns until a step is terminal or `budget` steps are taken.

        Returns the raw answer and the stop reason. When the budget runs
        out, `force` asks once more for an answer (a turn that is not a
        step); without it the last step becomes terminal instead.
        """
        for _ in range(budget):
            reply = self.ask(self.turn)
            self.turn += 1
            code = extract_code_block(reply)
            if code is None:
                raw = reply
                final = parse_final_answer(reply, self.task.kind)
                step = Step("", reply, terminal=not isinstance(final, Unparsed))
            else:
                result = run_source(code, self.env, self.snapshot)
                raw = str(result.answer) if result.terminal else result.rendered
                step = Step(code, result.rendered, terminal=result.terminal)
            self.steps.append(step)
            self.prompt += render_step(step)
            if step.terminal:
                return raw, StopReason.FINISHED
            if code is None:
                self.prompt += load_prompt_text("corrective.txt") + "\n\n"
        if not force:
            step.terminal = True
            return raw, StopReason.FINISHED
        self.prompt += load_prompt_text("forced_answer.txt") + "\n\n"
        reply = self.ask(self.turn)
        self.turn += 1
        self.prompt += f"{reply}\n\n"
        return reply, StopReason.FORCED_ANSWER

    def trace(self, raw: str, stop: StopReason, budget: int) -> Trace:
        final = parse_final_answer(raw, self.task.kind)
        return Trace(self.task, self.subset, self.steps, final, raw, stop, budget)


def run_episode(
    task: TaskQuery,
    subset: StrategySubset,
    model: ModelClient,
    registry: ToolRegistry,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> Trace:
    """One iterative episode under one non-direct strategy subset."""
    if subset.direct:
        raise ValueError("run_episode needs a non-direct subset; use run_direct")
    transcript = _Transcript(task, subset, model, registry, "agent_preamble.txt")
    try:
        return transcript.trace(*transcript.take_turns(step_budget), step_budget)
    except ModelTransportError as exc:
        message = f"error: model transport failed: {exc}"
        transcript.steps.append(Step(program="", result=message, terminal=True))
        return Trace(
            task,
            subset,
            transcript.steps,
            Unparsed(message),
            message,
            StopReason.FINISHED,
            step_budget,
        )


def run_direct(
    task: TaskQuery,
    subset: StrategySubset,
    model: ModelClient,
    registry: ToolRegistry,
) -> Trace:
    """Apply one answer-capable module to the whole task in a single step."""
    if not subset.direct:
        raise ValueError("run_direct needs a direct subset")
    module = subset.modules[0]
    if module not in registry.backends:
        raise ValueError(f"unknown module '{module}'")
    if module not in registry.answer_capable:
        raise ValueError(f"module '{module}' cannot answer this task directly")
    snapshot = registry.with_subset(subset)
    kwargs: dict = {}
    if module == "find_when":
        kwargs["query"] = task.question
    else:
        kwargs["question"] = task.question
        if task.options:
            kwargs["answer_options"] = list(task.options)
    try:
        response = snapshot.call(module, [], kwargs)
    except DslExecutionError as exc:
        response = str(exc)
    text = response if isinstance(response, str) else str(response)
    final = parse_final_answer(text, task.kind)
    steps = [Step(program="", result=text, terminal=True)]
    return Trace(task, subset, steps, final, text, StopReason.FINISHED, 1)


def run_single_program(
    task: TaskQuery,
    subset: StrategySubset,
    model: ModelClient,
    registry: ToolRegistry,
) -> Trace:
    """One model call, one program, no feedback loop."""
    transcript = _Transcript(task, subset, model, registry, "single_program.txt")
    return transcript.trace(*transcript.take_turns(1, force=False), 1)


def run_self_eval(
    task: TaskQuery,
    subset: StrategySubset,
    model: ModelClient,
    registry: ToolRegistry,
    max_rounds: int = 3,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> Trace:
    """Agent answers, rates its own confidence 1-3, and retries below 3.

    The transcript continues across rounds so the model sees its previous
    attempt. Terminates at the first confidence of 3 or after max_rounds.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    transcript = _Transcript(task, subset, model, registry, "agent_preamble.txt")
    confidence_prompt = load_prompt_text("confidence.txt")
    retry_template = load_prompt_text("self_eval_retry.txt")
    for round_no in range(1, max_rounds + 1):
        raw, stop = transcript.take_turns(step_budget)
        if stop is StopReason.FORCED_ANSWER:
            break
        transcript.prompt += confidence_prompt + "\n"
        reply = transcript.ask(f"confidence/{round_no}")
        confidence = _parse_confidence(reply)
        transcript.prompt += f"{reply}\n\n"
        if confidence >= 3 or round_no == max_rounds:
            break
        transcript.prompt += retry_template.format(confidence=confidence) + "\n\n"
    return transcript.trace(raw, stop, step_budget * max_rounds)


# A confidence digit standing alone, not an end of a range such as "1-3".
_CONFIDENCE = re.compile(r"(?<![\w-])[1-3](?![\w-])")


def _parse_confidence(text: str) -> int:
    match = _CONFIDENCE.search(text)
    return int(match.group()) if match else 1
