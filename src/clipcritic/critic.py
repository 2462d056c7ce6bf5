"""Trace comparison and answer selection.

The critic never answers the question itself. It reads the complete
reasoning traces produced under each strategy subset, writes a critique
following in-context examples, and names the winning strategies. The
selected answer is always the final answer of one presented trace.
"""

from __future__ import annotations

import importlib.resources
import json
import logging
import re
from collections import Counter
from dataclasses import dataclass

from .agent import Trace, render_step, run_direct, run_episode, task_statement
from .core import FinalAnswer, TaskQuery, Unparsed, answer_key, answers_equal
from .modelclient import ModelClient, ModelRequest, TextPart
from .toolkit import PROFILES, Profile, load_prompt_text

logger = logging.getLogger(__name__)

DEFAULT_EXAMPLE_COUNT = 4
DEFAULT_ELIDE_OVER = 4000
ELISION_MARKER = "[... output elided ...]"

_VERDICT_MARKERS = ("Winning Strategies:", "Winning Strategy:")


@dataclass(frozen=True)
class CriticExample:
    input_block: str
    critique: str | None
    winners: tuple[str, ...]

    def __post_init__(self):
        if not self.winners:
            raise ValueError("a critic example needs at least one winner")
        for label in self.winners:
            if f"Strategy {label} " not in self.input_block:
                raise ValueError(
                    f"winner '{label}' does not appear in the example's strategies"
                )


@dataclass(frozen=True)
class CriticVerdict:
    critique: str
    winners: tuple[str, ...]


@dataclass(frozen=True)
class Selection:
    trace: Trace
    final: FinalAnswer
    label: str
    fallback_used: bool
    conflict: bool = False


def load_examples(profile: Profile | str) -> list[CriticExample]:
    """Default in-context examples for a profile, from the packaged files."""
    if isinstance(profile, str) and profile in PROFILES:
        profile = PROFILES[profile]
    resource = profile.examples_resource if isinstance(profile, Profile) else profile
    ref = importlib.resources.files("clipcritic") / "critic_examples" / resource
    return parse_examples_json(ref.read_text(encoding="utf-8"), resource)


def load_examples_file(path: str) -> list[CriticExample]:
    with open(path, encoding="utf-8") as fh:
        return parse_examples_json(fh.read(), path)


def parse_examples_json(text: str, where: str) -> list[CriticExample]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise ValueError(f"{where}: expected a nonempty JSON array")
    examples = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict) or "input_block" not in entry:
            raise ValueError(f"{where}[{i}]: expected an object with input_block")
        winners = entry.get("winners")
        if not isinstance(winners, list) or not winners:
            raise ValueError(f"{where}[{i}]: winners must be a nonempty list")
        examples.append(
            CriticExample(
                input_block=entry["input_block"],
                critique=entry.get("critique"),
                winners=tuple(winners),
            )
        )
    return examples


def elide_middle(text: str, limit: int) -> str:
    """Shorten over-long tool output, preserving the first and last lines."""
    if limit <= 0 or len(text) <= limit:
        return text
    half = max((limit - len(ELISION_MARKER)) // 2, 1)
    head = text[:half]
    tail = text[-half:]
    cut = head.rfind("\n")
    if cut > 0:
        head = head[:cut]
    cut = tail.find("\n")
    if 0 <= cut < len(tail) - 1:
        tail = tail[cut + 1 :]
    return f"{head}\n{ELISION_MARKER}\n{tail}"


def render_example(example: CriticExample) -> str:
    block = example.input_block
    if not block.endswith("\n"):
        block += "\n"
    out = block + "\n"
    if example.critique is not None:
        out += f"Critique:\n{example.critique}\n\n"
    out += "Winning Strategies:\n" + ", ".join(example.winners) + "\n"
    return out


def render_trace_block(trace: Trace, elide_over: int = DEFAULT_ELIDE_OVER) -> str:
    parts = [trace.strategy.header(), "\n"]
    for step in trace.steps:
        shown = step
        if elide_over and len(step.result) > elide_over:
            shown = type(step)(
                program=step.program,
                result=elide_middle(step.result, elide_over),
                terminal=step.terminal,
            )
        parts.append(render_step(shown))
    return "".join(parts)


def build_critique_prompt(
    task: TaskQuery,
    traces: list[Trace],
    examples: list[CriticExample],
    example_count: int = DEFAULT_EXAMPLE_COUNT,
    elide_over: int = DEFAULT_ELIDE_OVER,
    tag: str = "",
) -> ModelRequest:
    """Preamble, in-context examples, then the live task ending "Critique:"."""
    if len(traces) < 2:
        raise ValueError("the critic compares traces; provide at least 2")
    if len(examples) != example_count:
        raise ValueError(
            f"expected {example_count} in-context examples, got {len(examples)}"
        )
    labels = [t.strategy.label for t in traces]
    if len(set(labels)) != len(labels):
        raise ValueError("trace strategy labels must be unique")
    text = load_prompt_text("critic_preamble.txt") + "\n"
    text += "\n".join(render_example(ex) for ex in examples) + "\n"
    text += "Input:\n" + task_statement(task) + "\n"
    for trace in traces:
        text += render_trace_block(trace, elide_over)
    text += "Critique:"
    return ModelRequest(parts=(TextPart(text),), tag=tag or f"{task.id}/critic")


def parse_verdict(response: str, presented: list[str]) -> CriticVerdict:
    """Read the winners named after the last verdict marker."""
    pos = -1
    marker = ""
    for m in _VERDICT_MARKERS:
        p = response.rfind(m)
        if p > pos:
            pos = p
            marker = m
    if pos < 0:
        return CriticVerdict(critique=response.strip(), winners=())
    critique = response[:pos].strip()
    remainder = response[pos + len(marker) :]
    winners: list[str] = []
    for token in re.findall(r"[A-Za-z]+", remainder):
        if len(token) != 1 or not token.isupper():
            break
        if token in presented and token not in winners:
            winners.append(token)
    return CriticVerdict(critique=critique, winners=tuple(winners))


def select_answer(traces: list[Trace], verdict: CriticVerdict) -> Selection:
    """Turn a verdict into one presented trace's final answer.

    Winners with conflicting finals keep only the first in label order.
    An empty verdict falls back to a majority vote over the parsed finals,
    ties broken by label order; with no parsed final, the first trace wins.
    """
    by_label = {t.strategy.label: t for t in traces}
    winners = [l for l in sorted(verdict.winners) if l in by_label]
    if winners:
        chosen = by_label[winners[0]]
        conflict = any(
            not answers_equal(by_label[l].final, chosen.final) for l in winners[1:]
        )
        if conflict:
            logger.warning(
                "critic named winners with conflicting answers %s; keeping %s",
                winners,
                winners[0],
            )
        return Selection(
            trace=chosen,
            final=chosen.final,
            label=chosen.strategy.label,
            fallback_used=False,
            conflict=conflict,
        )
    ordered = [by_label[label] for label in sorted(by_label)]
    # an Unparsed final can never score, so it gets no vote
    counts = Counter(
        answer_key(t.final) for t in ordered if not isinstance(t.final, Unparsed)
    )
    chosen = ordered[0]
    if counts:
        best = max(counts.values())
        chosen = next(t for t in ordered if counts[answer_key(t.final)] == best)
    return Selection(
        trace=chosen,
        final=chosen.final,
        label=chosen.strategy.label,
        fallback_used=True,
    )


def sample_strategies(
    task: TaskQuery,
    model: ModelClient,
    registry_factory,
    profile: Profile,
    step_budget: int = 10,
) -> list[Trace]:
    """Run all of the profile's strategies; always returns one trace each."""
    traces = []
    for subset in profile.strategies:
        registry = registry_factory(subset)
        if subset.direct:
            trace = run_direct(task, subset, model, registry)
        else:
            trace = run_episode(task, subset, model, registry, step_budget=step_budget)
        traces.append(trace)
    return traces


def run_critic(
    task: TaskQuery,
    traces: list[Trace],
    model: ModelClient,
    examples: list[CriticExample],
    example_count: int = DEFAULT_EXAMPLE_COUNT,
    elide_over: int = DEFAULT_ELIDE_OVER,
) -> tuple[CriticVerdict, Selection, str]:
    request = build_critique_prompt(
        task, traces, examples, example_count=example_count, elide_over=elide_over
    )
    response = model.complete(request)
    labels = [t.strategy.label for t in traces]
    verdict = parse_verdict(response, labels)
    selection = select_answer(traces, verdict)
    return verdict, selection, response


def run_agent_critic(
    task: TaskQuery,
    model: ModelClient,
    registry_factory,
    profile: Profile,
    examples: list[CriticExample] | None = None,
    step_budget: int = 10,
    example_count: int = DEFAULT_EXAMPLE_COUNT,
    elide_over: int = DEFAULT_ELIDE_OVER,
) -> tuple[Selection, list[Trace], CriticVerdict]:
    if examples is None:
        examples = load_examples(profile)
    traces = sample_strategies(task, model, registry_factory, profile, step_budget)
    verdict, selection, _ = run_critic(
        task, traces, model, examples, example_count=example_count, elide_over=elide_over
    )
    return selection, traces, verdict
