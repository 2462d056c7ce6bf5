"""The episode tool registry, API-text rendering, and the per-profile
strategy-subset configuration.

The stored API listing is the one description of the six built-in tools:
the API text shown to the agent is sliced from it byte-exactly, and each
tool's parameters are read from its `def` line.
"""

from __future__ import annotations

import ast
import functools
import importlib.resources
from dataclasses import dataclass, field

from .core import FatalError, TaskKind, TaskQuery
from .dsl import DslExecutionError


@functools.cache
def load_prompt_text(name: str) -> str:
    """Load a stored prompt asset shipped with the package."""
    ref = importlib.resources.files("clipcritic") / "prompts" / name
    return ref.read_text(encoding="utf-8")


@dataclass(frozen=True)
class StrategySubset:
    """One labeled module subset the agent may be restricted to.

    modules lists only the video modules; think and finish are implicitly
    available in every non-direct subset. A direct subset applies its single
    module once without running the agent loop.
    """

    label: str
    modules: tuple[str, ...]
    direct: bool = False

    def __post_init__(self):
        if not self.modules:
            raise ValueError("a strategy subset needs at least one module")
        if self.direct and len(self.modules) != 1:
            raise ValueError("a direct subset names exactly one module")

    def effective_modules(self) -> tuple[str, ...]:
        if self.direct:
            return self.modules
        extra = tuple(m for m in ("think", "finish") if m not in self.modules)
        return self.modules + extra

    def tag_prefix(self, task: TaskQuery) -> str:
        """The request-tag prefix of this strategy's episode of `task`."""
        return f"{task.id}/{self.label}"

    def header(self) -> str:
        if self.direct:
            return f"Strategy {self.label} (direct {self.modules[0]}):"
        return f"Strategy {self.label} ({', '.join(self.modules)}):"


class _ApiListing:
    """The stored API listing sliced into a class header and per-tool blocks,
    with each tool's parameters read from its `def` line."""

    def __init__(self, text: str):
        ends_with_newline = text.endswith("\n")
        lines = text.split("\n")
        if ends_with_newline:
            lines.pop()  # drop the empty element split leaves after a final newline
        defs = [
            node for node in ast.parse(text).body if isinstance(node, ast.FunctionDef)
        ]
        if not defs:
            raise ValueError("API listing contains no function definitions")
        # (name, required) per parameter; optional exactly when annotated `| None`
        self.params: dict[str, tuple[tuple[str, bool], ...]] = {
            fn.name: tuple(
                (arg.arg, not ast.unparse(arg.annotation).endswith("| None"))
                for arg in fn.args.args
            )
            for fn in defs
        }
        starts = [fn.lineno - 1 for fn in defs]
        self.header = "\n".join(lines[: starts[0]]) + "\n"
        self.blocks: dict[str, str] = {}
        for fn, begin, end in zip(defs, starts, starts[1:] + [len(lines)]):
            block = "\n".join(lines[begin:end])
            if end < len(lines) or ends_with_newline:
                block += "\n"
            self.blocks[fn.name] = block


@functools.cache
def api_listing() -> _ApiListing:
    return _ApiListing(load_prompt_text("module_api.txt"))


@dataclass(frozen=True)
class ToolRegistry:
    """The tools of one episode: a backend per built-in tool its strategy
    may call. A listed tool outside the table is unavailable, not unknown."""

    backends: dict = field(default_factory=dict)
    answer_capable: frozenset[str] = frozenset()
    terminal_tools = frozenset({"finish"})  # not a field: the DSL stops at these

    def call(self, name: str, args: list, kwargs: dict):
        if name not in api_listing().blocks:
            raise DslExecutionError(f"error: unknown tool '{name}'")
        if name not in self.backends:
            raise DslExecutionError(
                f"error: tool '{name}' is not available in this strategy"
            )
        bound = self._bind(name, args, kwargs)
        try:
            return self.backends[name](**bound)
        except (DslExecutionError, FatalError):
            raise
        except Exception as exc:
            raise DslExecutionError(f"error: {name} failed: {exc}") from exc

    def _bind(self, name: str, args: list, kwargs: dict) -> dict:
        params = api_listing().params[name]
        if len(args) > len(params):
            raise DslExecutionError(
                f"error: {name}() takes {len(params)} arguments "
                f"but {len(args)} were given"
            )
        bound = {param: value for (param, _), value in zip(params, args)}
        names = {param for param, _ in params}
        for key, value in kwargs.items():
            if key not in names:
                raise DslExecutionError(
                    f"error: {name}() got an unexpected keyword argument '{key}'"
                )
            if key in bound:
                raise DslExecutionError(
                    f"error: {name}() got multiple values for argument '{key}'"
                )
            bound[key] = value
        for param, required in params:
            if required and param not in bound:
                raise DslExecutionError(
                    f"error: {name}() missing required argument '{param}'"
                )
            if param not in bound:
                bound[param] = None
        return bound

    def render_api(self) -> str:
        """The API listing's header and the blocks of the tools held."""
        if not self.backends:
            raise ValueError("cannot render an empty subset")
        listing = api_listing()
        blocks = (b for name, b in listing.blocks.items() if name in self.backends)
        return listing.header + "".join(blocks)


# --- profiles ---


@dataclass(frozen=True)
class Profile:
    """Dataset-level strategy configuration."""

    name: str
    task_kind: TaskKind
    pool: tuple[str, ...]
    answer_capable: frozenset[str]
    strategies: tuple[StrategySubset, ...]
    examples_resource: str

    def __post_init__(self):
        labels = [s.label for s in self.strategies]
        if labels != sorted(set(labels)):
            raise ValueError("strategy labels must be unique and ordered")
        for s in self.strategies:
            if s.direct and s.modules[0] not in self.answer_capable:
                raise ValueError(
                    f"direct strategy {s.label} uses non-answer-capable module"
                )


PROFILES: dict[str, Profile] = {
    "visual_mcq": Profile(
        name="visual_mcq",
        task_kind=TaskKind.MULTIPLE_CHOICE,
        pool=("get_segment", "retrieval_qa", "find_when"),
        answer_capable=frozenset({"retrieval_qa"}),
        strategies=(
            StrategySubset("A", ("retrieval_qa", "get_segment")),
            StrategySubset("B", ("retrieval_qa",), direct=True),
            StrategySubset("C", ("retrieval_qa", "get_segment", "find_when")),
        ),
        examples_resource="visual_mcq.json",
    ),
    "asr_mcq": Profile(
        name="asr_mcq",
        task_kind=TaskKind.MULTIPLE_CHOICE,
        pool=("get_segment", "retrieval_qa", "find_when", "asr_understanding"),
        answer_capable=frozenset({"retrieval_qa", "asr_understanding"}),
        strategies=(
            StrategySubset("A", ("get_segment", "retrieval_qa", "asr_understanding")),
            StrategySubset("B", ("retrieval_qa",), direct=True),
            StrategySubset(
                "C",
                ("get_segment", "retrieval_qa", "find_when", "asr_understanding"),
            ),
        ),
        examples_resource="asr_mcq.json",
    ),
    "temporal_range": Profile(
        name="temporal_range",
        task_kind=TaskKind.TEMPORAL_RANGE,
        pool=("get_segment", "retrieval_qa", "find_when"),
        answer_capable=frozenset({"retrieval_qa", "find_when"}),
        strategies=(
            StrategySubset("A", ("get_segment", "find_when")),
            StrategySubset("B", ("find_when",), direct=True),
            StrategySubset("C", ("get_segment", "retrieval_qa", "find_when")),
        ),
        examples_resource="temporal_range.json",
    ),
}


def profile_for_task(task: TaskQuery, name: str | None = None) -> Profile:
    """Resolve the strategy profile for a task, honoring an explicit name."""
    if name is not None:
        profile = PROFILES.get(name)
        if profile is None:
            raise ValueError(f"unknown profile '{name}'")
        if profile.task_kind is not task.kind:
            raise ValueError(
                f"profile '{name}' expects {profile.task_kind.value} tasks"
            )
        return profile
    if task.kind is TaskKind.TEMPORAL_RANGE:
        return PROFILES["temporal_range"]
    if task.allow_asr:
        return PROFILES["asr_mcq"]
    return PROFILES["visual_mcq"]


def enumerate_module_subsets(profile: Profile) -> list[tuple[str, ...]]:
    """All nonempty pool subsets containing at least one answer-capable
    module, in deterministic (size, pool-order) order. Used by ablation."""
    pool = profile.pool
    out: list[tuple[str, ...]] = []
    for mask in range(1, 1 << len(pool)):
        subset = tuple(pool[i] for i in range(len(pool)) if mask & (1 << i))
        if any(m in profile.answer_capable for m in subset):
            out.append(subset)
    out.sort(key=lambda s: (len(s), tuple(pool.index(m) for m in s)))
    return out
