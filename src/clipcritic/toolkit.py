"""Tool metadata, the episode tool registry, API-text rendering, and the
per-profile strategy-subset configuration.

The API text shown to the agent is sliced from a stored listing so that the
six built-in tools render byte-exactly. Custom tools registered at runtime
render in the same header-plus-docstring shape.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field, replace

from .core import TaskKind, TaskQuery
from .dsl import DslExecutionError
from .modelclient import ReplayMismatchError


def load_prompt_text(name: str) -> str:
    """Load a stored prompt asset shipped with the package."""
    ref = importlib.resources.files("clipcritic") / "prompts" / name
    return ref.read_text(encoding="utf-8")


@dataclass(frozen=True)
class Param:
    name: str
    type_text: str
    required: bool


@dataclass(frozen=True)
class ModuleSpec:
    """Metadata for one callable tool."""

    name: str
    signature: tuple[Param, ...]
    doc: str
    answer_capable: bool = False
    return_text: str = "str"


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

    def header(self) -> str:
        if self.direct:
            return f"Strategy {self.label} (direct {self.modules[0]}):"
        return f"Strategy {self.label} ({', '.join(self.modules)}):"


# Signatures mirror the stored API listing.
_BUILTIN_PARAMS: dict[str, tuple[Param, ...]] = {
    "think": (Param("thought", "str", True),),
    "get_segment": (Param("start", "str", True), Param("end", "str", True)),
    "find_when": (
        Param("query", "str", True),
        Param("video_segment", "VideoSegment | None", False),
    ),
    "asr_understanding": (
        Param("question", "str", True),
        Param("answer_options", "list[str] | None", False),
    ),
    "retrieval_qa": (
        Param("question", "str", True),
        Param("answer_options", "list[str] | None", False),
        Param("video_segment", "VideoSegment | None", False),
    ),
    "finish": (Param("final_answer", "str", True),),
}

BUILTIN_ORDER = (
    "think",
    "get_segment",
    "find_when",
    "asr_understanding",
    "retrieval_qa",
    "finish",
)


class _ApiListing:
    """The stored API listing sliced into a class header and per-tool blocks."""

    def __init__(self, text: str):
        self.text = text
        ends_with_newline = text.endswith("\n")
        lines = text.split("\n")
        if ends_with_newline:
            lines.pop()  # drop the empty element split leaves after a final newline
        starts: list[tuple[str, int]] = []
        for i, line in enumerate(lines):
            if line.startswith("def ") and "(" in line:
                starts.append((line[4 : line.index("(")], i))
        if not starts:
            raise ValueError("API listing contains no function definitions")
        self.header = "\n".join(lines[: starts[0][1]]) + "\n"
        self.blocks: dict[str, str] = {}
        for idx, (name, begin) in enumerate(starts):
            end = starts[idx + 1][1] if idx + 1 < len(starts) else len(lines)
            block = "\n".join(lines[begin:end])
            if idx + 1 < len(starts) or ends_with_newline:
                block += "\n"
            self.blocks[name] = block

    def doc_for(self, name: str) -> str:
        block = self.blocks[name]
        first = block.find('"""')
        last = block.rfind('"""')
        if first < 0 or last <= first:
            raise ValueError(f"no docstring found for {name}")
        return block[first + 3 : last]


_api_listing: _ApiListing | None = None


def api_listing() -> _ApiListing:
    global _api_listing
    if _api_listing is None:
        _api_listing = _ApiListing(load_prompt_text("module_api.txt"))
    return _api_listing


def builtin_specs(answer_capable: frozenset[str] = frozenset({"retrieval_qa"})) -> list[ModuleSpec]:
    listing = api_listing()
    specs = []
    for name in BUILTIN_ORDER:
        specs.append(
            ModuleSpec(
                name=name,
                signature=_BUILTIN_PARAMS[name],
                doc=listing.doc_for(name),
                answer_capable=name in answer_capable,
            )
        )
    return specs


@dataclass
class ToolRegistry:
    """Tool specs plus backends; an activated snapshot serves one episode."""

    specs: dict[str, ModuleSpec] = field(default_factory=dict)
    backends: dict = field(default_factory=dict)
    render_blocks: dict[str, str] = field(default_factory=dict)
    active_subset: StrategySubset | None = None
    terminal_tools: frozenset[str] = frozenset({"finish"})

    def register(self, spec: ModuleSpec, backend) -> None:
        if spec.name in self.specs:
            raise ValueError(f"tool '{spec.name}' is already registered")
        if not spec.doc.strip():
            raise ValueError(f"tool '{spec.name}' needs a docstring for prompt rendering")
        self.specs[spec.name] = spec
        self.backends[spec.name] = backend
        listing = api_listing()
        if spec.name in listing.blocks:
            if spec.doc != listing.doc_for(spec.name):
                raise ValueError(
                    f"tool '{spec.name}' is a reserved built-in name; "
                    "its docstring must match the stored listing"
                )
            self.render_blocks[spec.name] = listing.blocks[spec.name]
        else:
            self.render_blocks[spec.name] = _synthesize_block(spec)

    def with_subset(self, subset: StrategySubset) -> "ToolRegistry":
        """Independent snapshot restricted to one strategy's modules."""
        for name in subset.effective_modules():
            if name not in self.specs:
                raise ValueError(f"subset names unregistered tool '{name}'")
            if name not in self.backends or self.backends[name] is None:
                raise ValueError(f"tool '{name}' has no backend")
        return replace(
            self,
            specs=dict(self.specs),
            backends=dict(self.backends),
            render_blocks=dict(self.render_blocks),
            active_subset=subset,
        )

    def is_active(self, name: str) -> bool:
        if self.active_subset is None:
            return name in self.specs
        return name in self.active_subset.effective_modules()

    def call(self, name: str, args: list, kwargs: dict):
        if name not in self.specs:
            raise DslExecutionError(f"error: unknown tool '{name}'")
        if not self.is_active(name):
            raise DslExecutionError(
                f"error: tool '{name}' is not available in this strategy"
            )
        bound = self._bind(name, args, kwargs)
        backend = self.backends[name]
        try:
            return backend(**bound)
        except (DslExecutionError, ReplayMismatchError):
            raise
        except Exception as exc:
            raise DslExecutionError(f"error: {name} failed: {exc}") from exc

    def _bind(self, name: str, args: list, kwargs: dict) -> dict:
        params = self.specs[name].signature
        if len(args) > len(params):
            raise DslExecutionError(
                f"error: {name}() takes {len(params)} arguments "
                f"but {len(args)} were given"
            )
        bound = {}
        for param, value in zip(params, args):
            bound[param.name] = value
        names = {p.name for p in params}
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
        for param in params:
            if param.required and param.name not in bound:
                raise DslExecutionError(
                    f"error: {name}() missing required argument '{param.name}'"
                )
            if param.name not in bound:
                bound[param.name] = None
        return bound

    def render_api(self, subset: StrategySubset | None = None) -> str:
        subset = subset or self.active_subset
        if subset is not None:
            active = set(subset.effective_modules())
            unknown = active - set(self.specs)
            if unknown:
                raise ValueError(f"unknown module name(s): {sorted(unknown)}")
        else:
            active = set(self.specs)
        if not active:
            raise ValueError("cannot render an empty subset")
        parts = [api_listing().header]
        for name in self.specs:  # registration order; built-ins in listing order
            if name not in active:
                continue
            block = self.render_blocks[name]
            if not parts[-1].endswith("\n\n") and name not in api_listing().blocks:
                parts.append("\n")
            parts.append(block)
        return "".join(parts)


def _synthesize_block(spec: ModuleSpec) -> str:
    args = ", ".join(f"{p.name}: {p.type_text}" for p in spec.signature)
    ret = f" -> {spec.return_text}" if spec.return_text else ""
    doc = spec.doc if spec.doc.endswith("\n") else spec.doc + "\n"
    return f"def {spec.name}({args}){ret}:\n  \"\"\"{doc}  \"\"\"\n\n"


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


def strategy_subsets(task: TaskQuery, profile: Profile | str) -> list[StrategySubset]:
    """The three labeled subsets the critic will compare for this task."""
    if isinstance(profile, str):
        profile = profile_for_task(task, profile)
    if profile.task_kind is not task.kind:
        raise ValueError(
            f"profile '{profile.name}' expects {profile.task_kind.value} tasks"
        )
    return list(profile.strategies)


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
