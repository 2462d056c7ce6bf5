"""Module registry, docstring-driven API rendering, and strategy profiles."""

import ast

import pytest

from clipcritic.core import DataError, TaskKind, TaskQuery
from clipcritic.dsl import DslExecutionError
from clipcritic.fixtures import VideoFixture
from clipcritic.toolkit import (
    PROFILES,
    StrategySubset,
    ToolRegistry,
    api_listing,
    enumerate_module_subsets,
    load_prompt_text,
    profile_for_task,
)


def make_registry(names=None):
    backends = {name: lambda *a, **k: None for name in names or api_listing().blocks}
    return ToolRegistry(backends, frozenset({"retrieval_qa"}))


def test_full_api_render_matches_stored_listing():
    golden = load_prompt_text("module_api.txt")
    assert make_registry().render_api() == golden
    listing = api_listing()
    assert listing.header + "".join(listing.blocks.values()) == golden


def test_builtin_order_and_docs():
    listing = api_listing()
    assert tuple(listing.blocks) == (
        "think",
        "get_segment",
        "find_when",
        "asr_understanding",
        "retrieval_qa",
        "finish",
    )
    for name, block in listing.blocks.items():
        assert ast.get_docstring(ast.parse(block).body[0]).strip(), name


def test_parameters_parse_from_the_listing():
    # (name, required) per parameter, as the signatures were kept by hand
    assert api_listing().params == {
        "think": (("thought", True),),
        "get_segment": (("start", True), ("end", True)),
        "find_when": (("query", True), ("video_segment", False)),
        "asr_understanding": (("question", True), ("answer_options", False)),
        "retrieval_qa": (
            ("question", True),
            ("answer_options", False),
            ("video_segment", False),
        ),
        "finish": (("final_answer", True),),
    }


def test_subset_render_includes_only_active_tools():
    subset = PROFILES["visual_mcq"].strategies[0]  # retrieval_qa + get_segment
    text = make_registry(subset.effective_modules()).render_api()
    assert "def get_segment(" in text
    assert "def retrieval_qa(" in text
    assert "def think(" in text
    assert "def finish(" in text
    assert "def find_when(" not in text
    assert "def asr_understanding(" not in text


def test_render_api_rejects_empty_subset():
    registry = ToolRegistry()
    with pytest.raises(ValueError):
        registry.render_api()


def test_call_validates_arity_and_names():
    subset = make_registry(PROFILES["visual_mcq"].strategies[0].effective_modules())
    with pytest.raises(DslExecutionError, match="unknown tool 'nope'"):
        subset.call("nope", [], {})
    with pytest.raises(DslExecutionError, match="not available in this strategy"):
        subset.call("find_when", ["q"], {})
    with pytest.raises(DslExecutionError, match="missing required argument 'end'"):
        subset.call("get_segment", [1], {})
    with pytest.raises(DslExecutionError, match="takes 2 arguments but 3 were given"):
        subset.call("get_segment", [1, 2, 3], {})
    with pytest.raises(DslExecutionError, match="unexpected keyword argument 'bogus'"):
        subset.call("think", [], {"bogus": 1})
    with pytest.raises(DslExecutionError, match="multiple values for argument 'thought'"):
        subset.call("think", ["a"], {"thought": "b"})


def test_backend_exceptions_become_tool_errors():
    def boom(thought):
        raise ValueError("internal detail")

    registry = ToolRegistry({"think": boom})
    with pytest.raises(DslExecutionError, match="think failed: internal detail"):
        registry.call("think", [], {"thought": "x"})


def test_fatal_backend_errors_pass_through():
    def fatal(thought):
        raise DataError("stops the run")

    registry = ToolRegistry({"think": fatal})
    with pytest.raises(DataError, match="stops the run"):
        registry.call("think", [], {"thought": "x"})


def test_strategy_headers():
    strategies = PROFILES["visual_mcq"].strategies
    assert strategies[0].header() == "Strategy A (retrieval_qa, get_segment):"
    assert strategies[1].header() == "Strategy B (direct retrieval_qa):"
    assert strategies[2].header() == "Strategy C (retrieval_qa, get_segment, find_when):"


def test_effective_modules_add_think_and_finish():
    subset = StrategySubset("A", ("retrieval_qa", "get_segment"), direct=False)
    assert subset.effective_modules() == ("retrieval_qa", "get_segment", "think", "finish")
    direct = StrategySubset("B", ("retrieval_qa",), direct=True)
    assert direct.effective_modules() == ("retrieval_qa",)


def test_profile_subsets_match_task_kinds():
    visual = PROFILES["visual_mcq"]
    assert visual.pool == ("get_segment", "retrieval_qa", "find_when")
    assert visual.answer_capable == frozenset({"retrieval_qa"})
    assert [s.modules for s in visual.strategies] == [
        ("retrieval_qa", "get_segment"),
        ("retrieval_qa",),
        ("retrieval_qa", "get_segment", "find_when"),
    ]

    asr = PROFILES["asr_mcq"]
    assert asr.answer_capable == frozenset({"retrieval_qa", "asr_understanding"})
    assert [s.modules for s in asr.strategies] == [
        ("get_segment", "retrieval_qa", "asr_understanding"),
        ("retrieval_qa",),
        ("get_segment", "retrieval_qa", "find_when", "asr_understanding"),
    ]

    temporal = PROFILES["temporal_range"]
    assert temporal.task_kind is TaskKind.TEMPORAL_RANGE
    assert temporal.answer_capable == frozenset({"retrieval_qa", "find_when"})
    assert [s.modules for s in temporal.strategies] == [
        ("get_segment", "find_when"),
        ("find_when",),
        ("get_segment", "retrieval_qa", "find_when"),
    ]


def test_enumerate_module_subsets_counts():
    # every nonempty pool subset containing at least one answer-capable module
    assert len(enumerate_module_subsets(PROFILES["visual_mcq"])) == 4
    assert len(enumerate_module_subsets(PROFILES["asr_mcq"])) == 12
    temporal = enumerate_module_subsets(PROFILES["temporal_range"])
    assert len(temporal) == 6
    # sorted by size then pool order, and each has an answer-capable member
    sizes = [len(s) for s in temporal]
    assert sizes == sorted(sizes)
    capable = PROFILES["temporal_range"].answer_capable
    for subset in temporal:
        assert capable & set(subset)
    assert len({tuple(s) for s in temporal}) == 6


def make_task(kind=TaskKind.MULTIPLE_CHOICE, allow_asr=False):
    video = VideoFixture(duration=600, fps=1.0, frames=())
    options = ("one", "two") if kind is TaskKind.MULTIPLE_CHOICE else None
    return TaskQuery("t1", "what happens?", kind, video, options, allow_asr)


def test_profile_for_task_dispatch():
    assert profile_for_task(make_task()) is PROFILES["visual_mcq"]
    assert profile_for_task(make_task(allow_asr=True)) is PROFILES["asr_mcq"]
    assert (
        profile_for_task(make_task(kind=TaskKind.TEMPORAL_RANGE))
        is PROFILES["temporal_range"]
    )
    assert profile_for_task(make_task(), name="asr_mcq") is PROFILES["asr_mcq"]
    with pytest.raises(ValueError):
        profile_for_task(make_task(), name="missing_profile")
