"""Agent-critic framework for video reasoning over interchangeable tool
backends: an iterative agent writes small tool-call programs, an execution
engine runs them against a registry of video modules, and a critic compares
the complete reasoning traces from several strategies to pick the answer.
"""

from .core import (
    Choice,
    FinalAnswer,
    Ranges,
    TaskKind,
    TaskQuery,
    Timestamp,
    TimestampError,
    Unparsed,
    VideoRef,
    VideoSegment,
    VideoSource,
    answer_key,
    answers_equal,
    format_timestamp,
    interval_union_iou,
    merge_segments,
    parse_final_answer,
    parse_timestamp,
)
from .dsl import (
    DslExecutionError,
    DslParseError,
    Program,
    StepResult,
    execute_program,
    extract_code_block,
    parse_program,
    render_value,
    run_source,
)
from .toolkit import (
    PROFILES,
    Profile,
    StrategySubset,
    ToolRegistry,
    enumerate_module_subsets,
    load_prompt_text,
    profile_for_task,
)
from .fixtures import (
    AllFrames,
    FixtureError,
    FrameRef,
    FrameWindow,
    FramesDirectory,
    Stride,
    Uniform,
    VideoFixture,
    load_fixture,
    load_frames_directory,
    sample_frames,
    video_ref_for,
    windows,
)
from .modelclient import (
    Cassette,
    CassetteClient,
    CassetteMode,
    ConcurrencyLimitedClient,
    FramesPart,
    HttpModelClient,
    ModelClient,
    ModelRequest,
    ReplayMismatchError,
    ScriptedModel,
    TextPart,
    budget_frames,
    fingerprint,
    text_request,
)
from .tools import (
    NO_RANGES_SENTENCE,
    NO_SPEECH_SENTENCE,
    NOT_VISIBLE_SENTENCE,
    TagContext,
    ToolConfig,
    ToolSuite,
    build_registry,
)
from .agent import (
    Step,
    StopReason,
    Trace,
    run_direct,
    run_episode,
    run_self_eval,
    run_single_program,
    task_statement,
)
from .critic import (
    CriticExample,
    CriticVerdict,
    Selection,
    build_critique_prompt,
    load_examples,
    parse_verdict,
    run_agent_critic,
    run_critic,
    sample_strategies,
    select_answer,
)
from .evalcli import (
    DatasetItem,
    RunConfig,
    ablate_fixed_subsets,
    evaluate,
    load_dataset,
    main,
    replay_run,
)

__version__ = "0.1.0"
