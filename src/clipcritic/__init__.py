"""Agent-critic framework for video reasoning over interchangeable tool
backends: an iterative agent writes small tool-call programs, an execution
engine runs them against a registry of video modules, and a critic compares
the complete reasoning traces from several strategies to pick the answer.

The package root exports the core task types and the run entry points;
the submodules (`core`, `dsl`, `toolkit`, `fixtures`, `modelclient`,
`tools`, `agent`, `critic`, `evalcli`) hold the full API.
"""

from .core import (
    TaskKind,
    TaskQuery,
    VideoSegment,
    VideoSource,
    interval_union_iou,
    parse_timestamp,
)
from .evalcli import (
    RunConfig,
    ablate_fixed_subsets,
    evaluate,
    load_dataset,
    main,
    replay_run,
)
from .fixtures import VideoFixture

__version__ = "0.1.0"
