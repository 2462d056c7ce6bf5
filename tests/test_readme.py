"""README's library example runs against the package root as written, and
the root exports only the names README lists."""

import os
import re
import types

import clipcritic

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
EXPORTS = {
    "TaskKind", "TaskQuery", "VideoRef", "VideoSegment", "VideoSource",
    "interval_union_iou", "parse_timestamp",
    "RunConfig", "load_dataset", "evaluate", "ablate_fixed_subsets", "replay_run", "main",
}


def test_readme_library_example_runs_on_the_package_root():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    assert len(blocks) == 1
    scope: dict = {}
    exec(blocks[0], scope)
    assert scope["iou"] == 0.5
    exported = {
        name
        for name, value in vars(clipcritic).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == EXPORTS
