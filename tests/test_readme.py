"""README's library example runs against the package root as written, the
root exports only the names README lists, and README's exit codes are the
ones the command line returns."""

import os
import re
import types

import clipcritic
from clipcritic.core import FatalError

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
EXPORTS = {
    "TaskKind", "TaskQuery", "VideoFixture", "VideoSegment", "VideoSource",
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


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_readme_exit_codes_are_the_fatal_error_classes():
    with open(README, encoding="utf-8") as fh:
        sentence = re.search(r"Exit codes: (.*?)\.\s", fh.read(), flags=re.S).group(1)
    listed = re.findall(r"`(\d+)` ([a-z]+(?:\s+[a-z]+)*)", sentence)
    listed = [(int(code), " ".join(label.split())) for code, label in listed]
    assert listed[0] == (0, "success")
    pairs = {(cls.exit_code, cls.label) for cls in _subclasses(FatalError)}
    assert sorted(listed[1:]) == sorted(pairs)
