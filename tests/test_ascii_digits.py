"""Only the ASCII digits 0-9 are digits: no string literal in the package
holds the regex class `\\d`, which also takes Arabic-Indic, fullwidth and
other scripts' digits. Comments may name it. And no parser of model-written
text lets a digit run, however long or in whatever script, escape as
anything but its documented error."""

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from clipcritic.agent import _parse_confidence
from clipcritic.core import (
    Choice,
    TaskKind,
    TaskQuery,
    TimestampError,
    Unparsed,
    ascii_int,
    parse_final_answer,
    parse_timestamp,
)
from clipcritic.critic import parse_verdict
from clipcritic.dsl import StepResult, run_source
from clipcritic.fixtures import FrameRef, VideoFixture
from clipcritic.toolkit import StrategySubset
from clipcritic.tools import build_registry

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "clipcritic"

# a backslash-d that is not itself an escaped backslash followed by "d"
DIGIT_CLASS = re.compile(r"(?<!\\)(?:\\\\)*\\d")


def literal_text(token: str) -> str:
    """The text of a string literal: an f-string's literal parts."""
    node = ast.parse(token, mode="eval").body
    parts = node.values if isinstance(node, ast.JoinedStr) else [node]
    values = [part.value for part in parts if isinstance(part, ast.Constant)]
    return "".join(v.decode("latin-1") if isinstance(v, bytes) else v for v in values)


def test_no_string_literal_holds_the_digit_class():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    found = []
    for module in modules:
        source = module.read_text(encoding="utf-8")
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.STRING and DIGIT_CLASS.search(literal_text(tok.string)):
                found.append(f"{module.name}:{tok.start[0]}")
    assert found == []


def test_the_check_sees_every_spelling():
    for token in ['r"\\d+"', '"\\\\d"', "rb'[\\d]'", 'f"{x}\\\\d"', "'''\n\\\\d'''"]:
        assert DIGIT_CLASS.search(literal_text(token)), token
    for token in ['"[0-9]+"', 'r"\\\\d"', "'d'", 'f"{d}"']:
        assert not DIGIT_CLASS.search(literal_text(token)), token


def test_ascii_int_reads_only_ascii_digit_runs_int_converts():
    limit = sys.get_int_max_str_digits()
    assert limit == 4300  # the interpreter's default, which the replies below also probe
    assert ascii_int("9" * limit) == 10**limit - 1
    assert ascii_int("9" * (limit + 1)) is None
    assert ascii_int("0") == 0 and ascii_int("007") == 7
    # int() reads each of these, but they are not runs of ASCII digits
    for text in ["", " 7", "7 ", "+7", "-7", "1_000", "7\n", *OTHER_DIGITS, "1٢", "０7"]:
        assert ascii_int(text) is None, text


# --- every parser of model-written text, on long and non-ASCII digit runs ---

# digits of other scripts that str.isdigit or int() accept: Arabic-Indic,
# Devanagari, fullwidth, superscript, NKo, mathematical bold
OTHER_DIGITS = "٠٢٩०७０９²³߀𝟘𝟗"
PIECES = (
    ":", "::", "00", ":00", ":59", ":60", "(", ")", "[", "]", ", ", "'", '"', "-",
    " ", "\n", "A", "B", "C", "x = ", "Final Answer: ", "Final Answer: (",
    "Winning Strategies: ", "Winning Strategy: ", "Confidence: ",
    'get_segment(start="', '", end="', '")', "finish(final_answer=", "think(",
)


def digit_runs():
    """ASCII runs up to and past int()'s digit limit, and other scripts' digits."""
    lengths = st.sampled_from((1, 2, 4300, 4301, 6000)) | st.integers(1, 12)
    return st.builds(lambda d, n: d * n, st.sampled_from("0123456789"), lengths) | st.text(
        OTHER_DIGITS, min_size=1, max_size=4
    )


# each parser's own shapes, a digit run in each place it reads a number
SHAPES = (
    "{}:00", "{}:59:59", " {}:{} ", "00:{}", "Final Answer: ({})",
    "Final Answer: [{}:00, {}:30]", "Final Answer: ['00:{}', '{}:{}']",
    "Winning Strategies: {}, A", "Confidence: {}", "x = {}",
    'get_segment(start="{}:00", end="{}:00")', "finish(final_answer={})",
)


@st.composite
def shaped(draw):
    shape = draw(st.sampled_from(SHAPES))
    return shape.format(*(draw(digit_runs()) for _ in range(shape.count("{}"))))


replies = shaped() | st.lists(st.sampled_from(PIECES) | digit_runs() | shaped(), max_size=8).map(
    "".join
)


def oracle_registry():
    frames = tuple(FrameRef(i, float(i)) for i in range(0, 600, 10))
    task = TaskQuery(
        "t1", "What is shown?", TaskKind.MULTIPLE_CHOICE, VideoFixture(600, 1.0, frames),
        ("a", "b"), False,
    )
    subset = StrategySubset("A", ("get_segment", "retrieval_qa", "find_when"))
    return build_registry(task, subset)


@settings(max_examples=300, deadline=None)
@given(text=replies)
def test_reply_parsers_raise_only_their_documented_errors(text):
    # parse_timestamp: whole seconds read from ASCII digits, or TimestampError
    try:
        assert parse_timestamp(text) >= 0 and text.isascii()
    except TimestampError:
        pass
    # parse_final_answer, parse_verdict and the confidence parse never raise
    choice = parse_final_answer(text, TaskKind.MULTIPLE_CHOICE)
    assert isinstance(choice, Unparsed) or (isinstance(choice, Choice) and choice.index >= 1)
    parse_final_answer(text, TaskKind.TEMPORAL_RANGE)
    verdict = parse_verdict(text, ["A", "B", "C"])
    assert set(verdict.winners) <= {"A", "B", "C"}
    assert _parse_confidence(text) in (1, 2, 3)
    # run_source folds every failure into its step result
    registry = oracle_registry()
    for source in (
        text,
        f"x = {text}",
        f'get_segment(start="{text}", end="{text}")',
        f"finish(final_answer={text})",
    ):
        assert isinstance(run_source(source, {}, registry), StepResult)
