"""Program parsing, execution semantics, and the golden program corpus."""

import json
import re
import sys
import time
from pathlib import Path

import pytest

from clipcritic.core import VideoSegment
from clipcritic.dsl import (
    TOOL_CALL_CAP,
    Call,
    DslParseError,
    extract_code_block,
    parse_program,
    render_value,
    run_source,
)

DATA_DIR = Path(__file__).parent / "data"


class StubRegistry:
    """Accepts any call; finish is terminal and echoes its argument."""

    terminal_tools = frozenset({"finish"})

    def __init__(self):
        self.calls = []

    def call(self, name, args, kwargs):
        self.calls.append((name, args, kwargs))
        if name == "finish":
            return args[0] if args else kwargs.get("final_answer")
        if name == "get_segment":
            return VideoSegment(0, 10)
        return f"<{name}>"


def run(source, env=None, registry=None):
    return run_source(source, env if env is not None else {}, registry or StubRegistry())


def load_golden_corpus():
    return json.loads((DATA_DIR / "golden_programs.json").read_text())


def test_golden_corpus_parses_and_executes():
    corpus = load_golden_corpus()
    blocks = sum(len(trace["programs"]) for trace in corpus)
    assert blocks >= 30
    started = time.perf_counter()
    for trace in corpus:
        env = {}
        registry = StubRegistry()
        for program in trace["programs"]:
            result = run(program, env=env, registry=registry)
            assert result.error is None, (
                f"{trace['listing']} example {trace['example']} "
                f"strategy {trace['strategy']}: {result.error}\n{program}"
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"corpus took {elapsed:.2f}s"


def test_extract_code_block():
    assert extract_code_block("text\n```python\nx = 1\n```\nmore") == "x = 1"
    assert extract_code_block("```\na = think(thought='x')\n```") == "a = think(thought='x')"
    assert extract_code_block("no fence here") is None
    # unterminated fence is not a block
    assert extract_code_block("```\nx = 1") is None
    # first fence wins
    two = "```\nfirst()\n```\n```\nsecond()\n```"
    assert extract_code_block(two) == "first()"


def test_assignment_and_env_persistence():
    env = {}
    first = run("x = get_segment(0, 30)", env=env)
    assert first.error is None
    assert env["x"] == VideoSegment(0, 10)
    second = run("y = think(thought=x)", env=env)
    assert second.error is None
    assert sorted(env) == ["x", "y"]


def test_terminal_tool_stops_execution():
    registry = StubRegistry()
    result = run("finish(final_answer='done')\nthink(thought='after')", registry=registry)
    assert result.terminal
    assert result.rendered == "done"
    assert [c[0] for c in registry.calls] == ["finish"]


def test_conditional_both_arms():
    taken = run("if x != 1:\n    think(thought='ne')", env={"x": 2})
    assert taken.rendered == "<think>"
    skipped = run("if x == 1:\n    think(thought='eq')", env={"x": 2})
    assert skipped.error is None
    assert skipped.rendered == "None"


def test_fstring_interpolation():
    ok = run('msg = f"at {t} sec"', env={"t": "01:00"})
    assert ok.rendered == "at 01:00 sec"
    literal = run('msg = f"{{braces}} kept"')
    assert literal.rendered == "{braces} kept"
    missing = run('msg = f"at {t} sec"')
    assert missing.rendered == "error: name 't' is not defined"


def test_string_escapes():
    result = run(r"x = 'it\'s a \"test\" with\nnewline\tand tab'")
    assert result.error is None
    assert result.rendered == 'it\'s a "test" with\nnewline\tand tab'


@pytest.mark.parametrize(
    "source,fragment",
    [
        ("import os", "trailing tokens"),
        ("x", "bare name is not a statement"),
        ("if a == 1:\n    if b == 2:\n        think(thought='no')", "nested if"),
        ("x = 'unterminated", "unterminated string"),
        ("x = 1 + 2", "unexpected character"),
        ("for i in xs:\n    think(thought=i)", ""),
        ("if a < 1:\n    think(thought='no')", ""),
        ("", "empty program"),
        ("# just a comment", "empty program"),
        ('x = f"bad {1+2} expr"', ""),
    ],
)
def test_rejected_grammar(source, fragment):
    result = run(source)
    assert result.error is not None
    assert result.rendered.startswith("error: ")
    assert fragment in result.error


def test_parse_error_carries_location():
    with pytest.raises(DslParseError) as exc_info:
        parse_program("x = 'open")
    err = exc_info.value
    assert err.line == 1
    assert err.column >= 1
    assert "line 1" in str(err)


def parse_error(source):
    with pytest.raises(DslParseError) as exc_info:
        parse_program(source)
    err = exc_info.value
    return err.message, err.line, err.column, err.lexeme


def test_errors_inside_brackets_report_their_physical_line():
    source = "x = find_when(\n    query='a',\n    video_segment=seg + 1,\n)"
    assert parse_error(source) == ("unexpected character", 3, 23, "+")
    assert parse_error("x = f(\n  a\n  b)") == ("expected ')', found 'b'", 3, 3, "b")


def test_unexpected_indentation_shows_the_joined_line():
    source = "x = 1\n  y = f(a, # c\n b)"
    assert parse_error(source) == ("unexpected indentation", 2, 3, "y = f(a,   b)")


def test_unterminated_string_and_nesting_report_their_column():
    assert parse_error("x = 'open") == ("unterminated string literal", 1, 5, "'")
    assert parse_error("y = 1\nx = f'open") == ("unterminated string literal", 2, 6, "'")
    assert parse_error("x = " + "[" * 101) == ("brackets nested too deeply", 1, 105, "[")


def test_lines_after_an_escaped_newline_in_a_string_keep_their_number():
    program = parse_program("x = 'a\\\nb'\ny = 1")
    assert program.statements[0].value.value == "a\\\nb"
    assert [s.line for s in program.statements] == [1, 3]
    assert parse_error("x = 'a\\\nb'\ny = $") == ("unexpected character", 3, 5, "$")


def test_tabs_indent_as_spaces_do():
    program = parse_program("if a == b:\n\tx = 1")
    assert [type(s).__name__ for s in program.statements] == ["If"]
    assert len(program.statements[0].then_block) == 1
    assert parse_error("x = 1\n\ty = 2") == ("unexpected indentation", 2, 2, "y = 2")
    for block in ("\tx = 1\n    y = 2", "\tx = 1\n y = 2", "  x = 1\n\t\ty = 2"):
        message, line, _, _ = parse_error("if a == b:\n" + block)
        assert (message, line) == ("inconsistent indentation in if block", 3)


@pytest.mark.parametrize("digit", ["\u0663", "\u00b2"])  # Arabic-Indic three, superscript two
def test_only_ascii_digits_make_numbers(digit):
    assert parse_error(f"x = {digit}") == ("unexpected character", 1, 5, digit)


def test_fstring_errors_point_at_the_fault():
    assert parse_error('x = f"a {1+2}"') == (
        "only bare variable names may be interpolated", 1, 10, "1+2"
    )
    assert parse_error('x = f"a }"') == ("single '}' in f-string", 1, 9, "}")
    assert parse_error('x = f"a \\\n {b"') == ("unclosed brace in f-string", 2, 2, "{")


def test_multiline_call_arguments_join():
    source = "x = find_when(\n    query='door opens',\n    video_segment=seg,\n)"
    program = parse_program(source)
    assert len(program.statements) == 1
    env = {"seg": VideoSegment(0, 5)}
    result = run(source, env=env)
    assert result.error is None


def test_comments_stripped_string_aware():
    result = run("x = think(thought='keep # this')  # drop this")
    assert result.error is None
    registry = StubRegistry()
    run("y = think(thought='a # b')", registry=registry)
    assert registry.calls[0][2]["thought"] == "a # b"


def test_tool_call_cap():
    source = "\n".join(f"think(thought='{i}')" for i in range(TOOL_CALL_CAP + 1))
    result = run(source)
    assert result.rendered == f"error: tool call limit ({TOOL_CALL_CAP}) exceeded"
    at_cap = "\n".join(f"think(thought='{i}')" for i in range(TOOL_CALL_CAP))
    assert run(at_cap).error is None


def test_error_values_abort_at_first_error():
    registry = StubRegistry()
    result = run("a = think(thought=missing)\nb = think(thought='next')", registry=registry)
    assert result.rendered == "error: name 'missing' is not defined"
    # nothing after the failing statement ran
    assert registry.calls == []


def test_duplicate_keyword_rejected():
    result = run("x = think(thought='a', thought='b')")
    assert result.rendered == "error: think() got duplicate keyword argument 'thought'"


def test_render_value_cases():
    assert render_value(None) == "None"
    assert render_value("plain text") == "plain text"
    assert render_value(7) == "7"
    assert render_value(True) == "True"
    assert render_value(VideoSegment(150, 175)) == "['02:30', '02:55']"
    assert render_value([10, None, "a"]) == "[10, None, a]"
    assert render_value([]) == "[]"


def test_positional_and_keyword_arguments():
    registry = StubRegistry()
    run("x = retrieval_qa('what?', answer_options=None, video_segment=seg)",
        env={"seg": VideoSegment(2, 4)}, registry=registry)
    name, args, kwargs = registry.calls[0]
    assert name == "retrieval_qa"
    assert args == ["what?"]
    assert kwargs == {"answer_options": None, "video_segment": VideoSegment(2, 4)}


def test_list_literals_evaluate_elements():
    registry = StubRegistry()
    result = run("x = think(thought=[a, 'mid', 3])", env={"a": "first"}, registry=registry)
    assert result.error is None
    assert registry.calls[0][2]["thought"] == ["first", "mid", 3]


def test_program_ast_shape():
    program = parse_program("x = think(thought='hi')\nfinish(final_answer=x)")
    assert len(program.statements) == 2
    call = program.statements[0].value
    assert isinstance(call, Call)
    assert call.callee == "think"


@pytest.mark.parametrize("blank", ["\xa0", "\x1c", "\r", "　"])  # any str.isspace but \n
def test_unicode_blanks_separate_tokens(blank):
    program = parse_program(f"x{blank}= 1")
    assert program.statements[0].name == "x"
    assert program.statements[0].value.value == 1


@pytest.mark.parametrize("char", ["²", "١", "!"])  # superscript two, Arabic-Indic one
def test_a_statement_cannot_start_with_a_digit_like_or_stray_character(char):
    assert parse_error(f"{char} = 1") == ("unexpected character", 1, 1, char)


def test_names_continue_with_any_alphanumeric():
    assert parse_program("x² = 1").statements[0].name == "x²"
    assert parse_program("café_1 = 1").statements[0].name == "café_1"


def test_string_lexing_edges():
    program = parse_program("x = 'a\\\nb'\ny = F\"{y}\"")
    assert [s.line for s in program.statements] == [1, 3]
    assert program.statements[1].value.parts[0].name == "y"
    assert parse_error("x = 'ab\\") == ("unterminated string literal", 1, 5, "'")
    assert parse_error("x = f'ab\\'") == ("unterminated string literal", 1, 6, "'")
    # only f and F prefix a string: "elf" is a name, then a string
    assert parse_error("elf'x'") == ("trailing tokens after expression", 1, 4, "x")
    assert parse_program("x = ''").statements[0].value.value == ""
    assert parse_program("x = 'a\\qb'").statements[0].value.value == "a\\qb"


def test_number_lexing_edges():
    assert parse_error("x = 12abc") == ("malformed number", 1, 5, "12a")
    assert parse_error("x = 1_0") == ("malformed number", 1, 5, "1_")
    assert parse_error("x = 1²") == ("unexpected character", 1, 6, "²")
    assert parse_error("x = " + "7" * 5000) == ("integer literal too long", 1, 5, "")
    assert parse_program("x = 007").statements[0].value.value == 7


def test_scanner_classes_are_the_hand_written_predicates():
    # _SCAN's `\w` and `[^\S\n]` must take exactly the characters that
    # `_is_ident` and `str.isspace()` without "\n" take, in every code point
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\w", every) == [c for c in every if c.isalnum() or c == "_"]
    assert re.findall(r"[^\S\n]", every) == [c for c in every if c.isspace() and c != "\n"]
