"""Only the ASCII digits 0-9 are digits: no string literal in the package
holds the regex class `\\d`, which also takes Arabic-Indic, fullwidth and
other scripts' digits. Comments may name it."""

import ast
import io
import re
import tokenize
from pathlib import Path

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
