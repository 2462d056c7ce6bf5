"""Parser and evaluator for the restricted tool-call language.

The agent emits programs inside triple-backtick blocks. The grammar is a
closed allowlist induced from observed traces:

  - assignment and bare expression statements, newline separated
  - calls with positional and keyword arguments (callee is a bare name)
  - string literals in either quote style with \\' \\" \\\\ \\n \\t escapes
  - f-strings interpolating bare variable names, {{ and }} literal braces
  - integer literals, None, list literals
  - a single-level if with an == or != comparison and an indented block

Anything else is a parse error carrying the physical line and column of
the offending lexeme. One lexer pass, one compiled scanner match per
token together with the blanks and comment before it, splits the source
into statements before any is parsed, so a program's first lexical error
(bad character, unterminated string, nesting too deep) is reported before
any syntax error. The parser has no parser object: module functions walk
a statement's token list by index. Errors are values:
execution wraps every failure into the step result text shown back to the
agent, never an uncaught exception.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Union

from .core import VideoSegment, ascii_int

TOOL_CALL_CAP = 20  # defensive bound per program, generous vs observed traces
NESTING_CAP = 100  # brackets open at once; keeps parsing and evaluation shallow


class DslParseError(ValueError):
    """A construct outside the grammar."""

    def __init__(self, message: str, line: int, column: int, lexeme: str = ""):
        self.message = message
        self.line = line
        self.column = column
        self.lexeme = lexeme
        where = f"line {line}, column {column}"
        shown = f" near {lexeme!r}" if lexeme else ""
        super().__init__(f"parse error at {where}{shown}: {message}")


class DslExecutionError(RuntimeError):
    """A runtime failure inside a program (reported, not raised, to the agent)."""


# --- AST ---


@dataclass(frozen=True)
class StringLit:
    value: str


@dataclass(frozen=True)
class FStringLit:
    parts: tuple[Union[str, "Var"], ...]


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class NoneLit:
    pass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class ListLit:
    items: tuple["Expr", ...]


@dataclass(frozen=True)
class Call:
    callee: str
    args: tuple["Expr", ...]
    kwargs: tuple[tuple[str, "Expr"], ...]


Expr = Union[StringLit, FStringLit, IntLit, NoneLit, Var, ListLit, Call]


@dataclass(frozen=True)
class Comparison:
    left: Expr
    op: str  # "==" or "!="
    right: Expr


@dataclass(frozen=True)
class Assign:
    name: str
    value: Expr
    line: int


@dataclass(frozen=True)
class ExprStmt:
    value: Expr
    line: int


@dataclass(frozen=True)
class If:
    condition: Comparison
    then_block: tuple["Statement", ...]
    line: int


Statement = Union[Assign, ExprStmt, If]


@dataclass(frozen=True)
class Program:
    statements: tuple[Statement, ...]


@dataclass
class StepResult:
    """Outcome of executing one program against one episode environment."""

    rendered: str
    terminal: bool = False
    error: str | None = None
    answer: object = None  # the value the terminal call returned


# --- code block extraction ---


def extract_code_block(model_text: str) -> str | None:
    """Contents of the first triple-backtick block, language tag stripped.

    Returns None when there is no fence or the first fence never closes.
    """
    lines = model_text.split("\n")
    start = None
    for i, line in enumerate(lines):
        if line.strip().startswith("```"):
            start = i
            break
    if start is None:
        return None
    for j in range(start + 1, len(lines)):
        if lines[j].strip() == "```":
            return "\n".join(lines[start + 1 : j])
    return None


# --- lexer ---


class _Token(NamedTuple):
    kind: str  # IDENT NONE IF STRING FSTRING INT punctuation kinds
    value: object
    line: int  # physical line and column of the first character, 1-based
    column: int
    start: int  # source offsets of the token's text
    end: int


class _Line(NamedTuple):
    """One logical line: a statement's tokens, joined across brackets."""

    tokens: list[_Token]
    lead: str  # the spaces and tabs leading its first physical line

    @property
    def line(self) -> int:
        return self.tokens[0].line

    @property
    def indent(self) -> int:
        return len(self.lead)


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


_DIGITS = "0123456789"  # str.isdigit also takes other scripts' digits and "²"
_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "'": "'", '"': '"'}
_KEYWORDS = {"None": "NONE", "if": "IF"}

# One match per token: the blanks and comment before it, then one
# alternative per token class; `m.lastindex` says which one matched, and
# some alternative matches at every offset. `\w` is exactly `_is_ident`, and
# `[^\S\n]` exactly `str.isspace()` without "\n". A string runs to the next
# unescaped quote on its line (the unrolled `[^q\\\n]*(?:\\[\s\S][^q\\\n]*)*`
# takes what `(?:[^q\\\n]|\\[\s\S])*` does, in fewer steps), so a quote no
# alternative takes starts an unterminated string. A word is a name when
# `_is_ident_start` takes its first character; `_read_token` reads every
# other word (a number), and every character no other alternative takes.
_SCAN = re.compile(
    r"""[^\S\n]*(?:#[^\n]*)?"""  # blanks, then a comment
    r"""(?:(\n)"""  # 1: end of a physical line
    r"""|(==|!=|[()\[\],=:])"""  # 2: punctuation
    r"""|([fF]?(?:'[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*'"""  # 3: a string
    r"""|"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*"))"""
    r"""|(\w+)"""  # 4: a word
    r"""|(\Z)"""  # 5: end of source
    r"""|(.))"""  # 6: any other character
)


def _unescape(raw: str) -> str:
    if "\\" not in raw:
        return raw
    return re.sub(r"\\(.)", lambda m: _ESCAPES.get(m[1], m[0]), raw, flags=re.S)


def _lex(source: str) -> list[_Line]:
    """Split source into logical lines of tokens in one pass of `_SCAN`.

    A newline ends the statement unless brackets are open; comments are
    dropped. The first lexical error in source order is raised.
    """
    lines: list[_Line] = []
    tokens: list[_Token] = []
    depth = 0
    lead = ""
    line, line_start = 1, 0
    match = _SCAN.match
    new = tuple.__new__  # a named tuple without the Python-level NamedTuple.__new__
    i = 0
    while True:
        m = match(source, i)
        group = m.lastindex
        i = m.end()
        if group == 1:
            if depth == 0 and tokens:
                lines.append(new(_Line, (tokens, lead)))
                tokens = []
            line += 1
            line_start = i
            continue
        if group == 5:
            break
        start = m.start(group)
        if not tokens:
            blank = source[line_start:start]
            lead = blank[: len(blank) - len(blank.lstrip(" \t"))]
        column = start - line_start + 1
        if group == 4 and _is_ident_start(source[start]):
            value = m[4]
            kind = _KEYWORDS.get(value, "IDENT")
        elif group == 2:
            kind = value = m[2]
            if kind in "([":
                depth += 1
                if depth > NESTING_CAP:
                    raise DslParseError("brackets nested too deeply", line, column, kind)
            elif kind in ")]":
                depth = max(0, depth - 1)
        elif group == 3:
            if source[start] in "fF":
                kind = "FSTRING"
                value = _fstring_parts(source, start + 2, i - 1, line, line_start)
            else:
                kind, value = "STRING", _unescape(source[start + 1 : i - 1])
        else:  # numbers, and whatever the scanner does not take
            kind, value, i = _read_token(source, start, line, column)
        tokens.append(new(_Token, (kind, value, line, column, start, i)))
        if group == 3:
            newlines = source.count("\n", start, i)  # a string's escaped newlines
            if newlines:
                line, line_start = line + newlines, source.rindex("\n", start, i) + 1
    if tokens:
        lines.append(new(_Line, (tokens, lead)))
    return lines


def _read_token(source: str, i: int, line: int, column: int) -> tuple[str, object, int]:
    """Kind, value and end offset of a number at source[i], or the error
    for a token `_SCAN` does not take there."""
    ch = source[i]
    if ch in "'\"":
        raise DslParseError("unterminated string literal", line, column, ch)
    if ch in _DIGITS:
        n = len(source)
        j = i
        while j < n and source[j] in _DIGITS:
            j += 1
        if j < n and _is_ident_start(source[j]):
            raise DslParseError("malformed number", line, column, source[i : j + 1])
        value = ascii_int(source[i:j])
        if value is None:
            raise DslParseError("integer literal too long", line, column)
        return "INT", value, j
    raise DslParseError("unexpected character", line, column, ch)


# one match per piece of an f-string body, every character in one: 1:
# literal text, no group: {{ or }}, 2: a braced name, 3: an escaped
# character, 4-5: a brace with no partner
_PIECE = re.compile(r"([^{}\\]+)|\{\{|\}\}|\{([^}]*)\}|\\([\s\S]?)|(\{)|(\})")


def _fstring_parts(source: str, i: int, end: int, line: int, line_start: int) -> tuple:
    """Split the f-string body source[i:end] into literal text and
    bare-variable parts; `line_start` is the offset of `line`'s start."""

    def fault(message: str, at: int, lexeme: str) -> DslParseError:
        """The error at source[at], on its physical line and column."""
        newlines = source.count("\n", line_start, at)
        start = source.rindex("\n", line_start, at) + 1 if newlines else line_start
        return DslParseError(message, line + newlines, at - start + 1, lexeme)

    parts: list[Union[str, Var]] = []
    text: list[str] = []
    for m in _PIECE.finditer(source, i, end):
        piece = m.lastindex
        if piece == 1:
            text.append(m[1])
        elif piece == 2:
            inner = m[2]
            name = inner.strip()
            if not (name and _is_ident_start(name[0]) and all(map(_is_ident, name))):
                at = m.start(2) + len(inner) - len(inner.lstrip())
                raise fault("only bare variable names may be interpolated", at, name)
            if text:
                parts.append("".join(text))
                text = []
            parts.append(Var(name))
        elif piece == 3:
            text.append(_ESCAPES.get(m[3], "\\" + m[3]))
        elif piece == 4:
            raise fault("unclosed brace in f-string", m.start(), "{")
        elif piece == 5:
            raise fault("single '}' in f-string", m.start(), "}")
        else:
            text.append(m[0][0])
    if text:
        parts.append("".join(text))
    return tuple(parts)


# --- parser ---
# Token fields are read by position: 0 kind, 1 value, 2 line, 3 column. An
# error at the end of a statement is reported at its `line`, column 0.


def _parse_expr(tokens: list[_Token], i: int, line: int) -> tuple[Expr, int]:
    """The expression at tokens[i] and the index after it."""
    if i >= len(tokens):
        raise DslParseError("unexpected end of statement", line, 0)
    tok = tokens[i]
    kind = tok[0]
    i += 1
    if kind == "IDENT":
        if i < len(tokens) and tokens[i][0] == "(":
            return _parse_call(tokens, i + 1, line, tok[1])
        return Var(tok[1]), i
    if kind == "STRING":
        return StringLit(tok[1]), i
    if kind == "FSTRING":
        return FStringLit(tok[1]), i
    if kind == "INT":
        return IntLit(tok[1]), i
    if kind == "NONE":
        return NoneLit(), i
    if kind == "[":
        items = []
        while i >= len(tokens) or tokens[i][0] != "]":
            item, i = _parse_expr(tokens, i, line)
            items.append(item)
            if i >= len(tokens) or tokens[i][0] != ",":
                break
            i += 1
        return ListLit(tuple(items)), _expect(tokens, i, "]", line)
    raise DslParseError("expected an expression", tok[2], tok[3], str(tok[1]))


def _parse_call(tokens: list[_Token], i: int, line: int, callee: str) -> tuple[Call, int]:
    """The call whose arguments start at tokens[i], after its '('."""
    args: list[Expr] = []
    kwargs: list[tuple[str, Expr]] = []
    n = len(tokens)
    while i >= n or tokens[i][0] != ")":
        tok = tokens[i] if i < n else None
        if i + 1 < n and tok[0] == "IDENT" and tokens[i + 1][0] == "=":
            value, i = _parse_expr(tokens, i + 2, line)
            kwargs.append((tok[1], value))
        else:
            if kwargs:
                at = (tok[2], tok[3]) if tok else (line, 0)
                raise DslParseError("positional argument after keyword argument", *at)
            value, i = _parse_expr(tokens, i, line)
            args.append(value)
        if i >= n or tokens[i][0] != ",":
            break
        i += 1
    return Call(callee, tuple(args), tuple(kwargs)), _expect(tokens, i, ")", line)


def _expect(tokens: list[_Token], i: int, kind: str, line: int) -> int:
    """The index after tokens[i], which must be a `kind` token."""
    if i < len(tokens):
        tok = tokens[i]
        if tok[0] == kind:
            return i + 1
        found = str(tok[1])
        raise DslParseError(f"expected {kind!r}, found {found!r}", tok[2], tok[3], found)
    raise DslParseError(f"expected {kind!r}, found end of statement", line, 0)


def _expect_end(tokens: list[_Token], i: int) -> None:
    if i < len(tokens):
        tok = tokens[i]
        raise DslParseError("trailing tokens after expression", tok[2], tok[3], str(tok[1]))


def parse_program(text: str) -> Program:
    """Parse a program or raise DslParseError for anything off-grammar."""
    lines = _lex(text)
    if not lines:
        raise DslParseError("empty program", 1, 1)
    statements: list[Statement] = []
    i = 0
    while i < len(lines) and lines[i].lead == lines[0].lead:
        statement, i = _parse_statement(lines, i)
        statements.append(statement)
    if i < len(lines):
        ll = lines[i]
        raise DslParseError(
            "unexpected indentation", ll.line, ll.indent + 1, _line_text(text, ll)[:20]
        )
    return Program(tuple(statements))


def _line_text(source: str, ll: _Line) -> str:
    """The logical line's text from its indent: comments dropped, and
    newlines between tokens read as spaces."""
    first = ll.tokens[0]
    pos = first.start - first.column + 1 + ll.indent
    out = []
    for tok in ll.tokens:
        gap = source[pos : tok.start].split("\n")
        out.append(" ".join(part.split("#", 1)[0] for part in gap))
        out.append(source[tok.start : tok.end])
        pos = tok.end
    return "".join(out)


def _parse_statement(lines: list[_Line], i: int) -> tuple[Statement, int]:
    """Parse the statement on logical line i; return it and the next line's index."""
    tokens = lines[i].tokens
    first = tokens[0]
    if first[0] == "IF":
        return _parse_if(lines, i)
    line = first[2]
    # assignment: IDENT '=' (not '==')
    assign = len(tokens) >= 2 and first[0] == "IDENT" and tokens[1][0] == "="
    expr, j = _parse_expr(tokens, 2 if assign else 0, line)
    _expect_end(tokens, j)
    if assign:
        return Assign(first[1], expr, line), i + 1
    if isinstance(expr, Var):
        raise DslParseError("a bare name is not a statement", line, first[3], expr.name)
    return ExprStmt(expr, line), i + 1


def _parse_if(lines: list[_Line], i: int) -> tuple[If, int]:
    ll = lines[i]
    if ll.tokens[-1][0] != ":":
        raise DslParseError("if header must end with ':'", ll.line, ll.indent + 1)
    head = ll.tokens[:-1]  # the condition is head[1:]
    left, k = _parse_expr(head, 1, ll.line)
    if k >= len(head) or head[k][0] not in ("==", "!="):
        at = (head[k][2], head[k][3]) if k < len(head) else (ll.line, 0)
        raise DslParseError("if condition must compare with == or !=", *at)
    right, end = _parse_expr(head, k + 1, ll.line)
    _expect_end(head, end)
    j = i + 1
    if j >= len(lines) or lines[j].indent <= ll.indent:
        raise DslParseError("if statement needs an indented block", ll.line, ll.indent + 1)
    body: list[Statement] = []
    while j < len(lines) and lines[j].indent > ll.indent:
        inner = lines[j]
        if inner.lead != lines[i + 1].lead:
            raise DslParseError(
                "inconsistent indentation in if block", inner.line, inner.indent + 1
            )
        statement, j = _parse_statement(lines, j)
        if isinstance(statement, If):
            raise DslParseError("nested if is not supported", inner.line, inner.indent + 1)
        body.append(statement)
    return If(Comparison(left, head[k][1], right), tuple(body), ll.line), j


# --- execution ---


def render_value(value: object) -> str:
    """Render a runtime value the way results are shown to the agent."""
    if isinstance(value, str):
        return value
    if isinstance(value, VideoSegment):
        start, end = value.as_strings()
        return f"['{start}', '{end}']"
    if isinstance(value, list):
        return "[" + ", ".join(render_value(item) for item in value) + "]"
    return str(value)


def execute_program(program: Program, env: dict, registry) -> StepResult:
    """Run a program against an episode environment and a tool registry.

    The rendered result is the rendering of the last evaluated statement's
    value. Every failure mode becomes error text in the result; assignments
    made before a failure persist.
    """
    state = _ExecState(env, registry)
    last_value: object = None
    try:
        for stmt in program.statements:
            last_value = state.exec_statement(stmt)
            if state.terminal:
                break
    except DslExecutionError as exc:
        message = str(exc)
        return StepResult(
            rendered=message,
            terminal=state.terminal,
            error=message,
            answer=state.answer,
        )
    return StepResult(
        rendered=render_value(last_value),
        terminal=state.terminal,
        answer=state.answer,
    )


def run_source(source: str, env: dict, registry) -> StepResult:
    """Parse then execute, folding parse errors into the step result."""
    try:
        program = parse_program(source)
    except DslParseError as exc:
        message = f"error: {exc}"
        return StepResult(rendered=message, error=message)
    return execute_program(program, env, registry)


class _ExecState:
    def __init__(self, env: dict, registry):
        self.env = env
        self.registry = registry
        self.calls = 0
        self.terminal = False
        self.answer: object = None

    def exec_statement(self, stmt: Statement) -> object:
        if isinstance(stmt, Assign):
            value = self.eval_expr(stmt.value)
            self.env[stmt.name] = value
            return value
        if isinstance(stmt, ExprStmt):
            return self.eval_expr(stmt.value)
        if isinstance(stmt, If):
            left = self.eval_expr(stmt.condition.left)
            right = self.eval_expr(stmt.condition.right)
            taken = (left == right) if stmt.condition.op == "==" else (left != right)
            value: object = None
            if taken:
                for inner in stmt.then_block:
                    value = self.exec_statement(inner)
                    if self.terminal:
                        break
            return value
        raise DslExecutionError(f"error: unknown statement {stmt!r}")

    def eval_expr(self, expr: Expr) -> object:
        if isinstance(expr, StringLit):
            return expr.value
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, NoneLit):
            return None
        if isinstance(expr, ListLit):
            return [self.eval_expr(item) for item in expr.items]
        if isinstance(expr, Var):
            if expr.name not in self.env:
                raise DslExecutionError(f"error: name '{expr.name}' is not defined")
            return self.env[expr.name]
        if isinstance(expr, FStringLit):
            out = []
            for part in expr.parts:
                if isinstance(part, Var):
                    if part.name not in self.env:
                        raise DslExecutionError(
                            f"error: name '{part.name}' is not defined"
                        )
                    out.append(render_value(self.env[part.name]))
                else:
                    out.append(part)
            return "".join(out)
        if isinstance(expr, Call):
            return self.eval_call(expr)
        raise DslExecutionError(f"error: unknown expression {expr!r}")

    def eval_call(self, call: Call) -> object:
        self.calls += 1
        if self.calls > TOOL_CALL_CAP:
            raise DslExecutionError(
                f"error: tool call limit ({TOOL_CALL_CAP}) exceeded"
            )
        args = [self.eval_expr(a) for a in call.args]
        kwargs = {}
        for name, expr in call.kwargs:
            if name in kwargs:
                raise DslExecutionError(
                    f"error: {call.callee}() got duplicate keyword argument '{name}'"
                )
            kwargs[name] = self.eval_expr(expr)
        value = self.registry.call(call.callee, args, kwargs)
        if call.callee in self.registry.terminal_tools:
            self.terminal = True
            self.answer = value
        return value
