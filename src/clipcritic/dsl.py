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
the offending lexeme. One lexer pass splits the source into statements
before any is parsed, so a program's first lexical error (bad character,
unterminated string, nesting too deep) is reported before any syntax
error. Errors are values: execution wraps every failure into the step
result text shown back to the agent, never an uncaught exception.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .core import VideoSegment

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


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT NONE IF STRING FSTRING INT punctuation kinds
    value: object
    line: int  # physical line and column of the first character, 1-based
    column: int
    start: int  # source offsets of the token's text
    end: int


@dataclass(frozen=True)
class _Line:
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


def _unescape(raw: str) -> str:
    return re.sub(r"\\(.)", lambda m: _ESCAPES.get(m[1], m[0]), raw, flags=re.S)


def _lex(source: str) -> list[_Line]:
    """Split source into logical lines of tokens in one pass.

    A newline ends the statement unless brackets are open; comments are
    dropped. The first lexical error in source order is raised.
    """
    lines: list[_Line] = []
    tokens: list[_Token] = []
    depth = 0
    lead = ""
    line, line_start = 1, 0
    i = 0
    while i < len(source):
        ch = source[i]
        if ch == "\n":
            if depth == 0 and tokens:
                lines.append(_Line(tokens, lead))
                tokens = []
            line, line_start = line + 1, i + 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            continue
        if ch == "#":
            end = source.find("\n", i)
            i = len(source) if end < 0 else end
            continue
        if not tokens:
            blank = source[line_start:i]
            lead = blank[: len(blank) - len(blank.lstrip(" \t"))]
        column = i - line_start + 1
        kind, value, end = _read_token(source, i, line, column)
        if kind in ("(", "["):
            depth += 1
            if depth > NESTING_CAP:
                raise DslParseError("brackets nested too deeply", line, column, kind)
        elif kind in (")", "]"):
            depth = max(0, depth - 1)
        tokens.append(_Token(kind, value, line, column, i, end))
        newlines = source.count("\n", i, end)  # a string's escaped newlines
        if newlines:
            line, line_start = line + newlines, source.rindex("\n", i, end) + 1
        i = end
    if tokens:
        lines.append(_Line(tokens, lead))
    return lines


def _read_token(source: str, i: int, line: int, column: int) -> tuple[str, object, int]:
    """Kind, value and end offset of the token that starts at source[i]."""
    ch = source[i]
    n = len(source)
    if ch in "'\"" or (ch in "fF" and source[i + 1 : i + 2] in ("'", '"')):
        quote_at = i + (ch in "fF")
        quote = source[quote_at]
        j = quote_at + 1
        while j < n and source[j] not in (quote, "\n"):
            j += 2 if source[j] == "\\" else 1
        if j >= n or source[j] != quote:
            raise DslParseError(
                "unterminated string literal", line, column + quote_at - i, quote
            )
        if ch in "fF":
            parts = _fstring_parts(source, quote_at + 1, j, line, i - column + 1)
            return "FSTRING", parts, j + 1
        return "STRING", _unescape(source[quote_at + 1 : j]), j + 1
    if ch in _DIGITS:
        j = i
        while j < n and source[j] in _DIGITS:
            j += 1
        if j < n and _is_ident_start(source[j]):
            raise DslParseError("malformed number", line, column, source[i : j + 1])
        try:
            return "INT", int(source[i:j]), j
        except ValueError:  # more digits than the interpreter converts
            raise DslParseError("integer literal too long", line, column) from None
    if _is_ident_start(ch):
        j = i
        while j < n and _is_ident(source[j]):
            j += 1
        word = source[i:j]
        return {"None": "NONE", "if": "IF"}.get(word, "IDENT"), word, j
    two = source[i : i + 2]
    if two in ("==", "!="):
        return two, two, i + 2
    if ch in "()[],=:":
        return ch, ch, i + 1
    raise DslParseError("unexpected character", line, column, ch)


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
    while i < end:
        ch = source[i]
        if ch == "{":
            if i + 1 < end and source[i + 1] == "{":
                text.append("{")
                i += 2
                continue
            j = source.find("}", i + 1, end)
            if j < 0:
                raise fault("unclosed brace in f-string", i, "{")
            inner = source[i + 1 : j]
            name = inner.strip()
            if not (name and _is_ident_start(name[0]) and all(map(_is_ident, name))):
                at = i + 1 + len(inner) - len(inner.lstrip())
                raise fault("only bare variable names may be interpolated", at, name)
            if text:
                parts.append("".join(text))
                text = []
            parts.append(Var(name))
            i = j + 1
            continue
        if ch == "}":
            if i + 1 < end and source[i + 1] == "}":
                text.append("}")
                i += 2
                continue
            raise fault("single '}' in f-string", i, "}")
        if ch == "\\" and i + 1 < end:
            text.append(_ESCAPES.get(source[i + 1], "\\" + source[i + 1]))
            i += 2
            continue
        text.append(ch)
        i += 1
    if text:
        parts.append("".join(text))
    return tuple(parts)


# --- parser ---


class _ExprParser:
    def __init__(self, tokens: list[_Token], line: int):
        self.tokens = tokens
        self.line = line
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at(self, tok: _Token | None) -> tuple[int, int]:
        """Where an error at tok is reported; column 0 at the statement's end."""
        return (tok.line, tok.column) if tok else (self.line, 0)

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise DslParseError("unexpected end of statement", self.line, 0)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            found = "end of statement" if tok is None else repr(str(tok.value))
            raise DslParseError(
                f"expected {kind!r}, found {found}",
                *self.at(tok),
                str(tok.value) if tok else "",
            )
        return self.next()

    def expect_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise DslParseError(
                "trailing tokens after expression", tok.line, tok.column, str(tok.value)
            )

    def parse_expr(self) -> Expr:
        tok = self.next()
        if tok.kind == "STRING":
            return StringLit(tok.value)
        if tok.kind == "FSTRING":
            return FStringLit(tok.value)
        if tok.kind == "INT":
            return IntLit(tok.value)
        if tok.kind == "NONE":
            return NoneLit()
        if tok.kind == "[":
            items = []
            while True:
                nxt = self.peek()
                if nxt is not None and nxt.kind == "]":
                    self.next()
                    break
                items.append(self.parse_expr())
                nxt = self.peek()
                if nxt is not None and nxt.kind == ",":
                    self.next()
                    continue
                self.expect("]")
                break
            return ListLit(tuple(items))
        if tok.kind == "IDENT":
            nxt = self.peek()
            if nxt is not None and nxt.kind == "(":
                return self.parse_call(tok.value)
            return Var(tok.value)
        raise DslParseError(
            "expected an expression", tok.line, tok.column, str(tok.value)
        )

    def parse_call(self, callee: str) -> Call:
        self.expect("(")
        args: list[Expr] = []
        kwargs: list[tuple[str, Expr]] = []
        while True:
            nxt = self.peek()
            if nxt is not None and nxt.kind == ")":
                self.next()
                break
            if (
                nxt is not None
                and nxt.kind == "IDENT"
                and self.pos + 1 < len(self.tokens)
                and self.tokens[self.pos + 1].kind == "="
            ):
                name = self.next().value
                self.next()  # '='
                kwargs.append((name, self.parse_expr()))
            else:
                if kwargs:
                    raise DslParseError(
                        "positional argument after keyword argument", *self.at(nxt)
                    )
                args.append(self.parse_expr())
            nxt = self.peek()
            if nxt is not None and nxt.kind == ",":
                self.next()
                continue
            self.expect(")")
            break
        return Call(callee, tuple(args), tuple(kwargs))


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
    ll = lines[i]
    tokens = ll.tokens
    if tokens[0].kind == "IF":
        return _parse_if(lines, i)
    # assignment: IDENT '=' (not '==')
    assign = len(tokens) >= 2 and tokens[0].kind == "IDENT" and tokens[1].kind == "="
    parser = _ExprParser(tokens[2:] if assign else tokens, ll.line)
    expr = parser.parse_expr()
    parser.expect_end()
    if assign:
        return Assign(tokens[0].value, expr, ll.line), i + 1
    if isinstance(expr, Var):
        raise DslParseError(
            "a bare name is not a statement", ll.line, tokens[0].column, expr.name
        )
    return ExprStmt(expr, ll.line), i + 1


def _parse_if(lines: list[_Line], i: int) -> tuple[If, int]:
    ll = lines[i]
    tokens = ll.tokens
    if tokens[-1].kind != ":":
        raise DslParseError("if header must end with ':'", ll.line, ll.indent + 1)
    parser = _ExprParser(tokens[1:-1], ll.line)
    left = parser.parse_expr()
    op_tok = parser.peek()
    if op_tok is None or op_tok.kind not in ("==", "!="):
        raise DslParseError("if condition must compare with == or !=", *parser.at(op_tok))
    parser.next()
    right = parser.parse_expr()
    parser.expect_end()
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
    return If(Comparison(left, op_tok.value, right), tuple(body), ll.line), j


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
