"""Parser and evaluator for the restricted tool-call language.

The agent emits programs inside triple-backtick blocks. The grammar is a
closed allowlist induced from observed traces:

  - assignment and bare expression statements, newline separated
  - calls with positional and keyword arguments (callee is a bare name)
  - string literals in either quote style with \\' \\" \\\\ \\n \\t escapes
  - f-strings interpolating bare variable names, {{ and }} literal braces
  - integer literals, None, list literals
  - a single-level if with an == or != comparison and an indented block

Anything else is a parse error carrying line, column, and the offending
lexeme. Errors are values: execution wraps every failure into the step
result text shown back to the agent, never an uncaught exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    source_text: str


@dataclass
class StepResult:
    """Outcome of executing one program against one episode environment."""

    rendered: str
    values: dict = field(default_factory=dict)
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


# --- logical line scanning ---


@dataclass
class _LogicalLine:
    text: str
    line: int  # 1-based physical line of the first character
    indent: int


def _scan_logical_lines(source: str) -> list[_LogicalLine]:
    """Split source into logical lines, stripping comments and joining
    physical lines while inside brackets. String-aware throughout."""
    lines: list[_LogicalLine] = []
    buf: list[str] = []
    depth = 0
    line_no = 1
    start_line = 1
    i = 0
    n = len(source)
    pending = True  # buffer currently empty (no non-space content yet)
    while i < n:
        ch = source[i]
        if ch in "'\"":
            quote = ch
            j = i + 1
            while j < n:
                if source[j] == "\\" and j + 1 < n:
                    j += 2
                    continue
                if source[j] == quote:
                    break
                if source[j] == "\n":
                    raise DslParseError(
                        "unterminated string literal", line_no, 1, quote
                    )
                j += 1
            if j >= n:
                raise DslParseError("unterminated string literal", line_no, 1, quote)
            if pending:
                start_line = line_no
                pending = False
            buf.append(source[i : j + 1])
            i = j + 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            line_no += 1
            if depth > 0:
                buf.append(" ")
            elif "".join(buf).strip():
                lines.append(_flush(buf, start_line))
                buf = []
                pending = True
            else:
                buf = []
                pending = True
            i += 1
            continue
        if ch in "([":
            depth += 1
            if depth > NESTING_CAP:
                raise DslParseError("brackets nested too deeply", line_no, 1, ch)
        elif ch in ")]":
            depth = max(0, depth - 1)
        if pending and not ch.isspace():
            pending = False
            start_line = line_no
        buf.append(ch)
        i += 1
    if "".join(buf).strip():
        lines.append(_flush(buf, start_line))
    return lines


def _flush(buf: list[str], start_line: int) -> _LogicalLine:
    text = "".join(buf)
    stripped = text.rstrip()
    indent = len(text) - len(text.lstrip(" "))
    return _LogicalLine(stripped[indent:], start_line, indent)


# --- tokenizer for one logical line ---

@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT NONE IF STRING FSTRING INT punctuation kinds
    value: object
    column: int


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "'": "'", '"': '"'}


def _unescape(raw: str, line: int, col: int) -> str:
    out = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\" and i + 1 < len(raw):
            nxt = raw[i + 1]
            out.append(_ESCAPES.get(nxt, "\\" + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _tokenize(ll: _LogicalLine) -> list[_Token]:
    text = ll.text
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        col = ll.indent + i + 1
        if ch.isspace():
            i += 1
            continue
        if ch in "'\"" or (
            ch in "fF" and i + 1 < n and text[i + 1] in "'\""
        ):
            is_f = ch in "fF"
            if is_f:
                i += 1
            quote = text[i]
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            if j >= n:
                raise DslParseError("unterminated string literal", ll.line, col, quote)
            raw = text[i + 1 : j]
            if is_f:
                tokens.append(_Token("FSTRING", _fstring_parts(raw, ll.line, col), col))
            else:
                tokens.append(_Token("STRING", _unescape(raw, ll.line, col), col))
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and _is_ident_start(text[j]):
                raise DslParseError("malformed number", ll.line, col, text[i : j + 1])
            try:
                value = int(text[i:j])
            except ValueError:  # more digits than the interpreter converts
                raise DslParseError("integer literal too long", ll.line, col) from None
            tokens.append(_Token("INT", value, col))
            i = j
            continue
        if _is_ident_start(ch):
            j = i
            while j < n and _is_ident(text[j]):
                j += 1
            word = text[i:j]
            if word == "None":
                tokens.append(_Token("NONE", None, col))
            elif word == "if":
                tokens.append(_Token("IF", word, col))
            else:
                tokens.append(_Token("IDENT", word, col))
            i = j
            continue
        two = text[i : i + 2]
        if two in ("==", "!="):
            tokens.append(_Token(two, two, col))
            i += 2
            continue
        if ch in "()[],=:":
            tokens.append(_Token(ch, ch, col))
            i += 1
            continue
        raise DslParseError("unexpected character", ll.line, col, ch)
    return tokens


def _fstring_parts(raw: str, line: int, col: int) -> tuple:
    """Split f-string body into literal text and bare-variable parts."""
    parts: list[Union[str, Var]] = []
    text: list[str] = []
    i = 0
    n = len(raw)
    while i < n:
        ch = raw[i]
        if ch == "{":
            if i + 1 < n and raw[i + 1] == "{":
                text.append("{")
                i += 2
                continue
            j = raw.find("}", i + 1)
            if j < 0:
                raise DslParseError("unclosed brace in f-string", line, col, "{")
            inner = raw[i + 1 : j].strip()
            if not inner or not all(
                _is_ident(c) for c in inner
            ) or not _is_ident_start(inner[0]):
                raise DslParseError(
                    "only bare variable names may be interpolated", line, col, inner
                )
            if text:
                parts.append("".join(text))
                text = []
            parts.append(Var(inner))
            i = j + 1
            continue
        if ch == "}":
            if i + 1 < n and raw[i + 1] == "}":
                text.append("}")
                i += 2
                continue
            raise DslParseError("single '}' in f-string", line, col, "}")
        if ch == "\\" and i + 1 < n:
            text.append(_ESCAPES.get(raw[i + 1], "\\" + raw[i + 1]))
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
                self.line,
                tok.column if tok else 0,
                str(tok.value) if tok else "",
            )
        return self.next()

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
            "expected an expression",
            self.line,
            tok.column,
            str(tok.value),
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
                        "positional argument after keyword argument",
                        self.line,
                        nxt.column if nxt else 0,
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
    logical = _scan_logical_lines(text)
    if not logical:
        raise DslParseError("empty program", 1, 1)
    statements, rest = _parse_block(logical, 0, logical[0].indent)
    if rest != len(logical):
        ll = logical[rest]
        raise DslParseError("unexpected indentation", ll.line, ll.indent + 1, ll.text[:20])
    return Program(tuple(statements), text)


def _parse_block(
    logical: list[_LogicalLine], start: int, indent: int
) -> tuple[list[Statement], int]:
    statements: list[Statement] = []
    i = start
    while i < len(logical):
        ll = logical[i]
        if ll.indent != indent:
            break
        statements.append(_parse_statement_at(logical, i))
        if isinstance(statements[-1], If):
            # the if consumed its block; skip past it
            i = _block_end(logical, i, indent)
        else:
            i += 1
    return statements, i


def _block_end(logical: list[_LogicalLine], if_index: int, indent: int) -> int:
    j = if_index + 1
    while j < len(logical) and logical[j].indent > indent:
        j += 1
    return j


def _parse_statement_at(logical: list[_LogicalLine], i: int) -> Statement:
    ll = logical[i]
    tokens = _tokenize(ll)
    if tokens and tokens[0].kind == "IF":
        return _parse_if(logical, i, tokens)
    # assignment: IDENT '=' (not '==')
    if (
        len(tokens) >= 2
        and tokens[0].kind == "IDENT"
        and tokens[1].kind == "="
    ):
        parser = _ExprParser(tokens[2:], ll.line)
        expr = parser.parse_expr()
        _expect_exhausted(parser, ll)
        return Assign(tokens[0].value, expr, ll.line)
    parser = _ExprParser(tokens, ll.line)
    expr = parser.parse_expr()
    _expect_exhausted(parser, ll)
    if isinstance(expr, Var):
        raise DslParseError(
            "a bare name is not a statement", ll.line, tokens[0].column, expr.name
        )
    return ExprStmt(expr, ll.line)


def _expect_exhausted(parser: _ExprParser, ll: _LogicalLine) -> None:
    tok = parser.peek()
    if tok is not None:
        raise DslParseError(
            "trailing tokens after expression", ll.line, tok.column, str(tok.value)
        )


def _parse_if(logical: list[_LogicalLine], i: int, tokens: list[_Token]) -> If:
    ll = logical[i]
    if tokens[-1].kind != ":":
        raise DslParseError("if header must end with ':'", ll.line, ll.indent + 1)
    parser = _ExprParser(tokens[1:-1], ll.line)
    left = parser.parse_expr()
    op_tok = parser.peek()
    if op_tok is None or op_tok.kind not in ("==", "!="):
        raise DslParseError(
            "if condition must compare with == or !=",
            ll.line,
            op_tok.column if op_tok else 0,
        )
    parser.next()
    right = parser.parse_expr()
    _expect_exhausted(parser, ll)
    if i + 1 >= len(logical) or logical[i + 1].indent <= ll.indent:
        raise DslParseError("if statement needs an indented block", ll.line, ll.indent + 1)
    block_indent = logical[i + 1].indent
    end = _block_end(logical, i, ll.indent)
    body: list[Statement] = []
    j = i + 1
    while j < end:
        inner = logical[j]
        if inner.indent != block_indent:
            raise DslParseError(
                "inconsistent indentation in if block", inner.line, inner.indent + 1
            )
        stmt = _parse_statement_at(logical, j)
        if isinstance(stmt, If):
            raise DslParseError("nested if is not supported", inner.line, inner.indent + 1)
        body.append(stmt)
        j += 1
    return If(Comparison(left, op_tok.value, right), tuple(body), ll.line)


# --- execution ---


def render_value(value: object) -> str:
    """Render a runtime value the way results are shown to the agent."""
    if value is None:
        return "None"
    if isinstance(value, str):
        return value
    if isinstance(value, VideoSegment):
        start, end = value.as_strings()
        return f"['{start}', '{end}']"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
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
            values=state.delta,
            terminal=state.terminal,
            error=message,
            answer=state.answer,
        )
    return StepResult(
        rendered=render_value(last_value),
        values=state.delta,
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
        self.delta: dict = {}
        self.calls = 0
        self.terminal = False
        self.answer: object = None

    def exec_statement(self, stmt: Statement) -> object:
        if isinstance(stmt, Assign):
            value = self.eval_expr(stmt.value)
            self.env[stmt.name] = value
            self.delta[stmt.name] = value
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
