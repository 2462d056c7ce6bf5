"""Properties of the shared episode loop and of the DSL entry point."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from clipcritic.agent import StopReason, run_episode
from clipcritic.dsl import (
    Assign,
    Call,
    Comparison,
    DslParseError,
    ExprStmt,
    FStringLit,
    If,
    IntLit,
    ListLit,
    NoneLit,
    Program,
    StepResult,
    StringLit,
    Var,
    _lex,
    parse_program,
    run_source,
)
from clipcritic.modelclient import CallableModel
from clipcritic.toolkit import PROFILES
from clipcritic.tools import build_registry
from test_agent import make_task

# reply kind -> (reply text for turn i, is the reply a terminal step)
REPLIES = {
    "finish": (lambda i: f"```\nfinish(final_answer='Final Answer: (2) at {i}')\n```", True),
    "program": (lambda i: f"```\nthink(thought='note {i}')\n```", False),
    "unparsable": (lambda i: f"```\nseg = get_segment('01:30' '0{i}:30')\n```", False),
    "bare": (lambda i: f"Looking closer, Final Answer: (1) at {i}", True),
    "prose": (lambda i: f"musing number {i}", False),
}


@settings(max_examples=150, deadline=None)
@given(
    # one reply for each of up to 4 steps plus the forced-answer turn
    kinds=st.lists(st.sampled_from(sorted(REPLIES)), min_size=5, max_size=5),
    budget=st.integers(min_value=1, max_value=4),
)
def test_episode_loop_invariants(kinds, budget):
    replies = [REPLIES[k][0](i) for i, k in enumerate(kinds)]
    terminal = [REPLIES[k][1] for k in kinds]
    seen = []

    def respond(req):
        seen.append(req)
        return replies[len(seen) - 1]

    task = make_task()
    subset = PROFILES["visual_mcq"].strategies[0]
    registry = build_registry(task, subset)
    trace = run_episode(
        task, subset, CallableModel(respond), registry, step_budget=budget
    )

    assert len(seen) <= budget + 1
    assert [r.tag for r in seen] == [f"t1/A/{i}" for i in range(len(seen))]
    forced = not any(terminal[:budget])
    assert (trace.stop_reason is StopReason.FORCED_ANSWER) == forced
    assert len(trace.steps) == (budget if forced else terminal.index(True) + 1)
    for i, step in enumerate(trace.steps):
        if step.program and i + 1 < len(seen):
            assert step.result in seen[i + 1].parts[0].text


DSL_ALPHABET = "abfxy_()[]'\"=,:{}!\n\t #\\0123456789 "
REGISTRY = build_registry(make_task(), PROFILES["asr_mcq"].strategies[2])  # all six tools


@settings(max_examples=300, deadline=None)
@given(source=st.one_of(st.text(), st.text(alphabet=DSL_ALPHABET, max_size=80)))
@example("x = " + "9" * 5000)
@example("x = " + "[" * 2000)
@example("think(" * 150 + "'a'" + ")" * 150)
def test_run_source_never_raises(source):
    result = run_source(source, {}, REGISTRY)
    assert isinstance(result, StepResult)
    assert isinstance(result.rendered, str)


# errors whose lexeme is the source text at the reported line and column
LOCATED = (
    "unexpected character",
    "malformed number",
    "brackets nested too deeply",
    "unclosed brace in f-string",
    "only bare variable names may be interpolated",
    "single '}' in f-string",
)
# f-string literals, some spanning an escaped newline, after a first line
FSTRINGS = st.builds(
    lambda head, body: f'{head}x = f"{body}"',
    st.sampled_from(["", "y = 1\n", "z = [\n"]),
    st.text(alphabet="ab_ {}+1\\\n", max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(
    source=st.one_of(
        st.text(), st.text(alphabet=DSL_ALPHABET, max_size=80), FSTRINGS
    )
)
@example("x = find_when(\n    query='a',\n    video_segment=seg + 1,\n)")
@example("x = 'a\\\nb'\ny = 12ab")
@example("y = [\n  " + "(" * 101)
@example('x = f"a {1+2}"')
@example('x = f"a \\\n{b + 1}"')
def test_lexical_errors_point_at_their_lexeme(source):
    try:
        parse_program(source)
    except DslParseError as err:
        if err.message in LOCATED:
            # the source from the error's line on: a lexeme may span lines
            rest = "\n".join(source.split("\n")[err.line - 1 :])
            assert rest[err.column - 1 :].startswith(err.lexeme), (err, source)


LEX_ALPHABET = "aFf_x²١é \t\xa0\x1c\n#'\"\\{}()[]=!,:09"


@settings(max_examples=400, deadline=None)
@given(source=st.one_of(st.text(), st.text(alphabet=LEX_ALPHABET, max_size=60)))
@example("x = 'a\\\nb'\ny = F\"{y}\" # c\nz = [1,\n  2]")
def test_lexed_tokens_are_spans_of_the_source(source):
    try:
        lines = _lex(source)
    except DslParseError:
        return
    end = 0
    for ll in lines:
        for tok in ll.tokens:
            text = source[tok.start : tok.end]
            assert end <= tok.start < tok.end, (tok, source)
            end = tok.end
            assert tok.line == source.count("\n", 0, tok.start) + 1
            assert tok.column == tok.start - source.rfind("\n", 0, tok.start)
            if tok.kind == "INT":
                assert int(text) == tok.value
            elif tok.kind in ("STRING", "FSTRING"):
                assert text[-1] in "'\"" and text.lstrip("fF")[0] == text[-1]
            else:
                assert text == tok.value


# --- the front end parses what a grammar AST renders to ---

NAMES = st.builds(str.__add__, st.sampled_from("abfFx_é"), st.text("ab0_9", max_size=3))
TEXT = st.text(alphabet="ab {}'\"\\\n\té#", max_size=8)


def fstring(pieces) -> FStringLit:
    """The f-string of text and names, adjacent text joined as the parser joins it."""
    parts: list = []
    for piece in pieces:
        if piece == "":
            continue
        if isinstance(piece, str) and parts and isinstance(parts[-1], str):
            parts[-1] += piece
        else:
            parts.append(piece)
    return FStringLit(tuple(parts))


EXPRS = st.recursive(
    st.one_of(
        st.builds(StringLit, TEXT),
        st.builds(IntLit, st.integers(0, 10**12)),
        st.just(NoneLit()),
        st.builds(Var, NAMES),
        st.builds(fstring, st.lists(st.one_of(TEXT, st.builds(Var, NAMES)), max_size=4)),
    ),
    lambda inner: st.one_of(
        st.builds(lambda items: ListLit(tuple(items)), st.lists(inner, max_size=3)),
        st.builds(
            lambda callee, args, kwargs: Call(callee, tuple(args), tuple(kwargs)),
            NAMES,
            st.lists(inner, max_size=3),
            st.lists(st.tuples(NAMES, inner), max_size=2),
        ),
    ),
    max_leaves=8,
)
# a statement without its line: ("=", name, expr), ("expr", expr) or
# ("if", left, op, right, body)
SIMPLE = st.one_of(
    st.tuples(st.just("="), NAMES, EXPRS),
    st.tuples(st.just("expr"), EXPRS.filter(lambda e: not isinstance(e, Var))),
)
STATEMENTS = st.one_of(
    SIMPLE,
    st.tuples(
        st.just("if"), EXPRS, st.sampled_from(["==", "!="]), EXPRS,
        st.lists(SIMPLE, min_size=1, max_size=3),
    ),
)
GAPS = ["", " ", "  ", "\t", "\xa0"]
# inside brackets a statement may also run on over newlines and comments
BRACKET_GAPS = GAPS + ["\n", " # (note\n   ", "\n\t  "]
LINE_ENDS = ["", "  # done", "\t#'"]
BETWEEN = ["", "", "\n", "   # aside\n", "\t\n"]  # blank and comment-only lines


@st.composite
def rendered_programs(draw):
    """A program's source, with random blanks and comments, and its AST."""
    out: list[str] = []
    choice = draw(st.randoms(use_true_random=True)).choice  # the layout, not shrunk

    def gap(inside: bool) -> str:
        return choice(BRACKET_GAPS if inside else GAPS)

    def blank() -> str:
        return choice(["", " ", "  "])

    def text(value: str, quote: str, fstring: bool) -> str:
        chars = []
        for ch in value:
            if ch == "\\" or ch == quote:
                chars.append("\\" + ch)
            elif ch == "\n":
                chars.append("\\n")
            elif ch == "\t":
                chars.append(choice(["\\t", "\t"]))
            elif fstring and ch in "{}":
                chars.append(ch + ch)
            else:
                chars.append(ch)
        return "".join(chars)

    def expr(e, inside: bool) -> str:
        if isinstance(e, StringLit):
            quote = choice("'\"")
            return quote + text(e.value, quote, False) + quote
        if isinstance(e, FStringLit):
            quote = choice("'\"")
            body = [
                "{" + blank() + p.name + blank() + "}" if isinstance(p, Var) else text(p, quote, True)
                for p in e.parts
            ]
            return choice("fF") + quote + "".join(body) + quote
        if isinstance(e, IntLit):
            return choice(["", "0", "00"]) + str(e.value)
        if isinstance(e, NoneLit):
            return "None"
        if isinstance(e, Var):
            return e.name
        if isinstance(e, ListLit):
            return "[" + items([expr(x, True) for x in e.items]) + "]"
        args = [expr(a, True) for a in e.args]
        args += [f"{k}{gap(True)}={gap(True)}{expr(v, True)}" for k, v in e.kwargs]
        return e.callee + gap(inside) + "(" + items(args) + ")"

    def items(rendered: list[str]) -> str:
        if not rendered:
            return gap(True)
        trailing = choice(["", ","])
        sep = [gap(True) + "," + gap(True) for _ in rendered[1:]]
        body = rendered[0] + "".join(s + r for s, r in zip(sep, rendered[1:]))
        return gap(True) + body + gap(True) + trailing + gap(True)

    def simple(shape, indent: str):
        out.append(choice(BETWEEN))
        line = "".join(out).count("\n") + 1
        if shape[0] == "=":
            out.append(f"{indent}{shape[1]}{gap(False)}={gap(False)}{expr(shape[2], False)}")
            statement = Assign(shape[1], shape[2], line)
        else:
            out.append(indent + expr(shape[1], False))
            statement = ExprStmt(shape[1], line)
        out.append(choice(LINE_ENDS) + "\n")
        return statement

    statements = []
    for shape in draw(st.lists(STATEMENTS, min_size=1, max_size=4)):
        if shape[0] != "if":
            statements.append(simple(shape, ""))
            continue
        _, left, op, right, body = shape
        out.append(choice(BETWEEN))
        line = "".join(out).count("\n") + 1
        condition = expr(left, False) + gap(False) + op + gap(False) + expr(right, False)
        out.append(f"if {gap(False)}{condition}{gap(False)}:")
        out.append(choice(LINE_ENDS) + "\n")
        indent = choice(["  ", "    ", "\t", " \t"])
        block = tuple(simple(inner, indent) for inner in body)
        statements.append(If(Comparison(left, op, right), block, line))
    return "".join(out), Program(tuple(statements))


@settings(max_examples=200, deadline=None)
@given(case=rendered_programs())
def test_rendered_grammar_asts_parse_back(case):
    source, program = case
    assert parse_program(source) == program, source
