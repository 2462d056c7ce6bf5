"""Properties of the shared episode loop and of the DSL entry point."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from clipcritic.agent import StopReason, run_episode
from clipcritic.dsl import DslParseError, StepResult, parse_program, run_source
from clipcritic.modelclient import CallableModel
from clipcritic.toolkit import PROFILES
from clipcritic.tools import TagContext, build_registry
from test_agent import make_fixture, make_task

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
    registry = build_registry(task, make_fixture(), tags=TagContext("t1/A"))
    subset = PROFILES["visual_mcq"].strategies[0]
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
REGISTRY = build_registry(make_task(), make_fixture())


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
