"""Span tracing for the traced run, installed around clipcritic's functions.

Wrappers replace names where they are looked up at call time: a function
imported with `from .x import f` is bound in the importing module, so it
is wrapped there (`clipcritic.agent.run_source`, not `clipcritic.dsl`).
Methods are wrapped on their class. `install()` returns an undo function
that puts every original back.

Each span records its parent, the item and the thread. A span opened on a
worker thread takes as parent the span that was open when the work was
submitted to the pool. A span's self time is its duration minus the union
of its children's intervals, so overlapping children are not counted
twice. Spans live in memory for one item and are folded into totals when
the item ends.
"""

from __future__ import annotations

import concurrent.futures
import functools
import itertools
import os
import threading
import time
from collections import Counter

# span record fields
_ID, _PARENT, _NAME, _THREAD, _ITEM, _T0, _T1 = range(7)


def _union_within(intervals, lo, hi) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer(name: str) -> str:
    return "model_wait" if name == "model.wait" else name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spans: list[list] = []
        self._root: list | None = None
        self.item = ""
        self.inflight = 0
        self.inflight_peak = 0
        self.counts: Counter = Counter()  # events for the current item
        self._keys: set = set()

    # --- span stack ---

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "adopted", None) or self._root

    def adopt(self, span) -> None:
        self._local.adopted = span

    def open(self, name: str) -> list:
        parent = self.current()
        span = [next(self._ids), parent[_ID] if parent else 0, name,
                threading.get_ident(), self.item, time.perf_counter(), None]
        self._spans.append(span)
        self._stack().append(span)
        return span

    def close(self, span: list) -> None:
        span[_T1] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    # --- items ---

    def begin_item(self, item: str) -> None:
        self.item = item
        self._spans = []
        self.counts = Counter()
        self._keys = set()
        self._root = self.open("item")
        self._stack().pop()

    def end_item(self) -> dict:
        """Fold the item's spans into per-name totals and reset."""
        self._root[_T1] = time.perf_counter()
        spans, self._spans, self._root = self._spans, [], None
        children: dict[int, list] = {}
        for s in spans:
            if s[_T1] is None:
                s[_T1] = spans[0][_T1]
            children.setdefault(s[_PARENT], []).append((s[_T0], s[_T1]))
        incl: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        for s in spans:
            dur = s[_T1] - s[_T0]
            kids = children.get(s[_ID])
            self_time = dur - (_union_within(kids, s[_T0], s[_T1]) if kids else 0.0)
            incl[s[_NAME]] += dur
            own[s[_NAME]] += self_time
            calls[s[_NAME]] += 1
        counts = self.counts
        counts["unique_requests"] = len(self._keys)
        counts["spans"] = len(spans)
        return {"incl": incl, "self": own, "calls": calls, "counts": counts}

    # --- model boundary ---

    def model_request(self, req) -> None:
        """Note a request at the outermost ModelClient.complete.

        Calls, frames and prompt characters are counted by the model
        itself; here only requests, distinct requests and the requests in
        flight are kept.
        """
        with self._lock:
            self.counts["requests"] += 1
            self._keys.add(req.parts)
            self.inflight += 1
            self.inflight_peak = max(self.inflight_peak, self.inflight)

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def model_done(self) -> None:
        with self._lock:
            self.inflight -= 1


def _wrap(tracer: Tracer, fn, name, on_result=None, on_error=None):
    name_of = name if callable(name) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name_of(args) if name_of else name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(span)
            if on_error:
                on_error(tracer)
            raise
        tracer.close(span)
        if on_result:
            on_result(tracer, args, result)
        return result

    return wrapper


def _wrap_complete(tracer: Tracer, fn):
    """ModelClient.complete: a span, plus request counts at the outermost call."""
    local = threading.local()

    @functools.wraps(fn)
    def complete(self, req):
        depth = getattr(local, "depth", 0)
        if depth == 0:
            tracer.model_request(req)
        local.depth = depth + 1
        span = tracer.open("modelclient.complete")
        try:
            return fn(self, req)
        finally:
            tracer.close(span)
            local.depth = depth
            if depth == 0:
                tracer.model_done()

    return complete


def _count_error(key):
    def on_error(tracer):
        tracer.count(key)
    return on_error


def _step_result(tracer, args, result):
    if result.error:
        tracer.count("dsl.errors")


def _episode_result(tracer, args, trace):
    tracer.count(f"stop.{trace.stop_reason.name.lower()}")


def _critic_result(tracer, args, result):
    tracer.count("critic.runs")
    if result[1].fallback_used:
        tracer.count("critic.fallbacks")


def _persist_result(tracer, args, result):
    traces, traces_dir = args[0], args[1]
    for trace in traces:
        name = f"{trace.task.id}.{trace.strategy.label}.json"
        tracer.count("persist.bytes", os.path.getsize(os.path.join(traces_dir, name)))


def install(tracer: Tracer):
    """Wrap clipcritic's public functions at their call sites; returns undo."""
    from clipcritic import agent, critic, dsl, evalcli, modelclient, toolkit, tools

    def cassette_span(args):
        mode = args[0].cassette.mode
        return "modelclient.record" if mode is modelclient.CassetteMode.RECORD else "modelclient.replay"

    # (owner, name, span name[, result hook[, error hook]])
    targets = [
        (modelclient.CassetteClient, "_complete", cassette_span),
        (modelclient, "fingerprint", "modelclient.fingerprint"),
        (tools, "windows", "fixtures.windows"),
        (tools, "sample_frames", "fixtures.sample_frames"),
        (evalcli, "video_ref_for", "fixtures.load"),
        (tools.ToolSuite, "find_when", "tools.find_when"),
        (tools.ToolSuite, "retrieval_qa", "tools.retrieval_qa"),
        (tools.ToolSuite, "asr_understanding", "tools.asr_understanding"),
        (tools.ToolSuite, "get_segment", "tools.get_segment"),
        (tools.ToolSuite, "_context_frames", "tools.context_frames"),
        (evalcli, "build_registry", "tools.build_registry"),
        (dsl, "parse_program", "dsl.parse"),
        (dsl, "execute_program", "dsl.execute"),
        (toolkit.ToolRegistry, "render_api", "toolkit.render_api"),
        (agent, "load_prompt_text", "toolkit.load_prompt_text"),
        (critic, "load_prompt_text", "toolkit.load_prompt_text"),
        (tools, "load_prompt_text", "toolkit.load_prompt_text"),
        (toolkit, "load_prompt_text", "toolkit.load_prompt_text"),
        (evalcli, "run_agent_critic", "critic.agent_critic"),
        (evalcli, "load_examples", "critic.load_examples"),
        (critic, "build_critique_prompt", "critic.build_prompt"),
        (critic, "parse_verdict", "critic.parse_verdict"),
        (evalcli, "interval_union_iou", "core.iou"),
        (agent, "parse_final_answer", "core.parse_final_answer"),
        (evalcli, "evaluate", "evalcli.evaluate"),
        (evalcli, "run_item", "evalcli.run_item"),
        (evalcli, "replay_run", "evalcli.replay_run"),
        (evalcli, "load_dataset", "evalcli.load_dataset"),
        (agent, "run_source", "dsl.run_source", _step_result),
        (toolkit.ToolRegistry, "call", "toolkit.call", None, _count_error("toolkit.errors")),
        (critic, "run_episode", "agent.episode", _episode_result),
        (critic, "run_direct", "agent.episode", _episode_result),
        (evalcli, "run_episode", "agent.episode", _episode_result),
        (evalcli, "run_direct", "agent.episode", _episode_result),
        (evalcli, "run_self_eval", "agent.episode", _episode_result),
        (evalcli, "run_single_program", "agent.episode", _episode_result),
        (critic, "run_critic", "critic.run_critic", _critic_result),
        (evalcli, "persist_traces", "evalcli.persist", _persist_result),
    ]
    saved = []

    def replace(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    for owner, attr, name, *hooks in targets:
        replace(owner, attr, _wrap(tracer, getattr(owner, attr), name, *hooks))
    replace(modelclient.ModelClient, "complete",
            _wrap_complete(tracer, modelclient.ModelClient.complete))
    open_fn = modelclient.Cassette.__dict__["open"].__func__
    replace(modelclient.Cassette, "open",
            classmethod(_wrap(tracer, open_fn, "modelclient.cassette_open")))

    pool = concurrent.futures.ThreadPoolExecutor
    submit = pool.submit

    def traced_submit(self, fn, /, *args, **kwargs):
        parent = tracer.current()

        def run(*a, **k):
            tracer.adopt(parent)
            try:
                return fn(*a, **k)
            finally:
                tracer.adopt(None)

        return submit(self, run, *args, **kwargs)

    replace(pool, "submit", traced_submit)

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo
