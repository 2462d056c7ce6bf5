"""Model abstraction: scripting, budgets, fingerprints, cassettes, retries."""

import dataclasses
import hashlib
import http.client
import json
import math
import sys
import threading
import time
import urllib.error
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clipcritic import modelclient
from clipcritic.core import (
    DataError,
    FatalError,
    VideoSegment,
    VideoSource,
    json_lines,
    read_json_lines,
    scan_json_lines,
)
from clipcritic.fixtures import FrameRef, VideoFixture, windows
from clipcritic.modelclient import (
    BACKOFF_BASE,
    FRAME_BUDGET,
    MAX_ATTEMPTS,
    BudgetExceededError,
    CallableModel,
    Cassette,
    CassetteClient,
    CassetteMode,
    ConcurrencyLimitedClient,
    FatalTransportError,
    FramesPart,
    HttpModelClient,
    ModelRequest,
    ModelTransportError,
    ReplayMismatchError,
    ScriptedModel,
    ScriptExhaustedError,
    TextPart,
    budget_frames,
    episode_key,
    fingerprint,
    in_order,
    text_request,
)


def frames(n, start=0):
    return FramesPart(tuple(FrameRef(i, float(i)) for i in range(start, start + n)))


def test_scripted_queue_returns_in_order():
    model = ScriptedModel.from_queue(["first", "second", "third"])
    for want in ["first", "second", "third"]:
        assert model.complete(text_request("anything", tag="t1/A/0")) == want
    with pytest.raises(ScriptExhaustedError):
        model.complete(text_request("extra", tag="t1/A/3"))


def test_scripted_longest_prefix_match():
    model = ScriptedModel(
        {
            "t1/A": ["episode turn"],
            "t1/A/find_when": ["window answer"],
            "t1": ["fallback"],
        }
    )
    assert model.complete(text_request("x", tag="t1/A/find_when/window/0")) == "window answer"
    assert model.complete(text_request("x", tag="t1/A/2")) == "episode turn"
    assert model.complete(text_request("x", tag="t1/critic")) == "fallback"
    with pytest.raises(ScriptExhaustedError):
        model.complete(text_request("x", tag="t2/B/0"))


def test_scripted_model_logs_calls():
    model = ScriptedModel({"t1": ["a", "b"]})
    model.complete(text_request("one", tag="t1/A/0"))
    model.complete(text_request("two", tag="t1/B/0"))
    assert [req.tag for req in model.calls] == ["t1/A/0", "t1/B/0"]


def test_frame_budget_enforced_at_client_boundary():
    model = ScriptedModel.from_queue(["ok"])
    within = ModelRequest(parts=(TextPart("q"), frames(FRAME_BUDGET)), tag="t1/A/0")
    assert budget_frames(within.parts) == FRAME_BUDGET
    assert model.complete(within) == "ok"

    over = ModelRequest(parts=(TextPart("q"), frames(FRAME_BUDGET + 1)), tag="t1/A/1")
    with pytest.raises(BudgetExceededError):
        model.complete(over)
    # split across parts still counts
    split = ModelRequest(parts=(frames(100), TextPart("q"), frames(21, start=100)), tag="t")
    with pytest.raises(BudgetExceededError):
        ScriptedModel.from_queue(["x"]).complete(split)


def test_fingerprint_ignores_tag_and_tuning():
    base = ModelRequest(parts=(TextPart("q"), frames(3)), tag="t1/A/0")
    same_parts = ModelRequest(parts=(TextPart("q"), frames(3)), tag="t9/Z/7")
    assert fingerprint(base) == fingerprint(same_parts)
    different = ModelRequest(parts=(TextPart("q!"), frames(3)), tag="t1/A/0")
    assert fingerprint(different) != fingerprint(base)
    # stable: pure function of part content
    assert fingerprint(base) == fingerprint(
        ModelRequest(parts=(TextPart("q"), frames(3)))
    )


def test_fingerprint_pins_frames_without_a_path():
    # recorded cassettes are keyed by these bytes; frames without a path
    # (and with an empty one) are named `index@t` in `:g` format
    req = ModelRequest(
        parts=(
            TextPart('café "q"\n'),
            FramesPart(
                (
                    FrameRef(0, 0.0),
                    FrameRef(1, 0.5),
                    FrameRef(3, 1e-05),
                    FrameRef(7, 12345678.0),
                    FrameRef(8, 9.0, path=""),
                )
            ),
        )
    )
    assert fingerprint(req) == "4b47c4f55e85eca1a90594f6cf6b6fe8772ea313a4cff684aecf0d83c48b476b"


def reference_frame_id(ref):
    return ref.path if ref.path else f"{ref.index}@{ref.t:g}"


def reference_fingerprint(req):
    """Fingerprint as computed before frames memoised their keys."""
    normalized = []
    for part in req.parts:
        if isinstance(part, TextPart):
            normalized.append({"text": part.text})
        else:
            normalized.append({"frames": [reference_frame_id(r) for r in part.frames]})
    payload = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


FRAME_FIELDS = st.tuples(
    st.integers(-5, 10**9),
    st.floats(allow_nan=False),
    st.none() | st.text(max_size=8),
    st.none() | st.just("") | st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    layout=st.lists(st.none() | st.text(max_size=20), min_size=1, max_size=5),
)
def test_fingerprint_matches_reference(data, layout):
    parts, refs = [], []
    for text in layout:  # None stands for a frames part
        if text is not None:
            parts.append(TextPart(text))
            continue
        fields = data.draw(st.lists(FRAME_FIELDS, min_size=1, max_size=6))
        part = tuple(FrameRef(i, t, caption=c, path=p) for i, t, c, p in fields)
        parts.append(FramesPart(part))
        refs.extend(part)
    read = data.draw(st.lists(st.booleans(), min_size=len(refs), max_size=len(refs)))
    for ref, was_read in zip(refs, read):
        if was_read:
            assert ref.key == reference_frame_id(ref)
    req = ModelRequest(parts=tuple(parts))
    assert fingerprint(req) == reference_fingerprint(req)
    # again, now that every key is memoised
    assert fingerprint(req) == reference_fingerprint(req)


@settings(max_examples=200, deadline=None)
@given(fields=FRAME_FIELDS, new_path=st.none() | st.text(max_size=12))
def test_frame_key_memo_is_invisible(fields, new_path):
    index, t, caption, path = fields
    read, unread = (FrameRef(index, t, caption=caption, path=path) for _ in range(2))
    assert read.key == reference_frame_id(read)
    assert read == unread and hash(read) == hash(unread) and repr(read) == repr(unread)
    moved = dataclasses.replace(read, path=new_path)
    assert moved.key == reference_frame_id(moved)
    assert moved == FrameRef(index, t, caption=caption, path=new_path)


def test_frame_keys_race_to_the_same_fingerprint():
    """Eight threads fingerprint one request whose frame keys are unread."""
    refs = tuple(FrameRef(i, i / 3, path=f"f{i}.jpg" if i % 2 else None) for i in range(500))
    req = ModelRequest(parts=(TextPart("q"), FramesPart(refs)))
    expected = reference_fingerprint(req)
    digests = []
    barrier = threading.Barrier(8, timeout=30)

    def run():
        barrier.wait()
        digests.append(fingerprint(req))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert digests == [expected] * 8
    assert [r.key for r in refs] == [reference_frame_id(r) for r in refs]


# quotes, backslashes, control characters, a lone surrogate and non-ASCII
# text: every escape `json.dumps` writes in a key
PATH_TEXT = st.text(st.sampled_from('"\\\x00\x1f\x7f\n\t\ud800é€😀') | st.characters(), max_size=6)


@st.composite
def key_table_videos(draw):
    """A video shaped like a fixture (keys `index@t`) or like a frames
    directory (skipped indices, keys are paths), some keys read already."""
    fps = draw(st.sampled_from((0.5, 1.0, 3.0, 29.97)))
    if draw(st.booleans()):
        times = sorted(draw(st.sets(st.integers(0, 300), max_size=80)))
        frames = tuple(FrameRef(i, float(t), caption="c") for i, t in enumerate(times))
        duration, source = 301, VideoSource.FIXTURE_PATH
    else:
        indices = sorted(draw(st.sets(st.integers(0, 900), max_size=80)))
        names = draw(st.lists(PATH_TEXT, min_size=len(indices), max_size=len(indices)))
        frames = tuple(
            FrameRef(i, i / fps, path=f"d/{name}{i}.jpg") for i, name in zip(indices, names)
        )
        duration, source = math.ceil(900 / fps), VideoSource.FRAMES_DIRECTORY
    for ref in frames:
        if draw(st.booleans()):
            assert ref.key == reference_frame_id(ref)
    return VideoFixture(duration, fps, frames, source=source)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), video=key_table_videos(), size=st.integers(1, 100))
def test_window_fragments_fingerprint_like_the_reference(data, video, size):
    a, b = (data.draw(st.integers(0, video.duration + 2)) for _ in range(2))
    for window in windows(video, VideoSegment(min(a, b), max(a, b)), size):
        per_frame = ",".join(json.dumps(reference_frame_id(r)) for r in window.refs)
        assert bytes(window.fragment) == per_frame.encode("ascii")
        req = ModelRequest(parts=(TextPart("q"), FramesPart(window.refs, window.fragment)))
        assert fingerprint(req) == reference_fingerprint(req)


def test_key_table_races_to_the_reference_fingerprint():
    """Eight threads cut windows over one video whose key table is unbuilt."""
    refs = tuple(
        FrameRef(i, float(i), path=f"f{i}.jpg" if i % 4 else None) for i in range(0, 4000, 2)
    )
    video = VideoFixture(4000, 1.0, refs, source=VideoSource.FRAMES_DIRECTORY)
    expected = [
        reference_fingerprint(ModelRequest(parts=(TextPart("q"), FramesPart(refs[i : i + 64]))))
        for i in range(0, len(refs), 64)
    ]
    digests = []
    barrier = threading.Barrier(8, timeout=30)

    def run():
        barrier.wait()
        digests.append(
            [
                fingerprint(ModelRequest(parts=(TextPart("q"), FramesPart(w.refs, w.fragment))))
                for w in windows(video, VideoSegment(0, 4000), 64)
            ]
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert digests == [expected] * 8


def test_episode_key_takes_first_two_components():
    assert episode_key("t1/A/3") == "t1/A"
    assert episode_key("t1/critic") == "t1/critic"
    assert episode_key("solo") == "solo"


@settings(max_examples=500, deadline=None)
@given(tag=st.text(st.sampled_from("/ab1·\u00e9"), max_size=12) | st.text(max_size=30))
def test_episode_key_matches_split_and_join(tag):
    assert episode_key(tag) == "/".join(tag.split("/", 2)[:2])


def test_in_order_runs_serially_on_the_calling_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a serial in_order started a thread pool")

    monkeypatch.setattr(modelclient, "ThreadPoolExecutor", no_pool)
    called = []

    def call(item):
        called.append((item, threading.current_thread()))
        if item == 3:
            raise ValueError("item 3 failed")
        return item * 10

    here = threading.current_thread()
    assert in_order(call, [0, 1, 2], 1) == ([0, 10, 20], None)
    assert called == [(0, here), (1, here), (2, here)]
    called.clear()
    results, error = in_order(call, [1, 2, 3, 4, 5], 1)
    assert results == [10, 20]
    assert isinstance(error, ValueError) and str(error) == "item 3 failed"
    assert [item for item, _ in called] == [1, 2, 3]  # nothing after the failing item
    # one item at any width, or no item, starts no thread either
    called.clear()
    assert in_order(call, [3], 8)[0] == []
    assert in_order(call, [], 8) == ([], None)
    assert called == [(3, here)]


def test_cassette_record_then_replay_identical(tmp_path):
    path = str(tmp_path / "run.jsonl")
    inner = ScriptedModel.from_queue(["turn one", "turn two", "turn three"])
    recorder = CassetteClient(Cassette.open(path, CassetteMode.RECORD), inner=inner)
    requests = [
        text_request("prompt one", tag="t1/A/0"),
        text_request("prompt two", tag="t1/A/1"),
        text_request("other episode", tag="t1/B/0"),
    ]
    recorded = [recorder.complete(req) for req in requests]

    replayer = CassetteClient(Cassette.open(path, CassetteMode.REPLAY))
    # replay partitions by episode, so order across episodes may differ
    assert replayer.complete(requests[2]) == "turn three"
    assert replayer.complete(requests[0]) == "turn one"
    assert replayer.complete(requests[1]) == "turn two"
    assert recorded == ["turn one", "turn two", "turn three"]


def test_recording_writes_the_file_only(tmp_path):
    path = str(tmp_path / "run.jsonl")
    inner = ScriptedModel.from_queue(["one", "two", "three"])
    recorder = CassetteClient(Cassette.open(path, CassetteMode.RECORD), inner=inner)
    recorder.complete(text_request("p", tag="t1/A/0"))
    recorder.complete_all([text_request("q", tag="t1/A/1"), text_request("r", tag="t1/A/2")])
    assert recorder.cassette.entries == []
    assert [json.loads(line)["response"] for line in Path(path).read_text().splitlines()] == ["one", "two", "three"]


def test_cassette_replay_detects_prompt_drift(tmp_path):
    path = str(tmp_path / "run.jsonl")
    recorder = CassetteClient(
        Cassette.open(path, CassetteMode.RECORD), inner=ScriptedModel.from_queue(["a"])
    )
    recorder.complete(text_request("original prompt", tag="t1/A/0"))

    replayer = CassetteClient(Cassette.open(path, CassetteMode.REPLAY))
    with pytest.raises(ReplayMismatchError) as exc_info:
        replayer.complete(text_request("edited prompt", tag="t1/A/0"))
    assert exc_info.value.tag == "t1/A/0"


def test_cassette_replay_rejects_tampered_file(tmp_path):
    path = str(tmp_path / "run.jsonl")
    recorder = CassetteClient(
        Cassette.open(path, CassetteMode.RECORD), inner=ScriptedModel.from_queue(["a"])
    )
    request = text_request("prompt", tag="t1/A/0")
    recorder.complete(request)

    lines = [json.loads(l) for l in Path(path).read_text().splitlines()]
    lines[0]["fingerprint"] = "0" * 64
    with open(path, "w") as fh:
        for entry in lines:
            fh.write(json.dumps(entry) + "\n")

    replayer = CassetteClient(Cassette.open(path, CassetteMode.REPLAY))
    with pytest.raises(ReplayMismatchError):
        replayer.complete(request)


def test_cassette_replay_exhaustion(tmp_path):
    path = str(tmp_path / "run.jsonl")
    recorder = CassetteClient(
        Cassette.open(path, CassetteMode.RECORD), inner=ScriptedModel.from_queue(["a"])
    )
    request = text_request("prompt", tag="t1/A/0")
    recorder.complete(request)

    replayer = CassetteClient(Cassette.open(path, CassetteMode.REPLAY))
    replayer.complete(request)
    with pytest.raises(ReplayMismatchError):
        replayer.complete(request)


@pytest.mark.parametrize(
    "line, fragment",
    [
        (json.dumps(["fingerprint", "tag", "response"]), "entry must be an object"),
        (json.dumps({"fingerprint": "f", "tag": 3, "response": "r"}), "needs a string 'tag'"),
        (json.dumps({"fingerprint": "f", "tag": "t", "response": None}), "string 'response'"),
        (b"\xff\xfe", "invalid JSON"),
    ],
    ids=["list", "int-tag", "null-response", "not-utf8"],
)
def test_malformed_cassette_is_a_data_error(tmp_path, line, fragment):
    # the command-line test covers the three shapes seen in the wild; the
    # line number counts blank lines
    path = tmp_path / "run.jsonl"
    good = json.dumps({"fingerprint": "f", "tag": "t1/A/0", "response": "r"}).encode()
    line = line if isinstance(line, bytes) else line.encode()
    path.write_bytes(good + b"\n\n" + line + b"\n")
    with pytest.raises(DataError, match=f"{path}:3: .*{fragment}"):
        Cassette.open(str(path), CassetteMode.REPLAY)


def test_missing_replay_cassette_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="cassette not found"):
        Cassette.open(str(tmp_path / "absent.jsonl"), CassetteMode.REPLAY)


def test_unwritable_recording_is_a_data_error(tmp_path):
    path = tmp_path / "nodir" / "run.jsonl"
    with pytest.raises(DataError, match=f"^{path}: cannot write cassette: No such file"):
        Cassette.open(str(path), CassetteMode.RECORD)
    # a writable one is created empty and keeps what it holds
    path = tmp_path / "run.jsonl"
    Cassette.open(str(path), CassetteMode.RECORD)
    assert path.read_bytes() == b""
    path.write_bytes(b"kept\n")
    Cassette.open(str(path), CassetteMode.RECORD)
    assert path.read_bytes() == b"kept\n"


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["fingerprint", "tag", "response", "x"]), inner),
    max_leaves=6,
)
_cassette_lines = st.one_of(
    _json_values.map(json.dumps),
    st.binary(max_size=20).filter(lambda b: b"\n" not in b),
)


@given(st.lists(_cassette_lines, max_size=4))
@settings(max_examples=200, deadline=None)
def test_cassette_open_returns_or_raises_data_error(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("cassette") / "run.jsonl"
    path.write_bytes(
        b"".join((l.encode() if isinstance(l, str) else l) + b"\n" for l in lines)
    )
    try:
        cassette = Cassette.open(str(path), CassetteMode.REPLAY)
    except DataError:
        return
    CassetteClient(cassette)  # every entry it returns can be replayed from


def per_line_entries(path):
    """A replayed cassette's entries as the per-line reader loop reads them."""
    entries = []
    for where, entry in read_json_lines(path, "cassette"):
        if not isinstance(entry, dict):
            raise DataError(f"{where}: cassette entry must be an object")
        for key in ("fingerprint", "tag", "response"):
            if not isinstance(entry.get(key), str):
                raise DataError(f"{where}: cassette entry needs a string '{key}'")
        entries.append(entry)
    return entries


_entries = st.fixed_dictionaries(
    {
        "fingerprint": st.text(max_size=4),
        "tag": st.sampled_from(["t1/A/0", "t1/B/1", "t2/critic", "solo", "a/b/c/d"]),
        "response": st.text(max_size=6),
    },
    optional={"extra": _json_values},
)
_values_text = st.one_of(
    _entries.map(json.dumps),
    _entries.map(lambda e: json.dumps(e, separators=(",", ":"), ensure_ascii=False)),
    _json_values.map(json.dumps),
).map(str.encode)
# blank to bytes.strip, or (from \xa0 on) blank only to str.strip
_blanks = st.sampled_from(
    [b"", b" ", b"\t", b"\r", b"\x0b\x0c"]
    + [c.encode() for c in "\xa0\u3000\u2028\x85\x1f"]
    + [b"\xa0"]
)
_DEEP = 5000  # past the interpreter's recursion limit
_LINE_KINDS = ("plain", "blank", "crlf", "padded", "two", "split", "bom", "not-utf8", "deep")


@st.composite
def _reader_lines(draw):
    text = draw(_values_text)
    kind = draw(st.sampled_from(_LINE_KINDS))
    if kind == "plain":
        return text
    if kind == "blank":
        return draw(_blanks)
    if kind == "crlf":
        return text + b"\r"
    if kind == "padded":
        return draw(_blanks) + text + draw(_blanks)
    if kind == "two":
        return text + draw(st.sampled_from([b"", b" "])) + draw(_values_text)
    if kind == "split":  # one object over two lines
        cut = draw(st.integers(0, len(text)))
        return text[:cut] + b"\n" + text[cut:]
    if kind == "bom":
        return b"\xef\xbb\xbf" + text
    if kind == "not-utf8":
        cut = draw(st.integers(0, len(text)))
        return text[:cut] + draw(st.sampled_from([b"\xff", b"\xa0", b"\xc3"])) + text[cut:]
    depth = draw(st.sampled_from([3, _DEEP]))
    return b'{"fingerprint":"f","tag":"t/A/0","response":"r","x":%s%s}' % (
        b"[" * depth, b"]" * depth
    )


@given(st.lists(_reader_lines(), max_size=6), st.sampled_from([b"", b"\n", b"\r\n"]))
@settings(max_examples=400, deadline=None)
def test_cassette_reader_matches_the_per_line_reader(tmp_path_factory, lines, end):
    path = tmp_path_factory.mktemp("cassette") / "run.jsonl"
    data = b"\n".join(lines) + end
    path.write_bytes(data)
    try:
        want = per_line_entries(str(path))
    except DataError as exc:
        want = str(exc)
    try:
        got = Cassette.open(str(path), CassetteMode.REPLAY).entries
    except DataError as exc:
        got = str(exc)
    assert got == want
    # the scanner either defers to the loop or reads what the loop reads
    values = scan_json_lines(data)
    if values is not None:
        assert values == [value for _, value in json_lines(data, str(path))]


def test_scan_json_lines_reads_regular_lines_and_defers_the_rest():
    entry = json.dumps({"fingerprint": "f", "tag": "t1/A/0", "response": "r\nr"}).encode()
    assert scan_json_lines(entry + b"\n\n \n" + entry + b"\n") == [json.loads(entry)] * 2
    assert scan_json_lines(b"") == scan_json_lines(b"\n \t\n") == []
    for irregular in (
        entry + b"\r\n",  # a CRLF line end
        b" " + entry,  # blanks around the value
        entry + entry,  # two values on one line
        entry[:9] + b"\n" + entry[9:],  # one value over two lines
        b"\xef\xbb\xbf" + entry,  # a BOM
        "\xa0".encode(),  # a blank only to str.strip
        b"[" * _DEEP + b"]" * _DEEP,  # deeper than the recursion limit
        b"\xff",
    ):
        assert scan_json_lines(irregular) is None, irregular


def test_callable_model_wraps_function():
    seen = []

    def fn(req):
        seen.append(req.tag)
        return f"reply to {req.tag}"

    model = CallableModel(fn)
    assert model.complete(text_request("x", tag="t1/A/0")) == "reply to t1/A/0"
    assert seen == ["t1/A/0"]


def test_http_client_retries_with_backoff(monkeypatch):
    monkeypatch.setenv("MODEL_API_KEY", "test-key")
    attempts = []
    sleeps = []

    def failing_transport(payload):
        attempts.append(payload)
        raise OSError("connection refused")

    client = HttpModelClient(
        "http://localhost:9/v1",
        "test-model",
        transport=failing_transport,
        sleep=sleeps.append,
        jitter=lambda delay: delay,
    )
    with pytest.raises(ModelTransportError) as err:
        client.complete(text_request("q", tag="t1/A/0"))
    # retries that run out fail the item, not the run
    assert not isinstance(err.value, FatalError)
    assert f"request 't1/A/0' failed after {MAX_ATTEMPTS} attempts" in str(err.value)
    assert len(attempts) == MAX_ATTEMPTS
    # exponential backoff between attempts, none after the last
    assert sleeps == [BACKOFF_BASE * 2**i for i in range(MAX_ATTEMPTS - 1)]


def test_http_client_recovers_after_transient_failure(monkeypatch):
    monkeypatch.setenv("MODEL_API_KEY", "test-key")
    calls = {"n": 0}

    def flaky_transport(payload):
        calls["n"] += 1
        if calls["n"] < 3:
            raise OSError("timeout")
        return "late success"

    client = HttpModelClient(
        "http://localhost:9/v1",
        "test-model",
        transport=flaky_transport,
        sleep=lambda s: None,
    )
    assert client.complete(text_request("q", tag="t")) == "late success"
    assert calls["n"] == 3


def test_http_client_requires_api_key(monkeypatch):
    # the default transport refuses to run without credentials
    monkeypatch.delenv("MODEL_API_KEY", raising=False)
    client = HttpModelClient("http://localhost:9/v1", "m", sleep=lambda s: None)
    with pytest.raises(ModelTransportError, match="MODEL_API_KEY"):
        client.complete(text_request("q", tag="t"))


def http_error(code):
    return urllib.error.HTTPError("http://localhost:9/v1", code, "reply", {}, None)


@pytest.mark.parametrize(
    "fault, fatal",
    [
        (FatalTransportError("environment variable MODEL_API_KEY is not set"), True),
        (http_error(400), True),
        (http_error(401), True),
        (http_error(404), True),
        (FatalTransportError("malformed transport reply: {}"), True),
        # a body that is not JSON may be one bad reply: it fails its item only
        (json.JSONDecodeError("Expecting value", "<html>", 0), False),
    ],
    ids=["no-key", "400", "401", "404", "no-text", "not-json"],
)
def test_http_client_fails_fast_on_fatal_faults(monkeypatch, fault, fatal):
    monkeypatch.setenv("MODEL_API_KEY", "test-key")
    attempts, sleeps = [], []

    def transport(payload):
        attempts.append(payload)
        raise fault

    client = HttpModelClient(
        "http://localhost:9/v1", "m", transport=transport, sleep=sleeps.append
    )
    with pytest.raises(ModelTransportError, match="request 't1/A/0': ") as err:
        client.complete(text_request("q", tag="t1/A/0"))
    assert isinstance(err.value, FatalTransportError) is fatal
    assert (len(attempts), sleeps) == (1, [])


def test_http_client_missing_key_is_not_retried(monkeypatch):
    monkeypatch.delenv("MODEL_API_KEY", raising=False)
    sleeps = []
    client = HttpModelClient("http://localhost:9/v1", "m", sleep=sleeps.append)
    with pytest.raises(FatalTransportError, match="MODEL_API_KEY"):
        client.complete(text_request("q", tag="t"))
    assert sleeps == []


@pytest.mark.parametrize(
    "fault",
    [
        http_error(429),
        http_error(503),
        urllib.error.URLError("refused"),
        TimeoutError("slow"),
        http.client.IncompleteRead(b'{"te'),
    ],
    ids=["429", "503", "url-error", "timeout", "cut-off-body"],
)
def test_http_client_retries_transport_faults_with_jitter(monkeypatch, fault):
    monkeypatch.setenv("MODEL_API_KEY", "test-key")
    attempts, sleeps = [], []

    def transport(payload):
        attempts.append(payload)
        raise fault

    client = HttpModelClient(
        "http://localhost:9/v1", "m", transport=transport, sleep=sleeps.append
    )
    with pytest.raises(ModelTransportError, match=f"after {MAX_ATTEMPTS} attempts") as err:
        client.complete(text_request("q", tag="t"))
    assert not isinstance(err.value, FatalError)
    assert len(attempts) == MAX_ATTEMPTS
    assert len(sleeps) == MAX_ATTEMPTS - 1
    # equal jitter: half of each exponential step is fixed, half random
    for i, slept in enumerate(sleeps):
        step = BACKOFF_BASE * 2**i
        assert step / 2 <= slept <= step


def test_http_payload_carries_frame_index(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f7.jpg").write_bytes(b"seven")
    (tmp_path / "f9.jpg").write_bytes(b"nine")
    req = ModelRequest(
        parts=(
            TextPart("Which frames show the door?"),
            FramesPart((FrameRef(7, 7.0, path="f7.jpg"), FrameRef(9, 9.0, path="f9.jpg"))),
        ),
        tag="t1/C/retrieval_qa/window/0",
    )
    sent = []
    client = HttpModelClient("http://localhost:9/v1", "m", transport=lambda p: sent.append(p) or "7")
    assert client.complete(req) == "7"
    assert list(sent[0]) == ["model", "temperature", "max_output", "content"]
    assert (sent[0]["model"], sent[0]["temperature"], sent[0]["max_output"]) == ("m", 0.0, 1024)
    images = [c for c in sent[0]["content"] if c["type"] == "image"]
    assert [(c["index"], c["timestamp"]) for c in images] == [(7, "00:07"), (9, "00:09")]
    # the index goes on the wire only; recorded cassettes still match
    assert fingerprint(req) == "1af12b30c63464208c51dbff2fa53fc871427a28e33d011cacb28262376f18d0"


def test_http_unreadable_frame_image_is_a_data_error(tmp_path):
    missing = str(tmp_path / "f7.jpg")
    req = ModelRequest(parts=(FramesPart((FrameRef(7, 7.0, path=missing),)),), tag="t1/C/0")
    sent = []
    client = HttpModelClient("http://localhost:9/v1", "m", transport=sent.append)
    with pytest.raises(DataError, match=f"^frame image not found: {missing}$"):
        client.complete(req)
    assert sent == []


def test_http_frame_without_image_is_fatal():
    req = ModelRequest(parts=(frames(1),), tag="t1/C/retrieval_qa/window/0")
    sent = []
    client = HttpModelClient("http://localhost:9/v1", "m", transport=sent.append)
    with pytest.raises(
        FatalTransportError, match="request 't1/C/retrieval_qa/window/0': frame 0 has no"
    ):
        client.complete(req)
    assert sent == []


class InflightModel(CallableModel):
    """Sleeps a few ms per request and keeps the peak of requests in flight.

    With `overlap` > 1, a request first waits (up to 1 s) until that many
    have been in flight at once, so a late thread start cannot hide a fan-out.
    """

    def __init__(self, fail=None, overlap=1):
        super().__init__(self._reply)
        self.fail = fail or {}
        self.overlap = overlap
        self.lock = threading.Condition()
        self.inflight = self.peak = 0
        self.started = []
        self.threads = set()

    def _reply(self, req):
        with self.lock:
            self.inflight += 1
            self.peak = max(self.peak, self.inflight)
            self.started.append(req.tag)
            self.threads.add(threading.get_ident())
            self.lock.notify_all()
            self.lock.wait_for(lambda: self.peak >= self.overlap, timeout=1.0)
        try:
            delay, error = self.fail.get(req.tag, (0.004, None))
            time.sleep(delay)
            if error:
                raise error
            return f"reply to {req.tag}"
        finally:
            with self.lock:
                self.inflight -= 1


def window_requests(n):
    return [text_request(f"window {i}", tag=f"t1/C/find_when/window/{i}") for i in range(n)]


@pytest.mark.parametrize("cap, n", [(1, 6), (3, 12), (4, 2)])
def test_complete_all_keeps_order_within_cap(cap, n):
    model = InflightModel(overlap=min(cap, n))
    client = ConcurrencyLimitedClient(model, cap)
    requests = window_requests(n)
    assert client.width == cap
    assert client.complete_all(requests) == [f"reply to {r.tag}" for r in requests]
    assert len(model.threads) <= min(cap, n)
    assert model.peak <= min(cap, n)
    if min(cap, n) > 1:
        assert model.peak > 1


def test_complete_all_stress_more_workers_than_cores(tmp_path):
    """Cap 8 over two concurrent recorders, with rapid thread switching."""
    model = InflightModel(fail={f"t{j}/C/w/{i}": (0.0, None) for j in range(2) for i in range(64)})
    capped = ConcurrencyLimitedClient(model, 8)
    recorders = [
        CassetteClient(Cassette.open(str(tmp_path / f"t{j}.jsonl"), CassetteMode.RECORD), capped)
        for j in range(2)
    ]
    batches = [[text_request(f"w{i}", tag=f"t{j}/C/w/{i}") for i in range(64)] for j in range(2)]
    results = {}

    def run(j):
        results[j] = recorders[j].complete_all(batches[j])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(j,)) for j in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert model.peak <= 8
    for j in range(2):
        assert results[j] == [f"reply to {r.tag}" for r in batches[j]]
        tags = [json.loads(line)["tag"] for line in (tmp_path / f"t{j}.jsonl").read_text().splitlines()]
        assert tags == [r.tag for r in batches[j]]


def test_complete_all_failure_raises_first_in_order_and_records_prefix(tmp_path):
    k = 4
    model = InflightModel(
        fail={
            # window k fails late, window k+1 early: window k's error wins
            f"t1/C/find_when/window/{k}": (0.02, ValueError(f"window {k} failed")),
            f"t1/C/find_when/window/{k + 1}": (0.0, ValueError(f"window {k + 1} failed")),
            **{f"t1/C/find_when/window/{i}": (0.05, None) for i in range(k + 2, 40)},
        }
    )
    path = str(tmp_path / "run.jsonl")
    recorder = CassetteClient(
        Cassette.open(path, CassetteMode.RECORD), ConcurrencyLimitedClient(model, 3)
    )
    assert recorder.width == 3
    with pytest.raises(ValueError, match=f"window {k} failed"):
        recorder.complete_all(window_requests(40))
    # exactly what a serial run would have recorded before window k raised
    tags = [json.loads(line)["tag"] for line in Path(path).read_text().splitlines()]
    assert tags == [f"t1/C/find_when/window/{i}" for i in range(k)]
    # queued windows were cancelled instead of sent
    assert len(model.started) < 40


def test_recorded_batch_matches_serial_recording(tmp_path):
    requests = window_requests(9)
    # later windows answer sooner, so completion order is not request order
    delays = {r.tag: (0.003 * (9 - i), None) for i, r in enumerate(requests)}
    lines = {}
    for cap in (1, 3):
        path = tmp_path / f"cap{cap}.jsonl"
        recorder = CassetteClient(
            Cassette.open(str(path), CassetteMode.RECORD),
            ConcurrencyLimitedClient(InflightModel(fail=delays), cap),
        )
        recorder.complete(text_request("turn", tag="t1/C/0"))
        recorder.complete_all(requests)
        lines[cap] = path.read_bytes()
    assert lines[3] == lines[1]
    replayer = CassetteClient(Cassette.open(str(tmp_path / "cap3.jsonl"), CassetteMode.REPLAY))
    assert replayer.complete(text_request("turn", tag="t1/C/0")) == "reply to t1/C/0"
    assert replayer.complete_all(requests) == [f"reply to {r.tag}" for r in requests]


def test_a_capped_client_runs_every_request_on_one_pool(monkeypatch):
    built = []
    pool = modelclient.ThreadPoolExecutor
    monkeypatch.setattr(modelclient, "ThreadPoolExecutor", lambda n: built.append(n) or pool(n))
    model = InflightModel()
    client = ConcurrencyLimitedClient(model, 3)
    for _ in range(3):
        assert client.complete(text_request("q", tag="t1/A/0")) == "reply to t1/A/0"
        assert client.complete_all(window_requests(6)) == [f"reply to {r.tag}" for r in window_requests(6)]
    assert built == [3]  # one pool, built with the client
    assert len(model.threads) <= 3
    assert threading.get_ident() not in model.threads


def test_a_dropped_capped_client_releases_its_workers():
    before = threading.active_count()
    for _ in range(20):
        client = ConcurrencyLimitedClient(InflightModel(overlap=4), 4)
        client.complete_all(window_requests(4))
        assert threading.active_count() >= before + 4
    del client
    deadline = time.monotonic() + 5
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= before


def test_width_comes_from_the_client_chain(tmp_path):
    capped = ConcurrencyLimitedClient(InflightModel(), 5)
    path = str(tmp_path / "run.jsonl")
    recorder = CassetteClient(Cassette.open(path, CassetteMode.RECORD), capped)
    recorder.complete(text_request("q", tag="t1/A/0"))
    replayer = CassetteClient(Cassette.open(path, CassetteMode.REPLAY))
    assert recorder.width == 5
    assert replayer.width == 1
    assert CassetteClient(Cassette.open(path, CassetteMode.RECORD), InflightModel()).width == 1
    assert ScriptedModel.from_queue([]).width == 1
    assert HttpModelClient("http://localhost:9/v1", "m").width == 1


def test_frames_part_rejects_empty():
    with pytest.raises(ValueError):
        FramesPart(())
