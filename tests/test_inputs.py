"""The one reader of input files: its three outcomes, and that every loader
built on it returns or raises a DataError, whatever bytes the file holds."""

import json
import re
import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_suite
from clipcritic.core import DataError, read_bytes, read_json, read_json_lines
from clipcritic.evalcli import (
    RunConfig,
    evaluate,
    load_config_file,
    load_dataset,
    main,
    replay_run,
)
from clipcritic.fixtures import FixtureError, load_fixture
from clipcritic.modelclient import Cassette, CassetteClient, CassetteMode


def bad_input(tmp_path, kind):
    """A path of the given kind of fault; "missing" is never created."""
    path = tmp_path / f"bad-{kind}"
    if kind == "dir":
        path.mkdir()
    elif kind == "file":
        path.write_text("{}\n")
    elif kind == "not-utf8":
        path.write_bytes(b'{"mode": "\xff"}\n')
    elif kind == "not-json":
        path.write_text("not json\n")
    return str(path)


@pytest.mark.parametrize(
    "kind, message",
    [
        ("missing", "config not found: {path}"),
        ("dir", "{path}: cannot read config: Is a directory"),
        ("not-utf8", "{path}: invalid JSON: 'utf-8' codec can't decode byte 0xff"),
        ("not-json", "{path}: invalid JSON: Expecting value: line 1 column 1"),
    ],
)
def test_read_json_has_three_outcomes(tmp_path, kind, message):
    path = bad_input(tmp_path, kind)
    with pytest.raises(DataError, match="^" + re.escape(message.format(path=path))):
        read_json(path, "config")


def test_read_json_reads_a_document(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"mode": "direct", "step_budget": 4}')
    assert read_json(str(path), "config") == {"mode": "direct", "step_budget": 4}
    assert read_bytes(str(path), "config") == path.read_bytes()


def test_read_json_edge_faults(tmp_path):
    with pytest.raises(DataError, match="^config not found: "):
        read_json(str(tmp_path / "a\0b"), "config")  # a path no file can have
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    with pytest.raises(DataError, match="invalid JSON: maximum recursion depth"):
        read_json(str(deep), "config")


def test_read_json_raises_the_given_data_error(tmp_path):
    with pytest.raises(FixtureError, match="^fixture not found: "):
        read_json(str(tmp_path / "absent.json"), "fixture", FixtureError)


def test_read_json_lines_names_each_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\r\n\n  \n[2]\n')
    assert list(read_json_lines(str(path), "dataset")) == [
        (f"{path}:1", {"a": 1}),
        (f"{path}:4", [2]),
    ]
    path.write_bytes(b'{"a": 1}\n\n\xff\n')
    with pytest.raises(DataError, match=re.escape(f"{path}:3: invalid JSON: 'utf-8'")):
        list(read_json_lines(str(path), "dataset"))


# --- every loader, any bytes ---

KEYS = [
    # config
    "mode", "backend", "profile", "step_budget", "concurrency", "examples_files",
    "transport", "traces_dir",
    # dataset rows
    "id", "video", "question", "options", "answer", "allow_asr",
    # cassette entries
    "fingerprint", "tag", "response",
    # fixtures and reports
    "duration", "fps", "frames", "t", "caption", "events", "items", "config",
]
# no "/" or ".": a row's video names a file in the dataset's directory, or none
_texts = st.text(alphabet=string.ascii_letters + string.digits + ":_ \xe9", max_size=8)
_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | _texts
    | st.sampled_from(("00:00", "00:30", "01:00", "clip.json", "direct", "oracle")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | _texts, inner, max_size=6),
    max_leaves=12,
)
_documents = _values.map(lambda v: json.dumps(v).encode()) | st.binary(max_size=40)
_files = _documents | st.lists(_documents, max_size=4).map(b"\n".join)


def _replay_baseline_report(path):
    # past a report that loads, the missing traces directory stops the replay
    absent = str(Path(path).parent / "absent")
    replay_run([], RunConfig(), absent + ".cassette.jsonl", absent, path, absent + ".out")


LOADERS = {
    "config": load_config_file,
    "dataset": load_dataset,
    "cassette": lambda path: CassetteClient(Cassette.open(path, CassetteMode.REPLAY)),
    "fixture": load_fixture,
    "report": _replay_baseline_report,
}


@pytest.mark.parametrize("role", sorted(LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=_files)
def test_any_input_bytes_load_or_raise_a_data_error(tmp_path_factory, role, data):
    base = tmp_path_factory.getbasetemp() / "any_input"
    if not base.exists():
        base.mkdir()
        (base / "clip.json").write_text(json.dumps(oracle_suite.base_fixture()))
    path = base / f"input.{role}"
    path.write_bytes(data)
    try:
        LOADERS[role](str(path))
    except DataError as exc:
        if role == "report":  # a report that loads gets past it, to the traces directory
            try:
                loads = isinstance(json.loads(data.decode("utf-8")), dict)
            except ValueError:
                loads = False
            assert str(base / ("absent" if loads else "input.report")) in str(exc)
    else:
        assert role != "report"


# --- the command line ---


@pytest.fixture(scope="module")
def replay_inputs(tmp_path_factory):
    """The inputs of a `replay` that matches: a config, a dataset, and a
    recorded cassette, traces directory and report."""
    root = tmp_path_factory.mktemp("recorded")
    paths = {
        "config": str(root / "config.json"),
        "dataset": oracle_suite.write_suite(str(root))["all"],
        "cassette": str(root / "run.cassette.jsonl"),
        "traces": str(root / "traces"),
        "report": str(root / "report.json"),
    }
    Path(paths["config"]).write_text(json.dumps({"mode": "agent_critic"}))
    model = CassetteClient(
        Cassette.open(paths["cassette"], CassetteMode.RECORD), oracle_suite.scripted_model()
    )
    config = RunConfig(mode="agent_critic", traces_dir=paths["traces"])
    report = evaluate(load_dataset(paths["dataset"]), config, model)
    Path(paths["report"]).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return paths


def replay_argv(paths, out_dir):
    return [
        "--config", paths["config"],
        "--cassette", f"replay:{paths['cassette']}",
        "--traces-dir", paths["traces"],
        "replay", paths["dataset"],
        "--report", paths["report"],
        "--out-dir", out_dir,
    ]


def test_cli_replay_of_the_recorded_inputs_matches(tmp_path, replay_inputs, capsys):
    assert main(replay_argv(replay_inputs, str(tmp_path / "replayed"))) == 0
    assert "replay matched" in capsys.readouterr().out


FAULT_TEXT = {
    "missing": "not found: ",
    "dir": "cannot read",
    "file": "cannot read",
    "not-utf8": "invalid JSON",
    "not-json": "invalid JSON",
}
INPUT_FAULTS = [
    ("config", "not-utf8"),
    ("dataset", "not-utf8"),
    ("config", "dir"),
    ("dataset", "dir"),
    ("cassette", "dir"),
    ("report", "dir"),
    ("report", "not-json"),
    ("report", "not-utf8"),
    ("traces", "file"),
    ("config", "missing"),
    ("report", "missing"),
    ("traces", "missing"),
]


@pytest.mark.parametrize(
    "role, kind", INPUT_FAULTS, ids=[f"{role}-{kind}" for role, kind in INPUT_FAULTS]
)
def test_cli_bad_input_file_is_a_data_error(tmp_path, replay_inputs, capsys, role, kind):
    # the same replay as above with one input replaced by a faulty one
    paths = {**replay_inputs, role: bad_input(tmp_path, kind)}
    assert main(replay_argv(paths, str(tmp_path / "replayed"))) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("data error: ")
    assert paths[role] in err and FAULT_TEXT[kind] in err
