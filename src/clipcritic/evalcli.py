"""Dataset loading, batch evaluation, ablation sweeps, trace persistence,
and the command-line surface.

Datasets are JSON lines; reports are JSON documents {config, items,
aggregate, timing}. Every episode's trace is persisted as one file per
task per strategy so runs can be audited and replayed byte-for-byte.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import typing
from dataclasses import dataclass, field, fields

from .agent import (
    DEFAULT_STEP_BUDGET,
    Trace,
    final_to_dict,
    run_direct,
    run_episode,
    run_self_eval,
    run_single_program,
)
from .core import (
    Choice,
    DataError,
    FatalError,
    FinalAnswer,
    Ranges,
    ReplayDivergence,
    TaskKind,
    TaskQuery,
    TimestampError,
    UsageError,
    VideoSegment,
    answers_equal,
    input_error,
    interval_union_iou,
    parse_timestamp,
    pretty_json,
    read_bytes,
    read_json,
    read_json_lines,
    write_bytes,
    writing,
)
from .critic import load_examples, load_examples_file, run_agent_critic
from .fixtures import video_ref_for
from .modelclient import (
    Cassette,
    CassetteClient,
    CassetteMode,
    ConcurrencyLimitedClient,
    HttpModelClient,
    ModelClient,
    in_order,
)
from .toolkit import PROFILES, StrategySubset, enumerate_module_subsets, profile_for_task
from .tools import BACKENDS, build_registry

@dataclass(frozen=True)
class DatasetItem:
    task: TaskQuery
    truth: FinalAnswer


# RunConfig fields that say where things live, not how the run behaves
_DEPLOYMENT_FIELDS = frozenset({"examples_files", "transport", "traces_dir", "cassette"})


@dataclass
class RunConfig:
    mode: str = "agent_critic"
    profile: str | None = None
    backend: str = "oracle"
    step_budget: int = DEFAULT_STEP_BUDGET
    concurrency: int = 1
    max_rounds: int = 3
    examples_files: dict = field(default_factory=dict)
    transport: dict = field(default_factory=dict)
    traces_dir: str = "traces"
    cassette: str | None = None

    def snapshot(self) -> dict:
        """The reproducible part of the configuration for reports.

        The deployment fields (examples files, transport, traces directory
        and cassette) are excluded, so a replay on any machine regenerates
        a byte-identical report.
        """
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in _DEPLOYMENT_FIELDS
        }


# --- modes ---
#
# Each runner returns (chosen trace, traces to persist, extra record fields).
# Runners name the agent and critic entry points at call time, so a wrapper
# installed on this module's attribute (as the benchmark tracer does) sees
# every call. `examples` maps a profile name to its configured critic examples.


def _direct(task, profile, factory, model, config, fixed_subset, examples):
    subset = next(s for s in profile.strategies if s.direct)
    trace = run_direct(task, subset, model, factory(subset))
    return trace, [trace], {}


def _single_program(task, profile, factory, model, config, fixed_subset, examples):
    subset = StrategySubset("single", profile.pool)
    trace = run_single_program(task, subset, model, factory(subset))
    return trace, [trace], {}


def _agent(task, profile, factory, model, config, fixed_subset, examples):
    """The given subset, or the profile's all-module non-direct subset."""
    subset = fixed_subset or next(
        s
        for s in reversed(profile.strategies)
        if not s.direct and set(s.modules) == set(profile.pool)
    )
    trace = run_episode(
        task, subset, model, factory(subset), step_budget=config.step_budget
    )
    return trace, [trace], {}


def _agent_critic(task, profile, factory, model, config, fixed_subset, examples):
    selection, traces, verdict = run_agent_critic(
        task,
        model,
        factory,
        profile,
        examples=examples.get(profile.name) or load_examples(profile),
        step_budget=config.step_budget,
    )
    extra = {"winners": list(verdict.winners), "fallback_used": selection.fallback_used}
    return selection.trace, traces, extra


def _self_eval(task, profile, factory, model, config, fixed_subset, examples):
    subset = StrategySubset("self", profile.pool)
    trace = run_self_eval(
        task,
        subset,
        model,
        factory(subset),
        max_rounds=config.max_rounds,
        step_budget=config.step_budget,
    )
    return trace, [trace], {}


_RUNNERS = {
    "direct": _direct,
    "single_program": _single_program,
    "agent": _agent,
    "agent_critic": _agent_critic,
    "self_eval": _self_eval,
}
MODES = tuple(_RUNNERS)

# keys whose values name one of a closed set
_CONFIG_CHOICES = {"mode": MODES, "backend": BACKENDS, "profile": tuple(sorted(PROFILES))}


def _setting_fault(key: str, value) -> str | None:
    """Why a config value of the right type cannot be used (file or flag), or None."""
    if key in ("step_budget", "concurrency", "max_rounds") and value < 1:
        return "must be >= 1"
    allowed = _CONFIG_CHOICES.get(key)
    if allowed is not None and value is not None and value not in allowed:
        return f"must be one of {', '.join(allowed)}"
    return None


def load_config_file(path: str) -> RunConfig:
    data = read_json(path, "config")
    if not isinstance(data, dict):
        raise DataError(f"{path}: config must be a JSON object")
    config = RunConfig()
    types = typing.get_type_hints(RunConfig)
    for key, value in data.items():
        if key not in types:
            raise DataError(f"{path}: unknown config key '{key}'")
        if isinstance(value, bool) or not isinstance(value, types[key]):
            shown = RunConfig.__dataclass_fields__[key].type
            raise DataError(f"{path}: config key '{key}' must be {shown}")
        fault = _setting_fault(key, value)
        if fault:
            raise DataError(f"{path}: config key '{key}' {fault}")
        if key == "examples_files":
            for name, file in value.items():
                if name not in PROFILES or not isinstance(file, str):
                    raise DataError(
                        f"{path}: examples_files['{name}'] must map a profile name to a path"
                    )
        setattr(config, key, value)
    return config


# --- dataset ---


def _truth_for(data: dict, task: TaskQuery, where: str) -> FinalAnswer:
    answer = data.get("answer")
    if task.kind is TaskKind.MULTIPLE_CHOICE:
        if type(answer) is not int:  # nor a bool
            raise DataError(f"{where}: MCQ answer must be an integer index")
        if not 1 <= answer <= len(task.options):
            raise DataError(
                f"{where}: answer {answer} out of range for "
                f"{len(task.options)} options"
            )
        return Choice(answer)
    if not isinstance(answer, list) or not answer:
        raise DataError(f"{where}: range answer must be a nonempty list of pairs")
    segments = []
    for pair in answer:
        if not isinstance(pair, list) or len(pair) != 2:
            raise DataError(f"{where}: each range must be a [start, end] pair")
        for v in pair:
            if not isinstance(v, str) and type(v) is not int:
                raise DataError(
                    f"{where}: bad range value {v!r}: expected whole seconds or a timestamp"
                )
        try:
            start, end = (parse_timestamp(v) if isinstance(v, str) else v for v in pair)
        except TimestampError as exc:
            raise DataError(f"{where}: bad range value: {exc}") from exc
        if start > end or start < 0:
            raise DataError(f"{where}: invalid range [{start}, {end}]")
        segments.append(VideoSegment(start, end))
    return Ranges(tuple(segments))


def load_dataset(
    path: str,
    profile: str | None = None,
    task_id: str | None = None,
    first: bool = False,
) -> list[DatasetItem]:
    """JSON-lines records {id, video, question, options?, answer, allow_asr}.

    With `task_id`, only that row becomes an item, and with `first`, only
    the first row (so only its video is loaded); every row still gets its
    JSON and id checks.
    """
    base_dir = os.path.dirname(os.path.abspath(path))
    items: list[DatasetItem] = []
    seen_ids: set[str] = set()
    for where, data in read_json_lines(path, "dataset"):
        if not isinstance(data, dict):
            raise DataError(f"{where}: expected an object")
        for key in ("id", "video", "question", "answer"):
            if key not in data:
                raise DataError(f"{where}: missing required key '{key}'")
        row_id = data["id"]
        if not isinstance(row_id, str) or not row_id:
            raise DataError(f"{where}: id must be a nonempty string")
        if "/" in row_id:
            raise DataError(f"{where}: id '{row_id}' must not contain '/'")
        if "\0" in row_id:  # no trace file could be named for it
            raise DataError(f"{where}: id {row_id!r} must not contain a NUL byte")
        if row_id in seen_ids:
            raise DataError(f"{where}: duplicate id '{row_id}'")
        seen_ids.add(row_id)
        if (task_id is not None and row_id != task_id) or (first and items):
            continue
        question = data["question"]
        if not isinstance(question, str) or not question:
            raise DataError(f"{where}: question must be a nonempty string")
        options = data.get("options")
        if options is not None and not (
            isinstance(options, list) and all(isinstance(o, str) and o for o in options)
        ):
            raise DataError(f"{where}: options must be nonempty strings")
        allow_asr = data.get("allow_asr", False)
        if not isinstance(allow_asr, bool):
            raise DataError(f"{where}: allow_asr must be a boolean")
        video_path = data["video"]
        if not isinstance(video_path, str):
            raise DataError(f"{where}: video must be a path string")
        try:  # join keeps an absolute path, and resolves a relative one from base_dir
            video = video_ref_for(os.path.join(base_dir, video_path))
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from exc
        kind = TaskKind.MULTIPLE_CHOICE if options else TaskKind.TEMPORAL_RANGE
        task = TaskQuery(
            id=row_id,
            question=question,
            kind=kind,
            video=video,
            options=tuple(options) if options else None,
            allow_asr=allow_asr,
        )
        if profile is not None:
            try:
                profile_for_task(task, profile)
            except ValueError as exc:
                raise DataError(f"{where}: {exc}") from exc
        items.append(DatasetItem(task, _truth_for(data, task, where)))
    if not items and seen_ids:  # every row was another task's
        raise DataError(f"no task with id '{task_id}'")
    if not items:
        raise DataError(f"{path}: dataset is empty")
    return items


# --- evaluation ---


def _score(item: DatasetItem, final: FinalAnswer) -> tuple[bool | None, float | None]:
    if item.task.kind is TaskKind.MULTIPLE_CHOICE:
        return answers_equal(final, item.truth), None
    pred = final.segments if isinstance(final, Ranges) else ()
    return None, interval_union_iou(pred, item.truth.segments)


def _critic_examples(config: RunConfig) -> dict:
    """Each configured examples file, read before any item so a bad one fails fast."""
    if config.mode != "agent_critic":
        return {}
    return {name: load_examples_file(path) for name, path in config.examples_files.items()}


def run_item(
    item: DatasetItem,
    config: RunConfig,
    model: ModelClient,
    fixed_subset: StrategySubset | None = None,
    examples: dict | None = None,
) -> tuple[dict, list[Trace]]:
    """Evaluate one dataset item; returns (report record, traces to persist).
    `examples` is `_critic_examples(config)`, read here when not given."""
    runner = _RUNNERS.get(config.mode)
    if runner is None:
        raise UsageError(f"unknown mode '{config.mode}'")
    if examples is None:
        examples = _critic_examples(config)
    task = item.task
    try:
        profile = profile_for_task(task, config.profile)
    except ValueError as exc:
        raise DataError(f"item '{task.id}': {exc}") from exc

    def factory(subset: StrategySubset):
        return build_registry(
            task, subset, config.backend, model, profile.answer_capable
        )

    chosen, traces, extra = runner(
        task, profile, factory, model, config, fixed_subset, examples
    )
    final = chosen.final
    record: dict = {
        "id": task.id,
        "kind": task.kind.value,
        "strategy": chosen.strategy.label,
        **extra,
        "selected": final_to_dict(final, chosen.raw_final),
    }
    correct, iou = _score(item, final)
    if correct is not None:
        record["correct"] = correct
    if iou is not None:
        record["iou"] = iou
    record["trace_files"] = [f"{task.id}.{t.strategy.label}.json" for t in traces]
    return record, traces


def persist_traces(traces: list[Trace], traces_dir: str) -> None:
    if not os.path.isdir(traces_dir):  # one stat once the directory is there
        with writing(traces_dir, "traces directory"):
            os.makedirs(traces_dir, exist_ok=True)
    for trace in traces:
        name = f"{trace.task.id}.{trace.strategy.label}.json"
        path = os.path.join(traces_dir, name)
        write_bytes(path, pretty_json(trace.to_dict()).encode("ascii"), "trace")


def evaluate(
    items: list[DatasetItem],
    config: RunConfig,
    model: ModelClient,
    fixed_subset: StrategySubset | None = None,
    persist: bool = True,
) -> dict:
    """Run a whole dataset in one mode and build the report document."""
    if not items:
        raise DataError("refusing to report on an empty dataset")
    started = time.time()
    examples = _critic_examples(config)

    def one(item: DatasetItem) -> tuple[dict, list[Trace]]:
        try:
            return run_item(item, config, model, fixed_subset, examples)
        except FatalError:
            raise
        except Exception as exc:
            record = {
                "id": item.task.id,
                "kind": item.task.kind.value,
                "error": str(exc),
                "error_type": type(exc).__name__,
            }
            if item.task.kind is TaskKind.MULTIPLE_CHOICE:
                record["correct"] = False
            else:
                record["iou"] = 0.0
            return record, []

    results, fatal = in_order(one, items, config.concurrency)
    records = []
    for record, traces in results:
        records.append(record)
        if persist and traces:
            persist_traces(traces, config.traces_dir)
    # a fault that stops the run keeps the traces of the items before it,
    # though no report is written
    if fatal is not None:
        if persist and results:
            fatal.finished = (
                f"{len(results)} of {len(items)} items finished; "
                f"their traces are in {config.traces_dir}"
            )
        raise fatal

    mcq = [r for r in records if r["kind"] == "multiple_choice"]
    temporal = [r for r in records if r["kind"] == "temporal_range"]
    aggregate: dict = {"count": len(records)}
    if mcq:
        aggregate["accuracy"] = sum(
            1 for r in mcq if r.get("correct")
        ) / len(mcq)
    if temporal:
        aggregate["miou"] = sum(r.get("iou", 0.0) for r in temporal) / len(temporal)
    return {
        "config": config.snapshot(),
        "items": records,
        "aggregate": aggregate,
        "timing": {"seconds": time.time() - started},
    }


def ablate_fixed_subsets(
    items: list[DatasetItem], config: RunConfig, model: ModelClient
) -> dict:
    """Agent-mode sweep over every valid fixed module subset of the pool."""
    if not items:
        raise DataError("refusing to report on an empty dataset")
    try:
        profile = profile_for_task(items[0].task, config.profile)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    if config.profile is None:
        for item in items:
            own = profile_for_task(item.task)
            if own is not profile:
                raise DataError(
                    f"item '{item.task.id}' has profile '{own.name}', "
                    f"not the sweep's profile '{profile.name}'"
                )
    subsets = enumerate_module_subsets(profile)
    sweep_config = RunConfig(**{**config.__dict__, "mode": "agent"})
    per_subset = []
    metric = "accuracy" if profile.task_kind is TaskKind.MULTIPLE_CHOICE else "miou"
    for i, modules in enumerate(subsets, start=1):
        label = f"S{i}"
        subset = StrategySubset(label, modules)
        sub_dir = os.path.join(config.traces_dir, f"ablate_{label}")
        sweep_config.traces_dir = sub_dir
        report = evaluate(items, sweep_config, model, fixed_subset=subset)
        per_subset.append(
            {
                "label": label,
                "modules": list(modules),
                "score": report["aggregate"].get(metric, 0.0),
            }
        )
    best = max(per_subset, key=lambda s: s["score"])
    return {
        "config": sweep_config.snapshot(),
        "metric": metric,
        "subsets": per_subset,
        "max": {"label": best["label"], "modules": best["modules"], "score": best["score"]},
    }


# --- replay comparison ---


def _normalized_report_bytes(report: dict) -> bytes:
    trimmed = {k: v for k, v in report.items() if k != "timing"}
    return pretty_json(trimmed).encode("ascii")


def _trace_names(directory: str, what: str) -> list[str]:
    try:
        names = os.listdir(directory)
    except OSError as exc:
        raise input_error(exc, directory, what) from exc
    return sorted(n for n in names if n.endswith(".json"))


def replay_run(
    items: list[DatasetItem],
    config: RunConfig,
    cassette_path: str,
    baseline_traces_dir: str,
    baseline_report_path: str,
    out_dir: str,
) -> None:
    """Re-run from a cassette and compare against persisted outputs.

    The baseline is read before the run, so a bad one fails fast as a
    DataError. Raises ReplayDivergence naming the first divergent artifact,
    or the first episode with recorded calls the run did not replay.
    """
    baseline_report = read_json(baseline_report_path, "baseline report")
    if not isinstance(baseline_report, dict):
        raise DataError(f"{baseline_report_path}: report must be a JSON object")
    baseline_files = _trace_names(baseline_traces_dir, "baseline traces directory")
    report_dir, report_name = os.path.split(baseline_report_path)
    if os.path.samefile(report_dir or ".", baseline_traces_dir):  # `eval`'s default layout
        baseline_files = [name for name in baseline_files if name != report_name]
    model = CassetteClient(Cassette.open(cassette_path, CassetteMode.REPLAY))
    with writing(out_dir, "replayed traces directory"):
        os.makedirs(out_dir, exist_ok=True)  # a run that persists nothing lists as empty
    replay_config = RunConfig(**{**config.__dict__, "traces_dir": out_dir})
    report = evaluate(items, replay_config, model)
    unconsumed = model.unconsumed()
    if unconsumed is not None:
        episode, count = unconsumed
        raise ReplayDivergence(
            f"{cassette_path}: {count} recorded calls of episode '{episode}' "
            "were not replayed"
        )
    if _normalized_report_bytes(report) != _normalized_report_bytes(baseline_report):
        raise ReplayDivergence(
            f"report differs from {baseline_report_path} (ignoring timing)"
        )
    replay_files = _trace_names(out_dir, "replayed traces directory")
    if baseline_files != replay_files:
        missing = set(baseline_files) ^ set(replay_files)
        raise ReplayDivergence(f"trace file sets differ: {sorted(missing)}")
    for name in baseline_files:
        want = read_bytes(os.path.join(baseline_traces_dir, name), "baseline trace")
        if read_bytes(os.path.join(out_dir, name), "replayed trace") != want:
            raise ReplayDivergence(f"trace file '{name}' differs")


# --- model construction ---


_NO_MODEL = (
    "no model is configured for this run; use --cassette replay:<path> "
    "or set a transport in the config file"
)


class _UnconfiguredModel(ModelClient):
    """Stands in for the model on oracle runs that may never call one."""

    def _complete(self, req):
        raise UsageError(_NO_MODEL)


def build_model(config: RunConfig) -> ModelClient:
    inner: ModelClient | None = None
    if config.transport:
        transport = {"api_key_env": "MODEL_API_KEY", **config.transport}
        for key in ("endpoint", "model_name", "api_key_env"):
            if not isinstance(transport.get(key), str):
                raise DataError(f"transport config needs a string '{key}'")
        if not transport["endpoint"].startswith(("http://", "https://")):
            raise DataError("transport config 'endpoint' must be an http:// or https:// URL")
        inner = HttpModelClient(transport["endpoint"], transport["model_name"], transport["api_key_env"])
        if config.concurrency > 1:
            inner = ConcurrencyLimitedClient(inner, config.concurrency)
    if config.cassette:
        mode_name, sep, path = config.cassette.partition(":")
        if not sep or not path:
            raise UsageError("--cassette expects record:<path> or replay:<path>")
        if mode_name == "record":
            if inner is None:
                raise UsageError("record mode needs a configured transport")
            return CassetteClient(Cassette.open(path, CassetteMode.RECORD), inner)
        if mode_name == "replay":
            return CassetteClient(Cassette.open(path, CassetteMode.REPLAY))
        raise UsageError(f"unknown cassette mode '{mode_name}'")
    if inner is not None:
        return inner
    if config.backend == "model":
        raise UsageError(_NO_MODEL)
    return _UnconfiguredModel()


# --- CLI ---


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="clipcritic", description="Video reasoning evaluation")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--traces-dir", help="directory for persisted traces")
    parser.add_argument("--mode", choices=_CONFIG_CHOICES["mode"], help="evaluation mode")
    parser.add_argument("--profile", choices=_CONFIG_CHOICES["profile"], help="strategy profile")
    parser.add_argument("--budget", type=int, help="agent step budget")
    parser.add_argument(
        "--concurrency",
        type=int,
        help="cap on model calls in flight, shared by items, an item's strategies "
        "and a tool's windows",
    )
    parser.add_argument(
        "--cassette", help="record:<path> or replay:<path> model cassette"
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run one task and print its trace")
    run_p.add_argument("dataset", help="JSONL dataset file")
    run_p.add_argument("--task", help="task id (default: first item)")

    eval_p = sub.add_parser("eval", help="evaluate a dataset into a report")
    eval_p.add_argument("dataset", help="JSONL dataset file")
    eval_p.add_argument("--report", help="report output path")

    ablate_p = sub.add_parser("ablate", help="fixed module-subset sweep")
    ablate_p.add_argument("dataset", help="JSONL dataset file")
    ablate_p.add_argument("--report", help="report output path")

    replay_p = sub.add_parser("replay", help="re-run from a cassette and compare")
    replay_p.add_argument("dataset", help="JSONL dataset file")
    replay_p.add_argument("--report", required=True, help="baseline report path")
    replay_p.add_argument(
        "--out-dir", help="directory for regenerated traces (default: <traces>.replay)"
    )
    return parser


# the argparse dest of each flag that sets a config key, with that key
_FLAG_KEYS = {"mode": "mode", "profile": "profile", "budget": "step_budget",
              "concurrency": "concurrency", "traces_dir": "traces_dir", "cassette": "cassette"}


def _merge_config(args: argparse.Namespace) -> RunConfig:
    config = load_config_file(args.config) if args.config else RunConfig()
    for dest, key in _FLAG_KEYS.items():
        value = getattr(args, dest)
        if value in (None, ""):  # an empty string keeps the config's value
            continue
        fault = _setting_fault(key, value)
        if fault:
            raise UsageError(f"--{dest.replace('_', '-')} {fault}")
        setattr(config, key, value)
    return config


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a subcommand is required (run, eval, ablate, replay)")
        config = _merge_config(args)
        replaying = args.command == "replay"
        if replaying and not (config.cassette or "").startswith("replay:"):
            raise UsageError("replay requires --cassette replay:<path>")
        task_id = args.task if args.command == "run" else None
        first = args.command == "run" and task_id is None
        items = load_dataset(args.dataset, config.profile, task_id, first)
        if replaying:
            out_dir = args.out_dir or config.traces_dir.rstrip("/\\") + ".replay"
            replay_run(
                items,
                config,
                config.cassette.partition(":")[2],
                baseline_traces_dir=config.traces_dir,
                baseline_report_path=args.report,
                out_dir=out_dir,
            )
            print("replay matched: traces and report are identical")
            return 0
        model = build_model(config)
        if args.command == "run":
            record = evaluate(items, config, model)["items"][0]
            for name in record.get("trace_files", ()):
                with open(os.path.join(config.traces_dir, name), encoding="utf-8") as fh:
                    sys.stdout.write(fh.read())
            sys.stdout.write(pretty_json({"result": record}))
            return 0
        if args.command == "eval":
            report = evaluate(items, config, model)
            report_path = args.report or os.path.join(config.traces_dir, "report.json")
            shown = report["aggregate"]
        else:
            report = ablate_fixed_subsets(items, config, model)
            report_path = args.report
            shown = report
        if report_path:
            # encoded first, so a report that cannot be encoded writes no file
            data = pretty_json(report).encode("ascii")
            with writing(report_path, "report"):
                os.makedirs(os.path.dirname(report_path) or ".", exist_ok=True)
            write_bytes(report_path, data, "report")
        sys.stdout.write(pretty_json(shown))
        return 0
    except FatalError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        if exc.finished:
            print(exc.finished, file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
