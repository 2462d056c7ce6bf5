"""Every speed claim's record: the root `BENCH_<name>.json` files.

A claim without a bench file does not count, so each file must say what
was run, where and how, and claim an end-to-end metric of a workload the
benchmark declares in `BENCHMARK.json`.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def declared():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = {m["name"] for m in benchmark["end_to_end"]}
    return workloads, metrics


def test_there_are_bench_files():
    assert len(BENCH_FILES) >= 12


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_records_a_declared_claim(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(bench, dict)
    assert bench.get("name") == path.stem.removeprefix("BENCH_")
    for key in ("command", "host", "protocol"):
        assert isinstance(bench.get(key), str) and bench[key].strip(), key
    claim = bench.get("claim")
    assert isinstance(claim, dict)
    workloads, metrics = declared()
    assert claim.get("workload") in workloads
    assert claim.get("metric") in metrics
