"""Write golden/oracle_records.json: every oracle-suite record in every mode.

The records come from the repository's own scripted test model, so the
benchmark checks its fake model against the behaviour the tests pin down.
Run from the repository root when the expected records change on purpose:

    python3 perfbench/make_golden.py
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import oracle_suite  # noqa: E402
from clipcritic.evalcli import MODES, RunConfig, evaluate, load_dataset  # noqa: E402


def main() -> None:
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        items = load_dataset(oracle_suite.write_suite(tmp)["all"])
        for mode in MODES:
            config = RunConfig(mode=mode, traces_dir=os.path.join(tmp, "traces"))
            report = evaluate(items, config, oracle_suite.scripted_model(), persist=False)
            golden[mode] = {record["id"]: record for record in report["items"]}
    path = os.path.join(HERE, "golden", "oracle_records.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
