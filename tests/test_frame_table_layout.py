"""A frame table's layout stays behind `fixtures`: no other module reads
its columns, its rows or its key table, and no frames part or window
carries a fragment of keys beside its frames."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "clipcritic"
LAYOUT = {"columns", "rows", "fragment", "key_table"}


def test_only_fixtures_reads_the_frame_table_layout():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    reads = []
    for module in modules:
        if module.name == "fixtures.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in LAYOUT:
                reads.append(f"{module.name}:{node.lineno}: .{node.attr}")
    assert reads == []
