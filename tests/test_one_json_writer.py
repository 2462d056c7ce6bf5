"""Every indented JSON text the package writes comes from `core.pretty_json`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "clipcritic"


def test_no_json_dump_call_indents():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    indented = []
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("dump", "dumps") and any(k.arg == "indent" for k in node.keywords):
                indented.append(f"{module.name}:{node.lineno}")
    assert indented == []
