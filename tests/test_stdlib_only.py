"""The package needs nothing outside the standard library at runtime."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "clipcritic"


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    outside = []
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # not an import, or a relative one: clipcritic itself
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "clipcritic" and top not in sys.stdlib_module_names:
                    outside.append(f"{module.name}:{node.lineno}: {name}")
    assert outside == []
