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


# the live transport's stack: loaded (with ssl and email) only when a
# request is sent or its fault classed, never by importing the package
LIVE_ONLY = ("urllib.request", "urllib.error", "http.client", "ssl", "base64")


def test_no_module_level_import_of_the_live_transport():
    loaded_at_import = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        pending = list(ast.iter_child_nodes(tree))
        while pending:  # module-level statements, through if / try / with blocks
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                pending.extend(ast.iter_child_nodes(node))
                continue
            for name in names:
                if name in LIVE_ONLY:
                    loaded_at_import.append(f"{module.name}:{node.lineno}: {name}")
    assert loaded_at_import == []
