"""An episode's state follows it onto every thread that serves it: no
module keeps per-thread state, and every pool runs its task in a copy of
the submitter's context, as `copy_context().run`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "clipcritic"


def nodes():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            yield f"{module.name}:{getattr(node, 'lineno', 0)}", node


def test_no_module_keeps_per_thread_state():
    found = []
    for where, node in nodes():
        if isinstance(node, ast.Attribute) and node.attr == "local":
            if isinstance(node.value, ast.Name) and node.value.id == "threading":
                found.append(where)
        if isinstance(node, ast.ImportFrom) and node.module == "threading":
            found += [where for alias in node.names if alias.name == "local"]
    assert found == []


def runs_in_a_copied_context(call: ast.Call) -> bool:
    first = call.args[0] if call.args else None
    return (
        isinstance(first, ast.Attribute)
        and first.attr == "run"
        and isinstance(first.value, ast.Call)
        and isinstance(first.value.func, ast.Name)
        and first.value.func.id == "copy_context"
        and not first.value.args
    )


def test_every_pool_task_runs_in_a_copy_of_the_submitters_context():
    submits = [
        (where, node)
        for where, node in nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "submit"
    ]
    assert len(submits) == 1  # `in_order`'s helpers, for items, strategies and capped batches
    assert [where for where, call in submits if not runs_in_a_copied_context(call)] == []
