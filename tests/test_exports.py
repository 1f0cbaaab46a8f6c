import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import taskport


def _modules_with_all():
    names = ["taskport"] + [
        info.name for info in pkgutil.walk_packages(taskport.__path__, "taskport.")
    ]
    return [name for name in names if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", _modules_with_all())
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == [], f"{name}.__all__ lists names it does not define"


def _traced_names():
    """The TRACED names of the benchmark's tracer, read from its source without running it."""
    spans = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    for node in ast.parse(spans.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return [name for name, _ in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/spans.py defines no TRACED tuple")


def test_every_traced_name_resolves():
    # The benchmark wraps these functions by name; deleting or renaming one
    # empties its per-layer metrics and breaks the tracer's self-test.
    names = _traced_names()
    assert names
    unresolved = []
    for name in names:
        module, _, attr = f"{taskport.__name__}.{name}".rpartition(".")
        if not callable(getattr(importlib.import_module(module), attr, None)):
            unresolved.append(name)
    assert unresolved == []
