import importlib
import pkgutil

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
