"""The package's export lists name what the modules define."""

import ast
import importlib
from pathlib import Path

import pytest

import memsim


def package_imports() -> list[tuple[str, str]]:
    """(module, name) for every ``from .module import name`` in ``memsim/__init__.py``."""
    tree = ast.parse(Path(memsim.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names]


@pytest.mark.parametrize("module", sorted({module for module, _ in package_imports()}))
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"memsim.{module}")
    exported = mod.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(mod, name)] == []


def test_package_imports_are_exported_by_their_module():
    imports = package_imports()
    assert imports
    missing = [(module, name) for module, name in imports
               if name not in importlib.import_module(f"memsim.{module}").__all__]
    assert missing == []
