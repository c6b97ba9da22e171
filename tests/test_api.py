"""The public API snapshot, and a check for imports the package never uses."""

import ast
import importlib
from pathlib import Path

import pytest

import pinstairs
from pinstairs import markov, staircase_oracle

from .frozen import PUBLIC_API

SOURCES = sorted(Path(pinstairs.__file__).parent.glob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    """The names `path` imports but never reads, as module.name.  A
    `__future__` import and a name listed in `__all__` count as used."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{path.stem}.{name}" for name in imported - read - exported)


def test_every_import_in_the_package_is_used():
    # __init__.py imports only to re-export
    assert [u for path in SOURCES if path.name != "__init__.py"
            for u in _unused_imports(path)] == []


def test_the_import_check_finds_an_unused_name(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path, sys\n"
        "from math import gcd, isqrt as root\n"
        "from fractions import Fraction\n"
        "__all__ = ['Fraction']\n"
        "print(os.sep, gcd(4, 6))\n"
    )
    assert _unused_imports(module) == ["sample.root", "sample.sys"]


@pytest.mark.parametrize("module", sorted(PUBLIC_API))
def test_no_frozen_public_name_disappears(module):
    mod = importlib.import_module(module)
    assert sorted(PUBLIC_API[module] - set(mod.__all__)) == []
    assert [name for name in sorted(PUBLIC_API[module]) if not hasattr(mod, name)] == []


def test_companion_mismatch_is_one_class_on_every_import_path():
    assert pinstairs.CompanionMismatch is staircase_oracle.CompanionMismatch
    assert staircase_oracle.CompanionMismatch is markov.CompanionMismatch
    assert issubclass(markov.CompanionMismatch, pinstairs.DomainError)
