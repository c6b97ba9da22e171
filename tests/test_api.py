"""The public API snapshot, the lazy package, and checks on what the
package's modules import."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pinstairs
from pinstairs import markov, staircase_oracle

from .frozen import PUBLIC_API

SOURCES = sorted(Path(pinstairs.__file__).parent.glob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    """The names `path` imports but never reads, as module.name.  A
    `__future__` import and a name listed in `__all__` count as used: every
    string constant in the `__all__` expression, which may read a table."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(n.value for n in ast.walk(node.value)
                            if isinstance(n, ast.Constant) and isinstance(n.value, str))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{path.stem}.{name}" for name in imported - read - exported)


def test_every_import_in_the_package_is_used():
    # __init__.py imports only to re-export
    assert [u for path in SOURCES if path.name != "__init__.py"
            for u in _unused_imports(path)] == []


def test_the_import_check_finds_an_unused_name(tmp_path):
    module = tmp_path / "sample.py"
    # a literal __all__, and one read from a table as the package's modules do
    for exports in ["['Fraction']", "[*TABLE['x'], 'Fraction']"]:
        module.write_text(
            "from __future__ import annotations\n"
            "import os.path, sys\n"
            "from math import gcd, isqrt as root\n"
            "from fractions import Fraction\n"
            f"__all__ = {exports}\n"
            "print(os.sep, gcd(4, 6))\n"
        )
        assert _unused_imports(module) == ["sample.root", "sample.sys"], exports


@pytest.mark.parametrize("module", sorted(PUBLIC_API))
def test_no_frozen_public_name_disappears(module):
    # and none appears unfrozen: a new public name goes into the package's
    # _EXPORTS and into PUBLIC_API, and nowhere else
    mod = importlib.import_module(module)
    assert sorted(PUBLIC_API[module] - set(mod.__all__)) == []
    assert sorted(set(mod.__all__) - PUBLIC_API[module]) == []
    assert [name for name in sorted(PUBLIC_API[module]) if not hasattr(mod, name)] == []


# the records that check or derive a field, and so write their own __init__
OWN_INITIALISERS = {"LatticeVector", "DualGraph", "RenderSpec", "Sigma"}


def test_only_the_records_that_check_or_derive_a_field_write_an_initialiser():
    own, setters = set(), []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()  # the nodes of exact_core and of the four records
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id == "_Record" for b in node.bases):
                if any(isinstance(f, ast.FunctionDef) and f.name == "__init__"
                       for f in node.body):
                    own.add(node.name)
                if node.name in OWN_INITIALISERS:
                    allowed.update(map(id, ast.walk(node)))
        if path.name == "exact_core.py":
            allowed.update(map(id, ast.walk(tree)))
        setters += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"
                    and id(node) not in allowed]
    assert own == OWN_INITIALISERS
    assert setters == []


def test_companion_mismatch_is_one_class_on_every_import_path():
    assert pinstairs.CompanionMismatch is staircase_oracle.CompanionMismatch
    assert staircase_oracle.CompanionMismatch is markov.CompanionMismatch
    assert issubclass(markov.CompanionMismatch, pinstairs.DomainError)


def test_no_module_imports_dataclasses():
    # its import (with inspect) and its class building cost a CLI command more
    # than the command's own work
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [path.name for a in node.names if a.name.split(".")[0] == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                found.append(path.name)
    assert found == []


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter that finds this copy of the package first."""
    env = dict(os.environ)
    path = [str(Path(pinstairs.__file__).parent.parent), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def _imported(*args: str) -> set[str]:
    """The modules a fresh interpreter running `args` imports, as -X importtime
    lists them."""
    out = _fresh("-X", "importtime", *args)
    assert out.returncode == 0, out.stderr
    return {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def test_importing_the_package_loads_no_submodule():
    out = _fresh("-c", "import sys, pinstairs; "
                       "print(sorted(m for m in sys.modules if m.startswith('pinstairs.')))")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_a_markov_tree_command_loads_only_what_it_uses():
    loaded = _imported("-m", "pinstairs.cli_plot", "markov", "tree", "--depth", "1")
    loaded -= _imported("-c", "pass")  # what the interpreter loads at start
    assert {"pinstairs.exact_core", "pinstairs.markov"} <= loaded
    assert loaded.isdisjoint({"dataclasses", "pinstairs.regulation", "pinstairs.atf_geometry"})


@pytest.mark.parametrize("argv", [
    ("stair", "5", "1", "--alpha", "3/10", "--beta", "1/5"),
    ("stair", "2", "1", "--svg", os.devnull, "--steps", "5"),
    ("capacity", "5", "1"),
    ("pack", "two", "2", "1", "1/100", "5", "1", "1/100"),
    ("pack", "three", "5", "1", "1/100", "2", "1", "1/100", "1", "1", "1/100"),
], ids=["stair", "stair-svg", "capacity", "pack-two", "pack-three"])
def test_a_staircase_or_packing_command_loads_no_chain_module(argv):
    loaded = _imported("-m", "pinstairs.cli_plot", *argv)
    assert "pinstairs.staircase_oracle" in loaded
    assert loaded.isdisjoint({"pinstairs.hirzebruch_jung", "pinstairs.intersection_theory"})


def _reexported(path: Path) -> set[str]:
    """The names the module at `path` imports from a sibling module."""
    return {a.asname or a.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.level == 1 for a in node.names}


def test_the_package_table_lists_what_each_module_defines():
    for module, names in pinstairs._EXPORTS.items():
        mod = importlib.import_module(f"pinstairs.{module}")
        assert set(names) == set(mod.__all__) - _reexported(Path(mod.__file__)), module


def test_every_public_name_resolves_on_every_path():
    names = PUBLIC_API["pinstairs"]
    for name in sorted(names):
        module = importlib.import_module(f"pinstairs.{pinstairs._MODULE_OF[name]}")
        want = module if module.__name__ == f"pinstairs.{name}" else getattr(module, name)
        assert getattr(pinstairs, name) is want, name
    star: dict = {}
    exec("from pinstairs import *", star)
    assert sorted(names - set(star)) == []
    assert sorted(names - set(dir(pinstairs))) == []
    assert not hasattr(pinstairs, "no_such_name")
