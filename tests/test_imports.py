"""Every name a ``limsketch`` module imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "limsketch"
# ``__init__`` imports its names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that no expression in it reads, sorted."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # an attribute chain ``mod.name`` reads ``mod`` as a Name, and so does an annotation
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from typing import Iterator, Mapping\n"
        "def f(x: Iterator) -> None:\n"
        "    js.dumps(x)\n"
    )
    assert unused_imports(source) == ["Mapping", "os"]


def test_modules_are_found():
    assert {"cli.py", "elim.py", "universal.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    """The last dotted part of each module that ``source`` imports, or imports from."""
    modules: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            # ``from . import elim`` names its module among the imported names
            modules.update([node.module] if node.module else [a.name for a in node.names])
    return {m.rsplit(".", 1)[-1] for m in modules}


def test_the_layering_check_reads_every_import_form():
    source = "from .elim import x\nimport limsketch.kelly\nfrom . import compare\n"
    assert imported_modules(source) == {"elim", "kelly", "compare"}


def test_universal_reads_units_not_engines():
    """The universal property is a unit's: ``universal`` imports neither engine nor ``compare``."""
    source = (SRC / "universal.py").read_text(encoding="utf-8")
    assert imported_modules(source) & {"elim", "kelly", "compare"} == set()
