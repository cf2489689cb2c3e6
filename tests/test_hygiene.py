"""Import hygiene without a linter: no module of the package or of its
tests imports a name it never uses."""

import ast
import pathlib

import pytest

import splitlab

PACKAGE = pathlib.Path(splitlab.__file__).parent
TESTS = pathlib.Path(__file__).parent
# package modules by name, test modules as tests/<name>
MODULES = {p.name: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
MODULES |= {f"tests/{p.name}": p for p in TESTS.glob("*.py")}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement (anywhere in the module, also
    under TYPE_CHECKING or inside a function) that no Name or attribute
    root refers to.  `from __future__` imports are directives, not names."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in used]


def test_detector_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import itertools\n"
        "from typing import TYPE_CHECKING, Iterator\n"
        "if TYPE_CHECKING:\n"
        "    from .fields import FieldCtx, TowerCtx\n"
        "def f(t: TowerCtx) -> Iterator[int]:\n"
        "    yield 1\n"
    )
    assert unused_imports(source) == ["FieldCtx (line 5)", "itertools (line 2)"]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_uses_every_import(module):
    source = MODULES[module].read_text(encoding="utf-8")
    assert unused_imports(source) == []
