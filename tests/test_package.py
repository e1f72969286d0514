"""Package hygiene checks, written with the standard library only.

An unused module-level import in the package is dead code, and so is a
module-level private function, class or constant that no module of the
package reads; no module-level name is defined in two modules, and the
public names listed in ``ifa.__all__`` must all exist.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ifa

MODULES = sorted(Path(ifa.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_scanner_flags_unused_imports():
    source = "import os\nimport numpy as np\nfrom x import a, b\n__all__ = ['b']\nnp.zeros(1)\n"
    assert unused_imports(source) == ["os", "a"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level private defs and constants that no source reads."""
    defined, read = [], set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    private = [n for n in defined if n.startswith("_") and not n.startswith("__")]
    return [name for name in private if name not in read]


def test_scanner_flags_unread_private_names():
    sources = [
        "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _A\nclass _C:\n    pass\n",
        "from m import _C\ndef g(x):\n    return x._g\ndef _g():\n    pass\n",
    ]
    assert unread_private_names(sources) == ["_B", "_f"]


def test_no_unread_private_names():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert unread_private_names(sources) == []


def module_definitions(source: str) -> set[str]:
    """Names a module defines at top level: functions, classes, assignments."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_scanner_finds_module_definitions():
    source = "import os\n_A = 1\nb: int = 2\ndef f():\n    c = 3\nclass G:\n    d = 4\n"
    assert module_definitions(source) == {"_A", "b", "f", "G"}


def test_no_name_defined_in_two_modules():
    seen, twice = {}, []
    for path in MODULES:
        for name in module_definitions(path.read_text(encoding="utf-8")):
            if name in seen:
                twice.append(f"{name} in {seen[name]} and {path.name}")
            seen[name] = path.name
    assert twice == []


def test_public_names_resolve():
    missing = [name for name in ifa.__all__ if not hasattr(ifa, name)]
    assert missing == []
    assert len(set(ifa.__all__)) == len(ifa.__all__)
