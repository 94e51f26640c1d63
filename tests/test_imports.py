"""No unused top-level imports in the repository's Python files.

The check ruff's F401 makes, done with :mod:`ast` so that it runs wherever
the tests do.  A name a module imports at top level must be read somewhere
in that module (or listed in its ``__all__``).  ``__init__.py`` files are
skipped (their imports are re-exports) and so is ``from __future__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "scripts", "benchmarks", "examples")


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of every top-level import of *path* it never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {item.value for item in ast.walk(node.value)
                     if isinstance(item, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_scanner_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import os\nimport numpy as np\nfrom json import dumps, loads\n"
                      "__all__ = ['loads']\n\nprint(np.zeros(1))\n")
    assert unused_imports(module) == [(2, "os"), (4, "dumps")]


def test_no_unused_top_level_imports():
    findings = [f"{path.relative_to(ROOT)}:{line}: {name}"
                for directory in SCANNED
                for path in sorted((ROOT / directory).rglob("*.py"))
                if path.name != "__init__.py"
                for line, name in unused_imports(path)]
    assert findings == []
