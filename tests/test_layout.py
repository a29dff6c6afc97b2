"""Static checks on the package source: no helper without a caller, no
import without a use.

A module-level function or class must be named somewhere in ``src/``
outside its own definition, or be exported by its module's ``__all__`` or
by the package ``__init__``. A module must use every name it imports; the
package ``__init__`` imports only to re-export, and a name listed in a
module's ``__all__`` counts as used.
"""

import ast
from pathlib import Path

import pytest

import transitopt

PACKAGE = Path(transitopt.__file__).resolve().parent


def _sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _exported(tree: ast.Module) -> set[str]:
    """The names a module's ``__all__`` lists."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _named(node: ast.AST) -> set[str]:
    """Every name read or attribute taken anywhere under ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def uncalled(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level function or class that nothing
    outside its own definition names and no ``__all__`` or ``__init__``
    exports."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    exported = set()
    for module, tree in trees.items():
        exported |= _exported(tree)
        if module == "__init__":
            exported |= {alias.asname or alias.name for node in tree.body
                         if isinstance(node, ast.ImportFrom) for alias in node.names}
    # the names each top-level statement uses, so a definition's own body
    # (a recursive call, say) does not count as its caller
    uses = [(module, node, _named(node)) for module, tree in trees.items() for node in tree.body]
    missing = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in exported:
                continue
            if not any(node.name in names for _, other, names in uses if other is not node):
                missing.append(f"{module}.{node.name}")
    return missing


def unused_imports(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each imported name its module never uses."""
    missing = []
    for module, text in sources.items():
        if module == "__init__":
            continue
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        missing.append(f"{module}.{name}")
    return missing


def test_every_helper_has_a_caller():
    assert uncalled(_sources()) == []


def test_every_import_is_used():
    assert unused_imports(_sources()) == []


class TestTheChecks:
    """The checks find what they look for on small sources."""

    SOURCES = {
        "__init__": "from .a import kept\n",
        "a": ("import hashlib\n"
              "from pathlib import Path\n"
              "__all__ = ['listed']\n"
              "def kept(): return helper()\n"
              "def helper(): return Path\n"
              "def listed(): pass\n"
              "def _sha256(path):\n"
              "    return _sha256(path)\n"
              "class Lonely: pass\n"),
    }

    def test_uncalled(self):
        assert uncalled(self.SOURCES) == ["a._sha256", "a.Lonely"]

    def test_unused_imports(self):
        assert unused_imports(self.SOURCES) == ["a.hashlib"]

    @pytest.mark.parametrize("line", ["from __future__ import annotations\n",
                                      "import json as j\nj.dumps\n"])
    def test_used_or_exempt(self, line):
        assert unused_imports({"b": line}) == []
