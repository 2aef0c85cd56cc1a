"""No module under src/ imports a name it never uses.

A stdlib-``ast`` scan (no linter dependency): a name bound by an
``import`` counts as used when the module reads it anywhere, names it in
``__all__`` or mentions it in a string annotation.  Package
``__init__.py`` files are exempt, because their imports are re-exports.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _used_names(tree):
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(item.value for item in ast.walk(node.value)
                        if isinstance(item, ast.Constant))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    expression = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(name.id for name in ast.walk(expression)
                            if isinstance(name, ast.Name))
    return used


def unused_imports(root=SRC):
    """``path:line: name`` for every imported-but-unused name under *root*."""
    found = []
    for directory, _, files in sorted(os.walk(root)):
        for filename in sorted(files):
            if not filename.endswith(".py") or filename == "__init__.py":
                continue
            path = os.path.join(directory, filename)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            used = _used_names(tree)
            found += [f"{os.path.relpath(path, root)}:{line}: {name}"
                      for line, name in _imported_names(tree) if name not in used]
    return found


def test_src_has_no_unused_imports():
    assert unused_imports() == []


def test_the_scan_finds_an_unused_import(tmp_path):
    (tmp_path / "module.py").write_text(
        "from typing import List, Optional\n"
        "import os.path\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return os.path.join('a')\n")
    (tmp_path / "__init__.py").write_text("from .module import f\n")
    assert unused_imports(str(tmp_path)) == ["module.py:1: List"]
