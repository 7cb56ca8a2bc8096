"""No module in ``src/`` or ``tests/`` imports a name it never uses.

An import at module level (including inside a module-level ``if`` or
``try``) binds a name; the name counts as used when the module reads it
anywhere, names it in ``__all__``, or writes it inside a string
annotation (``Optional["Snapshot"]``).  ``__init__.py`` files are
skipped: their imports are the package's re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Union

REPO_ROOT = Path(__file__).resolve().parents[2]

Import = Union[ast.Import, ast.ImportFrom]


def module_imports(body: List[ast.stmt]) -> Iterator[Import]:
    """Every import statement of a module body, outside functions and classes."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            yield from module_imports(node.body)
            yield from module_imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from module_imports(block)
            for handler in node.handlers:
                yield from module_imports(handler.body)


def bound_names(node: Import) -> Iterator[str]:
    """The names an import statement binds (``__future__`` binds none)."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    for alias in node.names:
        if alias.asname is not None:
            yield alias.asname
        elif isinstance(node, ast.Import):
            yield alias.name.split(".")[0]
        elif alias.name != "*":
            yield alias.name


def _annotations(node: ast.AST) -> Iterator[ast.expr]:
    if isinstance(node, ast.arg) and node.annotation is not None:
        yield node.annotation
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
        yield node.returns
    elif isinstance(node, ast.AnnAssign):
        yield node.annotation


def _names_in_string(text: str) -> Set[str]:
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def used_names(tree: ast.Module) -> Set[str]:
    """Names the module reads, exports in ``__all__`` or writes in string annotations.

    Rebinding an imported name (``json = zlib``) does not use it.
    """
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        for annotation in _annotations(node):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= _names_in_string(part.value)
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            exported = any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in targets
            )
            if exported and isinstance(node.value, (ast.List, ast.Tuple)):
                used |= {
                    item.value
                    for item in node.value.elts
                    if isinstance(item, ast.Constant) and isinstance(item.value, str)
                }
    return used


def unused_imports(path: Path) -> List[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    used = used_names(tree)
    rel = path.relative_to(REPO_ROOT)
    return [
        f"{rel}:{node.lineno}: {name}"
        for node in module_imports(tree.body)
        for name in bound_names(node)
        if name not in used
    ]


def test_no_unused_imports_in_src_or_tests():
    found = [
        line
        for tree in ("src", "tests")
        for path in sorted((REPO_ROOT / tree).rglob("*.py"))
        if path.name != "__init__.py"
        for line in unused_imports(path)
    ]
    assert found == [], "unused imports:\n" + "\n".join(found)


def test_the_check_sees_what_it_claims(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, json\n"
        "from typing import Optional, List\n"
        "try:\n"
        "    import zlib\n"
        "except ImportError:\n"
        "    zlib = None\n"
        "from pathlib import Path as P\n"
        "__all__ = ['P']\n"
        "def f(x: 'Optional[int]') -> List:\n"
        "    return os.sep\n"
        "json = zlib\n",
        encoding="utf-8",
    )
    tree = ast.parse(module.read_text(encoding="utf-8"))
    used = used_names(tree)
    bound = [name for node in module_imports(tree.body) for name in bound_names(node)]
    assert bound == ["os", "json", "Optional", "List", "zlib", "P"]
    assert [name for name in bound if name not in used] == ["json"]
