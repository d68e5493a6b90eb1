"""Every name a module of ``repro`` imports is used.

A name counts as used when its module reads it anywhere, annotations
included and names inside a quoted annotation too, lists it in
``__all__``, or when another module of the package imports it from
this one (``from repro.explore.driver import run_genome``, the
explore runner's entry point).  ``from __future__`` imports are
exempt.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent


def _module(path: Path) -> str:
    parts = list(path.relative_to(ROOT.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree: ast.AST) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _used(tree: ast.Module) -> set:
    """The names ``tree`` reads, quoted annotations and ``__all__``
    included."""
    used = _names(tree)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    used |= _names(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            continue
        targets = getattr(node, "targets", None) or [node.target]
        if node.value is not None and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)
                     and isinstance(c.value, str)}
    return used


def _imported(tree: ast.Module):
    """``(bound name, line)`` for every import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _unused(trees: dict) -> list:
    reimported = {
        (node.module, alias.name)
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = []
    for path, tree in trees.items():
        used, module = _used(tree), _module(path)
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in _imported(tree)
                   if name not in used and (module, name) not in reimported]
    return unused


def _parse(sources: dict) -> dict:
    return {ROOT / name: ast.parse(text) for name, text in sources.items()}


def test_no_module_imports_a_name_it_never_uses():
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(ROOT.rglob("*.py"))}
    assert _unused(trees) == []


def test_the_scan_tells_used_names_from_unused_ones():
    sources = {
        "a.py": (
            "from __future__ import annotations\n"
            "import os, os.path as osp\n"
            "from typing import Dict, List, Optional, TYPE_CHECKING\n"
            "from b import Kept, Sent, Dropped\n"
            "if TYPE_CHECKING:\n"
            "    from b import Quoted\n"
            "__all__ = ['Sent']\n"
            "def f(x: 'Optional[Quoted]') -> Dict:\n"
            "    import json\n"
            "    return os.sep, Kept\n"
        ),
        "c.py": "from repro.a import Dropped\nDropped()\n",
    }
    trees = _parse(sources)
    # a.py's module name is repro.a: c.py's import keeps Dropped
    assert _unused(trees) == ["a.py:2: osp", "a.py:3: List",
                              "a.py:9: json"]
    del sources["c.py"]
    assert "a.py:4: Dropped" in _unused(_parse(sources))
