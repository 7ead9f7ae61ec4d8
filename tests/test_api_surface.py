"""The package surface: every exported name resolves, and no module-level
private definition survives that nothing in the package uses."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import veronese

_SRC = Path(veronese.__file__).resolve().parent
_MODULES = sorted(p.stem for p in _SRC.glob("*.py") if p.stem != "__main__")


@pytest.mark.parametrize("stem", _MODULES)
def test_every_exported_name_resolves(stem):
    name = "veronese" if stem == "__init__" else f"veronese.{stem}"
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "repeated export"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_the_cap_error_is_one_class_everywhere():
    from veronese import pipeline, polycore
    assert (veronese.ResourceCapError is pipeline.ResourceCapError
            is polycore.ResourceCapError)


def _private_definitions(tree: ast.Module):
    """(name, defining statement) of every module-level ``_private``
    function, class or constant; dunders are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _readers(trees: dict[str, ast.Module]) -> dict:
    """(defining module, name) -> ids of the module-level statements that
    read the name, resolved to the module that defines it: the reading
    module itself, or the one it imports the name from (``from .x import``).
    """
    readers: dict = {}
    for stem, tree in trees.items():
        own = {name for name, _ in _private_definitions(tree)}
        source = {alias.asname or alias.name: node.module
                  for node in tree.body if isinstance(node, ast.ImportFrom)
                  and node.level == 1 for alias in node.names}
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    home = stem if node.id in own else source.get(node.id)
                    if home is not None:
                        readers.setdefault((home, node.id), set()).add(id(stmt))
    return readers


def test_every_private_definition_is_used_in_the_package():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(_SRC.glob("*.py"))}
    readers = _readers(trees)
    assert readers[("polycore", "_Record")]      # the walk follows imports
    # a read inside the definition itself (recursion) does not count
    unused = [f"{stem}.{name}" for stem, tree in trees.items()
              for name, stmt in _private_definitions(tree)
              if not readers.get((stem, name), set()) - {id(stmt)}]
    assert not unused, f"private definitions nothing uses: {unused}"


def _unread_imports(tree: ast.Module) -> list[str]:
    """Names the module imports, at any depth, that it neither reads nor
    lists in ``__all__``; ``from __future__`` imports are directives."""
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


@pytest.mark.parametrize("stem", sorted(p.stem for p in _SRC.glob("*.py")))
def test_every_imported_name_is_read(stem):
    tree = ast.parse((_SRC / f"{stem}.py").read_text(encoding="utf-8"))
    unread = _unread_imports(tree)
    assert not unread, f"{stem} imports names it never reads: {unread}"


def test_the_import_check_sees_an_unread_name():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom .x import a, b as c\n"
                     "__all__ = ['a']\n")
    assert _unread_imports(tree) == ["c", "os"]


#: the packed-monomial kernel: what only ``polycore`` and ``groebner`` know
_PACKED_KERNEL = frozenset({"_Packing", "_packing", "_packed", "_nf_dict",
                            "_monic", "_gb_entries", "_PackingOverflow",
                            "_add_shifted"})


def _packed_kernel_names(tree: ast.Module) -> set[str]:
    """The packed-kernel names a module defines at module level, imports
    (``from .x import``, at any depth) or reads as an attribute."""
    names = {name for name, _ in _private_definitions(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names & _PACKED_KERNEL


def test_the_packed_kernel_stays_in_polycore_and_groebner():
    """Every other module calls the kernel's entry points (``normal_form``,
    ``buchberger``, ``_products_in``, ...), never its packed format."""
    leaks = {}
    for path in sorted(_SRC.glob("*.py")):
        if path.stem not in ("polycore", "groebner"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if names := _packed_kernel_names(tree):
                leaks[path.stem] = sorted(names)
    assert not leaks, f"packed-kernel names outside the kernel: {leaks}"


def test_the_kernel_check_sees_a_leak():
    tree = ast.parse("from .polycore import _nf_dict as nf, GF\n"
                     "def _monic(): pass\nx = groebner._gb_entries\n")
    assert _packed_kernel_names(tree) == {"_nf_dict", "_monic",
                                          "_gb_entries"}
