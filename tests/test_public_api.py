"""Every exported name has a caller outside the tests.

A name in noisycast.__all__ passes when its home module loads it outside
the def or class that defines it, when another package module (not
__init__) imports it, or when a perfbench script imports it or reaches it
as an attribute.  A parameter or local that happens to share the name does
not count, so only these three forms are read.  An exported function or
constant needs a caller outside its home module: another package module,
perfbench, or a tracer.WRAPS entry naming a module that holds it.  The
front layers, presets and cli, import no _-prefixed name from another
package module.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import noisycast

PACKAGE = Path(noisycast.__file__).resolve().parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _home_modules() -> dict[str, str]:
    """Exported name -> the module __init__ imports it from; the preset
    names, which __init__ loads from presets on first use, map to presets."""
    homes = dict.fromkeys(noisycast._PRESET_NAMES, "presets")
    for node in _tree(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            homes.update({alias.name: node.module for alias in node.names})
    return homes


def _loaded_outside_own_definition(tree: ast.AST, name: str) -> bool:
    def walk(node: ast.AST) -> bool:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == name:
            return False
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            return True
        return any(walk(child) for child in ast.iter_child_nodes(node))

    return walk(tree)


def _imported_names(tree: ast.AST) -> set[str]:
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}


def _attribute_names(tree: ast.AST) -> set[str]:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _wrapped_names(tracer: ast.Module) -> set[str]:
    """The attributes tracer.WRAPS wraps, each where its module holds it."""
    (wraps,) = [node.value for node in tracer.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "WRAPS" for t in node.targets)]
    entries = [(entry.elts[0].value, entry.elts[1].value) for entry in wraps.elts]
    return {attr for module, attr in entries if hasattr(importlib.import_module(f"noisycast.{module}"), attr)}


MODULES = {path.stem: _tree(path) for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
BENCH = {path.stem: _tree(path) for path in sorted(PERFBENCH.glob("*.py"))}
BENCH_REACH = set().union(*(_imported_names(t) | _attribute_names(t) for t in BENCH.values()))


def _called_elsewhere(name: str, home: str) -> bool:
    """Imported by another package module, or imported or reached as an attribute by perfbench."""
    return name in BENCH_REACH or any(name in _imported_names(tree) for stem, tree in MODULES.items() if stem != home)


def test_every_exported_name_has_a_caller():
    homes = _home_modules()
    assert set(homes) == set(noisycast.__all__)
    uncalled = [
        name
        for name, home in sorted(homes.items())
        if not _loaded_outside_own_definition(MODULES[home], name) and not _called_elsewhere(name, home)
    ]
    assert uncalled == []


def test_every_exported_function_or_constant_has_a_caller_outside_its_module():
    """A class keeps the rule above: the result and error types of public
    functions are public too."""
    wrapped = _wrapped_names(BENCH["tracer"])
    uncalled = [
        name
        for name, home in sorted(_home_modules().items())
        if not isinstance(getattr(noisycast, name), type) and not _called_elsewhere(name, home)
        and name not in wrapped
    ]
    assert uncalled == []


def _private_imports(tree: ast.AST) -> list[str]:
    """The _-prefixed names, dunders aside, that a module imports from another package module."""
    return sorted(alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names if alias.name.startswith("_") and not alias.name.startswith("__"))


def test_the_front_layers_import_no_engine_internals():
    """presets and cli state each claim through the engines' public calls;
    engines may still share helpers among themselves."""
    assert {stem: _private_imports(MODULES[stem]) for stem in ("presets", "cli")} == {"presets": [], "cli": []}
    assert _private_imports(ast.parse("from .analysis import _sorted_union, check_count\nfrom . import __version__\n")) \
        == ["_sorted_union"]


def test_preset_names_load_from_presets():
    from noisycast import presets

    assert all(getattr(noisycast, name) is getattr(presets, name) for name in noisycast._PRESET_NAMES)


def test_a_self_reference_is_not_a_caller():
    tree = ast.parse("def g():\n    return g()\n\n\ndef h():\n    return g\n")
    assert not _loaded_outside_own_definition(ast.Module(body=tree.body[:1], type_ignores=[]), "g")
    assert _loaded_outside_own_definition(tree, "g")
