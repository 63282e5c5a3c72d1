"""The package defines no function for its tests alone: every public
module-level function of fhn_meanfield is used by package code outside its
own definition, or wrapped by the benchmark's tracer (WRAPPED in
perfbench/layers.py).

A use is a name read in package code, resolved through the name that each
import binds: `compare as diag_compare` counts as a use of `compare` only
where `diag_compare` is read, and an import that is never read is no use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fhn_meanfield"


def _wrapped(bindings: dict[str, dict]) -> set[tuple[str, str]]:
    """(module, function) of each package function that WRAPPED wraps at a
    module attribute, resolved through the bindings of that module."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets):
            return {bindings[owner.id].get(attr.value, (owner.id, attr.value))
                    for owner, attr, _ in (entry.elts for entry in node.value.elts)
                    if isinstance(owner, ast.Name)}
    raise AssertionError("perfbench/layers.py defines no WRAPPED")


def _bindings(module: str, tree: ast.Module) -> dict[str, tuple[str, str | None]]:
    """Each name bound in the module to a package function or module:
    name -> (module, function), or (module, None) for a module."""
    bound = {node.name: (module, node.name) for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                target = ((node.module, alias.name) if node.module
                          else (alias.name, None))
                bound[alias.asname or alias.name] = target
    return bound


def _uses(node: ast.AST, bound: dict) -> set[tuple[str, str]]:
    """(module, function) of every package function that node reads."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            target = bound.get(sub.id)
            if target is not None and target[1] is not None:
                found.add(target)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            target = bound.get(sub.value.id)
            if target is not None and target[1] is None:
                found.add((target[0], sub.attr))
    return found


def test_every_public_function_is_used_by_the_package_or_wrapped():
    public, used, bindings = set(), set(), {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        bound = bindings[module] = _bindings(module, tree)
        for node in tree.body:
            uses = _uses(node, bound)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                uses.discard((module, node.name))  # its own body
                if not node.name.startswith("_"):
                    public.add((module, node.name))
            used |= uses
    assert len(public) > 20
    assert sorted(f"{m}.{name}" for m, name in public - used - _wrapped(bindings)) == []
