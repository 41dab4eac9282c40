"""Module graph: each ctorsim module imports only the layers below it.

gf256 is the field, codec the erasure code, onion the relays and transport,
censor the trial engine and analytics the exact tails; cli wires them
together. Pinning the relative imports keeps a concern from drifting into a
module that does not own it (the relay pool back into censor, say). The
same source scan checks that every functools cache is bounded.
"""

import ast
from pathlib import Path

import ctorsim

EXPECTED_IMPORTS = {
    "gf256": set(),
    "codec": {"gf256"},
    "onion": {"codec", "gf256"},
    "censor": {"codec", "onion"},
    "analytics": {"codec"},
    "cli": {"analytics", "censor", "codec", "onion"},
}


def relative_imports(path: Path) -> set[str]:
    """Sibling modules a file imports with `from .x import ...` or `from . import x`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module)
            else:
                found.update(alias.name for alias in node.names)
    return found


PACKAGE = Path(ctorsim.__file__).parent


def test_each_module_imports_exactly_its_layers():
    graph = {
        path.stem: relative_imports(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    assert graph == EXPECTED_IMPORTS


def test_no_module_imports_a_private_name_of_another():
    # a private name is its module's own business; a caller that needs it
    # should get a public one, so a rule cannot grow a second home
    private = [
        f"{path.stem}: from .{node.module or ''} import {alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def cache_uses(path: Path) -> list[tuple[str, int, bool]]:
    """Each use of functools.lru_cache or functools.cache in a file, as
    (name, line, bounded): an lru_cache is bounded when it is called with an
    int literal maxsize, a cache when it decorates a function of no
    parameters."""
    tree = ast.parse(path.read_text())
    aliases = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
    }
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    decorated = {
        id(decorator): func
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for decorator in func.decorator_list
    }
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
            name = node.attr
        elif isinstance(node, ast.Name):
            name = aliases.get(node.id)
        else:
            continue
        if name == "lru_cache":
            call = calls.get(id(node))
            bounded = call is not None and any(
                kw.arg == "maxsize" and isinstance(kw.value, ast.Constant) and type(kw.value.value) is int
                for kw in call.keywords
            )
        elif name == "cache":
            func = decorated.get(id(node))
            args = func and func.args
            bounded = func is not None and not (
                args.posonlyargs or args.args or args.vararg or args.kwonlyargs or args.kwarg
            )
        else:
            continue
        uses.append((name, node.lineno, bounded))
    return uses


def test_every_functools_cache_is_bounded():
    # an unbounded cache keyed by run-time values grows with the run, so every
    # lru_cache names its int maxsize and a bare cache only memoizes a constant
    uses = {path.stem: cache_uses(path) for path in sorted(PACKAGE.glob("*.py"))}
    unbounded = [f"{module}:{line} {name}" for module, found in uses.items() for name, line, bounded in found if not bounded]
    assert unbounded == []
    assert [name for name, _, _ in uses["onion"]].count("cache") == 2  # default_registry, _pool_relay_ids
    assert all(any(name == "lru_cache" for name, _, _ in uses[module]) for module in ("codec", "onion", "censor"))
