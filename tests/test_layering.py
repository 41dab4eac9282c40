"""Module graph: each ctorsim module imports only the layers below it.

gf256 is the field, codec the erasure code, onion the relays and transport,
censor the trial engine and analytics the exact tails; cli wires them
together. Pinning the relative imports keeps a concern from drifting into a
module that does not own it (the relay pool back into censor, say).
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
