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


def test_each_module_imports_exactly_its_layers():
    package = Path(ctorsim.__file__).parent
    graph = {
        path.stem: relative_imports(path)
        for path in sorted(package.glob("*.py"))
        if path.stem != "__init__"
    }
    assert graph == EXPECTED_IMPORTS
