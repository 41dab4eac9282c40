"""Module graph: each ctorsim module imports only the layers below it.

gf256 is the field, codec the erasure code, onion the relays and transport,
analytics the exact tails, and censor the trial engine, which takes the pool
rule and the interruption count from analytics; cli wires them together.
Pinning the relative imports keeps a concern from drifting into a module
that does not own it (the relay pool back into censor, say). The same
source scan checks that every functools cache is bounded, that a record
whose class checks its fields in __new__ is never built around it, that the
wire header has one writer and one reader, that the pipeline parses a wire
only where a message is coded, that a pipeline trial runs only in a grid's
check phase, and that each rule the exact tails and the campaigns share has
one home.
"""

import ast
import subprocess
import sys
from pathlib import Path

import ctorsim

EXPECTED_IMPORTS = {
    "gf256": set(),
    "codec": {"gf256"},
    "onion": {"codec", "gf256"},
    "censor": {"analytics", "codec", "onion"},
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


def test_no_module_imports_dataclasses():
    # every record is a tuple record or a small __slots__ class: importing
    # dataclasses pulls in inspect, ast and dis, and decorating a class
    # compiles its methods from source, all paid by every command at start-up
    found = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Import) and any(alias.name == "dataclasses" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert found == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # measured against what the bare interpreter has already loaded, so a
    # site hook that preloads either module does not fail the test
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        "import ctorsim.cli\n"
        "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


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


def classes_defining_new(path: Path) -> set[str]:
    """The classes of a file whose body defines __new__."""
    return {
        node.name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "__new__" for item in node.body)
    }


def tuple_new_bypasses(path: Path, checked: set[str]) -> list[str]:
    """Each call in a file that hands tuple.__new__, or a module-level alias
    of it, a class in `checked` (by name, or as `cls` in one of its methods)
    anywhere but that class's own __new__, as 'module.function:line'. The
    call may take the constructor as its function or as an argument, as
    map(tuple.__new__, repeat(C), rows) does."""
    tree = ast.parse(path.read_text())

    def is_tuple_new(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute) and node.attr == "__new__"
            and isinstance(node.value, ast.Name) and node.value.id == "tuple"
        )

    aliases = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign) and is_tuple_new(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    found = []

    def visit(node: ast.AST, owner: str | None, function: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call) and any(
            is_tuple_new(part) or (isinstance(part, ast.Name) and part.id in aliases)
            for part in (node.func, *node.args)
        ):
            named = {name.id for name in ast.walk(node) if isinstance(name, ast.Name)}
            if owner and "cls" in named:
                named.add(owner)
            built = named & checked
            if function == "__new__":
                built.discard(owner)
            if built:
                found.append(f"{path.stem}.{function}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner, function)

    visit(tree, None, None)
    return found


def test_a_record_that_checks_its_fields_is_built_only_through_its_new():
    # one way to build each record: a class whose __new__ checks its fields
    # is built through that __new__, and tuple.__new__ builds only records
    # that check nothing, where a trial builds many
    paths = sorted(PACKAGE.glob("*.py"))
    checked = {name: path.stem for path in paths for name in classes_defining_new(path)}
    assert checked == {"CodeParams": "codec"}
    assert [site for path in paths for site in tuple_new_bypasses(path, set(checked))] == []


PACKS = {"pack", "pack_into"}
UNPACKS = {"unpack", "unpack_from", "iter_unpack"}


def struct_uses(source: str, module: str) -> list[tuple[str, str]]:
    """Each use of struct packing or unpacking in a module's source, as
    ("pack" or "unpack", "module.function"): a method of that name on any
    object, so a struct.Struct built at run time (one a cache returns, say)
    counts as well as a module-level one, a function of the struct module,
    or one imported from it by name."""
    found = []

    def kind(name: str) -> str | None:
        return "pack" if name in PACKS else "unpack" if name in UNPACKS else None

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Attribute) and kind(node.attr):
            found.append((kind(node.attr), f"{module}.{function}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "struct":
            found.extend((kind(alias.name), f"{module}:import") for alias in node.names if kind(alias.name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_struct_uses_count_a_struct_built_at_run_time():
    source = (
        "import functools, struct\n"
        "from struct import unpack_from\n"
        "HEADER = struct.Struct('>I')\n"
        "@functools.lru_cache(maxsize=4)\n"
        "def layout(k):\n"
        "    return struct.Struct(f'>I{k}s')\n"
        "def write(k):\n"
        "    return layout(k).pack(1, b'')\n"
        "def read(stream, k):\n"
        "    unpack = layout(k).iter_unpack\n"
        "    return list(unpack(stream)), HEADER.unpack_from(stream), struct.unpack('>I', stream)\n"
    )
    assert struct_uses(source, "m") == [
        ("unpack", "m:import"),
        ("pack", "m.write"),
        ("unpack", "m.read"),
        ("unpack", "m.read"),
        ("unpack", "m.read"),
    ]


def test_the_wire_header_has_one_writer_and_one_reader():
    # the encoder writes every wire and the parser reads every one, so a
    # second serialiser of the cell header cannot grow back; the parser
    # frames a wire by one rule, so it reads it through one unpack
    uses = [use for path in sorted(PACKAGE.glob("*.py")) for use in struct_uses(path.read_text(), path.stem)]
    assert sorted({site for kind, site in uses if kind == "pack"}) == ["codec.encode_subflows"]
    assert [site for kind, site in uses if kind == "unpack"] == ["codec.from_wire_stream"]


def name_uses(source: str, module: str, name: str) -> list[str]:
    """Each place in a module's source that names `name`, as an attribute
    or bare, so an alias counts as well as a call, as "module.qualname"."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}"
        elif (isinstance(node, ast.Attribute) and node.attr == name) or (
            isinstance(node, ast.Name) and node.id == name
        ):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return found


def test_the_parser_is_called_only_where_a_message_is_coded():
    # a sub-flow arrives whole or not at all, so the exit hands on the cells
    # CodedMessage parsed from the wire it sent and never parses; the other
    # use is encode_generation's, the one-generation codec call outside the
    # pipeline
    uses = [
        use for path in sorted(PACKAGE.glob("*.py")) for use in name_uses(path.read_text(), path.stem, "from_wire_stream")
    ]
    assert uses == ["codec.encode_generation", "onion.CodedMessage.__init__"]


def test_a_pipeline_trial_runs_only_in_the_check_phase():
    # a grid's pipeline checks run after every estimate, shape by shape on
    # streams of their own, so no campaign or command runs a trial itself
    uses = [
        use for path in sorted(PACKAGE.glob("*.py")) for use in name_uses(path.read_text(), path.stem, "run_trial")
    ]
    assert uses == ["censor.run_pipeline_checks"]


POOL_RULE_TEXTS = ("bridge counts must be non-negative", "bridges from a pool of")


def rule_sites(source: str, module: str) -> list[tuple[str, str]]:
    """Each place in a module's source that holds a pool-rule text or calls
    interrupted_by_rule, as (the text or "interrupted_by_rule",
    "module.qualname"). A text counts in a string or in an f-string's
    literal part, but not in a docstring; a call counts by the name it is
    made through, bare or as an attribute."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}"
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.extend((text, scope) for text in POOL_RULE_TEXTS if text in node.value)
        elif isinstance(node, ast.Call):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "interrupted_by_rule":
                found.append(("interrupted_by_rule", scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return found


def test_rule_sites_find_f_string_parts_and_calls_but_not_docstrings():
    source = (
        'def check(n, size):\n'
        '    """Raises cannot select n bridges from a pool of size."""\n'
        '    raise ValueError(f"cannot select {n} bridges from a pool of {size}")\n'
        "class Pool:\n"
        "    def build(cls, a, b):\n"
        '        raise ValueError("bridge counts must be non-negative")\n'
        "def count(law, params):\n"
        "    return [interrupted_by_rule(b, params) for b in law], codec.interrupted_by_rule(0, params)\n"
    )
    assert rule_sites(source, "m") == [
        ("bridges from a pool of", "m.check"),
        ("bridge counts must be non-negative", "m.Pool.build"),
        ("interrupted_by_rule", "m.count"),
        ("interrupted_by_rule", "m.count"),
    ]


def test_each_rule_the_two_models_share_has_one_home():
    # the exact tail and the campaign check the same pool rule and count the
    # same interrupted blocked counts, so each has one function in analytics
    # that censor calls; run_trial asks the rule itself, for one trial's check
    sites = [site for path in sorted(PACKAGE.glob("*.py")) for site in rule_sites(path.read_text(), path.stem)]
    homes = {text: [scope for found, scope in sites if found == text] for text in POOL_RULE_TEXTS}
    assert homes == {
        "bridge counts must be non-negative": ["analytics.check_bridge_counts"],
        "bridges from a pool of": ["analytics.check_pool_size"],
    }
    callers = sorted(scope for found, scope in sites if found == "interrupted_by_rule")
    assert callers == ["analytics.count_interrupted", "censor.run_trial"]
