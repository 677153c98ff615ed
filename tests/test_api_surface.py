"""Every public function, class and method of the library has a user,
and every private module-level name has a reader in the library.

A public name (no leading underscore) defined in ``src/formation_guidance``
must be referenced somewhere in the library itself, be imported or used by
the acceptance criteria (``tests/test_acceptance.py``), or be traced by name
by the benchmark (``perfbench/tracing.py``'s ``FUNCTIONS`` and
``PLANT_METHODS``).  Code that only tests call belongs beside those tests.

A reference is an identifier or attribute name read anywhere in those
files, so a method counts as used when any object's attribute of that
name is read.  An import counts only in the acceptance criteria: within
the library, a name that is imported but never read has no user.

A private (single leading underscore) function, class or constant at
module level exists only for the library, so something in
``src/formation_guidance`` must read it; a test alone does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "formation_guidance").glob("*.py"))
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
TRACING = ROOT / "perfbench" / "tracing.py"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_definitions(module):
    """(qualified name, name) of the module's public functions, classes
    and methods."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree, imports=False):
    """Every name the tree reads or reads as an attribute, and with
    ``imports`` every name it imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif imports and isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _traced_names():
    """Function and method names ``perfbench/tracing.py`` patches."""
    names = set()
    for node in _parse(TRACING).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = getattr(node.targets[0], "id", None)
            if target in ("FUNCTIONS", "PLANT_METHODS"):
                names.update(entry[-1] for entry in ast.literal_eval(node.value))
    return names


def test_every_public_name_has_a_user():
    trees = [_parse(path) for path in SOURCES]
    used = set().union(
        *map(_references, trees), _references(_parse(ACCEPTANCE), imports=True), _traced_names()
    )
    unused = [
        f"{path.stem}.{qualified}"
        for path, tree in zip(SOURCES, trees)
        for qualified, name in _public_definitions(tree)
        if name not in used
    ]
    assert not unused, f"public names nothing uses: {', '.join(unused)}"


def _private_definitions(module):
    """Names of the module's private top-level functions, classes and
    assigned constants."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def _reads(tree):
    """Every name the tree reads, as a name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_private_module_name_is_read_in_the_library():
    trees = [_parse(path) for path in SOURCES]
    read = set().union(*map(_reads, trees))
    unread = [
        f"{path.stem}.{name}"
        for path, tree in zip(SOURCES, trees)
        for name in _private_definitions(tree)
        if name not in read
    ]
    assert not unread, f"private names nothing in the library reads: {', '.join(unread)}"
