"""Every public function, class and method of the library has a user.

A public name (no leading underscore) defined in ``src/formation_guidance``
must be referenced somewhere in the library itself, be imported or used by
the acceptance criteria (``tests/test_acceptance.py``), or be traced by name
by the benchmark (``perfbench/tracing.py``'s ``FUNCTIONS`` and
``PLANT_METHODS``).  Code that only tests call belongs beside those tests.

A reference is an identifier or attribute name read anywhere in those
files, so a method counts as used when any object's attribute of that
name is read.  An import counts only in the acceptance criteria: within
the library, a name that is imported but never read has no user.
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
