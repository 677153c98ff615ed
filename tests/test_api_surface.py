"""Every public function, class and method of the library has a user,
every private module-level name has a reader in the library, and every
default of a public parameter has a caller that takes it.

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

A default of a public function or method parameter must be taken: at
least one direct call in the library or the acceptance criteria leaves
that parameter out (a call that unpacks ``*args`` or ``**kwargs``
counts as leaving it out).  A default that every caller overrides is a
second home for a value whose home is elsewhere, such as a controller
default in ``formation_guidance.options``.  A function that nothing
there calls by its name is exempt.  The same holds for the default of a
public dataclass's ``__init__`` field and the calls that construct the
class by name, except in the classes behind config sections (the
options classes, ``ChiefOrbit`` and ``FormationParams``), whose defaults
the config parser reads through ``dataclasses.fields``.
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
    """(qualified name, node, whether it is a method) of the module's
    public functions, classes and methods."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, True


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
        for qualified, node, _ in _public_definitions(tree)
        if node.name not in used
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


def _defaulted_parameters(function, is_method):
    """(position, name) of each parameter with a default; position counts
    the arguments a call passes (so a method's ``self`` or ``cls`` is
    not one) and is None for a keyword-only parameter."""
    arguments = function.args
    positional = arguments.posonlyargs + arguments.args
    first = len(positional) - len(arguments.defaults)
    bound = is_method and not any(
        getattr(d, "id", None) == "staticmethod" for d in function.decorator_list
    )
    for index, arg in enumerate(positional[first:], start=first):
        yield index - bound, arg.arg
    for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _calls(trees):
    """Every call in the trees, by the name it calls (a bare name or the
    last attribute)."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _omits(call, position, name):
    """Whether ``call`` leaves the parameter to its default; a call that
    unpacks ``*args`` or ``**kwargs`` may, so it counts as omitting."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    keywords = {keyword.arg for keyword in call.keywords}
    if None in keywords:
        return True
    return name not in keywords and (position is None or position >= len(call.args))


#: Classes behind config sections, besides every class in ``options``:
#: the parser reads their defaults through ``dataclasses.fields``.
CONFIG_SECTION_CLASSES = {"ChiefOrbit", "FormationParams"}


def _is_dataclass(node):
    """Whether a class is decorated ``@dataclass`` or ``@dataclass(...)``."""
    return isinstance(node, ast.ClassDef) and any(
        getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in node.decorator_list
    )


def _init_fields(classes, name):
    """{field name: whether it has a default} of each ``__init__`` field
    of the named dataclass, in order, its dataclass bases' fields first
    (a redefined field keeps its base's place, as in ``dataclasses``).
    ``ClassVar`` and ``init=False`` fields are not ``__init__`` fields."""
    node = classes[name]
    merged = {}
    for base in node.bases:
        if getattr(base, "id", None) in classes:
            merged.update(_init_fields(classes, base.id))
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        annotation = item.annotation
        if getattr(getattr(annotation, "value", annotation), "id", None) == "ClassVar":
            continue
        value = item.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            if getattr(keywords.get("init"), "value", True) is False:
                continue
            merged[item.target.id] = bool({"default", "default_factory"} & set(keywords))
        else:
            merged[item.target.id] = value is not None
    return merged


def _defaulted_fields(trees):
    """(module, class name, position, field name) of each defaulted
    ``__init__`` field of the public dataclasses outside the config
    sections."""
    classes = {node.name: node for tree in trees for node in tree.body if _is_dataclass(node)}
    for path, tree in zip(SOURCES, trees):
        if path.stem == "options":
            continue
        for node in tree.body:
            if (_is_dataclass(node) and not node.name.startswith("_")
                    and node.name not in CONFIG_SECTION_CLASSES):
                fields = _init_fields(classes, node.name)
                for position, (name, default) in enumerate(fields.items()):
                    if default:
                        yield path.stem, node.name, position, name


def test_every_default_is_taken_by_a_caller():
    """Every default of a public function or method parameter, or of a
    public dataclass field outside the config sections, is left to its
    default by at least one direct call in the library or the acceptance
    criteria; otherwise every caller passes the value, and the default is
    a second home for it.  Functions and classes that nothing there calls
    by name, like those the harness calls through an alias, are exempt."""
    trees = [_parse(path) for path in SOURCES]
    calls = _calls([*trees, _parse(ACCEPTANCE)])
    unused = [
        f"{path.stem}.{qualified}({name})"
        for path, tree in zip(SOURCES, trees)
        for qualified, function, is_method in _public_definitions(tree)
        if isinstance(function, ast.FunctionDef) and function.name in calls
        for position, name in _defaulted_parameters(function, is_method)
        if not any(_omits(call, position, name) for call in calls[function.name])
    ] + [
        f"{module}.{cls}.{name}"
        for module, cls, position, name in _defaulted_fields(trees)
        if cls in calls and not any(_omits(call, position, name) for call in calls[cls])
    ]
    assert not unused, f"defaults that every call passes: {', '.join(unused)}"
