"""Every public function, method and property in ``src/dischar`` has a caller.

The library keeps what its commands, ``verify`` and the benchmark read, so a
public name that nothing in ``src/`` or ``perfbench/`` references is dead
surface.  The check is static, with ``ast``:

- a module-level function counts as referenced when some module imports it by
  name or reads it off the package (``dischar.name``), or when its own module
  loads the name outside the function's own body and outside any function
  that binds the same name locally (a loop variable ``sign`` does not cover a
  function ``sign``);
- a method or property counts as referenced when an attribute of that name
  is read anywhere outside its own body, except a benchmark read of an
  attribute the same benchmark file assigns (``perfbench`` keeps a ``scale``
  of its own).  Attributes are not resolved by type, so a method can still
  be covered by a namesake on another class.

Dunders and names with a leading underscore are exempt.  Tests do not count:
a name only tests reach belongs in a test-side helper.

Nothing is carried that no code reads either: every parameter of a function
in ``src/dischar``, nested ones included, is loaded in its body, and every
NamedTuple field is read as an attribute somewhere in ``src/`` or
``perfbench/``.
"""

import ast
from pathlib import Path

import dischar

SOURCE = Path(dischar.__file__).parent
BENCH = SOURCE.parent.parent / "perfbench"


def _public(name):
    return not name.startswith("_")


def _bound_locally(node):
    """Names a function or lambda binds itself: its arguments and assignment targets."""
    args = node.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    body = node.body if isinstance(node.body, list) else [node.body]
    stack = list(body)
    while stack:
        child = stack.pop()
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            names.add(child.id)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(child.name)  # a nested def binds its name; its body is its own scope
            continue
        elif isinstance(child, ast.Lambda):
            continue
        stack.extend(ast.iter_child_nodes(child))
    return names


def _global_loads(tree):
    """(name, enclosing top-level def) for each load that reaches module scope."""
    loads = []

    def visit(node, shadowed, top):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            shadowed = shadowed | _bound_locally(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in shadowed:
                loads.append((node.id, top))
        for child in ast.iter_child_nodes(node):
            visit(child, shadowed, top)

    for node in tree.body:
        top = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        visit(node, frozenset(), top)
    return loads


def _package_reads(tree):
    """(module, name) for each ``dischar.name`` or ``dischar.module.name`` read."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id == "dischar":
                reads.add(("", node.attr))
            elif (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
                  and owner.value.id == "dischar"):
                reads.add((owner.attr, node.attr))
    return reads


def _own_attributes(tree):
    """Attribute names a benchmark file assigns on its own objects."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}


def _unreferenced():
    sources = sorted(SOURCE.glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in (*sources, *sorted(BENCH.glob("*.py")))}
    # (module, name) for every name imported from a dischar module or read off the
    # package; module "" is the package itself
    imported = set()
    attributes = []
    for path, tree in trees.items():
        imported |= _package_reads(tree)
        imported |= {
            ((node.module or "").removeprefix("dischar.").removeprefix("dischar"), alias.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        # a benchmark read of an attribute the benchmark sets itself is its own
        own = _own_attributes(tree) if path.parent == BENCH else set()
        attributes += [node for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and node.attr not in own]

    missing = []
    for path in sources:
        tree = trees[path]
        loads = {name for name, top in _global_loads(tree) if top != name}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                if not ({(path.stem, node.name), ("", node.name)} & imported
                        or node.name in loads):
                    missing.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        inside = {id(a) for a in ast.walk(item)}
                        if not any(a.attr == item.name and id(a) not in inside
                                   for a in attributes):
                            missing.append(f"{path.stem}.{node.name}.{item.name}")
    return missing


def test_every_public_name_is_referenced():
    assert _unreferenced() == []


def _reads(node, name):
    """Whether ``node`` loads ``name``, outside any nested scope that binds it again."""
    stack = list(node.body) if isinstance(node.body, list) else [node.body]
    while stack:
        child = stack.pop()
        if isinstance(child, ast.Name) and child.id == name:
            if isinstance(child.ctx, ast.Load):
                return True
        elif isinstance(child, ast.AugAssign) and isinstance(child.target, ast.Name):
            if child.target.id == name:
                return True
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if name in _bound_locally(child):
                continue
        stack.extend(ast.iter_child_nodes(child))
    return False


def _dispatched(tree, table):
    """Names of the functions a module stores as values in its ``table`` constant."""
    for node in tree.body:
        target = node.targets[0] if isinstance(node, ast.Assign) else getattr(node, "target", None)
        if isinstance(target, ast.Name) and target.id == table:
            return {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}
    raise AssertionError(f"no {table} constant")


def _unread_parameters():
    """``module.function.parameter`` for each parameter its function's body never reads."""
    unread = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                    if not isinstance(child, ast.ClassDef):
                        args = child.args
                        params = (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  *(a for a in (args.vararg, args.kwarg) if a is not None))
                        unread.extend(f"{name}.{a.arg}" for a in params
                                      if not _reads(child, a.arg))
                    visit(child, name)
                else:
                    visit(child, prefix)

        visit(tree, path.stem)
    return unread


# the functions stored in these constants are called through one shared
# signature, so each takes arguments it may not need
DISPATCHED = {"cli": "TABLES", "verify": "SECTIONS"}
# perfbench/workloads.py passes rs by position, so dropping it waits for a
# change to the benchmark (see the FOUND line in CHANGES.md)
UNREAD_ON_PURPOSE = {"orbits.enumerate_closed_orbits.rs"}


def test_every_parameter_is_read():
    dispatched = {
        f"{module}.{name}"
        for module, table in DISPATCHED.items()
        for name in _dispatched(ast.parse((SOURCE / f"{module}.py").read_text()), table)
    }
    assert "cli._describe" in dispatched and "verify._check_blattner" in dispatched
    unread = _unread_parameters()
    # the exemption is live: it names a parameter the scan finds unread
    assert UNREAD_ON_PURPOSE <= set(unread)
    assert [p for p in unread if p not in UNREAD_ON_PURPOSE
            and p.rpartition(".")[0] not in dispatched] == []


def _record_fields():
    """``module.Record.field`` for every field of every NamedTuple in ``src/dischar``."""
    fields = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases
            ):
                fields += [(f"{path.stem}.{node.name}", item.target.id) for item in node.body
                           if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    return fields


def test_every_record_field_is_read():
    # a field counts as read when an attribute of its name is loaded anywhere
    # in src/ or perfbench/; attributes are not resolved by type
    loaded = {
        node.attr
        for path in (*sorted(SOURCE.glob("*.py")), *sorted(BENCH.glob("*.py")))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = _record_fields()
    assert len(fields) > 20
    assert [f"{record}.{field}" for record, field in fields if field not in loaded] == []
