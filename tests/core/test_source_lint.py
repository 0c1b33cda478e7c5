"""Source lints over ``src/repro`` that no single module's tests own."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def class_attribute_stores(path: pathlib.Path) -> list:
    """``file:line`` of every store, inside a function, to an attribute
    of a class object: ``SomeClass.attr`` with ``SomeClass`` defined in
    the same module, ``cls.attr``, ``type(x).attr``, ``x.__class__.attr``."""
    tree = ast.parse(path.read_text())
    classes = {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}

    def is_class_object(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in classes or node.id == "cls"
        if isinstance(node, ast.Call):
            return isinstance(node.func, ast.Name) and node.func.id == "type"
        return isinstance(node, ast.Attribute) and node.attr == "__class__"

    found = set()
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and is_class_object(node.value)
                ):
                    found.add(f"{path.name}:{node.lineno}")
    return sorted(found)


def test_no_run_time_store_to_a_class_attribute():
    """A counter or flag that changes while the program runs lives on an
    instance (or on ``cluster.pump``), never on a class.  CPython 3.11
    caches attribute and method lookups per *type version*; a store to
    a type attribute bumps that version and drops the specialised loads
    for every instance of the class and its subclasses.  The depth
    counter PR 7 kept on ``NodeProcess`` (``+= 1`` / ``-= 1``, twice per
    drain) slowed every live workload that way (CHANGES.md, PR 24)."""
    paths = sorted(SRC.rglob("*.py"))
    assert [hit for path in paths for hit in class_attribute_stores(path)] == []


ROOT = SRC.parents[1]
#: where a caller may live (``tests/`` is not one)
CALLER_DIRS = ("src", "scripts", "benchmarks", "examples")

#: names defined in ``src/repro`` that stay without a caller, each with
#: its kind and a one-line reason: ``oracle`` (a test reads it to check
#: code that has a caller), ``paper`` (a paper mechanism named in
#: docs/paper_to_code.md) or ``protocol`` (an ``asyncio.Protocol``
#: callback the event loop calls)
NO_CALLER_NEEDED = {
    "complete": ("oracle", "a DeliveryReport's verdict on PubSubService's fan-out"),
    "contains_point": ("oracle", "Region membership that map_position output is checked against"),
    "copy_hosts": ("oracle", "where a record's copies live, to check replica placement"),
    "degree": ("oracle", "per-host degree: generate_transit_stub isolates no host"),
    "encode_point": ("oracle", "inverse of HilbertCurve.decode_center, map_position's step"),
    "is_connected": ("oracle", "generated topologies are connected"),
    "missed_count": ("oracle", "notifications still owed, to check resync_once"),
    "parent_cell": ("oracle", "quadtree parent, to check that Zone.cell nests across levels"),
    "pending_bytes": ("oracle", "bytes FrameDecoder holds back from a partial feed"),
    "predecessor": ("oracle", "inverse of ChordRing.successor"),
    "severed": ("oracle", "the pair predicate FaultInjector._blocked applies, per window"),
    "subscriptions_of": ("oracle", "live subscriptions, to check subscribe / enable_adaptive"),
    "torus_distance": ("oracle", "the wrap-around metric Zone.distance_to_point(torus=True) extends"),
    "HierarchicalLandmarks": ("paper", "section 5.4 hierarchical landmarks"),
    "solve_host": ("paper", "GNP's per-host coordinate solve (sections 1-2)"),
    "start_refresh": ("paper", "soft state lives only while its owner re-publishes it"),
    "stop_refresh": ("paper", "the off switch of start_refresh"),
    "subscribe_overload_watch": ("paper", "section 6: notify me at 80% of capacity"),
    "connection_made": ("protocol", "the loop hands an accepted stream to _Connection"),
    "connection_lost": ("protocol", "the loop reports a closed stream to _Connection"),
    "data_received": ("protocol", "the loop hands a received chunk to _Connection"),
}


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions() -> list:
    """``(name, path:line, is_method)`` of every function, method and
    class defined in ``src/repro``.  Dunder methods are the
    interpreter's to call."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
        }
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                found.append((node.name, where, id(node) in methods))
    return found


def class_scope(cls: ast.ClassDef):
    """The nodes a class body evaluates itself: its statements other
    than definitions (``build_table = build_fingers``) and the
    decorators of its methods (``@dims.setter``)."""
    for statement in cls.body:
        if isinstance(statement, DEFINITIONS):
            for decorator in statement.decorator_list:
                yield from ast.walk(decorator)
        else:
            yield from ast.walk(statement)


def references() -> tuple:
    """``(attributes, names)`` read outside ``tests/``.

    ``attributes`` are what can call a method: an attribute read, an
    identifier-shaped string (a ``getattr`` table, a patch target) or a
    name a class body reads (an alias of a sibling method).  ``names``
    are all bare names loaded, which call a function or a class -- but
    not a method: a local variable spelled like an orphaned method
    would hide it.  A package ``__init__``'s imports and ``__all__``
    only re-export, so they are not reads."""
    attributes, names = set(), set()
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            skip = set()
            if path.name == "__init__.py":
                for statement in tree.body:
                    if isinstance(statement, (ast.Import, ast.ImportFrom)) or (
                        isinstance(statement, ast.Assign)
                        and [ast.unparse(t) for t in statement.targets] == ["__all__"]
                    ):
                        skip.update(map(id, ast.walk(statement)))
            for node in ast.walk(tree):
                if id(node) in skip:
                    continue
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    attributes.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if node.value.isidentifier():
                        attributes.add(node.value)
                elif isinstance(node, ast.ClassDef):
                    attributes.update(
                        n.id
                        for n in class_scope(node)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                    )
    return attributes, names


def uncalled() -> dict:
    """Name -> ``path:line`` of every definition nothing outside
    ``tests/`` calls: a method no attribute read, string or class body
    names, a function or class nothing names at all."""
    attributes, names = references()
    found = {}
    for name, where, is_method in definitions():
        if name not in attributes and (is_method or name not in names):
            found.setdefault(name, where)
    return found


def test_every_definition_has_a_caller_outside_tests():
    """A function, method or class in ``src/repro`` stays only while
    something outside ``tests/`` reads its name -- a method only as an
    attribute -- or while :data:`NO_CALLER_NEEDED` says why it may stay
    without one."""
    orphans = [
        f"{where} {name}"
        for name, where in uncalled().items()
        if name not in NO_CALLER_NEEDED
    ]
    assert sorted(orphans) == []


def test_every_exemption_is_current_and_of_its_kind():
    """An exemption names an existing definition that still has no
    caller, and its kind holds: tests read an oracle, the paper map
    names a mechanism, ``asyncio.Protocol`` declares a callback."""
    import asyncio
    import re

    orphans = uncalled()
    tests = "\n".join(p.read_text() for p in (ROOT / "tests").rglob("*.py"))
    paper_map = (ROOT / "docs" / "paper_to_code.md").read_text()
    holds = {
        "oracle": lambda name: re.search(rf"\b{name}\b", tests) is not None,
        "paper": lambda name: f"`{name}`" in paper_map or f".{name}`" in paper_map,
        "protocol": lambda name: hasattr(asyncio.Protocol, name),
    }
    wrong = [
        name
        for name, (kind, _reason) in NO_CALLER_NEEDED.items()
        if name not in orphans or not holds[kind](name)
    ]
    assert wrong == []


#: defaulted parameters that no caller outside ``tests/`` sets, each a
#: ``lever``: a test needs it to reach a bound the default cannot, and
#: the named test file sets it
UNSET_BY_CALLERS = {
    "repro.overlay.ecan.EcanOverlay.route.max_hops": (
        "lever",
        "tests/overlay/test_route_loops.py",
    ),
}


def defaulted_parameters(src: pathlib.Path) -> list:
    """``(module.qualname, call name, {param: position}, path:line)`` of
    every function, method and ``__init__`` under ``src`` with a
    defaulted parameter.  ``position`` is the index a call passes the
    parameter at positionally (``self``/``cls`` not counted), ``None``
    for a keyword-only one; an ``__init__`` is called by its class name."""
    found = []
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def visit(node, prefix: str, in_class: bool, owner: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", True, child.name)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = child.args
                    positional = args.posonlyargs + args.args
                    bound = in_class and not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in child.decorator_list
                    )
                    defaulted = positional[len(positional) - len(args.defaults):]
                    params = {
                        p.arg: positional.index(p) - bound for p in defaulted
                    }
                    params.update(
                        (p.arg, None)
                        for p, default in zip(args.kwonlyargs, args.kw_defaults)
                        if default is not None
                    )
                    if params:
                        name = owner if child.name == "__init__" else child.name
                        where = f"{path.relative_to(src.parents[1])}:{child.lineno}"
                        found.append(
                            (f"{module}.{prefix}{child.name}", name, params, where)
                        )
                    visit(child, f"{prefix}{child.name}.<locals>.", False, owner)

        visit(ast.parse(path.read_text()), "", False, "")
    return found


def calls_by_name(paths) -> dict:
    """Name -> every call in ``paths`` to ``name(...)`` or ``x.name(...)``."""
    found = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name:
                    found.setdefault(name, []).append(node)
    return found


def passes(call: ast.Call, param: str, position) -> bool:
    """Does ``call`` set ``param``: by keyword, at its position, or
    through a ``*``/``**`` unpacking that may carry it?"""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(keyword.arg in (None, param) for keyword in call.keywords):
        return True
    return position is not None and len(call.args) > position


def unset_parameters(src: pathlib.Path, caller_paths) -> dict:
    """``module.qualname.param`` -> ``path:line`` of every defaulted
    parameter of a definition some call in ``caller_paths`` reaches by
    name, when no such call sets it."""
    calls = calls_by_name(caller_paths)
    found = {}
    for qualname, name, params, where in defaulted_parameters(src):
        reaching = calls.get(name)
        if not reaching:
            continue
        for param, position in params.items():
            if not any(passes(call, param, position) for call in reaching):
                found[f"{qualname}.{param}"] = where
    return found


def caller_paths(root: pathlib.Path) -> list:
    return [p for top in CALLER_DIRS for p in sorted((root / top).rglob("*.py"))]


def test_every_defaulted_parameter_is_set_by_a_caller_outside_tests():
    """A setting needs a caller that sets it: a defaulted parameter
    whose only value outside ``tests/`` is its default goes, with the
    branch it guards, unless :data:`UNSET_BY_CALLERS` says which test
    needs it as a lever."""
    unset = unset_parameters(SRC, caller_paths(ROOT))
    orphans = [
        f"{where} {name}" for name, where in unset.items()
        if name not in UNSET_BY_CALLERS
    ]
    assert sorted(orphans) == []


def test_every_lever_is_current_and_set_by_its_test():
    """An exemption names a parameter that is still unset outside
    ``tests/``, its kind is ``lever``, and its test file sets it."""
    unset = unset_parameters(SRC, caller_paths(ROOT))
    definitions = {
        f"{qualname}.{param}": (name, position)
        for qualname, name, params, _where in defaulted_parameters(SRC)
        for param, position in params.items()
    }
    wrong = []
    for qualified, (kind, test_file) in UNSET_BY_CALLERS.items():
        name, position = definitions.get(qualified, (None, None))
        param = qualified.rsplit(".", 1)[1]
        calls = calls_by_name([ROOT / test_file]).get(name, [])
        if (
            qualified not in unset
            or kind != "lever"
            or not any(passes(call, param, position) for call in calls)
        ):
            wrong.append(qualified)
    assert wrong == []
    assert len(UNSET_BY_CALLERS) <= 12


def test_a_seeded_orphan_parameter_is_named(tmp_path):
    """The lint names an unset parameter ``module.qualname.param`` and
    counts a keyword, a position and an unpacking as setting one."""
    package = tmp_path / "src" / "repro" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "class Box:\n"
        "    def __init__(self, size=1, *, label=''):\n"
        "        pass\n"
        "    def grow(self, by=1, twice=False):\n"
        "        pass\n"
        "def make(count=3, **options):\n"
        "    return Box(count)\n"
    )
    caller = tmp_path / "scripts" / "use.py"
    caller.parent.mkdir()
    caller.write_text(
        "box = Box(label='x')\n"
        "box.grow(2)\n"
        "make(*counts)\n"
    )
    unset = unset_parameters(tmp_path / "src" / "repro", [caller])
    assert sorted(unset) == [
        "repro.pkg.mod.Box.__init__.size",
        "repro.pkg.mod.Box.grow.twice",
    ]
    assert unset["repro.pkg.mod.Box.grow.twice"] == "src/repro/pkg/mod.py:4"
