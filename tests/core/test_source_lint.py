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


#: settings no caller outside ``tests/`` sets, each a ``lever`` (a test
#: needs it to reach a bound the default cannot, and the named test file
#: sets it) or ``paper`` (a paper mechanism docs/paper_to_code.md names,
#: with the reason it stays)
UNSET_BY_CALLERS = {
    "repro.overlay.ecan.EcanOverlay.route.max_hops": (
        "lever",
        "tests/overlay/test_route_loops.py",
    ),
    "repro.netsim.distance.DistanceOracle.__init__.max_cached_rows": (
        "lever",
        "tests/netsim/test_distance.py",
    ),
    "repro.core.config.OverlayParams.record_ttl": (
        "paper",
        "the lease start_refresh renews",
    ),
}


def module_name(path: pathlib.Path, src: pathlib.Path) -> str:
    parts = path.relative_to(src.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def decorated(node, name: str) -> bool:
    """Is ``node`` decorated ``@name`` or ``@name(...)``?"""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (getattr(target, "id", None) or getattr(target, "attr", None)) == name:
            return True
    return False


def init_fields(cls: ast.ClassDef) -> list:
    """``(field, position, defaulted, line)`` of each field a dataclass
    body declares, in field order."""
    found = []
    for statement in cls.body:
        if isinstance(statement, ast.AnnAssign):
            value = statement.value
            defaulted = value is not None
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
                defaulted = any(
                    k.arg in ("default", "default_factory") for k in value.keywords
                )
            found.append(
                (statement.target.id, len(found), defaulted, statement.lineno)
            )
    return found


def filled_fields(src: pathlib.Path) -> set:
    """``(class, attribute)`` of every store in ``src`` that fills an
    object of ``class`` after its construction: ``self.f = ...`` in a
    method of ``class`` other than ``__post_init__``, and ``x.f = ...``
    or ``x.f += ...`` on a plain name ``x`` in a module that constructs
    ``class`` (calls ``class(...)``)."""
    found = set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        constructed = {
            getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }

        def visit(node, owner, function) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, child.name, None)
                    continue
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, owner, child.name)
                    continue
                if (
                    isinstance(child, ast.Attribute)
                    and isinstance(child.ctx, ast.Store)
                    and isinstance(child.value, ast.Name)
                ):
                    if child.value.id != "self":
                        found.update((cls, child.attr) for cls in constructed)
                    elif function != "__post_init__":
                        found.add((owner, child.attr))
                visit(child, owner, function)

        visit(tree, None, None)
    return found


def settings(src: pathlib.Path) -> list:
    """``(qualified name, call name, position, path:line, is field)`` of every
    setting under ``src``: each defaulted parameter of a function,
    method or ``__init__``, and each defaulted field of a dataclass.

    A field is a parameter of ``Cls(...)`` at its field-order position;
    a function parameter's ``position`` is the index a call passes it
    at (``self``/``cls`` not counted), ``None`` if keyword-only; an
    ``__init__`` is called by its class name.  A dataclass is a *record*,
    not a setting, when ``src`` fills one of its fields after
    construction (:func:`filled_fields`): its fields are results, and
    no caller is meant to set them."""
    filled = filled_fields(src)
    found = []
    for path in sorted(src.rglob("*.py")):
        module = module_name(path, src)

        def visit(node, prefix: str, in_class: bool, owner: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    if decorated(child, "dataclass"):
                        fields = init_fields(child)
                        if not any((child.name, f) in filled for f, *_ in fields):
                            for field, position, defaulted, line in fields:
                                if defaulted:
                                    where = f"{path.relative_to(src.parents[1])}:{line}"
                                    qualified = f"{module}.{prefix}{child.name}.{field}"
                                    found.append((qualified, child.name, position, where, True))
                    visit(child, f"{prefix}{child.name}.", True, child.name)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = child.args
                    positional = args.posonlyargs + args.args
                    bound = in_class and not decorated(child, "staticmethod")
                    defaulted = positional[len(positional) - len(args.defaults):]
                    params = [(p.arg, positional.index(p) - bound) for p in defaulted]
                    params += [
                        (p.arg, None)
                        for p, default in zip(args.kwonlyargs, args.kw_defaults)
                        if default is not None
                    ]
                    name = owner if child.name == "__init__" else child.name
                    where = f"{path.relative_to(src.parents[1])}:{child.lineno}"
                    for param, position in params:
                        qualified = f"{module}.{prefix}{child.name}.{param}"
                        found.append((qualified, name, position, where, False))
                    visit(child, f"{prefix}{child.name}.<locals>.", False, owner)

        visit(ast.parse(path.read_text()), "", False, "")
    return found


class Calls:
    """Every call in ``paths`` by the name it calls -- ``name(...)`` and
    ``x.name(...)`` call ``name``, ``cls(...)`` in a classmethod calls its
    class -- with the scope a ``**`` unpacking in it is resolved in."""

    def __init__(self, paths):
        self.by_name = {}
        self.scope = {}
        for path in paths:
            tree = ast.parse(path.read_text())
            module = {"constants": {}, "functions": {}}
            for statement in tree.body:
                if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                    module["constants"][ast.unparse(statement.targets[0])] = statement.value
                elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    module["functions"][statement.name] = statement
            self._visit(tree, (module, None), None)

    def _visit(self, node, scope, owner) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._visit(child, scope, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                in_classmethod = owner if decorated(child, "classmethod") else None
                self._visit(child, (scope[0], child), in_classmethod)
            else:
                if isinstance(child, ast.Call):
                    func = child.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    if name == "cls" and owner is not None:
                        name = owner
                    if name:
                        self.by_name.setdefault(name, []).append(child)
                        self.scope[id(child)] = scope
                self._visit(child, scope, owner)

    def get(self, name: str) -> list:
        return self.by_name.get(name, [])

    def keywords(self, call: ast.Call, depth: int = 0):
        """The keywords ``call`` passes, its ``**`` unpackings resolved,
        or ``None`` if one does not resolve."""
        keys = set()
        for keyword in call.keywords:
            if keyword.arg is None:
                inner = self.splat_keys(keyword.value, self.scope[id(call)], depth + 1)
                if inner is None:
                    return None
                keys |= inner
            else:
                keys.add(keyword.arg)
        return keys

    def splat_keys(self, value, scope, depth: int = 0):
        """The keys a ``**value`` evaluated in ``scope`` carries, or
        ``None`` when they cannot be resolved.  Resolved are a dict
        display, ``dict(k=...)``, a module-level constant holding one, a
        module function that returns one, and the ``**`` parameter of
        the function around the unpacking: it carries the keywords its
        callers pass beyond its named parameters, if it has callers."""
        module, function = scope
        if depth > 4:
            return None
        if isinstance(value, ast.Dict):
            keys = set()
            for key, item in zip(value.keys, value.values):
                if key is None:
                    inner = self.splat_keys(item, scope, depth + 1)
                elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                    inner = {key.value}
                else:
                    inner = None
                if inner is None:
                    return None
                keys |= inner
            return keys
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            if value.func.id == "dict" and not value.args:
                keys = set()
                for keyword in value.keywords:
                    inner = (
                        {keyword.arg} if keyword.arg
                        else self.splat_keys(keyword.value, scope, depth + 1)
                    )
                    if inner is None:
                        return None
                    keys |= inner
                return keys
            helper = module["functions"].get(value.func.id)
            if helper is None:
                return None
            keys = set()
            for node in ast.walk(helper):
                if isinstance(node, ast.Return):
                    inner = node.value and self.splat_keys(
                        node.value, (module, helper), depth + 1
                    )
                    if inner is None:
                        return None
                    keys |= inner
            return keys
        if not isinstance(value, ast.Name):
            return None
        if function is not None and getattr(function.args.kwarg, "arg", None) == value.id:
            args = function.args
            named = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            callers = self.get(function.name)
            keys = set()
            for caller in callers:
                inner = self.keywords(caller, depth + 1)
                if inner is None:
                    return None
                keys |= inner - named
            return keys if callers else None
        if value.id in module["constants"]:
            return self.splat_keys(module["constants"][value.id], (module, None), depth + 1)
        return None


def passes(calls: Calls, call: ast.Call, param: str, position, field: bool) -> bool:
    """Does ``call`` set ``param``: by keyword, at its position, through
    a ``*`` unpacking, or through a ``**`` unpacking that carries it?
    A ``**`` whose keys resolve carries exactly those; one that does not
    may carry any parameter of a function (a forwarder passes on what
    its own callers chose) but no dataclass field: a settings object is
    built with its keys spelled out."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    for keyword in call.keywords:
        if keyword.arg == param:
            return True
        if keyword.arg is None:
            keys = calls.splat_keys(keyword.value, calls.scope[id(call)])
            if (param in keys) if keys is not None else not field:
                return True
    return position is not None and len(call.args) > position


def reaching(calls: Calls, name: str, position, field: bool) -> list:
    """``(call, position)`` of each call that can set a setting: a call
    of ``name``, and for a field of a dataclass some call of which
    reaches, ``replace(x, f=...)`` too."""
    found = [(call, position) for call in calls.get(name)]
    if found and field:
        found += [(call, None) for call in calls.get("replace")]
    return found


def unset_settings(src: pathlib.Path, caller_paths) -> dict:
    """Qualified name -> ``path:line`` of every setting under ``src`` that
    some call in ``caller_paths`` reaches by name, when no such call
    sets it."""
    calls = Calls(caller_paths)
    found = {}
    for qualified, name, position, where, field in settings(src):
        param = qualified.rsplit(".", 1)[1]
        candidates = reaching(calls, name, position, field)
        if candidates and not any(
            passes(calls, call, param, at, field) for call, at in candidates
        ):
            found[qualified] = where
    return found


def caller_paths(root: pathlib.Path) -> list:
    return [p for top in CALLER_DIRS for p in sorted((root / top).rglob("*.py"))]


def test_every_defaulted_parameter_is_set_by_a_caller_outside_tests():
    """A setting needs a caller that sets it: a defaulted parameter or
    dataclass field whose only value outside ``tests/`` is its default
    goes, with the branch it guards, unless :data:`UNSET_BY_CALLERS`
    says which test needs it as a lever or which paper mechanism it is."""
    unset = unset_settings(SRC, caller_paths(ROOT))
    orphans = [
        f"{where} {name}" for name, where in unset.items()
        if name not in UNSET_BY_CALLERS
    ]
    assert sorted(orphans) == []


def test_every_lever_is_current_and_set_by_its_test():
    """An exemption names a setting that is still unset outside
    ``tests/``; a ``lever``'s test file sets it, a ``paper`` setting is
    named in docs/paper_to_code.md; at most 12 levers."""
    unset = unset_settings(SRC, caller_paths(ROOT))
    defined = {
        qualified: (name, position, field)
        for qualified, name, position, _, field in settings(SRC)
    }
    paper_map = (ROOT / "docs" / "paper_to_code.md").read_text()
    wrong = []
    for qualified, (kind, detail) in UNSET_BY_CALLERS.items():
        name, position, field = defined.get(qualified, (None, None, False))
        param = qualified.rsplit(".", 1)[1]
        if kind == "lever":
            calls = Calls([ROOT / detail])
            holds = any(
                passes(calls, call, param, at, field)
                for call, at in reaching(calls, name, position, field)
            )
        else:
            holds = kind == "paper" and f"`{param}`" in paper_map
        if qualified not in unset or not holds:
            wrong.append(qualified)
    assert wrong == []
    assert sum(kind == "lever" for kind, _ in UNSET_BY_CALLERS.values()) <= 12


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
    unset = unset_settings(tmp_path / "src" / "repro", [caller])
    assert sorted(unset) == [
        "repro.pkg.mod.Box.__init__.size",
        "repro.pkg.mod.Box.grow.twice",
    ]
    assert unset["repro.pkg.mod.Box.grow.twice"] == "src/repro/pkg/mod.py:4"


def test_a_seeded_orphan_field_is_named(tmp_path):
    """The lint names an unset dataclass field ``module.Class.field``.
    A keyword, a field-order position, ``replace(x, f=...)``, a
    ``cls(...)`` call in a classmethod and a ``**`` unpacking whose keys
    resolve each set exactly their fields, and one that does not
    resolve sets none; a record the source fills after construction is
    not a setting."""
    package = tmp_path / "src" / "repro" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "from dataclasses import dataclass, field, replace\n"
        "@dataclass(frozen=True)\n"
        "class Box:\n"
        "    size: int = 1\n"
        "    wide: bool = False\n"
        "    knob: float = 0.5\n"
        "    label: str = ''\n"
        "    shade: str = 'red'\n"
        "    depth: int = field(default=2)\n"
        "    @classmethod\n"
        "    def small(cls):\n"
        "        return cls(size=0)\n"
        "@dataclass\n"
        "class Tally:\n"
        "    hits: int = 0\n"
        "def count():\n"
        "    tally = Tally()\n"
        "    tally.hits += 1\n"
        "    return tally\n"
    )
    caller = tmp_path / "scripts" / "use.py"
    caller.parent.mkdir()
    caller.write_text(
        "SHAPE = {'label': 'x'}\n"
        "def tinted():\n"
        "    return dict(shade='blue')\n"
        "def make(**extra):\n"
        "    return Box(1, True, **extra)\n"
        "box = Box(**SHAPE, **tinted())\n"
        "make(depth=3)\n"
        "Box.small()\n"
        "Box(**load())\n"
        "Tally()\n"
    )
    unset = unset_settings(tmp_path / "src" / "repro", [caller])
    assert sorted(unset) == ["repro.pkg.mod.Box.knob"]
    assert unset["repro.pkg.mod.Box.knob"] == "src/repro/pkg/mod.py:6"
