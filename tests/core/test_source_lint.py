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


def definitions() -> dict:
    """Name -> ``path:line`` of every function, method and class defined
    in ``src/repro``.  Dunder methods are the interpreter's to call."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not (node.name.startswith("__") and node.name.endswith("__")):
                found.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def references() -> set:
    """Every name read outside ``tests/``: a loaded name, an attribute
    read, or an identifier-shaped string (a ``getattr`` table, a patch
    target).  A package ``__init__``'s imports and ``__all__`` only
    re-export, so they are not reads."""
    names = set()
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
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if node.value.isidentifier():
                        names.add(node.value)
    return names


def test_every_definition_has_a_caller_outside_tests():
    """A function, method or class in ``src/repro`` stays only while
    something outside ``tests/`` reads its name, or while
    :data:`NO_CALLER_NEEDED` says why it may stay without one."""
    read = references()
    orphans = [
        f"{where} {name}"
        for name, where in definitions().items()
        if name not in read and name not in NO_CALLER_NEEDED
    ]
    assert sorted(orphans) == []


def test_every_exemption_is_current_and_of_its_kind():
    """An exemption names an existing definition that still has no
    caller, and its kind holds: tests read an oracle, the paper map
    names a mechanism, ``asyncio.Protocol`` declares a callback."""
    import asyncio
    import re

    defined, read = definitions(), references()
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
        if name not in defined or name in read or not holds[kind](name)
    ]
    assert wrong == []
