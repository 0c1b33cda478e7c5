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
