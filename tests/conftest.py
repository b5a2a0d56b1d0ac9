"""Fixtures shared by the test modules."""

import dataclasses
import sys

import pytest


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if name.partition(".")[0] == "delliptic"]


def _caches():
    return [value for module in _package_modules()
            for value in vars(module).values() if hasattr(value, "cache_clear")]


def _clear_caches():
    for cache in _caches():
        cache.cache_clear()


@pytest.fixture
def empty_caches():
    """Every lru_cache of the package, emptied: a refusal that comes only
    after some work leaves that work cached."""
    _clear_caches()
    return _caches()


def _changed(node, path, change):
    """A copy of `node` with the value at `path` (mapping keys, dataclass
    fields, tuple indices) replaced by change(value)."""
    if not path:
        return change(node)
    key, rest = path[0], path[1:]
    if dataclasses.is_dataclass(node):
        return dataclasses.replace(node, **{key: _changed(getattr(node, key), rest, change)})
    if isinstance(node, tuple):
        return (*node[:key], _changed(node[key], rest, change), *node[key + 1:])
    return type(node)({**node, key: _changed(node[key], rest, change)})  # dict, proxy, Row


@pytest.fixture
def plant():
    """plant(root, *path, change=f), the one way a test plants an error: in a
    copy of the package object `root` (a table; a function when `path` is
    empty) the value at `path` becomes f(value), and every package module
    attribute that is `root` is rebound to the copy, so from-imports follow.
    plant.undo() puts every root back. Every lru_cache of the package is
    emptied on entry, at each plant and undo, and on exit."""
    monkeypatch = pytest.MonkeyPatch()

    def planted(root, *path, change):
        new = _changed(root, path, change)
        bound = [(module, name) for module in _package_modules()
                 for name, value in vars(module).items() if value is root]
        assert bound, f"{root!r} is no attribute of a package module"
        _clear_caches()  # while every cached original is still bound
        for module, name in bound:
            monkeypatch.setattr(module, name, new)

    def undo():
        monkeypatch.undo()
        _clear_caches()

    planted.undo = undo
    _clear_caches()
    yield planted
    undo()
