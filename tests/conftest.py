"""Fixtures shared by the test modules."""

import pytest


def _clear_caches(*modules):
    for module in modules:
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear") and fn.__module__ == module.__name__:
                fn.cache_clear()


@pytest.fixture
def clear_caches():
    """clear_caches(*modules) empties every lru_cache the modules define."""
    return _clear_caches
