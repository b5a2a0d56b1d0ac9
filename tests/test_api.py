"""Package-level API surface."""

import importlib
import pkgutil

import delliptic


def test_public_names_resolve():
    # the package and every module with an __all__: a name deleted but left
    # in an __all__ would break `from delliptic.<module> import *`
    modules = [delliptic] + [
        importlib.import_module(f"delliptic.{info.name}")
        for info in pkgutil.iter_modules(delliptic.__path__)
    ]
    with_all = {module.__name__: module for module in modules if hasattr(module, "__all__")}
    assert set(with_all) >= {
        f"delliptic{suffix}"
        for suffix in ("", ".chow", ".covers", ".divisors", ".linalg", ".loci",
                       ".quasimodular", ".series")
    }
    for module_name, module in with_all.items():
        for name in module.__all__:
            assert getattr(module, name) is not None, (module_name, name)


def test_version_string():
    assert delliptic.__version__ == "0.1.0"
