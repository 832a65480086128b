"""Every widthlab module declares its public surface in ``__all__``.

A name in ``__all__`` must exist, and every public top-level function or
class a module defines must be listed; helpers that only the module itself
uses carry a leading underscore.
"""

import importlib
import inspect
import pkgutil

import pytest

import widthlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(widthlab.__path__))


def test_every_module_is_checked():
    assert {"berger", "cli", "conformal", "equidist", "numerics", "yamabe"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_is_the_public_surface(name):
    module = importlib.import_module(f"widthlab.{name}")
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"widthlab.{name} has no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"widthlab.{name}.__all__ names what it lacks: {missing}"
    defined = [
        attr
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    ]
    unlisted = [attr for attr in defined if attr not in exported]
    assert not unlisted, f"widthlab.{name} defines public names outside __all__: {unlisted}"
