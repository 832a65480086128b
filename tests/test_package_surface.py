"""Every widthlab module declares its public surface in ``__all__``.

A name in ``__all__`` must exist, and every public top-level function or
class a module defines must be listed; helpers that only the module itself
uses carry a leading underscore, and the few private helpers that another
module takes are pinned by name.
"""

import ast
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


# Private names one module takes from another, as (importer, "home._name").
# Each couples the importer to a helper its home may change at will, so the
# set is pinned: a new entry must be added here on purpose.
CROSS_MODULE_PRIVATE = {
    ("yamabe", "conformal._evaluation_fault"),
    ("yamabe", "conformal._pole_irregularity"),
    ("yamabe", "conformal._vertex"),
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _cross_module_private_names(name: str) -> set:
    """``from .home import _x`` and ``home._x`` in the source of widthlab.<name>."""
    module = importlib.import_module(f"widthlab.{name}")
    tree = ast.parse(inspect.getsource(module))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            found |= {(name, f"{node.module}.{a.name}") for a in node.names if _private(a.name)}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULES and _private(node.attr)):
            found.add((name, f"{node.value.id}.{node.attr}"))
    return found


def test_cross_module_private_names_are_pinned():
    found = set().union(*(_cross_module_private_names(name) for name in MODULES))
    new = sorted(found - CROSS_MODULE_PRIVATE)
    assert not new, f"private names used across modules outside the pinned set: {new}"
    gone = sorted(CROSS_MODULE_PRIVATE - found)
    assert not gone, f"pinned cross-module private names no longer used: {gone}"


def test_membership_runs_on_integers():
    # The exact simplex, the band LP and their certificates work on the
    # integer image; the Fraction simplex is the tests' reference.
    assert not hasattr(importlib.import_module("widthlab.equidist"), "Fraction")


def test_membership_makes_no_lapack_call():
    # Membership takes its route from the exact elimination; no float solve
    # picks it, so the module calls no LAPACK routine.
    source = inspect.getsource(importlib.import_module("widthlab.equidist"))
    assert "np.linalg" not in source and "numpy.linalg" not in source


def test_report_encoding_imports_no_numpy():
    # Every record the package writes holds Python scalars, so the one report
    # encoding has no numpy branch.
    source = inspect.getsource(importlib.import_module("widthlab._fsio"))
    assert "numpy" not in source and "np." not in source


@pytest.mark.parametrize("name, moved", [
    ("equidist", ("condition_i_predicate", "condition_ii_violator", "save_instance")),
    ("conformal", ("save_profile",)),
])
def test_test_only_names_live_in_oracles(name, moved):
    module = importlib.import_module(f"widthlab.{name}")
    assert [attr for attr in moved if hasattr(module, attr)] == []
