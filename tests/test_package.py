"""Every exported name of ``fconn`` must resolve.

Deleting a function or class must take its export with it: a name left in a
module's ``__all__`` breaks ``from fconn.x import *``, and one left in
``fconn/__init__.py`` breaks ``import fconn``.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import fconn

MODULES = sorted(m.name for m in pkgutil.iter_modules(fconn.__path__, "fconn."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_package_imports_resolve():
    tree = ast.parse(pathlib.Path(fconn.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module("." * node.level + (node.module or ""), "fconn")
        for alias in node.names:
            assert hasattr(module, alias.name), f"{module.__name__}.{alias.name}"
            assert hasattr(fconn, alias.asname or alias.name)
