"""Every name the package and its modules export resolves."""

import importlib

import pytest

MODULES = ["knotslopes", "knotslopes.closedforms", "knotslopes.engine",
           "knotslopes.knots", "knotslopes.laurent", "knotslopes.quasifit",
           "knotslopes.verify"]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, "%s.__all__ names missing attributes: %s" % (
        name, missing)
