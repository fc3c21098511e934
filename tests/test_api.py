"""Every name the package and its modules export resolves, and importing
the package loads no more than it needs."""

import importlib
import os
import subprocess
import sys

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


def test_import_leaves_out_dataclasses_and_inspect():
    # the package keeps its specs frozen without dataclasses, whose import
    # (with the inspect module it loads) slows every command line start
    import knotslopes
    root = os.path.dirname(os.path.dirname(knotslopes.__file__))
    env = dict(os.environ, PYTHONPATH=root)
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, knotslopes; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
