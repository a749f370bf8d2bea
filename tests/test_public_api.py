"""Every ``__all__`` in the ``repro`` package names something real.

A stale entry makes ``from module import *`` raise ``AttributeError``, so
each module is imported and every exported name looked up.
"""

import importlib
import pkgutil

import pytest

import repro


def _modules():
    yield repro.__name__
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


@pytest.mark.parametrize("name", sorted(_modules()))
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [
        export
        for export in getattr(module, "__all__", ())
        if not hasattr(module, export)
    ]
    assert missing == []
