"""Every name a ``repro`` package or module exports in ``__all__`` resolves.

A deletion that leaves a re-export or an ``__all__`` entry behind fails
here at import or ``getattr`` time instead of at a user's ``import *``.
"""

import importlib
import pkgutil

import pytest

import repro


def _module_names():
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        # ``__main__`` modules run their command line when imported.
        if info.name.rsplit(".", 1)[-1] != "__main__":
            names.append(info.name)
    return sorted(names)


MODULES = _module_names()


def test_walk_finds_the_subpackages():
    for package in ("repro.core", "repro.dp", "repro.ml", "repro.obs"):
        assert package in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
