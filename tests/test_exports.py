"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import hazardnet

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(hazardnet.__path__))


def test_package_all_resolves():
    missing = [name for name in hazardnet.__all__ if not hasattr(hazardnet, name)]
    assert missing == []
    assert len(set(hazardnet.__all__)) == len(hazardnet.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"hazardnet.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_all_is_the_submodules_all():
    """Each public name is declared once, in its module's ``__all__``."""
    declared = [name for sub in SUBMODULES
                for name in getattr(importlib.import_module(f"hazardnet.{sub}"), "__all__", [])]
    assert sorted(hazardnet.__all__) == sorted(declared + ["__version__"])


def test_star_import():
    namespace = {}
    exec("from hazardnet import *", namespace)
    assert set(hazardnet.__all__) <= set(namespace)
