import doctest
import importlib
import pkgutil

import pytest

import qfock

MODULES = sorted(m.name for m in pkgutil.iter_modules(qfock.__path__, "qfock."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
