"""The docstring examples of every dispgeo module and of the test oracles,
as tier-1 tests.

They pin the exact types at the API boundary (for example the ping-pong
margins are Fractions), so they run here module by module rather than
through a global --doctest-modules, which would also import the benchmark
scripts.
"""

import doctest
import importlib
import pkgutil

import pytest

import dispgeo
import oracles

MODULES = sorted(m.name for m in pkgutil.iter_modules(dispgeo.__path__,
                                                      "dispgeo."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_doctests_are_found():
    attempted = sum(doctest.testmod(importlib.import_module(name)).attempted
                    for name in MODULES)
    assert attempted >= 14


def test_oracle_doctests():
    result = doctest.testmod(oracles)
    assert result.failed == 0 and result.attempted >= 1
