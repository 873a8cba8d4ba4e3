"""The modules' docstring examples run as part of the test suite."""

import doctest

import pytest

from symcart import (abelian, catalog, geom, homotopy, recognize, regions,
                     rootsys, values)


@pytest.mark.parametrize("module", (abelian, catalog, geom, homotopy,
                                    recognize, regions, rootsys, values),
                         ids=lambda m: m.__name__)
def test_module_doctests_pass(module):
    result = doctest.testmod(module)
    assert result.failed == 0 and result.attempted > 0
