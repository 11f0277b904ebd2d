"""Every `validate` suite at p = 1.5 and p = 3, one test per suite.

Test ids name the suite and the exponent (`evolve-p1.5`); a failure lists
the suite's FAIL lines, which name each failing check, its value and its
bound.
"""

import pytest

from blowlab import validate as vl
from conftest import cached_params


@pytest.mark.parametrize("p", [1.5, 3.0], ids=["p1.5", "p3"])
@pytest.mark.parametrize("suite", vl.SUITES,
                         ids=lambda s: s.__name__.removeprefix("suite_"))
def test_suite_passes(suite, p):
    failed = [res.line() for res in suite(cached_params(p), 96, 0)
              if not res.ok]
    assert not failed, "\n".join(failed)
