"""Every `validate` suite at p = 1.5 and p = 3, one test per suite;
`suite_specfun`, which does not read p, runs once.

Test ids name the suite and the exponent (`evolve-p1.5`); a failure lists
the suite's FAIL lines, which name each failing check, its value and its
bound.
"""

import pytest

from blowlab import validate as vl
from conftest import cached_params

CASES = [pytest.param(suite, p,
                      id=f"{suite.__name__.removeprefix('suite_')}-p{p:g}")
         for suite in vl.SUITES for p in (1.5, 3.0)
         if suite is not vl.suite_specfun or p == 3.0]


@pytest.mark.parametrize("suite, p", CASES)
def test_suite_passes(suite, p):
    failed = [res.line() for res in suite(cached_params(p), 96, 0)
              if not res.ok]
    assert not failed, "\n".join(failed)
