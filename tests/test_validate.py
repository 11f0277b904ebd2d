"""Every `validate` suite at p = 1.5 and p = 3, one test per suite;
`suite_specfun` and `suite_integrator`, which do not read p, run once.

Test ids name the suite and the exponent (`evolve-p1.5`); a suite must
return the check names pinned in `CHECK_NAMES` (conftest.py), in order,
and a failure lists the suite's FAIL lines, which name each failing check,
its value and its bound.  A check whose samples are all NaN fails.  The
suites run through `cached_suite_run`, so test_domain.py reads the same
runs at p = 1.5 and 3 rather than making them again.
"""

import math

import pytest

from blowlab import spectral as sp
from blowlab import validate as vl
from conftest import (CHECK_NAMES, P_FREE_SUITES, cached_params,
                      cached_suite_run, record_calls)

CASES = [pytest.param(suite, p,
                      id=f"{suite.__name__.removeprefix('suite_')}-p{p:g}")
         for suite in vl.SUITES for p in (1.5, 3.0)
         if suite not in P_FREE_SUITES or p == 3.0]


@pytest.mark.parametrize("suite, p", CASES)
def test_suite_passes(suite, p):
    results = cached_suite_run(suite, p)
    if isinstance(results, Exception):
        raise results
    assert tuple(res.name for res in results) == CHECK_NAMES[suite.__name__]
    failed = [res.line() for res in results if not res.ok]
    assert not failed, "\n".join(failed)


def test_suite_spectral_makes_one_bordered_solve(monkeypatch):
    # the report reuses the suite's projection of the fine operator
    calls = record_calls(monkeypatch, sp, "riesz_projection",
                         lambda ops: ops.grid.n)
    vl.suite_spectral(cached_params(3.0), 96, 0)
    assert calls == [96]


def test_all_nan_samples_fail_their_checks(monkeypatch):
    # a check whose every sample is NaN must fail, not read its starting 0
    monkeypatch.setattr(vl.md, "energy_norm", lambda fg: math.nan)
    results = {res.name: res for res in
               vl.suite_model(cached_params(1.5), 48, 0)}
    for name in ("energy_homogeneity", "energy_triangle_violation"):
        assert math.isnan(results[name].value)
        assert not results[name].ok


def test_lines_show_both_ends_of_a_range():
    # a ratio below its range fails and names the range's lower end; a
    # lower bound reads as a half-open range, an upper one as before
    low = vl._check("integrator", "richardson_ratio", 11.0, 20.0,
                    lower=12.0)
    assert not low.ok
    assert low.line() == ("FAIL integrator/richardson_ratio: value=11 "
                          "bound=[12, 20]")
    rate = vl._check("evolve", "stable_subspace_decay_rate", 0.99,
                     lower=0.35)
    assert rate.line() == ("PASS evolve/stable_subspace_decay_rate: "
                           "value=0.99 bound=[0.35, inf)")
    assert vl._check("rhs", "x", 2.0, 1.0).line() == ("FAIL rhs/x: value=2 "
                                                      "bound=1")
    for res in (low, rate):
        assert res.ok == ((res.lower is None or res.lower <= res.value)
                          and (res.bound is None or res.value <= res.bound))
