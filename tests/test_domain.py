"""The domain table of `blowlab validate` as a standing test: every suite
that reads p, at n = 96, over exponents across 1 < p <= 3.

For each p the test asserts that every suite that returns gives the check
names pinned in `CHECK_NAMES` (conftest.py), in order, and that the
failing checks, as "suite/check", plus the exception each suite stops
with, as "suite_x raises Name", equal the pinned set in PINS.  A pin is a
record, not a pass:
- a pin shrinks only when a change fixes the failure;
- a pin grows only together with a FOUND line in CHANGES.md that names it;
- no bound changes to make a pin go away.

Each suite runs on its own, so one suite's exception does not hide the
checks of the later ones.  pytest turns a RuntimeWarning into an error
(pyproject.toml), so the overflows at p = 1.02 are pinned as the
exceptions they raise; the warning is not filtered.  `suite_specfun` and
`suite_integrator` read neither p nor n; test_validate.py runs them once.
"""

import pytest

from blowlab import validate as vl
from conftest import CHECK_NAMES, P_FREE_SUITES, cached_suite_run

SUITES = [suite for suite in vl.SUITES if suite not in P_FREE_SUITES]

PINS = {
    1.02: {"suite_model raises RuntimeWarning", "spectral/wronskian_identity",
           "suite_evolve raises RuntimeWarning"},
    1.05: {"model/energy_homogeneity", "suite_evolve raises OverflowAbort"},
    1.1: {"model/energy_homogeneity", "suite_evolve raises AmplitudeAbort"},
    1.25: {"model/energy_homogeneity", "evolve/xnorm_attained_at_small_tau",
           "evolve/xnorm_over_initial"},
    1.3: set(),
    1.32: set(),
    1.35: set(),
    1 + 1 / 2.8: set(),
    1.4: set(),
    1.5: set(),
    1 + 1 / 1.8: set(),
    1.75: set(),
    2.0: set(),
    2.25: set(),
    2.5: set(),
    2.75: set(),
    3.0: set(),
}


@pytest.mark.parametrize("p", list(PINS), ids=lambda p: f"p{p:.6g}")
def test_failures_match_the_pinned_table(p):
    found = {}
    names = {}
    for suite in SUITES:
        results = cached_suite_run(suite, p)
        if isinstance(results, Exception):
            found[f"{suite.__name__} raises {type(results).__name__}"] = (
                str(results))
        else:
            names[suite.__name__] = tuple(res.name for res in results)
            found.update((f"{res.suite}/{res.name}", res.line())
                         for res in results if not res.ok)
    assert names == {name: CHECK_NAMES[name] for name in names}
    new = [found[key] for key in sorted(found.keys() - PINS[p])]
    fixed = sorted(PINS[p] - found.keys())
    assert not new and not fixed, (
        f"p={p!r} departs from its pin; failing, not pinned: {new}; "
        f"pinned, now passing: {fixed}")
