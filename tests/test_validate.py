"""Every `validate` suite at p = 1.5 and p = 3, one test per suite;
`suite_specfun` and `suite_integrator`, which do not read p, run once.

Test ids name the suite and the exponent (`evolve-p1.5`); a suite must
return the check names pinned in `CHECK_NAMES`, in order, and a failure
lists the suite's FAIL lines, which name each failing check, its value and
its bound.  A check whose samples are all NaN fails.
"""

import math

import pytest

from blowlab import spectral as sp
from blowlab import validate as vl
from conftest import P_FREE_SUITES, cached_params

CASES = [pytest.param(suite, p,
                      id=f"{suite.__name__.removeprefix('suite_')}-p{p:g}")
         for suite in vl.SUITES for p in (1.5, 3.0)
         if suite not in P_FREE_SUITES or p == 3.0]


# the 29 checks by suite, in order: adding, renaming or retiring a check
# edits this table
CHECK_NAMES = {
    "suite_specfun": ("rgamma_lngamma_identity", "contiguous_relation",
                      "series_connection_overlap"),
    "suite_lipschitz": ("nonlin_N_at_zero", "quadratic_bound_constant",
                        "quadratic_smallness_constant", "lipschitz_constant"),
    "suite_model": ("linfty_bound_violation", "hardy_constant",
                    "energy_homogeneity", "energy_triangle_violation",
                    "U_map_closed_form", "psi_T_ode_fd_order"),
    "suite_spectral": ("grid_diff_rho2", "grid_volterra_const",
                       "symmetry_mode_residual", "projection_idempotency",
                       "projection_commutator", "quantization_agreement",
                       "wronskian_identity", "free_part_dissipativity"),
    "suite_rhs": ("nonlinear_term_oracle",),
    "suite_integrator": ("richardson_ratio",),
    "suite_evolve": ("unstable_coefficient_growth_rate",
                     "stable_subspace_decay_rate",
                     "xnorm_attained_at_small_tau", "xnorm_over_initial",
                     "zero_correction_identity", "refinement_rate_drift"),
}


@pytest.mark.parametrize("suite, p", CASES)
def test_suite_passes(suite, p):
    results = suite(cached_params(p), 96, 0)
    assert tuple(res.name for res in results) == CHECK_NAMES[suite.__name__]
    failed = [res.line() for res in results if not res.ok]
    assert not failed, "\n".join(failed)


def test_suite_spectral_makes_one_bordered_solve(monkeypatch):
    # the report reuses the suite's projection of the fine operator
    calls = []
    original = sp.riesz_projection

    def counting(ops):
        calls.append(ops.grid.n)
        return original(ops)

    monkeypatch.setattr(sp, "riesz_projection", counting)
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
    low = vl._interval("integrator", "richardson_ratio", 11.0, 12.0, 20.0)
    assert not low.ok
    assert low.line() == ("FAIL integrator/richardson_ratio: value=11 "
                          "bound=[12, 20]")
    rate = vl._lower("evolve", "stable_subspace_decay_rate", 0.99, 0.35)
    assert rate.line() == ("PASS evolve/stable_subspace_decay_rate: "
                           "value=0.99 bound=[0.35, inf)")
    assert vl._upper("rhs", "x", 2.0, 1.0).line() == ("FAIL rhs/x: value=2 "
                                                      "bound=1")
    for res in (low, rate):
        assert res.ok == ((res.lower is None or res.lower <= res.value)
                          and (res.bound is None or res.value <= res.bound))
