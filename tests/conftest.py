"""Shared cached builders so expensive objects are assembled once."""

from functools import lru_cache

import pytest

from blowlab.grid import build_grid
from blowlab.model import params_new
from blowlab.spectral import assemble_L, riesz_projection
from blowlab.validate import suite_integrator, suite_specfun

# the validate suites that read neither p nor n: tests run them once
P_FREE_SUITES = (suite_specfun, suite_integrator)

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


@lru_cache(maxsize=None)
def cached_params(p):
    return params_new(p)


@lru_cache(maxsize=None)
def cached_grid(n, length=1.0):
    return build_grid(n, length)


@lru_cache(maxsize=None)
def cached_ops(p, n):
    return assemble_L(cached_grid(n), cached_params(p))


@lru_cache(maxsize=None)
def cached_projection(p, n):
    return riesz_projection(cached_ops(p, n))


@lru_cache(maxsize=None)
def cached_suite_run(suite, p, n=96, seed=0):
    """A validate suite's results as a tuple, or the exception it stops
    with: test_validate.py and test_domain.py read the same run."""
    try:
        return tuple(suite(cached_params(p), n, seed))
    except Exception as exc:
        return exc


def record_calls(monkeypatch, owner, name, key):
    """Replace owner.name by a wrapper that calls it and appends key of
    each call's arguments to the returned list."""
    calls = []
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(key(*args, **kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


@pytest.fixture(scope="session")
def params3():
    return cached_params(3.0)


@pytest.fixture(scope="session")
def params2():
    return cached_params(2.0)


@pytest.fixture(scope="session")
def grid64():
    return cached_grid(64)


@pytest.fixture(scope="session")
def grid96():
    return cached_grid(96)
