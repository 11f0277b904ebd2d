"""Shared cached builders so expensive objects are assembled once."""

from functools import lru_cache

import pytest

from blowlab.grid import build_grid
from blowlab.model import params_new
from blowlab.spectral import assemble_L, riesz_projection
from blowlab.validate import suite_integrator, suite_specfun

# the validate suites that read neither p nor n: tests run them once
P_FREE_SUITES = (suite_specfun, suite_integrator)


@lru_cache(maxsize=None)
def cached_params(p, eps=0.1):
    return params_new(p, eps=eps)


@lru_cache(maxsize=None)
def cached_grid(n, length=1.0):
    return build_grid(n, length)


@lru_cache(maxsize=None)
def cached_ops(p, n, eps=0.1):
    return assemble_L(cached_grid(n), cached_params(p, eps))


@lru_cache(maxsize=None)
def cached_projection(p, n, eps=0.1):
    return riesz_projection(cached_ops(p, n, eps))


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
