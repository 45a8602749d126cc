"""Shared fixtures: cached censuses and the built-in example catalog."""

import pytest

from ybe import Rack, Solution, enumerate_racks, enumerate_solutions, sd_solutions
from ybe.fixtures import fixture_names, fixture_object


@pytest.fixture(scope="session")
def solutions3():
    """All solutions on three points up to isomorphism."""
    return enumerate_solutions(3)


@pytest.fixture(scope="session")
def involutive3():
    return enumerate_solutions(3, restrict="involutive")


@pytest.fixture(scope="session")
def quandles3():
    return enumerate_racks(3, quandles_only=True)


@pytest.fixture(scope="session")
def racks4():
    return enumerate_racks(4)


@pytest.fixture(scope="session")
def all_fixture_objects():
    """Name -> object for every catalog entry."""
    return {name: fixture_object(name) for name in fixture_names()}


@pytest.fixture(scope="session")
def solution_fixtures(all_fixture_objects):
    return {
        name: obj
        for name, obj in all_fixture_objects.items()
        if isinstance(obj, Solution)
    }


@pytest.fixture(scope="session")
def rack_fixtures(all_fixture_objects):
    return {
        name: obj
        for name, obj in all_fixture_objects.items()
        if isinstance(obj, Rack)
    }


@pytest.fixture(scope="session")
def census_solutions(solutions3):
    """Representatives of every solution class on at most three points."""
    return [
        s
        for n in (1, 2)
        for s in enumerate_solutions(n).representatives
    ] + list(solutions3.representatives)


@pytest.fixture(scope="session")
def fixture_and_sd_solutions(solution_fixtures, rack_fixtures):
    """Every solution fixture and both SD solutions of every rack fixture."""
    out = list(solution_fixtures.values())
    for rk in rack_fixtures.values():
        out.extend(sd_solutions(rk))
    return out
