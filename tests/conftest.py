"""Shared fixtures: the five bundled mappings and the 4-vertex census."""

from random import Random

import pytest

import invmean as iv

from census import classify_all_small_graphs


def _build(name: str) -> iv.ComposedMapping:
    return iv.load_mapping_spec(iv.fixture_path(name)).build()


@pytest.fixture(scope="session")
def ex2():
    return _build("example2.json")


@pytest.fixture(scope="session")
def ex3():
    return _build("example3.json")


@pytest.fixture(scope="session")
def ex4():
    return _build("example4.json")


@pytest.fixture(scope="session")
def ex5():
    return _build("example5.json")


@pytest.fixture(scope="session")
def ex6():
    return _build("example6.json")


@pytest.fixture(scope="session")
def census4():
    return classify_all_small_graphs(4)


@pytest.fixture
def rng():
    return Random(0xC0FFEE)
