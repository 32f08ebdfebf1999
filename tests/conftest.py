import pytest

from siegel2.construction import build_generator_set

ACCEPTANCE_BOUND = 12


@pytest.fixture(scope="session")
def genset():
    """The full generator set at the acceptance trace bound, built once."""
    return build_generator_set(ACCEPTANCE_BOUND)


@pytest.fixture(scope="session")
def genset_small():
    """A cheap low-bound build for insufficiency paths."""
    return build_generator_set(5)


@pytest.fixture(scope="session")
def genset9():
    """A build at trace bound 9, the bound of the reference coefficients."""
    return build_generator_set(9)
