import os
from fractions import Fraction

import pytest
from hypothesis import settings

from annuli import ValuationConfig

# CI runs with HYPOTHESIS_PROFILE=ci: a fixed example sequence, so a red run
# reproduces with the same command.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def cfg2():
    """p = 2, one geometric variable, no base parameters."""
    return ValuationConfig(2, (), 1)


@pytest.fixture
def cfg3():
    return ValuationConfig(3, (), 1)


@pytest.fixture
def cfg2u():
    """p = 2, one base parameter of weight 0, one geometric variable."""
    return ValuationConfig(2, (Fraction(0),), 1)


@pytest.fixture
def cfg0():
    """Residual characteristic zero."""
    return ValuationConfig(0, (), 1)
