"""Shared fixtures: a reproducible RNG and the ``slow`` marker."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: multi-second calibration runs (deselect with '-m \"not slow\"')"
    )
