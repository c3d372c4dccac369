"""Shared fixtures: the standard particle start and its reference endpoints."""
from __future__ import annotations

import numpy as np
import pytest

from nonholo.flow import reference_flow
from nonholo.system import nonholonomic_particle


@pytest.fixture(scope="session")
def particle():
    return nonholonomic_particle()


@pytest.fixture(scope="session")
def particle_x0():
    return np.array([0.0, 1.0, 0.0, 1.0, 1.0, 1.0])


@pytest.fixture(scope="session")
def oracle_t05(particle, particle_x0):
    """Reference endpoint of the particle flow at T = 0.5."""
    return reference_flow(particle, particle_x0, 0.5)


@pytest.fixture(scope="session")
def oracle_t1(particle, particle_x0):
    """Reference endpoint of the particle flow at T = 1."""
    return reference_flow(particle, particle_x0, 1.0)
