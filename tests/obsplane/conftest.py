"""Shared fixtures for the service/farm observability tests."""

import pytest

from repro.firrtl import print_circuit
from repro.targets import make_comb_pair_circuit


@pytest.fixture(scope="session")
def circuit_text():
    return print_circuit(make_comb_pair_circuit())


@pytest.fixture
def make_config(circuit_text):
    """Build a simulate job config; overrides tweak the cache key."""

    def make(cycles=60, **overrides):
        config = {"kind": "simulate", "circuit_text": circuit_text,
                  "extract": ["right"], "mode": "fast",
                  "cycles": cycles}
        config.update(overrides)
        return config

    return make
