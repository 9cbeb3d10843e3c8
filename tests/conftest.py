"""Shared fixtures: paper-default components built once per session.

Heavy objects (membrane sensor with its Chebyshev fit, readout chains)
are session-scoped; tests must not mutate them. Tests that need mutable
state build their own instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import native
from repro.mems.membrane import MembraneSensor
from repro.params import SystemParams, paper_defaults


@pytest.fixture(scope="session")
def params() -> SystemParams:
    return paper_defaults()


@pytest.fixture(scope="session")
def sensor() -> MembraneSensor:
    """Shared paper-default membrane (construction costs ~100 ms)."""
    return MembraneSensor()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture()
def no_native(monkeypatch):
    """Mark the native library unavailable: every compiled path runs its
    Python reference for the duration of the test."""
    monkeypatch.setattr(native, "_lib", False)
