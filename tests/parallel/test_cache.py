"""PrecomputeCache and its wiring into the FIR and membrane setup."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.chain import ReadoutChain
from repro.dsp.fir import design_compensation_fir
from repro.errors import ConfigurationError
from repro.mems.membrane import MembraneSensor
from repro.parallel import PrecomputeCache, precompute_cache
from repro.params import SystemParams


class TestPrecomputeCache:
    def test_miss_then_hit(self):
        cache = PrecomputeCache()
        calls = []

        def factory():
            calls.append(1)
            return 42

        assert cache.get(("k",), factory) == 42
        assert cache.get(("k",), factory) == 42
        assert len(calls) == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_distinct_keys_distinct_values(self):
        cache = PrecomputeCache()
        assert cache.get(("a",), lambda: 1) == 1
        assert cache.get(("b",), lambda: 2) == 2
        assert len(cache) == 2
        assert ("a",) in cache

    def test_unhashable_key_rejected(self):
        cache = PrecomputeCache()
        with pytest.raises(ConfigurationError, match="hashable"):
            cache.get(["list", "key"], lambda: 0)

    def test_clear_drops_entries(self):
        cache = PrecomputeCache()
        cache.get(("k",), lambda: 7)
        cache.clear()
        assert len(cache) == 0
        assert cache.get(("k",), lambda: 8) == 8

    def test_global_instance_is_stable(self):
        assert precompute_cache() is precompute_cache()

    def test_raising_factory_counts_nothing_and_stores_nothing(self):
        cache = PrecomputeCache()

        def bad_factory():
            raise ValueError("transient setup failure")

        with pytest.raises(ValueError, match="transient"):
            cache.get(("k",), bad_factory)
        # No phantom miss, no poisoned entry: the retry is a clean slate.
        assert (cache.hits, cache.misses) == (0, 0)
        assert len(cache) == 0
        assert ("k",) not in cache
        assert cache.get(("k",), lambda: 42) == 42
        assert (cache.hits, cache.misses) == (0, 1)


class TestFIRDesignSharing:
    def test_two_chains_share_identical_tap_arrays(self):
        """Many chains, one FIR design per process: the NumPy
        frequency-sampling design (bit-identical to ``firwin2``) runs once
        and every later chain gets the same cached array."""
        cache = precompute_cache()
        c1 = ReadoutChain(SystemParams(), rng=np.random.default_rng(1))
        hits0 = cache.hits
        c2 = ReadoutChain(SystemParams(), rng=np.random.default_rng(2))
        hits1 = cache.hits
        taps1 = c1.fpga.filter.fir_coefficients
        taps2 = c2.fpga.filter.fir_coefficients
        # Same object — no recompute — and bit-identical values.
        assert taps1 is taps2
        assert np.array_equal(taps1, taps2)
        assert hits1 > hits0

    def test_cached_design_is_read_only(self):
        coeffs = design_compensation_fir(32, 4000.0, 500.0)
        with pytest.raises(ValueError):
            coeffs[0] = 1.0

    def test_design_differs_for_different_parameters(self):
        a = design_compensation_fir(32, 4000.0, 500.0)
        b = design_compensation_fir(32, 4000.0, 400.0)
        assert not np.array_equal(a, b)

    def test_invalid_design_still_rejected(self):
        with pytest.raises(ConfigurationError):
            design_compensation_fir(4, 4000.0, 500.0)
        with pytest.raises(ConfigurationError):
            design_compensation_fir(32, 4000.0, 3000.0)


class TestMembraneTransferSharing:
    def test_two_sensors_share_the_transfer_solution(self):
        s1 = MembraneSensor()
        s2 = MembraneSensor()
        assert s1._fit is s2._fit
        assert s1._p_touchdown == s2._p_touchdown

    def test_caching_preserves_transfer_values(self):
        sensor = MembraneSensor()
        pressures = np.linspace(-40e3, 40e3, 11)
        caps = sensor.capacitance_f(pressures)
        exact = sensor.capacitance_exact_f(pressures)
        assert np.allclose(caps, exact, rtol=1e-3)

    def test_custom_degree_gets_its_own_entry(self):
        s1 = MembraneSensor(interpolant_degree=12)
        s2 = MembraneSensor(interpolant_degree=14)
        assert s1._fit is not s2._fit
