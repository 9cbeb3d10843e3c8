"""Hold-down servo: applanation search."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SignalQualityError
from repro.params import PASCAL_PER_MMHG
from repro.tonometry.contact import ContactModel
from repro.tonometry.servo import HoldDownServo


@pytest.fixture()
def contact() -> ContactModel:
    return ContactModel(
        mean_arterial_pressure_pa=(80 + 40 / 3) * PASCAL_PER_MMHG
    )


def noisy_oracle(contact, sigma=0.05, seed=3):
    rng = np.random.default_rng(seed)

    def oracle(hold_pa: float) -> float:
        return float(
            contact.transmission(hold_pa) * 40.0
            + sigma * rng.standard_normal()
        )

    return oracle


class TestSearch:
    def test_finds_optimum(self, contact):
        servo = HoldDownServo()
        result = servo.search(noisy_oracle(contact))
        assert result.optimal_hold_down_pa == pytest.approx(
            contact.optimal_hold_down_pa, rel=0.1
        )

    def test_noiseless_search_precise(self, contact):
        servo = HoldDownServo(refine_tolerance_pa=50.0)
        result = servo.search(noisy_oracle(contact, sigma=0.0))
        assert result.optimal_hold_down_pa == pytest.approx(
            contact.optimal_hold_down_pa, rel=0.02
        )

    def test_sweep_recorded(self, contact):
        servo = HoldDownServo(coarse_points=10)
        result = servo.search(noisy_oracle(contact))
        pressures, amplitudes = result.transmission_curve()
        assert pressures.size == 10
        assert amplitudes.size == 10
        # The sweep shows the inverted U: interior max.
        assert 0 < int(np.argmax(amplitudes)) < 9

    def test_no_pulse_raises(self):
        servo = HoldDownServo(min_peak_amplitude=0.5)

        def dead_oracle(_):
            return 0.0

        with pytest.raises(SignalQualityError, match="artery"):
            servo.search(dead_oracle)

    def test_nan_oracle_raises(self):
        servo = HoldDownServo()
        with pytest.raises(SignalQualityError):
            servo.search(lambda _: float("nan"))


class TestValidation:
    def test_rejects_bad_range(self):
        with pytest.raises(ConfigurationError):
            HoldDownServo(min_pa=10e3, max_pa=5e3)

    def test_rejects_few_points(self):
        with pytest.raises(ConfigurationError):
            HoldDownServo(coarse_points=2)
