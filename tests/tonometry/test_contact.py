"""Applanation contact model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.params import ContactParams, PASCAL_PER_MMHG
from repro.tonometry.contact import ContactModel


@pytest.fixture(scope="module")
def contact() -> ContactModel:
    return ContactModel()


class TestTransmissionCurve:
    def test_peak_at_optimum(self, contact):
        opt = contact.optimal_hold_down_pa
        sweep = np.linspace(0.2 * opt, 2.5 * opt, 201)
        trans = contact.transmission(sweep)
        peak_at = sweep[np.argmax(trans)]
        assert peak_at == pytest.approx(opt, rel=0.1)

    def test_inverted_u(self, contact):
        opt = contact.optimal_hold_down_pa
        t_low = contact.transmission(0.3 * opt)
        t_opt = contact.transmission(opt)
        t_high = contact.transmission(2.2 * opt)
        assert t_opt > t_low
        assert t_opt > t_high

    def test_zero_at_no_contact(self, contact):
        assert contact.transmission(0.0) == pytest.approx(0.0, abs=1e-6)

    def test_bounded_by_pdms_attenuation(self, contact):
        sweep = np.linspace(0.0, 3 * contact.optimal_hold_down_pa, 100)
        assert np.all(contact.transmission(sweep) <= contact.pdms_attenuation)

    def test_rejects_negative_hold_down(self, contact):
        with pytest.raises(ConfigurationError):
            contact.transmission(-1.0)


class TestPDMS:
    def test_attenuation_in_unit_interval(self, contact):
        assert 0.0 < contact.pdms_attenuation < 1.0

    def test_pdms_much_stiffer_than_tissue(self, contact):
        """The default PDMS barely attenuates — the reason the paper can
        afford the protective layer."""
        assert contact.pdms_attenuation > 0.9

    def test_thicker_pdms_attenuates_more(self):
        thin = ContactModel(contact=ContactParams(pdms_thickness_m=100e-6))
        thick = ContactModel(contact=ContactParams(pdms_thickness_m=2000e-6))
        assert thick.pdms_attenuation < thin.pdms_attenuation


class TestState:
    def test_default_uses_params(self, contact):
        state = contact.state()
        assert state.hold_down_pa == contact.contact.hold_down_pa

    def test_static_pressure_subtracts_backpressure(self, contact):
        state = contact.state(10e3)
        assert state.static_membrane_pressure_pa == pytest.approx(
            10e3 - contact.contact.backpressure_pa
        )

    def test_optimum_is_map(self):
        map_pa = 95.0 * PASCAL_PER_MMHG
        model = ContactModel(mean_arterial_pressure_pa=map_pa)
        assert model.optimal_hold_down_pa == pytest.approx(map_pa)

    def test_rejects_bad_map(self):
        with pytest.raises(ConfigurationError):
            ContactModel(mean_arterial_pressure_pa=0.0)
