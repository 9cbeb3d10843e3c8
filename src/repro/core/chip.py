"""The monolithic sensor chip: everything inside the die of Fig. 5.

A 2x2 membrane array with reference structure, the row/column analog
multiplexers, the capacitive front end and the second-order single-bit
sigma-delta modulator — one object with the two acquisition paths the
silicon offers:

* :meth:`acquire_pressure` — transducer path (Figs. 3/4/6),
* :meth:`acquire_voltage` — the differential voltage test input used for
  the Fig. 7 characterization.
"""

from __future__ import annotations

import numpy as np

from ..array.array2d import SensorArray
from ..array.mux import AnalogMultiplexer
from ..errors import ConfigurationError
from ..params import SystemParams
from ..sdm.frontend import CapacitiveFrontEnd, VoltageFrontEnd
from ..sdm.modulator import ModulatorOutput, SecondOrderSDM


class SensorChip:
    """The fabricated device, behaviourally.

    Parameters
    ----------
    params:
        Full system parameters (paper defaults via
        :func:`repro.params.paper_defaults`).
    rng:
        Randomness for mismatch and analog noise; seeded default.
    backend:
        Modulator simulation backend, ``"fast"`` (default) or
        ``"reference"`` — see
        :class:`~repro.sdm.modulator.SecondOrderSDM`.
    """

    def __init__(
        self,
        params: SystemParams | None = None,
        rng: np.random.Generator | None = None,
        backend: str = "fast",
    ):
        self.params = params or SystemParams()
        rng = rng or np.random.default_rng(1958)
        self.array = SensorArray(self.params.array, rng=rng)
        self.mux = AnalogMultiplexer(self.array)
        self.frontend = CapacitiveFrontEnd(
            reference_cap_f=self.array.reference_cap_f,
            feedback_cap_f=self.params.frontend.feedback_cap_f,
            excitation_fraction=self.params.frontend.excitation_fraction,
        )
        self.voltage_input = VoltageFrontEnd(vref_v=self.params.modulator.vref_v)
        self.modulator = SecondOrderSDM(
            params=self.params.modulator,
            nonideality=self.params.nonideality,
            rng=rng,
            backend=backend,
        )
        #: Optional tap on the modulator loop input (FS units), applied
        #: by both acquisition paths just before conversion — the fault
        #: injector's sdm-saturation hook.
        self.loop_input_hook = None
        #: Optional tap on the bitstream, set only by a fault injector
        #: (its stuck-comparator hook). The session engine applies it
        #: between the modulator and the decimation filter, on its
        #: per-lane path; :meth:`acquire_pressure` and
        #: :meth:`acquire_voltage` return the untapped bits.
        self.bitstream_hook = None

    # -- element selection -------------------------------------------------

    def select_element(self, index: int) -> None:
        """Drive the row/column multiplexers to an element."""
        self.mux.select_index(index)

    @property
    def selected_element(self) -> int:
        return self.mux.selected

    @property
    def sampling_rate_hz(self) -> float:
        return self.params.modulator.sampling_rate_hz

    # -- resumable state ---------------------------------------------------

    def state_snapshot(self):
        """Resumable modulator state at a chunk boundary.

        Both backends resume bit-exactly from a snapshot (the fast
        kernel and the reference loop carry identical state), which is
        what lets :class:`~repro.core.session.AcquisitionSession`
        suspend an acquisition between chunks.
        """
        return self.modulator.state_snapshot()

    def restore_state(self, state) -> None:
        """Resume the modulator from a :meth:`state_snapshot`."""
        self.modulator.restore_state(state)

    # -- acquisition paths -----------------------------------------------------

    def acquire_pressure(
        self, element_pressures_pa: np.ndarray
    ) -> ModulatorOutput:
        """Convert membrane pressures on the selected element to bits.

        Parameters
        ----------
        element_pressures_pa:
            (n_samples, n_elements) membrane pressure field sampled at
            the modulator clock; only the selected element's column is
            routed (the others exist because the physics computes the
            whole field).
        """
        pressures = np.asarray(element_pressures_pa, dtype=float)
        if pressures.ndim != 2:
            raise ConfigurationError(
                "expected (n_samples, n_elements) pressures"
            )
        caps = self.mux.routed_capacitance_f(pressures)
        u = self.frontend.loop_input(caps)
        if self.loop_input_hook is not None:
            u = self.loop_input_hook(u)
        return self.modulator.simulate(u)

    def acquire_pressure_scan(
        self, element_pressures_pa: np.ndarray, dwell_samples: int
    ) -> list[ModulatorOutput]:
        """Convert a row-major scan as a bank of matched modulators.

        Element k is selected and converts samples ``[k*dwell,
        (k+1)*dwell)`` of the field through :meth:`acquire_pressure`,
        each visit from the modulator's pre-scan analog state rather
        than the previous element's final state (which only perturbs
        the post-switch transient the decimation filter flushes anyway).
        The modulator's state is restored afterwards; the last element
        stays selected.
        """
        pressures = np.asarray(element_pressures_pa, dtype=float)
        n_elements = self.array.n_elements
        if pressures.ndim != 2 or pressures.shape[1] != n_elements:
            raise ConfigurationError("expected shape (n_samples, n_elements)")
        if dwell_samples < 1 or pressures.shape[0] < dwell_samples * n_elements:
            raise ConfigurationError("pressure field too short for the scan")
        saved = self.state_snapshot()
        outputs = []
        try:
            for k in range(n_elements):
                self.restore_state(saved)
                self.select_element(k)
                window = pressures[k * dwell_samples : (k + 1) * dwell_samples]
                outputs.append(self.acquire_pressure(window))
        finally:
            self.restore_state(saved)
        return outputs

    def acquire_voltage(
        self, differential_voltage_v: np.ndarray
    ) -> ModulatorOutput:
        """Convert a differential test voltage to bits (Fig. 7 path)."""
        u = self.voltage_input.loop_input(
            np.asarray(differential_voltage_v, dtype=float)
        )
        if self.loop_input_hook is not None:
            u = self.loop_input_hook(u)
        return self.modulator.simulate(u)

    # -- derived figures --------------------------------------------------------

    def pressure_to_loop_gain(self) -> float:
        """End-to-end small-signal gain d(u)/d(P_membrane) [1/Pa] at
        zero membrane pressure."""
        sens = self.array.sensor.pressure_sensitivity_f_per_pa(0.0)
        return sens * self.frontend.gain_per_farad

    def full_scale_pressure_pa(self) -> float:
        """Membrane pressure swing mapping to the modulator full scale."""
        gain = self.pressure_to_loop_gain()
        if gain == 0:
            raise ConfigurationError("degenerate transducer gain")
        return self.modulator.input_full_scale / gain

    def describe(self) -> str:
        gain = self.pressure_to_loop_gain()
        return "\n".join(
            [
                "SensorChip",
                self.array.describe(),
                self.modulator.describe(),
                f"  front-end Cfb   : "
                f"{self.params.frontend.feedback_cap_f * 1e15:.0f} fF",
                f"  pressure gain   : {gain:.3e} FS/Pa "
                f"(full scale {self.full_scale_pressure_pa() / 1e3:.1f} kPa)",
            ]
        )
