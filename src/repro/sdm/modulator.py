"""Cycle-accurate behavioural second-order sigma-delta modulator.

The complete readout loop of Fig. 6: two SC integrator stages, a single-
bit comparator and a capacitive feedback DAC, clocked at 128 kS/s. The
simulation advances the difference equations of :mod:`.topology` sample by
sample, injecting physically-scaled analog noise (kT/C, flicker,
reference noise, clock jitter) from :mod:`.nonidealities`.

All loop quantities are normalized to the reference voltage; the input
``u`` comes from :class:`~repro.sdm.frontend.CapacitiveFrontEnd` or
:class:`~repro.sdm.frontend.VoltageFrontEnd`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import native
from ..errors import ConfigurationError
from ..params import ModulatorParams, NonidealityParams
from .comparator import Comparator
from .feedback import FeedbackDAC
from .integrator import SCIntegrator
from .nonidealities import FlickerNoiseGenerator, integrator_noise_sigma_v
from .topology import LoopCoefficients

BACKENDS = ("reference", "fast")


@dataclass(frozen=True)
class ModulatorOutput:
    """Result of a modulator run."""

    bitstream: np.ndarray  # int8 array of +/-1
    clipped_samples: int  # cycles in which an integrator hit its swing

    @property
    def mean(self) -> float:
        """Average of the bitstream = DC estimate in Vref units."""
        return float(np.mean(self.bitstream)) if self.bitstream.size else 0.0


@dataclass(frozen=True)
class ModulatorState:
    """Resumable analog state of the loop between ``simulate`` calls.

    Everything a streaming session needs to suspend and resume a
    conversion at a chunk boundary: the two integrator voltages, the
    comparator's last decision (hysteresis memory) and the last input
    sample (the jitter slope at the next chunk's first sample needs it).
    RNG positions are *not* part of the snapshot — restoring state fans
    out fresh noise, which is what the bank scan wants.
    """

    x1: float
    x2: float
    comparator_previous: int
    last_input: float | None


class SecondOrderSDM:
    """The paper's readout modulator, ready to stream.

    Parameters
    ----------
    params:
        Clocking/reference/loop-scaling parameters (paper defaults).
    nonideality:
        Analog imperfection budget; ``NonidealityParams.ideal()`` gives
        the textbook loop.
    coefficients:
        Loop scaling override; defaults to Boser-Wooley 0.5/0.5 with the
        first-stage feedback scaled by ``params.feedback_ratio / 0.5``.
    dac:
        Feedback DAC override (for the future-work Cfb ablation).
    rng:
        Random generator; a fixed default keeps runs reproducible.
    backend:
        ``"fast"`` (default) runs the recurrence through the compiled
        loop (the fused chain kernel's one-lane body with a bitstream
        output, :func:`repro.batch.kernel.run_bits`) whenever
        :meth:`compiled_loop_ok`, and through the reference loop
        otherwise. ``"reference"`` pins the original cycle-accurate
        Python loop. Both produce bit-identical bitstreams, so the
        switch trades only wall-time.
    """

    def __init__(
        self,
        params: ModulatorParams | None = None,
        nonideality: NonidealityParams | None = None,
        coefficients: LoopCoefficients | None = None,
        dac: FeedbackDAC | None = None,
        rng: np.random.Generator | None = None,
        backend: str = "fast",
    ):
        self.params = params or ModulatorParams()
        self.nonideality = nonideality or NonidealityParams()
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        self.backend = backend
        if dac is not None and coefficients is not None:
            raise ConfigurationError(
                "pass either coefficients or a dac (which carries its own), "
                "not both"
            )
        if dac is not None:
            self.coefficients = dac.coefficients
            self.dac = dac
        else:
            base = coefficients or LoopCoefficients(
                a1=self.params.a1,
                a2=self.params.a2,
                b1=self.params.feedback_ratio,
                b2=self.params.a2,
            )
            self.coefficients = base
            # Share the caller's coefficients object with the DAC (a
            # field-by-field copy here would let the two silently diverge
            # if coefficients are ever mutated or subclassed).
            self.dac = FeedbackDAC(coefficients=base, cfb_ratio=1.0)
        self.rng = rng or np.random.default_rng(20040216)
        # Independent child streams, one per stochastic term. Each term
        # consumes its own stream sequentially, so splitting a record
        # into chunks draws exactly the values one monolithic call
        # would — the property the streaming acquisition sessions rely
        # on for bit-identical chunked output. (A single shared stream
        # would interleave terms differently per block size.)
        try:
            children = self.rng.spawn(4)
        except (AttributeError, TypeError):  # pragma: no cover
            children = [
                np.random.default_rng(int(self.rng.integers(0, 2**63)))
                for _ in range(4)
            ]
        self._jitter_rng, self._noise_rng, self._dac_rng, flicker_rng = children
        #: Last raw input sample of the previous ``simulate`` call (None
        #: at stream start) — carries the jitter slope across chunks.
        self._last_input: float | None = None

        ni = self.nonideality
        self.comparator = Comparator(
            offset_v=ni.comparator_offset_v / self.params.vref_v,
            hysteresis_v=ni.comparator_hysteresis_v / self.params.vref_v,
        )
        self.stage1 = SCIntegrator(
            signal_gain=self.coefficients.a1,
            feedback_gain=self.coefficients.b1,
            opamp_gain=ni.opamp_gain,
        )
        self.stage2 = SCIntegrator(
            signal_gain=self.coefficients.a2,
            feedback_gain=self.coefficients.b2,
            opamp_gain=ni.opamp_gain,
        )
        # Input-referred white noise per sample, in Vref units.
        self._noise_sigma_u = (
            integrator_noise_sigma_v(
                ni.sampling_cap_f, ni.temperature_k
            )
            / self.params.vref_v
        )
        self._flicker = (
            FlickerNoiseGenerator(
                corner_hz=ni.flicker_corner_hz,
                white_sigma=self._noise_sigma_u,
                sample_rate_hz=self.params.sampling_rate_hz,
                rng=flicker_rng,
            )
            if ni.flicker_corner_hz > 0
            else None
        )

    # -- public API -----------------------------------------------------------

    def reset(self) -> None:
        """Clear integrators, comparator memory and flicker state."""
        self.stage1.reset()
        self.stage2.reset()
        self.comparator.reset()
        self._last_input = None
        if self._flicker is not None:
            self._flicker.reset()

    def state_snapshot(self) -> ModulatorState:
        """Capture the resumable analog state (chunk-boundary suspend)."""
        return ModulatorState(
            x1=self.stage1.state,
            x2=self.stage2.state,
            comparator_previous=self.comparator._previous,
            last_input=self._last_input,
        )

    def restore_state(self, state: ModulatorState) -> None:
        """Resume from a :meth:`state_snapshot` (RNG streams untouched)."""
        self.stage1.state = state.x1
        self.stage2.state = state.x2
        self.comparator._previous = state.comparator_previous
        self._last_input = state.last_input

    def compiled_loop_ok(self) -> bool:
        """Whether the compiled loop may run this modulator.

        True when the backend is ``"fast"`` and the native library is
        loaded. :meth:`simulate`, the batch engine and the fused scan
        all ask this one predicate.
        """
        return self.backend == "fast" and native.available()

    def is_deterministic(self) -> bool:
        """Whether :meth:`_prepare_inputs` draws nothing.

        True without clock jitter, thermal or flicker noise and DAC
        reference noise. Its work is then the identity transform plus
        the jitter-slope carry, which the batch engine replays without
        calling it and the fused scan needs (it cannot replay the bank
        scan's visit-by-visit draw order).
        """
        return not (
            self.nonideality.clock_jitter_s > 0.0
            or self._noise_sigma_u > 0.0
            or self._flicker is not None
            or self.dac.reference_noise_sigma > 0.0
        )

    def kernel_coefficients(self) -> tuple[float, ...]:
        """The compiled loop's per-lane constants, in kernel order.

        ``(dac_gain, p1, b1, p2, a2, b2, swing, comp_offset,
        comp_hysteresis)``: DAC gain, the two integrators' leaks and
        gains, the swing limit and the comparator's offset and
        hysteresis (zero for an ideal comparator). The input gain
        ``a1`` is not among them; callers stage ``a1 * u``.
        """
        s1, s2, comp = self.stage1, self.stage2, self.comparator
        ideal = comp.is_ideal()
        return (
            1.0 + self.dac.reference_error,
            s1.leak,
            s1.feedback_gain * s1.gain_error,
            s2.leak,
            s2.signal_gain * s2.gain_error,
            s2.feedback_gain * s2.gain_error,
            s1.swing_limit,
            0.0 if ideal else comp.offset_v,
            0.0 if ideal else comp.hysteresis_v,
        )

    @property
    def input_full_scale(self) -> float:
        """Largest DC input (Vref units) the loop can represent."""
        return self.coefficients.input_full_scale

    @property
    def recommended_max_amplitude(self) -> float:
        """Practical stable sine amplitude (~75 % of the hard full scale)."""
        return 0.75 * self.input_full_scale

    def simulate(self, loop_input: np.ndarray) -> ModulatorOutput:
        """Run the loop over a normalized input sequence.

        ``loop_input`` is u[n] in Vref units, one entry per modulator
        clock. The swing limiter acts on overload and the clipped cycles
        are counted. State persists across calls: consecutive
        ``simulate`` calls continue the same analog history, as a
        streaming chip would.
        """
        u = np.asarray(loop_input, dtype=float)
        if u.ndim != 1:
            raise ConfigurationError("loop input must be a 1-D sequence")
        if u.size == 0:
            return ModulatorOutput(
                bitstream=np.zeros(0, dtype=np.int8), clipped_samples=0
            )
        return self._run_prepared(*self._prepare_inputs(u))

    def _prepare_inputs(
        self, u: np.ndarray, out=None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, float]:
        """Draw every stochastic term for a block, shared by both backends.

        Every stochastic term draws from its own child stream (see
        ``__init__``), so each term's draw positions depend only on how
        many samples have been simulated — not on how the record was
        chunked. With equal RNG state both backends, and any chunking of
        the same record, consume identical streams, which is what makes
        them bit-identical rather than merely statistically equivalent.

        ``out`` optionally names where the block lands, as ``(u_row,
        noise_row, dac_row, work)``: contiguous float64 rows of ``n``
        samples for the jittered input (written only when the clock has
        jitter; ``u`` itself is allowed, and is then updated in place),
        the integrator noise and the DAC noise, plus a ``(2, n)`` scratch
        for the jitter term. A ``None`` entry is allocated here when it
        is needed. The values do not depend on where they land; the
        batch engine passes its staging rows so that staging a lane
        allocates and copies nothing.
        """
        n = u.size
        u_row, noise, dac_noise, work = (None,) * 4 if out is None else out
        ni = self.nonideality
        fs = self.params.sampling_rate_hz
        last_input = self._last_input
        self._last_input = float(u[-1])
        # Clock jitter: error = delta_t * du/dt, applied to the input.
        if ni.clock_jitter_s > 0.0:
            slope, jitter = np.empty((2, n)) if work is None else work
            np.subtract(u[1:], u[:-1], out=slope[1:])
            np.multiply(slope[1:], fs, out=slope[1:])
            if last_input is not None:
                # Chunk continuation: the slope at the chunk's first
                # sample differences against the previous chunk's last
                # sample, exactly as an unchunked call would at the
                # same position.
                slope[0] = (u[0] - last_input) * fs
            else:
                slope[0] = slope[1] if n > 1 else 0.0
            self._jitter_rng.standard_normal(out=jitter)
            np.multiply(jitter, ni.clock_jitter_s, out=jitter)
            np.multiply(jitter, slope, out=jitter)
            u = np.add(u, jitter, out=np.empty(n) if u_row is None else u_row)

        # Per-sample analog noise entering the first integrator.
        if noise is None:
            noise = np.empty(n)
        if self._noise_sigma_u > 0.0:
            self._noise_rng.standard_normal(out=noise)
            np.multiply(noise, self._noise_sigma_u, out=noise)
        else:
            noise.fill(0.0)
        if self._flicker is not None:
            np.add(noise, self._flicker.sample_block(n), out=noise)
        # Un-shaped DAC reference noise adds at the same node.
        if self.dac.reference_noise_sigma > 0.0:
            if dac_noise is None:
                dac_noise = np.empty(n)
            self._dac_rng.standard_normal(out=dac_noise)
            np.multiply(dac_noise, self.dac.reference_noise_sigma, out=dac_noise)
        else:
            dac_noise = None
        dac_gain = 1.0 + self.dac.reference_error
        return u, noise, dac_noise, dac_gain

    def _run_prepared(
        self,
        u: np.ndarray,
        noise: np.ndarray,
        dac_noise: np.ndarray | None,
        dac_gain: float,
    ) -> ModulatorOutput:
        """Run a prepared block through the one loop dispatch.

        The compiled loop takes the block when :meth:`compiled_loop_ok`;
        otherwise :meth:`_simulate_reference` does.
        """
        if not self.compiled_loop_ok():
            return self._simulate_reference(u, noise, dac_noise, dac_gain)
        # Imported lazily: repro.batch imports this package.
        from ..batch.kernel import run_bits

        s1, s2 = self.stage1, self.stage2
        comp = self.comparator
        bits, clipped, s1.state, s2.state, previous = run_bits(
            s1.signal_gain * s1.gain_error * u,
            noise,
            dac_noise,
            self.kernel_coefficients(),
            s1.state,
            s2.state,
            comp.previous_decision,
        )
        if not comp.is_ideal():
            # The ideal comparator has no memory; the reference loop
            # leaves its _previous untouched, so mirror that.
            comp._previous = previous
        return ModulatorOutput(bitstream=bits, clipped_samples=clipped)

    def _simulate_reference(
        self,
        u: np.ndarray,
        noise: np.ndarray,
        dac_noise: np.ndarray | None,
        dac_gain: float,
    ) -> ModulatorOutput:
        """The original cycle-accurate Python loop (the ground truth)."""
        n = u.size
        bits = np.empty(n, dtype=np.int8)
        clipped = 0

        # Local bindings for the hot loop.
        s1, s2 = self.stage1, self.stage2
        comp = self.comparator
        fast_comparator = comp.is_ideal()
        a1, b1 = s1.signal_gain * s1.gain_error, s1.feedback_gain * s1.gain_error
        a2, b2 = s2.signal_gain * s2.gain_error, s2.feedback_gain * s2.gain_error
        p1, p2 = s1.leak, s2.leak
        swing = s1.swing_limit
        x1, x2 = s1.state, s2.state

        for i in range(n):
            if fast_comparator:
                v = 1.0 if x2 >= 0.0 else -1.0
            else:
                v = float(comp.decide(x2))
            fb = v * dac_gain
            if dac_noise is not None:
                fb += dac_noise[i]
            x1_new = p1 * x1 + a1 * u[i] - b1 * fb + noise[i]
            x2_new = p2 * x2 + a2 * x1 - b2 * fb
            if x1_new > swing or x1_new < -swing or x2_new > swing or x2_new < -swing:
                clipped += 1
                x1_new = min(max(x1_new, -swing), swing)
                x2_new = min(max(x2_new, -swing), swing)
            x1, x2 = x1_new, x2_new
            bits[i] = 1 if v > 0 else -1

        s1.state, s2.state = x1, x2
        return ModulatorOutput(bitstream=bits, clipped_samples=clipped)

    def describe(self) -> str:
        """Human-readable configuration summary."""
        c = self.coefficients
        return "\n".join(
            [
                "SecondOrderSDM",
                f"  fs              : {self.params.sampling_rate_hz / 1e3:.0f} kS/s",
                f"  OSR / out rate  : {self.params.osr} / "
                f"{self.params.output_rate_hz:.0f} S/s",
                f"  coefficients    : a1={c.a1} a2={c.a2} b1={c.b1} b2={c.b2}",
                f"  input full scale: {self.input_full_scale:.3f} Vref",
                f"  noise sigma     : {self._noise_sigma_u * 1e6:.2f} uVref/sample",
            ]
        )
