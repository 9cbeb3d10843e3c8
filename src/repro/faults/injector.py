"""Deterministic fault injection across the acquisition pipeline.

A :class:`FaultInjector` resolves a list of :class:`~repro.faults.spec.
FaultSpec` processes into a concrete event schedule *at construction
time*, from ``SeedSequence`` children spawned per spec — no randomness
is consumed while the pipeline runs, so the same seed gives the same
faults for any chunking of the input and any worker count. Binding the
injector to a chain (:meth:`FaultInjector.bind`) converts event times to
indices on the three pipeline timelines:

* modulator samples (128 kS/s) for array- and sdm-layer windows,
* decimated words (1 kS/s) for FPGA word corruption,
* USB frames for link faults.

:class:`~repro.core.session.AcquisitionSession` wires the ``apply_*``
hooks into the matching pipeline stages (the chip and FPGA taps through
:meth:`FaultInjector.wired`); each hook keeps a global position counter
so events land at the same absolute sample no matter how the session is
chunked.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..daq.usb import split_frames
from ..errors import ConfigurationError
from .spec import FaultEvent, FaultSpec

#: Fraction of the membrane's safe pressure range that injected drift is
#: clamped into (the membrane model raises on true overpressure, which
#: would abort the acquisition instead of degrading it).
_MEMBRANE_GUARD = 0.98


class FaultInjector:
    """Schedules and applies seeded faults at every pipeline layer.

    Parameters
    ----------
    specs:
        Fault processes to schedule. Each spec gets its own spawned
        ``SeedSequence`` child, so adding a spec never changes the
        events another spec produces.
    seed:
        Master entropy for the schedule.
    horizon_s:
        Scheduling horizon for rate-driven specs (events are drawn over
        ``[0, horizon_s)``); feed data past the horizon runs fault-free.

    One injector drives one acquisition: positions reset when a session
    binds it, so reusing the instance replays the identical schedule on
    the next session.
    """

    def __init__(
        self,
        specs: list[FaultSpec] | tuple[FaultSpec, ...],
        seed: int = 0,
        horizon_s: float = 64.0,
    ):
        if horizon_s <= 0:
            raise ConfigurationError("fault horizon must be positive")
        self.specs = tuple(specs)
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(
                    "faults must be FaultSpec instances"
                )
        self.seed = int(seed)
        self.horizon_s = float(horizon_s)
        self.events: tuple[FaultEvent, ...] = self._schedule()
        self._bound = False
        self.applied: list[FaultEvent] = []
        self._applied_ids: set[int] = set()
        self.reset()

    # -- scheduling --------------------------------------------------------

    def _schedule(self) -> tuple[FaultEvent, ...]:
        events: list[FaultEvent] = []
        for index, spec in enumerate(self.specs):
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    entropy=self.seed, spawn_key=(index,)
                )
            )
            if spec.start_s is not None:
                starts = np.array([float(spec.start_s)])
            else:
                count = int(rng.poisson(spec.rate_hz * self.horizon_s))
                starts = np.sort(rng.uniform(0.0, self.horizon_s, count))
            details = rng.uniform(size=starts.size)
            for start, detail in zip(starts, details):
                events.append(
                    FaultEvent(
                        spec_index=index,
                        kind=spec.kind,
                        layer=spec.layer,
                        start_s=float(start),
                        duration_s=float(spec.duration_s),
                        magnitude=float(spec.magnitude),
                        detail=float(detail),
                    )
                )
        events.sort(key=lambda e: (e.start_s, e.spec_index))
        return tuple(events)

    # -- binding -----------------------------------------------------------

    def bind(self, chain) -> None:
        """Resolve event times to the chain's pipeline timelines.

        Called by :class:`~repro.core.session.AcquisitionSession` when a
        session opens with this injector; also resets the runtime
        positions, so the schedule replays from t=0.
        """
        fs = float(chain.params.modulator.sampling_rate_hz)
        out_rate = float(chain.output_rate_hz)
        self._fs = fs
        self._full_scale = float(chain.chip.modulator.input_full_scale)
        lo, hi = chain.chip.array.sensor.pressure_range_pa
        self._pressure_clamp = (
            float(lo) * _MEMBRANE_GUARD,
            float(hi) * _MEMBRANE_GUARD,
        )
        spf = int(chain.fpga.encoder.samples_per_frame)

        self._array_windows: list[tuple[int, int, FaultEvent]] = []
        self._sdm_windows: list[tuple[int, int, FaultEvent]] = []
        self._word_events: list[tuple[int, FaultEvent]] = []
        self._frame_events: dict[int, list[FaultEvent]] = {}
        for event in self.events:
            if event.layer in ("array", "sdm"):
                i0 = int(round(event.start_s * fs))
                i1 = i0 + max(1, int(round(event.duration_s * fs)))
                target = (
                    self._array_windows
                    if event.layer == "array"
                    else self._sdm_windows
                )
                target.append((i0, i1, event))
            elif event.layer == "fpga":
                self._word_events.append(
                    (int(round(event.start_s * out_rate)), event)
                )
            else:  # usb
                frame = int(event.start_s * out_rate / spf)
                self._frame_events.setdefault(frame, []).append(event)
        self._word_events.sort(key=lambda we: we[0])
        self._bound = True
        self.reset()

    def reset(self) -> None:
        """Rewind the runtime position counters and the applied log."""
        self._array_pos = 0
        self._sdm_pos = 0
        self._bit_pos = 0
        self._word_pos = 0
        self._frame_pos = 0
        self._stiction_hold: dict[int, np.ndarray] = {}
        self._reorder_pending = b""
        self.applied = []
        self._applied_ids = set()

    def bind_link(self, frames_per_second: float) -> None:
        """Resolve USB-layer events straight to frame indices — no chain.

        Link-level binding for device-link chaos (the acquisition
        gateway's wire): every spec must be a usb-layer kind, and an
        event at ``start_s`` lands on frame ``int(start_s *
        frames_per_second)``. The ``apply_payload`` hook then works on
        raw framed payloads without a bound
        :class:`~repro.core.chain.ReadoutChain`.
        """
        if frames_per_second <= 0:
            raise ConfigurationError("frame rate must be positive")
        offenders = sorted(
            {spec.kind for spec in self.specs if spec.layer != "usb"}
        )
        if offenders:
            raise ConfigurationError(
                f"bind_link only supports usb-layer faults; got "
                f"{', '.join(offenders)} (bind a chain for those)"
            )
        self._array_windows = []
        self._sdm_windows = []
        self._word_events = []
        self._frame_events = {}
        for event in self.events:
            frame = int(event.start_s * frames_per_second)
            self._frame_events.setdefault(frame, []).append(event)
        self._bound = True
        self.reset()

    @contextmanager
    def wired(self, chain):
        """Install the chip and FPGA hooks on ``chain`` for a block.

        The loop-input and word hooks always; the bitstream hook only
        when a ``stuck_comparator`` event is scheduled, because a
        tapped bitstream sends the lane through the engine's per-lane
        loop instead of the fused kernel. The chain's previous hooks
        come back on every exit, an exception included, so a failed
        feed never leaves faults on the chain.
        """
        chip, fpga = chain.chip, chain.fpga
        saved = chip.loop_input_hook, chip.bitstream_hook, fpga.word_hook
        chip.loop_input_hook = self.apply_loop_input
        if any(e.kind == "stuck_comparator" for _, _, e in self._sdm_windows):
            chip.bitstream_hook = self.apply_bitstream
        fpga.word_hook = self.apply_words
        try:
            yield
        finally:
            chip.loop_input_hook, chip.bitstream_hook, fpga.word_hook = saved

    def _require_bound(self) -> None:
        if not self._bound:
            raise ConfigurationError(
                "FaultInjector must be bound to a chain before applying "
                "faults (AcquisitionSession does this automatically)"
            )

    def _mark_applied(self, event: FaultEvent) -> None:
        event_id = id(event)
        if event_id not in self._applied_ids:
            self._applied_ids.add(event_id)
            self.applied.append(event)

    @property
    def events_applied(self) -> int:
        """Distinct scheduled events that have touched data so far."""
        return len(self.applied)

    def applied_windows(self) -> list[tuple[str, str, float, float]]:
        """(kind, layer, start_s, end_s) of every applied event."""
        return [
            (
                e.kind,
                e.layer,
                e.start_s,
                e.end_s if e.is_window() else e.start_s,
            )
            for e in self.applied
        ]

    # -- pipeline hooks ----------------------------------------------------

    @staticmethod
    def _overlap(
        i0: int, i1: int, pos: int, length: int
    ) -> tuple[int, int] | None:
        a = max(i0 - pos, 0)
        b = min(i1 - pos, length)
        return (a, b) if a < b else None

    def apply_array(self, pressures: np.ndarray) -> np.ndarray:
        """Array-layer faults on one (n, n_elements) pressure chunk."""
        self._require_bound()
        pos, n = self._array_pos, pressures.shape[0]
        self._array_pos += n
        out = pressures
        for i0, i1, event in self._array_windows:
            span = self._overlap(i0, i1, pos, n)
            if span is None:
                continue
            a, b = span
            if out is pressures:
                out = pressures.copy()
            if event.kind == "element_dropout":
                out[a:b, :] = 0.0
            elif event.kind == "element_stiction":
                event_id = id(event)
                if event_id not in self._stiction_hold:
                    # Freeze at the field value where the event begins
                    # (chunking-invariant: the start row is reached
                    # exactly once).
                    self._stiction_hold[event_id] = out[a].copy()
                out[a:b, :] = self._stiction_hold[event_id]
            else:  # capacitance_drift: baseline ramps at magnitude Pa/s
                since_onset = pos + a - i0  # samples since event onset
                t_rel = (
                    np.arange(b - a, dtype=float) + since_onset
                ) / self._fs
                out[a:b, :] = np.clip(
                    out[a:b, :] + event.magnitude * t_rel[:, None],
                    self._pressure_clamp[0],
                    self._pressure_clamp[1],
                )
            self._mark_applied(event)
        return out

    def apply_loop_input(self, u: np.ndarray) -> np.ndarray:
        """sdm_saturation: pin the loop input at magnitude × full scale."""
        self._require_bound()
        pos, n = self._sdm_pos, u.shape[0]
        self._sdm_pos += n
        out = u
        for i0, i1, event in self._sdm_windows:
            if event.kind != "sdm_saturation":
                continue
            span = self._overlap(i0, i1, pos, n)
            if span is None:
                continue
            a, b = span
            if out is u:
                out = u.copy()
            out[a:b] = event.magnitude * self._full_scale
            self._mark_applied(event)
        return out

    def apply_bitstream(self, bits: np.ndarray) -> np.ndarray:
        """stuck_comparator: force the quantizer output to one rail."""
        self._require_bound()
        pos, n = self._bit_pos, bits.shape[0]
        self._bit_pos += n
        out = bits
        for i0, i1, event in self._sdm_windows:
            if event.kind != "stuck_comparator":
                continue
            span = self._overlap(i0, i1, pos, n)
            if span is None:
                continue
            a, b = span
            if out is bits:
                out = bits.copy()
            out[a:b] = 1 if event.magnitude >= 0 else -1
            self._mark_applied(event)
        return out

    def apply_words(self, codes: np.ndarray) -> np.ndarray:
        """word_corruption: XOR scheduled decimated words with the mask."""
        self._require_bound()
        pos, n = self._word_pos, codes.shape[0]
        self._word_pos += n
        out = codes
        for word, event in self._word_events:
            if not pos <= word < pos + n:
                continue
            if out is codes:
                out = codes.astype(np.int64, copy=True)
            out[word - pos] = int(out[word - pos]) ^ int(event.magnitude)
            self._mark_applied(event)
        return out

    def apply_payload(self, payload: bytes) -> bytes:
        """USB-layer faults: drop, truncate or bit-flip whole frames.

        The payload is the encoder's output — a concatenation of
        well-formed frames — so :func:`~repro.daq.usb.split_frames` walks
        it frame by frame.
        """
        self._require_bound()
        out = bytearray()
        for frame in split_frames(payload):
            hold = False
            for event in self._frame_events.get(self._frame_pos, ()):
                if event.kind == "frame_reorder":
                    hold = True
                    self._mark_applied(event)
                    continue
                frame = self._mangle_frame(frame, event)
                self._mark_applied(event)
                if not frame:
                    break
            if hold and frame:
                # Held back: delivered right after the next frame that
                # goes out (possibly in a later payload). A held frame
                # the stream never follows up on simply stays undelivered
                # — tail loss, visible as an unaccounted frame.
                self._reorder_pending += frame
            else:
                out += frame
                if self._reorder_pending:
                    out += self._reorder_pending
                    self._reorder_pending = b""
            self._frame_pos += 1
        return bytes(out)

    @staticmethod
    def _mangle_frame(frame: bytes, event: FaultEvent) -> bytes:
        if event.kind == "frame_drop":
            return b""
        if event.kind == "frame_truncation":
            keep = max(1, int(len(frame) * event.magnitude))
            return frame[:keep]
        # frame_bitflip: byte and bit position from the seeded detail.
        mangled = bytearray(frame)
        byte = min(int(event.detail * len(mangled)), len(mangled) - 1)
        bit = int(event.detail * 65536) % 8
        mangled[byte] ^= 1 << bit
        return bytes(mangled)
