"""Fault schedules and per-layer application: deterministic, chunk-invariant."""

import numpy as np
import pytest

from repro.core.chain import ReadoutChain
from repro.daq.usb import FrameDecoder, FrameEncoder
from repro.errors import ConfigurationError
from repro.faults import FAULT_KINDS, KIND_LAYERS, FaultInjector, FaultSpec


def bound_injector(specs, seed=7, horizon_s=2.0):
    injector = FaultInjector(specs, seed=seed, horizon_s=horizon_s)
    injector.bind(ReadoutChain())
    return injector


class TestSpecValidation:
    def test_every_kind_has_a_layer(self):
        assert set(FAULT_KINDS) == set(KIND_LAYERS)
        assert set(KIND_LAYERS.values()) == {"array", "sdm", "fpga", "usb"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("cosmic_ray", rate_hz=1.0)

    def test_needs_rate_or_start(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("frame_drop")

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("frame_drop", rate_hz=-1.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("element_dropout", start_s=0.1, duration_s=0.0)

    def test_word_mask_must_be_at_least_one(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("word_corruption", start_s=0.1, magnitude=0.0)

    def test_truncation_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("frame_truncation", start_s=0.1, magnitude=1.0)
        with pytest.raises(ConfigurationError):
            FaultSpec("frame_truncation", start_s=0.1, magnitude=0.0)


class TestScheduling:
    def test_same_seed_same_schedule(self):
        specs = [FaultSpec("frame_drop", rate_hz=3.0)]
        a = FaultInjector(specs, seed=42, horizon_s=8.0)
        b = FaultInjector(specs, seed=42, horizon_s=8.0)
        assert a.events == b.events

    def test_different_seed_different_schedule(self):
        specs = [FaultSpec("frame_drop", rate_hz=3.0)]
        a = FaultInjector(specs, seed=1, horizon_s=8.0)
        b = FaultInjector(specs, seed=2, horizon_s=8.0)
        assert a.events != b.events

    def test_spec_schedules_are_independent(self):
        """Adding a spec must not perturb another spec's events."""
        drop = FaultSpec("frame_drop", rate_hz=2.0)
        alone = FaultInjector([drop], seed=9, horizon_s=8.0)
        paired = FaultInjector(
            [drop, FaultSpec("word_corruption", rate_hz=2.0)],
            seed=9,
            horizon_s=8.0,
        )
        alone_drops = [e for e in alone.events if e.spec_index == 0]
        paired_drops = [e for e in paired.events if e.spec_index == 0]
        assert alone_drops == paired_drops

    def test_explicit_start_pins_one_event(self):
        injector = FaultInjector(
            [FaultSpec("element_dropout", start_s=0.5, duration_s=0.1)],
            seed=0,
        )
        assert len(injector.events) == 1
        assert injector.events[0].start_s == 0.5

    def test_events_sorted_by_time(self):
        injector = FaultInjector(
            [FaultSpec("frame_drop", rate_hz=5.0)], seed=3, horizon_s=8.0
        )
        starts = [e.start_s for e in injector.events]
        assert starts == sorted(starts)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultInjector([], horizon_s=0.0)

    def test_non_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultInjector(["frame_drop"])  # type: ignore[list-item]


class TestArrayLayer:
    def field(self, n, n_elements=4):
        t = np.arange(n, dtype=float)
        return 10_000.0 + 1_000.0 * np.sin(
            2 * np.pi * t[:, None] / 500.0 + np.arange(n_elements)[None, :]
        )

    def test_unbound_apply_rejected(self):
        injector = FaultInjector(
            [FaultSpec("element_dropout", start_s=0.0, duration_s=0.1)]
        )
        with pytest.raises(ConfigurationError):
            injector.apply_array(self.field(10))

    def test_dropout_zeroes_the_window(self):
        injector = bound_injector(
            [FaultSpec("element_dropout", start_s=0.0, duration_s=1e-3)]
        )
        fs = 128_000
        out = injector.apply_array(self.field(fs // 100))
        assert np.all(out[:128] == 0.0)
        assert np.all(out[128:] != 0.0)
        assert injector.events_applied == 1

    def test_stiction_freezes_event_start_row(self):
        injector = bound_injector(
            [FaultSpec("element_stiction", start_s=0.0, duration_s=1e-3)]
        )
        field = self.field(1280)
        out = injector.apply_array(field)
        assert np.all(out[:128] == field[0])
        assert np.array_equal(out[128:], field[128:])

    def test_drift_ramps_and_clamps(self):
        chain = ReadoutChain()
        injector = FaultInjector(
            [
                FaultSpec(
                    "capacitance_drift",
                    start_s=0.0,
                    duration_s=0.01,
                    magnitude=1e8,  # absurd Pa/s: must hit the clamp
                )
            ]
        )
        injector.bind(chain)
        field = self.field(1280)
        out = injector.apply_array(field)
        hi = chain.chip.array.sensor.pressure_range_pa[1]
        assert out[1, 0] > field[1, 0]  # ramping up
        assert out[:1280].max() <= hi  # never past the membrane's range

    def test_input_chunk_not_mutated(self):
        injector = bound_injector(
            [FaultSpec("element_dropout", start_s=0.0, duration_s=1e-3)]
        )
        field = self.field(256)
        kept = field.copy()
        injector.apply_array(field)
        assert np.array_equal(field, kept)

    def test_chunked_equals_batch(self):
        specs = [
            FaultSpec("element_dropout", start_s=2e-3, duration_s=1e-3),
            FaultSpec("element_stiction", start_s=5e-3, duration_s=1e-3),
            FaultSpec(
                "capacitance_drift",
                start_s=8e-3,
                duration_s=2e-3,
                magnitude=5e6,
            ),
        ]
        field = self.field(1536)
        batch = bound_injector(specs).apply_array(field)
        chunked_injector = bound_injector(specs)
        chunked = np.concatenate(
            [
                chunked_injector.apply_array(chunk)
                for chunk in np.array_split(field, 11)
            ]
        )
        assert np.array_equal(batch, chunked)

    def test_reset_replays_schedule(self):
        injector = bound_injector(
            [FaultSpec("element_stiction", start_s=0.0, duration_s=1e-3)]
        )
        field = self.field(256)
        first = injector.apply_array(field)
        injector.reset()
        assert injector.events_applied == 0
        second = injector.apply_array(field)
        assert np.array_equal(first, second)


class TestWordLayer:
    def test_word_xored_at_scheduled_index(self):
        injector = bound_injector(
            [FaultSpec("word_corruption", start_s=0.005, magnitude=1024)]
        )
        codes = np.arange(20, dtype=np.int64)
        out = injector.apply_words(codes)
        word = int(round(0.005 * 1000))  # 1 kS/s output words
        assert out[word] == codes[word] ^ 1024
        untouched = np.delete(np.arange(20), word)
        assert np.array_equal(out[untouched], codes[untouched])

    def test_word_position_counts_across_chunks(self):
        injector = bound_injector(
            [FaultSpec("word_corruption", start_s=0.010, magnitude=1)]
        )
        first = injector.apply_words(np.zeros(6, dtype=np.int64))
        second = injector.apply_words(np.zeros(6, dtype=np.int64))
        assert np.array_equal(first, np.zeros(6))
        assert second[10 - 6] == 1
        assert injector.events_applied == 1


class TestFrameLayer:
    def payload(self, n_frames=4, spf=8):
        enc = FrameEncoder(samples_per_frame=spf)
        return enc.push(
            np.arange(spf * n_frames, dtype=np.int16), element=0
        )

    def spec_at_frame(self, kind, frame, **kwargs):
        # Frame index -> start time: the injector maps times to frame
        # indices with the bound chain's 64-sample frames, regardless of
        # how large the frames walked at apply time actually are.
        return FaultSpec(kind, start_s=frame * 64 / 1000.0, **kwargs)

    def test_frame_drop_removes_exactly_one_frame(self):
        injector = bound_injector([self.spec_at_frame("frame_drop", 1)])
        out = injector.apply_payload(self.payload())
        frames = FrameDecoder().feed(out)
        assert [f.sequence for f in frames] == [0, 2, 3]

    def test_truncation_shortens_the_frame(self):
        injector = bound_injector(
            [self.spec_at_frame("frame_truncation", 1, magnitude=0.5)]
        )
        clean = self.payload()
        out = injector.apply_payload(clean)
        # 25-byte frame halved: int(25 * 0.5) = 12 bytes kept, 13 removed.
        assert len(out) == len(clean) - (9 + 16 - (9 + 16) // 2)

    def test_bitflip_changes_exactly_one_bit(self):
        injector = bound_injector([self.spec_at_frame("frame_bitflip", 2)])
        clean = self.payload()
        out = injector.apply_payload(clean)
        assert len(out) == len(clean)
        diff = [a ^ b for a, b in zip(clean, out)]
        flipped = [d for d in diff if d]
        assert len(flipped) == 1
        assert bin(flipped[0]).count("1") == 1

    def test_empty_payload_passthrough(self):
        injector = bound_injector([self.spec_at_frame("frame_drop", 0)])
        assert injector.apply_payload(b"") == b""

    def test_frame_position_counts_across_payloads(self):
        injector = bound_injector([self.spec_at_frame("frame_drop", 3)])
        first = injector.apply_payload(self.payload(2))
        second = injector.apply_payload(self.payload(2))
        assert len(first) == len(self.payload(2))
        assert len(second) < len(self.payload(2))
        assert injector.events_applied == 1


class TestLinkBinding:
    """bind_link: frame-indexed usb faults with no chain in sight."""

    @staticmethod
    def wire_sequences(payload):
        """Frame sequence numbers in wire order (reorder-visible —
        FrameDecoder would drop a late frame as stale)."""
        from repro.daq.usb import frame_sequence, split_frames

        return [frame_sequence(f) for f in split_frames(payload)]

    def payload(self, n_frames=4, spf=8, encoder=None):
        enc = encoder or FrameEncoder(samples_per_frame=spf)
        start = enc.frames_emitted * spf
        return enc.push(
            np.arange(start, start + spf * n_frames, dtype=np.int16),
            element=0,
        )

    def link_injector(self, kind, frame, fps=50.0, **kwargs):
        # With bind_link an event at start_s lands on frame
        # int(start_s * fps) — pick start_s dead-centre of the frame.
        spec = FaultSpec(kind, start_s=(frame + 0.5) / fps, **kwargs)
        injector = FaultInjector([spec], seed=0)
        injector.bind_link(fps)
        return injector

    def test_event_lands_on_the_indexed_frame(self):
        injector = self.link_injector("frame_drop", 2)
        out = injector.apply_payload(self.payload())
        frames = FrameDecoder().feed(out)
        assert [f.sequence for f in frames] == [0, 1, 3]

    def test_rejects_non_usb_specs(self):
        injector = FaultInjector(
            [FaultSpec("element_dropout", start_s=0.0)]
        )
        with pytest.raises(ConfigurationError):
            injector.bind_link(50.0)

    def test_rejects_nonpositive_frame_rate(self):
        injector = FaultInjector([FaultSpec("frame_drop", start_s=0.0)])
        with pytest.raises(ConfigurationError):
            injector.bind_link(0.0)

    def test_unbound_apply_still_raises(self):
        injector = FaultInjector([FaultSpec("frame_drop", start_s=0.0)])
        with pytest.raises(ConfigurationError):
            injector.apply_payload(b"\x00")

    def test_reorder_swaps_with_the_next_frame(self):
        injector = self.link_injector("frame_reorder", 1)
        out = injector.apply_payload(self.payload())
        assert self.wire_sequences(out) == [0, 2, 1, 3]
        assert injector.events_applied == 1
        # The receiver books the swap as one lost gap + one stale late
        # frame — counted, never silent.
        decoder = FrameDecoder()
        decoder.feed(out)
        assert decoder.lost_frames == 1
        assert decoder.stale_frames == 1

    def test_reorder_holds_across_payload_boundary(self):
        injector = self.link_injector("frame_reorder", 1)
        enc = FrameEncoder(samples_per_frame=8)
        first = injector.apply_payload(self.payload(2, encoder=enc))
        # Frame 1 is held: only frame 0 went out.
        assert self.wire_sequences(first) == [0]
        second = injector.apply_payload(self.payload(2, encoder=enc))
        # It rides out right behind the next transmitted frame.
        assert self.wire_sequences(second) == [2, 1, 3]

    def test_reorder_at_stream_tail_is_withheld(self):
        injector = self.link_injector("frame_reorder", 3)
        out = injector.apply_payload(self.payload(4))
        # No follow-up frame ever flushes the held one: tail loss, which
        # the receiver's conservation surfaces as an unaccounted frame.
        assert self.wire_sequences(out) == [0, 1, 2]

    def test_reset_clears_reorder_pending(self):
        injector = self.link_injector("frame_reorder", 1)
        injector.apply_payload(self.payload(2))
        injector.reset()
        out = injector.apply_payload(self.payload(4))
        # The schedule replays from frame 0; nothing stale leaks in.
        assert self.wire_sequences(out) == [0, 2, 1, 3]


class TestAppliedLog:
    def test_applied_windows_report(self):
        injector = bound_injector(
            [FaultSpec("element_dropout", start_s=0.0, duration_s=1e-3)]
        )
        injector.apply_array(np.full((256, 4), 1000.0))
        [(kind, layer, start, end)] = injector.applied_windows()
        assert kind == "element_dropout"
        assert layer == "array"
        assert start == 0.0
        assert end == pytest.approx(1e-3)

    def test_event_applied_once_across_chunks(self):
        injector = bound_injector(
            [FaultSpec("element_dropout", start_s=0.0, duration_s=2e-3)]
        )
        injector.apply_array(np.full((128, 4), 1000.0))
        injector.apply_array(np.full((128, 4), 1000.0))
        assert injector.events_applied == 1
