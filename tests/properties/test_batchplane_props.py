"""Property: the batch decode plane == a plain decoder per device.

The gateway's decode correctness gate, stated as a hypothesis property:
for any fleet of devices — any payload shapes, any seeded link-fault
schedule mangling the wire bytes, any chunk splits, any interleaving of
batch ticks, resume flushes and mid-run connect/disconnect — every
device's decode through the shared :class:`~repro.gateway.batchplane.
BatchPlane` is *bit-identical* to feeding the same chunks, one by one,
to a reference :class:`~repro.daq.usb.FrameDecoder` and
:class:`~repro.daq.stream.SampleStream` of its own: same
decoded/lost/stale/CRC/resync counters, same buffer residue, same
sample values and gap records, same frame-hook order.

The plane is driven synchronously (``notify`` + ``flush`` /
``flush_lane``), which is exactly what the scheduler task does — the
async wrapper adds timing, not semantics.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.daq.stream import SampleStream
from repro.daq.usb import FrameDecoder, FrameEncoder
from repro.faults import FaultInjector, FaultSpec
from repro.gateway.batchplane import BatchPlane
from repro.gateway.chaos import CHAOS_KINDS
from repro.gateway.connection import DeviceSession


def _device_wire(device_id: int, n_frames: int, spf: int, faulted: bool):
    """One device's data-plane bytes, faults applied on the wire only."""
    enc = FrameEncoder(samples_per_frame=spf)
    payload = b"".join(
        enc.push(
            (np.arange(spf, dtype=np.int64) + 31 * k + device_id) % 2048, 0
        )
        for k in range(n_frames)
    )
    if not faulted or not payload:
        return payload
    specs = [
        FaultSpec(kind=kind, rate_hz=4.0, magnitude=m)
        for kind, m in zip(CHAOS_KINDS, (1.0, 0.5, 1.0, 1.0))
    ]
    injector = FaultInjector(
        specs, seed=device_id + 1, horizon_s=max(n_frames / 50.0, 0.1)
    )
    injector.bind_link(50.0)
    return injector.apply_payload(payload)


@st.composite
def fleet_cases(draw):
    n_devices = draw(st.integers(min_value=1, max_value=3))
    devices = []
    for d in range(n_devices):
        n_frames = draw(st.integers(min_value=0, max_value=30))
        spf = draw(st.sampled_from([4, 16, 32]))
        faulted = draw(st.booleans())
        n_chunks = draw(st.integers(min_value=1, max_value=5))
        devices.append((n_frames, spf, faulted, n_chunks))
    # The event schedule: after each offer round, maybe tick / resume /
    # drop-and-reconnect. Drawn as integers so shrinking stays readable.
    ops = draw(
        st.lists(
            st.sampled_from(["tick", "lane", "drop", "none"]),
            min_size=0,
            max_size=8,
        )
    )
    return devices, ops


def _split(wire: bytes, n_chunks: int, rng) -> list[bytes]:
    if not wire:
        return [b""]
    cuts = sorted(rng.integers(0, len(wire) + 1, size=n_chunks - 1).tolist())
    edges = [0, *cuts, len(wire)]
    return [wire[a:b] for a, b in zip(edges, edges[1:])]


class TestPlaneEqualsFrameDecoder:
    @given(fleet_cases())
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_per_device(self, case):
        devices, ops = case
        rng = np.random.default_rng(len(ops) + 17)

        chunk_lists = []
        for d, (n_frames, spf, faulted, n_chunks) in enumerate(devices):
            wire = _device_wire(d, n_frames, spf, faulted)
            chunk_lists.append(_split(wire, n_chunks, rng))

        # Reference: a plain decoder and stream per device, fed chunk
        # by chunk, then finalized — no gateway code at all.
        refs = []
        ref_hooks: list[list[int]] = []
        for chunks in chunk_lists:
            decoder = FrameDecoder()
            decoder.expect(0)
            stream = SampleStream()
            hooks: list[int] = []
            for chunk in chunks:
                frames = decoder.feed(chunk)
                stream.ingest(frames)
                hooks.extend(frame.sequence for frame in frames)
            stream.ingest(decoder.finalize())
            refs.append((decoder, stream))
            ref_hooks.append(hooks)

        # Batch plane: same chunks offered round-robin, with ticks,
        # resume flushes and mid-run disconnect/reconnect interleaved.
        plane = BatchPlane()
        plane_sessions = []
        plane_hooks: list[list[int]] = []
        for d in range(len(devices)):
            session = DeviceSession(device_id=d)
            session.fresh_start()
            hooks = []
            session.frame_hook = (
                lambda seq, now, hooks=hooks: hooks.append(seq)
            )
            plane.attach(session)
            plane_sessions.append(session)
            plane_hooks.append(hooks)

        pending = [list(chunks) for chunks in chunk_lists]
        op_i = 0
        while any(pending):
            for d, queue in enumerate(pending):
                if queue:
                    chunk = queue.pop(0)
                    if chunk and plane_sessions[d].offer(chunk):
                        plane.notify(plane_sessions[d], len(chunk))
            op = ops[op_i % len(ops)] if ops else "none"
            op_i += 1
            if op == "tick":
                plane.flush(cause="deadline")
            elif op == "lane":
                # The resume handshake's solo flush on one device.
                plane.flush_lane(plane_sessions[op_i % len(devices)])
            elif op == "drop":
                # Device drops and immediately resumes: the session
                # object survives (resume keeps the books), the plane
                # flushes its backlog before ACKing, like the server.
                d = op_i % len(devices)
                plane.flush_lane(plane_sessions[d])
        plane.flush(cause="drain")
        for session in plane_sessions:
            session.finalize()

        for d, ((dec, stream), bat) in enumerate(zip(refs, plane_sessions)):
            label = f"device {d}"
            assert dec.frames_decoded == bat.decoder.frames_decoded, label
            assert dec.lost_frames == bat.decoder.lost_frames, label
            assert dec.stale_frames == bat.decoder.stale_frames, label
            assert dec.crc_errors == bat.decoder.crc_errors, label
            assert dec.resync_bytes == bat.decoder.resync_bytes, label
            assert bytes(dec._buffer) == bytes(bat.decoder._buffer), label
            assert (
                stream.samples_ingested == bat.stream.samples_ingested
            ), label
            assert stream.elements == bat.stream.elements, label
            for el in stream.elements:
                assert np.array_equal(
                    stream.samples(el), bat.stream.samples(el)
                ), label
                assert stream.gaps(el) == bat.stream.gaps(el), label
            assert ref_hooks[d] == plane_hooks[d], label
            # The session's telemetry view books the same counters.
            bv = bat.telemetry_view()
            assert bv.frames_decoded == dec.frames_decoded, label
            assert bv.lost_frames == dec.lost_frames, label
            assert bv.words_delivered == stream.samples_ingested, label
