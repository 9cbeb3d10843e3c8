"""The chaos harness at test scale: faults on, corruption counted."""

import asyncio
import json

from repro.gateway import chaos
from repro.gateway.chaos import CHAOS_KINDS, ChaosReport, run_chaos
from repro.gateway.client import DeviceReport
from repro.gateway.connection import DeviceSession
from repro.gateway.server import GatewayServer


class TestChaos:
    def test_small_fleet_survives_audit(self):
        report = asyncio.run(
            run_chaos(
                n_devices=12,
                frames_per_device=60,
                samples_per_frame=16,
                faulty_fraction=0.5,
                fault_rate_hz=2.0,
                reconnect_every=25,
                seed=3,
            )
        )
        assert report.ok, report.failures
        assert report.devices == 12
        assert report.faulty_devices == 6
        assert report.frames_sent == 12 * 60
        # Faults were actually exercised, and every casualty is counted:
        # the harness already asserted frames_unaccounted == 0 per clean
        # device and >= 0 overall, plus bit-exact clean content.
        assert report.faults_injected > 0
        assert (
            report.frames_decoded
            + report.frames_lost
            + report.frames_unaccounted
            == report.frames_sent
        )
        assert report.samples_verified > 0
        assert report.clean_devices_exact == 6

    def test_report_is_json_able(self):
        report = asyncio.run(
            run_chaos(
                n_devices=4,
                frames_per_device=20,
                samples_per_frame=8,
                faulty_fraction=0.25,
                seed=1,
            )
        )
        blob = json.loads(json.dumps(report.as_dict()))
        assert blob["ok"] is True, blob["failures"]
        assert blob["devices"] == 4
        assert set(CHAOS_KINDS) == {
            "frame_drop",
            "frame_truncation",
            "frame_bitflip",
            "frame_reorder",
        }

    def test_fault_free_fleet_is_lossless(self):
        report = asyncio.run(
            run_chaos(
                n_devices=6,
                frames_per_device=40,
                samples_per_frame=16,
                faulty_fraction=0.0,
                seed=2,
            )
        )
        assert report.ok, report.failures
        assert report.faulty_devices == 0
        assert report.frames_decoded == report.frames_sent
        assert report.frames_lost == 0
        assert report.crc_errors == 0
        assert report.frames_unaccounted == 0
        assert report.clean_devices_exact == 6

    def test_bye_without_server_close_fails_audit(self, monkeypatch):
        monkeypatch.setattr(chaos, "CLOSE_TIMEOUT_S", 0.05)
        server = GatewayServer()
        stuck = DeviceSession(device_id=0)
        stuck.bye_seen = True  # the BYE arrived; the books never closed
        closed = DeviceSession(device_id=1)
        closed.bye_seen = True
        closed.finalize()
        server.sessions.update({0: stuck, 1: closed})
        results = [
            DeviceReport(device_id=0, bye_sent=True),
            DeviceReport(device_id=1, bye_sent=True),
            DeviceReport(device_id=2),  # never sent its BYE: not gated
        ]
        report = ChaosReport()
        asyncio.run(chaos._await_closes(report, server, results))
        assert report.failures == [
            "device 0: BYE sent but the server session did not close "
            "within 0.05 s"
        ]
