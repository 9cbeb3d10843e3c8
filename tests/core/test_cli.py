"""CLI entry point."""


import pytest

from repro.cli import EXPERIMENTS, _accepts, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out
        assert "robustness" in out

    def test_describe(self, capsys):
        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        assert "SensorChip" in out
        assert "power" in out

    def test_run_one(self, capsys):
        assert main(["run", "membrane"]) == 0
        out = capsys.readouterr().out
        assert "rest capacitance" in out

    def test_run_unknown(self, capsys):
        assert main(["run", "bogus"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_registry_complete(self):
        """Every experiment id in DESIGN.md's index is runnable."""
        expected = {
            "fig7", "fig9", "specs", "membrane", "mux", "localization",
            "imaging",
            "baselines", "feedback", "osr", "dynamic-range",
            "noise-budget", "architectures", "robustness",
            "robustness-sweep", "design-space", "pressure-linearity",
            "population", "chopper", "faults",
        }
        assert expected == set(EXPERIMENTS)

    def test_jobs_aware_subset_of_registry(self):
        """The runners' signatures give the flags each experiment takes."""
        jobs = {n for n, (_, r) in EXPERIMENTS.items() if _accepts(r, "jobs")}
        backend = {
            n for n, (_, r) in EXPERIMENTS.items() if _accepts(r, "backend")
        }
        assert jobs == {
            "faults", "feedback", "osr", "chopper", "design-space",
            "population", "robustness-sweep",
        }
        assert backend == {
            "fig7", "fig9", "dynamic-range", "population", "faults",
        }

    def test_list_marks_backend_support(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert "fig7" in out
        line = next(li for li in out.splitlines() if li.strip().startswith("fig7"))
        assert "[--backend]" in line


class TestBackendFlag:
    def test_backend_threaded_to_runner(self, capsys, monkeypatch):
        seen = {}

        class Result:
            def rows(self):
                return [("q", "paper", "measured")]

        def runner(backend="fast"):
            seen["backend"] = backend
            return Result()

        monkeypatch.setitem(EXPERIMENTS, "fig7", ("stub", runner))
        assert main(["run", "fig7", "--backend", "reference"]) == 0
        assert seen["backend"] == "reference"

    def test_backend_ignored_note_for_unsupported(self, capsys, monkeypatch):
        class Result:
            def rows(self):
                return [("q", "paper", "measured")]

        def runner():
            return Result()

        monkeypatch.setitem(EXPERIMENTS, "specs", ("stub", runner))
        assert main(["run", "specs", "--backend", "reference"]) == 0
        assert "ignores --backend" in capsys.readouterr().err

    def test_bad_backend_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig7", "--backend", "warp"])


class TestParallelCommands:
    def test_jobs_threaded_to_runner(self, capsys, monkeypatch):
        seen = {}

        class Result:
            def rows(self):
                return [("q", "paper", "measured")]

        def runner(jobs=1):
            seen["jobs"] = jobs
            return Result()

        monkeypatch.setitem(EXPERIMENTS, "osr", ("stub", runner))
        assert main(["run", "osr", "--jobs", "3"]) == 0
        assert seen["jobs"] == 3

    def test_jobs_ignored_note_for_serial_experiment(self, capsys, monkeypatch):
        class Result:
            def rows(self):
                return [("q", "paper", "measured")]

        def runner():
            return Result()

        monkeypatch.setitem(EXPERIMENTS, "specs", ("stub", runner))
        assert main(["run", "specs", "--jobs", "2"]) == 0
        assert "ignores --jobs" in capsys.readouterr().err

    def test_run_telemetry_footer(self, capsys):
        assert main(["run", "chopper", "--jobs", "2", "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "ExecutorTelemetry" in out
        assert "telemetry reconciles" in out

    def test_population_command_prints_telemetry(self, capsys):
        code = main(
            ["population", "--subjects", "3", "--duration", "6", "--jobs", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "passes AAMI criterion" in out
        assert "ExecutorTelemetry" in out
        assert "telemetry reconciles" in out

    def test_population_rejects_tiny_cohort(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["population", "--subjects", "2"])
        assert exc.value.code == 2
        assert "expected an integer >= 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "osr"],
            ["population", "--subjects", "3"],
            ["faults", "--duration", "2"],
        ],
    )
    def test_jobs_below_one_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--jobs", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--jobs" in err


class TestBatchCommand:
    def test_batch_table_names_build_and_isa(self, capsys):
        from repro import native

        assert main(["run", "--batch", "2"]) == 0  # 1 on a mismatch
        out = capsys.readouterr().out
        (row,) = [line for line in out.splitlines() if "batch kernel ISA" in line]
        assert row.split()[-1] == native.isa()
        # The command's lanes are noiseless, so staging runs inline.
        (row,) = [line for line in out.splitlines() if "staging threads" in line]
        assert row.split()[-1] == "1"


class TestStreamCommand:
    def test_stream_prints_live_telemetry(self, capsys):
        code = main(
            ["stream", "--duration", "1.5", "--chunk", "0.5", "--element", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "element 1 forced" in out
        assert "PipelineTelemetry" in out
        assert "words," in out  # the live per-chunk line
        assert "telemetry reconciles" in out

    def test_stream_scans_by_default(self, capsys):
        assert main(["stream", "--duration", "1.0", "--chunk", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "scan: element" in out

    def test_stream_rejects_bad_duration(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stream", "--duration", "-1"])
        assert exc.value.code == 2
        assert "positive" in capsys.readouterr().err


class TestNumericArguments:
    """Numeric options are checked at parse time: a bad value exits 2
    with a usage message instead of a traceback or a bogus run."""

    @pytest.mark.parametrize(
        "cmdline",
        [
            "stream --duration nan",
            "stream --duration inf",
            "stream --chunk nan",
            "stream --chunk 0",
            "population --duration nan",
            "faults --duration nan",
            "faults --rate inf",
            "faults --rate nan",
            "faults --rate -1",
            "device --id -1",
            f"device --id {2**32}",
            "gateway --faulty-fraction nan --chaos 2 --frames 5",
            "gateway --faulty-fraction 1.5",
            "gateway --faulty-fraction -0.1",
            "gateway --max-latency-ms 0",
            "gateway --max-latency-ms inf",
            "imaging --offset-um nan",
            "imaging --rotation-mrad inf",
            "imaging --drift-um nan",
            "device --fault-rate nan",
            "device --fault-rate -1",
            "device --pace nan",
            "device --pace -0.5",
            "population --subjects 2",
            "stream --element 9",
            "stream --element -1",
            "gateway --chaos 2 --frames 0",
            "device --drop-every 0",
            "gateway --queue-chunks 0",
        ],
    )
    def test_bad_value_is_a_usage_error(self, capsys, cmdline):
        argv = cmdline.split()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert argv[1] in err
