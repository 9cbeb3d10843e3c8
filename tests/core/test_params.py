"""Parameter dataclasses: paper defaults and validation rules."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import repro
from repro import params as params_module
from repro.errors import ConfigurationError
from repro.params import (
    ArrayParams,
    ChipParams,
    ContactParams,
    DecimationParams,
    FrontEndParams,
    MMHG_PER_PASCAL,
    MembraneParams,
    ModulatorParams,
    NonidealityParams,
    PASCAL_PER_MMHG,
    PatientParams,
    SystemParams,
    TissueParams,
    paper_defaults,
)


class TestPaperDefaults:
    def test_paper_numbers(self):
        params = paper_defaults()
        assert params.array.membrane.side_m == pytest.approx(100e-6)
        assert params.array.membrane.thickness_m == pytest.approx(3e-6)
        assert params.array.membrane.pitch_m == pytest.approx(150e-6)
        assert params.array.rows == params.array.cols == 2
        assert params.modulator.sampling_rate_hz == pytest.approx(128e3)
        assert params.modulator.osr == 128
        assert params.modulator.output_rate_hz == pytest.approx(1000.0)
        assert params.decimation.fir_taps == 32
        assert params.decimation.cutoff_hz == 500.0
        assert params.decimation.output_bits == 12
        assert params.chip.power_w == pytest.approx(11.5e-3)
        assert params.chip.supply_v == 5.0
        assert params.chip.die_area_m2 == pytest.approx(2.6e-3 * 1.9e-3)

    def test_unit_constants_inverse(self):
        assert MMHG_PER_PASCAL * PASCAL_PER_MMHG == pytest.approx(1.0)

    def test_replace(self):
        params = paper_defaults()
        changed = params.replace(
            array=ArrayParams(rows=4, cols=4)
        )
        assert changed.array.rows == 4
        assert params.array.rows == 2  # original untouched


class TestValidationRules:
    def test_membrane(self):
        with pytest.raises(ConfigurationError):
            MembraneParams(side_m=0.0)
        with pytest.raises(ConfigurationError):
            MembraneParams(pitch_m=50e-6)  # pitch < side
        with pytest.raises(ConfigurationError):
            MembraneParams(electrode_coverage=1.5)

    def test_array(self):
        with pytest.raises(ConfigurationError):
            ArrayParams(rows=0)
        with pytest.raises(ConfigurationError):
            ArrayParams(capacitance_mismatch_sigma=-0.1)

    def test_modulator(self):
        with pytest.raises(ConfigurationError):
            ModulatorParams(osr=1)
        with pytest.raises(ConfigurationError):
            ModulatorParams(vref_v=0.0)
        with pytest.raises(ConfigurationError):
            ModulatorParams(a1=0.0)

    def test_nonideality(self):
        with pytest.raises(ConfigurationError):
            NonidealityParams(sampling_cap_f=0.0)
        with pytest.raises(ConfigurationError):
            NonidealityParams(clock_jitter_s=-1.0)
        ideal = NonidealityParams.ideal()
        assert ideal.clock_jitter_s == 0.0
        assert ideal.sampling_cap_f == float("inf")

    def test_decimation(self):
        with pytest.raises(ConfigurationError):
            DecimationParams(cic_decimation=1)
        with pytest.raises(ConfigurationError):
            DecimationParams(output_bits=1)
        assert DecimationParams().total_decimation == 128

    def test_frontend(self):
        with pytest.raises(ConfigurationError):
            FrontEndParams(feedback_cap_f=0.0)

    def test_chip(self):
        with pytest.raises(ConfigurationError):
            ChipParams(power_w=0.0)

    def test_patient(self):
        with pytest.raises(ConfigurationError):
            PatientParams(systolic_mmhg=80.0, diastolic_mmhg=80.0)
        p = PatientParams()
        assert p.pulse_pressure_mmhg == pytest.approx(40.0)
        assert p.mean_rr_s == pytest.approx(60.0 / 70.0)

    def test_tissue(self):
        with pytest.raises(ConfigurationError):
            TissueParams(artery_depth_m=0.0)

    def test_contact(self):
        with pytest.raises(ConfigurationError):
            ContactParams(pdms_thickness_m=0.0)

    def test_system_osr_consistency(self):
        with pytest.raises(ConfigurationError, match="OSR"):
            SystemParams(modulator=ModulatorParams(osr=64))

    def test_consistent_system_accepted(self):
        params = SystemParams(
            modulator=ModulatorParams(osr=64),
            decimation=DecimationParams(
                cic_decimation=16, fir_decimation=4
            ),
        )
        assert params.modulator.osr == params.decimation.total_decimation

    def test_frozen(self):
        params = paper_defaults()
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.modulator.osr = 64  # type: ignore[misc]


def _attribute_reads(package: Path) -> set[str]:
    """Every attribute name loaded anywhere under ``package``, except in
    the ``__post_init__`` validation of ``params.py``'s dataclasses."""
    reads = set()
    for path in package.rglob("*.py"):
        tree = ast.parse(path.read_text())
        skip = set()
        if path == package / "params.py":
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.FunctionDef)
                    and node.name == "__post_init__"
                ):
                    skip.update(map(id, ast.walk(node)))
        reads.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in skip
        )
    return reads


def test_every_parameter_is_read():
    """A field no program code reads is a setting that changes nothing."""
    reads = _attribute_reads(Path(repro.__file__).parent)
    unread = [
        f"{cls.__name__}.{field.name}"
        for _, cls in inspect.getmembers(params_module, inspect.isclass)
        if dataclasses.is_dataclass(cls)
        and cls.__module__ == params_module.__name__
        for field in dataclasses.fields(cls)
        if field.name not in reads
    ]
    assert unread == []
