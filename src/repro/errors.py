"""Exception hierarchy for the reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still distinguishing configuration problems from runtime simulation faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all exceptions raised by this library."""


class ConfigurationError(ReproError, ValueError):
    """A parameter or parameter combination is physically or logically invalid.

    Raised at construction time: negative geometry, zero sampling rate,
    unstable loop coefficients, mismatched array shapes, and similar.
    """


class SimulationError(ReproError, RuntimeError):
    """A simulation failed while running (e.g. integrator state diverged)."""


class CalibrationError(ReproError, RuntimeError):
    """Calibration could not be established or applied.

    Examples: two-point calibration with coincident raw values, feature
    extraction finding no beats in the calibration window.
    """


class SignalQualityError(ReproError, RuntimeError):
    """The acquired signal is too poor for the requested analysis.

    Raised by beat detection and feature extraction when no plausible
    cardiac signal can be found (e.g. the array is placed entirely off the
    artery).
    """


class FramingError(ReproError, ValueError):
    """A DAQ/USB frame failed validation (bad sync word, CRC, or length)."""


class GatewayError(ReproError, RuntimeError):
    """A gateway/device link operation failed beyond recovery.

    Raised when the retry budget of a device client is exhausted, a
    handshake cannot be completed, or a gateway service is driven
    outside its lifecycle (e.g. serving before :meth:`start`).
    """


class FixedPointOverflowError(ReproError, OverflowError):
    """A fixed-point operation overflowed with saturation disabled.

    The bit-true FPGA filter models deliberately distinguish saturating
    arithmetic (allowed, models hardware clamping) from silent wrap-around
    (a design bug in a decimation filter); this exception flags the latter
    when a stage is configured to treat overflow as fatal.
    """
