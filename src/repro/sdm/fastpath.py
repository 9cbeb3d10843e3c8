"""Availability of the modulator's compiled loop (see :mod:`repro.native`)."""

from .. import native


def kernel_available() -> bool:
    """True when the native library (and so the compiled loop) is loaded."""
    return native.available()
