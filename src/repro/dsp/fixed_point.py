"""Two's-complement fixed-point arithmetic helpers for the FPGA models.

The decimation filter of Sec. 3.1 runs in an FPGA; to reproduce its
behaviour faithfully the CIC and FIR stages here operate on integers with
explicit word widths. Two overflow policies exist:

* ``wrap`` — silent two's-complement wrap-around. Correct *inside* a CIC
  (modular arithmetic cancels across integrator/comb pairs) and therefore
  the default there.
* ``saturate`` — clamp to the representable range, modelling the output
  limiter in front of the 12-bit interface.

A third policy, ``raise``, turns overflow into
:class:`~repro.errors.FixedPointOverflowError`; tests use it to prove that
chosen word widths never actually overflow where wrap would be harmful.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, FixedPointOverflowError


def wrap_twos_complement(values: np.ndarray, bits: int) -> np.ndarray:
    """Wrap integers into the signed ``bits``-wide two's-complement range.

    Equivalent to keeping only the low ``bits`` bits of the binary
    representation and sign-extending.
    """
    if bits < 1:
        raise ConfigurationError("word width must be >= 1 bit")
    values = np.asarray(values)
    modulus = 1 << bits
    half = 1 << (bits - 1)
    if values.dtype.kind in "iu" and bits <= 62:
        # x & (2^k - 1) == x % 2^k for any integer x; the AND is several
        # times faster than floored modulo on the CIC's hot path.
        return ((values + half) & (modulus - 1)) - half
    return ((values + half) % modulus) - half


def saturate(values: np.ndarray, bits: int) -> np.ndarray:
    """Clamp integers to the signed ``bits``-wide range.

    Equal to ``np.clip(values, bottom, top)`` in value and dtype. For
    integer input the rails are cast once per (dtype, width) and applied
    as ``minimum(maximum(...))``: ``np.clip`` with Python-int bounds
    rebuilds ``np.iinfo`` on every call, and this runs on every decimator
    output and FPGA tail.
    """
    if bits < 1:
        raise ConfigurationError("word width must be >= 1 bit")
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        bottom, top = _int_rails(values.dtype, bits)
        return np.minimum(np.maximum(values, bottom), top)
    top = (1 << (bits - 1)) - 1
    bottom = -(1 << (bits - 1))
    return np.clip(values, bottom, top)


@functools.lru_cache(maxsize=64)
def _int_rails(dtype: np.dtype, bits: int):
    """The signed ``bits``-wide rails as ``dtype`` scalars, limited to
    what ``dtype`` holds (as ``np.clip`` limits out-of-range bounds)."""
    info = np.iinfo(dtype)
    top = min((1 << (bits - 1)) - 1, info.max)
    bottom = max(-(1 << (bits - 1)), info.min)
    return dtype.type(bottom), dtype.type(top)


def check_overflow(values: np.ndarray, bits: int, context: str = "") -> np.ndarray:
    """Return ``values`` unchanged, raising if any exceeds ``bits`` width."""
    values = np.asarray(values)
    top = (1 << (bits - 1)) - 1
    bottom = -(1 << (bits - 1))
    if values.size and (values.max() > top or values.min() < bottom):
        raise FixedPointOverflowError(
            f"{context or 'fixed-point value'} outside signed {bits}-bit "
            f"range [{bottom}, {top}]: observed "
            f"[{int(values.min())}, {int(values.max())}]"
        )
    return values


@dataclass(frozen=True)
class QFormat:
    """Signed Qm.n fixed-point format: ``int_bits`` integer (incl. sign
    weight handled separately) and ``frac_bits`` fractional bits.

    ``total_bits = 1 (sign) + int_bits + frac_bits``. The format describes
    how a real number maps to the stored integer: ``stored = round(x * 2**frac_bits)``.
    """

    int_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        if self.int_bits < 0 or self.frac_bits < 0:
            raise ConfigurationError("Q-format bit counts must be non-negative")
        if self.total_bits < 2:
            raise ConfigurationError("Q-format needs at least 2 total bits")

    @property
    def total_bits(self) -> int:
        return 1 + self.int_bits + self.frac_bits

    @property
    def scale(self) -> float:
        """Real value of one LSB."""
        return 2.0**-self.frac_bits

    @property
    def max_value(self) -> float:
        return ((1 << (self.total_bits - 1)) - 1) * self.scale

    @property
    def min_value(self) -> float:
        return -(1 << (self.total_bits - 1)) * self.scale

    def quantize_to_int(
        self, values: np.ndarray, overflow: str = "saturate"
    ) -> np.ndarray:
        """Real -> stored integer, with the chosen overflow policy."""
        raw = np.round(np.asarray(values, dtype=float) / self.scale).astype(
            np.int64
        )
        if overflow == "saturate":
            return saturate(raw, self.total_bits)
        if overflow == "wrap":
            return wrap_twos_complement(raw, self.total_bits)
        if overflow == "raise":
            return check_overflow(raw, self.total_bits, "Q-format quantize")
        raise ConfigurationError(f"unknown overflow policy {overflow!r}")

    def to_real(self, stored: np.ndarray) -> np.ndarray:
        """Stored integer -> real value."""
        return np.asarray(stored, dtype=float) * self.scale

    def quantize(self, values: np.ndarray, overflow: str = "saturate") -> np.ndarray:
        """Round-trip: the nearest representable real values."""
        return self.to_real(self.quantize_to_int(values, overflow=overflow))

    def quantization_noise_power(self) -> float:
        """LSB^2 / 12, the white-quantizer noise power."""
        return self.scale**2 / 12.0


def cic_register_width(input_bits: int, order: int, decimation: int) -> int:
    """Hogenauer's register-width bound for a CIC decimator.

    ``B_max = ceil(order * log2(decimation)) + input_bits``.
    All integrator and comb registers of this width cannot produce an
    erroneous output despite internal wrap-around.
    """
    if input_bits < 1 or order < 1 or decimation < 1:
        raise ConfigurationError("CIC width arguments must be >= 1")
    growth = order * np.log2(decimation)
    return int(np.ceil(growth)) + input_bits
