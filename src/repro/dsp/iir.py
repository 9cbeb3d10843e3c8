"""Butterworth low-pass sections and zero-phase filtering, without SciPy.

The host side low-passes the 1 kS/s words before beat detection and
artifact screening. :func:`butter` is ``scipy.signal.butter(order,
cutoff, fs=fs, output="sos")`` for the low-pass band: the same analog
prototype (``buttap``), frequency scaling (``lp2lp_zpk``), bilinear
transform (``bilinear_zpk``) and nearest pole-zero pairing
(``zpk2sos``), with the same NumPy operations in the same order on
every value that is not an empty array, so the sections are
bit-identical. :func:`sosfiltfilt` is ``scipy.signal.sosfiltfilt(sos,
x)`` for 1-D ``x``: odd extension by ``3 * (2 * sections + 1)`` samples
(one less per section pair of trailing zeros, as SciPy counts them),
``sosfilt_zi`` initial states and a forward and a backward pass of the
direct-form-II-transposed biquad cascade. The cascade runs in the
native library (:mod:`repro.native`) when it is available and in
:func:`_cascade_reference` otherwise; both perform the same IEEE-754
double operations in the same order. ``tests/dsp/test_scipy_parity.py``
compares both against SciPy exactly.
"""

from __future__ import annotations

import numpy as np

from .. import native
from ..errors import ConfigurationError


def butter(order: int, cutoff_hz: float, fs: float) -> np.ndarray:
    """Second-order sections of a digital Butterworth low-pass.

    ``(sections, 6)`` rows ``[b0, b1, b2, 1, a1, a2]``, the overall gain
    in the first row, sections ordered with the poles nearest the unit
    circle last.
    """
    if int(order) != order or order < 1:
        raise ConfigurationError("filter order must be a positive integer")
    order = int(order)
    fs = float(fs)
    wn = np.asarray(cutoff_hz, dtype=np.float64) / (fs / 2)
    if not 0 < wn < 1:
        raise ConfigurationError("cutoff must be in (0, Nyquist)")
    # Analog prototype: N poles on the left unit half-circle and no
    # zeros, scaled to the cutoff pre-warped for a bilinear transform at
    # fs = 2; the transform moves the N zeros at infinity to Nyquist.
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    p = -np.exp(1j * np.pi * m / (2 * order))
    wo = float(2 * 2.0 * np.tan(np.pi * wn / 2.0))
    p = wo * p
    k = wo**order
    fs2 = 4.0
    p_z = (fs2 + p) / (fs2 - p)
    z_z = -np.ones(order)
    k_z = k * np.real(np.float64(1.0) / np.prod(fs2 - p))
    return _zpk2sos(z_z, p_z, k_z)


def _poly(roots) -> np.ndarray:
    """Monic polynomial with the given roots, built as SciPy's ``poly``
    builds it (one ``np.convolve`` per root); real for real roots and
    conjugate pairs."""
    roots = np.asarray(roots)
    a = np.ones((1,), dtype=roots.dtype)
    one = np.ones_like(roots[0])
    for root in roots:
        a = np.convolve(a, np.stack((one, -root)), mode="full")
    if np.iscomplexobj(a) and np.all(
        np.sort(np.imag(roots)) == np.sort(np.imag(np.conj(roots)))
    ):
        a = np.real(a).copy()
    return a


def _section(z, p) -> np.ndarray:
    """One ``[b0, b1, b2, 1, a1, a2]`` row from two zeros and two poles."""
    return np.concatenate((_poly(z), _poly(p)))


def _cplxreal(z):
    """Conjugate pairs (positive imaginary part, averaged) and reals."""
    tol = 100 * np.finfo(z.dtype).eps
    z = z[np.lexsort((abs(z.imag), z.real))]
    real_indices = abs(z.imag) <= tol * abs(z)
    zr = z[real_indices].real
    z = z[~real_indices]
    zp = z[z.imag > 0]
    zn = z[z.imag < 0]
    # Pairs with (nearly) equal real parts sort by imaginary magnitude.
    same_real = np.diff(zp.real) <= tol * abs(zp[:-1])
    diffs = np.diff(np.concatenate(([0], same_real, [0])))
    run_starts = np.nonzero(diffs > 0)[0]
    run_stops = np.nonzero(diffs < 0)[0]
    for start, stop in zip(run_starts, run_stops + 1):
        for chunk in (zp[start:stop], zn[start:stop]):
            chunk[...] = chunk[np.lexsort([abs(chunk.imag)])]
    return (zp + zn.conj()) / 2, zr


def _worst(p) -> int:
    """The pole nearest the unit circle."""
    return np.argmin(np.abs(1 - np.abs(p)))


def _zpk2sos(z, p, k) -> np.ndarray:
    """SciPy's digital ``zpk2sos`` with ``pairing="nearest"`` for what a
    low-pass Butterworth hands it: as many poles as zeros, all zeros
    real, real poles in pairs once an odd order is padded with a pole
    and a zero at the origin. SciPy's other branches (a lone real pole,
    complex zeros) never run on such input and are left out."""
    if len(p) % 2 == 1:
        p = np.concatenate((p, [0.0]))
        z = np.concatenate((z, [0.0]))
    n_sections = len(p) // 2
    p = np.concatenate(_cplxreal(p))
    sos = np.zeros((n_sections, 6))
    # Build from the last section back so the worst poles come last.
    for si in range(n_sections - 1, -1, -1):
        p1_idx = _worst(p)
        p1 = p[p1_idx]
        p = np.delete(p, p1_idx)
        if np.isreal(p1):
            real = np.flatnonzero(np.isreal(p))
            p2_idx = real[_worst(p[real])]
            p2 = p[p2_idx]
            p = np.delete(p, p2_idx)
        else:
            p2 = p1.conj()
        zeros = []
        for _ in range(2):
            z_idx = np.argsort(np.abs(z - p1))[0]
            zeros.append(z[z_idx])
            z = np.delete(z, z_idx)
        sos[si] = _section(zeros, [p1, p2])
    sos[0][:3] *= k
    return sos


def _lfilter_zi(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Steady-state step-response state of one section (``a[0] == 1``):
    ``(I - companion(a).T) zi = b[1:] - a[1:] * b[0]``."""
    companion = np.zeros((2, 2))
    companion[0, :] = -a[1:] / (1.0 * a[0:1])
    companion[1, 0] = 1
    i_minus_a = np.eye(2) - companion.T
    return np.linalg.solve(i_minus_a, b[1:] - a[1:] * b[0])


def _sosfilt_zi(sos: np.ndarray) -> np.ndarray:
    """Initial cascade state for a unit step, ``(sections, 2)``: each
    section's steady state scaled by the DC gain of those before it."""
    zi = np.empty((sos.shape[0], 2))
    scale = 1.0
    for section in range(sos.shape[0]):
        b = sos[section, :3]
        a = sos[section, 3:]
        zi[section, ...] = scale * _lfilter_zi(b, a)
        scale *= np.sum(b) / np.sum(a)
    return zi


def _cascade_reference(sos: np.ndarray, x: np.ndarray, zi: np.ndarray) -> None:
    """Run ``x`` through the biquad cascade in place, from state ``zi``
    (updated in place): per section ``y = b0*x + z0; z0 = b1*x - a1*y +
    z1; z1 = b2*x - a2*y``. The specification of the native kernel."""
    sections = [tuple(row) for row in sos.tolist()]
    state = zi.tolist()
    out = x.tolist()
    for n, cur in enumerate(out):
        for s, (b0, b1, b2, _, a1, a2) in enumerate(sections):
            z = state[s]
            new = b0 * cur + z[0]
            z[0] = b1 * cur - a1 * new + z[1]
            z[1] = b2 * cur - a2 * new
            cur = new
        out[n] = cur
    x[:] = out
    zi[:] = state


def _cascade(sos: np.ndarray, x: np.ndarray, zi: np.ndarray) -> None:
    """:func:`_cascade_reference` in the native library when it loads."""
    lib = native.library()
    if lib is None:
        _cascade_reference(sos, x, zi)
        return
    lib.sos_cascade(
        sos.ctypes.data, sos.shape[0], x.ctypes.data, x.size, zi.ctypes.data
    )


def _odd_ext(x: np.ndarray, n: int) -> np.ndarray:
    """``x`` with ``n`` samples of odd (point-symmetric) extension on
    each side."""
    return np.concatenate(
        (
            2 * x[0:1] - x[n:0:-1],
            x,
            2 * x[-1:] - x[-2 : -(n + 2) : -1],
        )
    )


def sosfiltfilt(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Zero-phase forward-backward filtering of a 1-D record.

    Raises :class:`ValueError`, as SciPy does, when the record is not
    longer than the padding.
    """
    sos = np.ascontiguousarray(sos, dtype=np.float64)
    if sos.ndim != 2 or sos.shape[1] != 6 or not np.all(sos[:, 3] == 1):
        raise ConfigurationError("sos must be (sections, 6) with a0 == 1")
    x = np.asarray(x)
    if x.ndim != 1:
        raise ConfigurationError("expected a 1-D record")
    ntaps = 2 * sos.shape[0] + 1
    ntaps -= min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum())
    edge = ntaps * 3
    if x.shape[0] <= edge:
        raise ValueError(
            "The length of the input vector x must be greater than padlen, "
            f"which is {edge}."
        )
    ext = _odd_ext(x, edge)
    zi = _sosfilt_zi(sos)
    y = np.array(ext, dtype=np.float64, order="C")
    state = np.ascontiguousarray(zi * y[0:1])
    _cascade(sos, y, state)
    state = np.ascontiguousarray(zi * y[-1:])
    y = np.array(y[::-1], order="C")
    _cascade(sos, y, state)
    return y[::-1][edge:-edge]
