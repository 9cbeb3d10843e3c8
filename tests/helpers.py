"""Helpers shared by test modules (not collected: no ``test_`` prefix)."""

import numpy as np


def field_segments(field, dwell):
    """The scan segments of a full pressure field.

    ``field`` is (n_samples, n_elements) with the visits in element
    order; row k of the result is element k's own column over its own
    dwell, ``field[k*dwell:(k+1)*dwell, k]``: all a scan visit routes.
    """
    field = np.asarray(field)
    n = field.shape[1]
    idx = np.arange(n)
    return field[: dwell * n].reshape(n, dwell, n)[idx, :, idx]
