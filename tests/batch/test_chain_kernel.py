"""ChainKernel.reset: a used kernel returns to a new kernel's state."""

import numpy as np
import pytest

from repro import native
from repro.batch.kernel import ChainKernel, run_batch_chunk
from repro.core.chain import ReadoutChain
from repro.params import NonidealityParams, SystemParams

STATE = ("x1", "x2", "comp_previous", "clipped", "integ", "comb", "hist")


@pytest.mark.skipif(not native.available(), reason="no C compiler")
def test_reset_restores_a_new_kernels_state():
    chain = ReadoutChain(
        SystemParams().replace(nonideality=NonidealityParams.ideal())
    )
    rows = [chain.chip.modulator.kernel_coefficients()] * 5
    filt = chain.fpga.filter
    used, fresh = ChainKernel(rows, filt), ChainKernel(rows, filt)
    n = 1000  # not a multiple of the decimation: phases end mid-word
    au = np.random.default_rng(3).uniform(-0.5, 0.5, (used.lanes, n))
    zero = np.zeros(n)
    run_batch_chunk(
        used, n, au.ctypes.data, n, zero.ctypes.data, 0, zero.ctypes.data, 0
    )
    assert (used.cic_phase, used.fir_phase) != (0, 0)
    assert np.any(used.integ) and np.any(used.x1)
    addresses = used._mid
    used.reset()
    for name in STATE:
        assert np.array_equal(getattr(used, name), getattr(fresh, name)), name
    assert (used.cic_phase, used.fir_phase, used.head) == (0, 0, 0)
    assert used._mid == addresses
