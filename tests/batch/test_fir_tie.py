"""A FIR word on an exact rounding tie: the kernel rounds half to even.

The output word is ``acc * 2**-18`` rounded as ``np.round`` does (half to
even) in :meth:`~repro.dsp.decimator.DecimationFilter.process`. A tie
needs ``acc = 2**17 (mod 2**18)``, about one word in 262 144, so no
record reaches one by chance. This test builds one: each FIR history
entry enters the next word's accumulator linearly, so two entries whose
weights are coprime can move it onto a chosen tie. The tie is put at
``2m + 1/2`` (``acc = 2**17 (mod 2**19)``), where half to even and half
away from zero disagree.
"""

import copy
import math

import numpy as np
import pytest

from repro import native
from repro.batch import BatchChainEngine
from repro.core.chain import ReadoutChain
from repro.params import NonidealityParams, SystemParams

pytestmark = pytest.mark.skipif(
    not native.available(), reason="the tie is checked in the kernel"
)

HALF = 1 << 17


def _first_acc(chain, u):
    """Accumulator of the first FIR word ``u`` produces on ``chain``."""
    probe = copy.deepcopy(chain)
    probe.chip.modulator.backend = "reference"
    bits = probe.chip.modulator.simulate(u).bitstream
    cic = probe.fpga.filter.cic.process(bits)
    return int(probe.fpga.filter.fir.process(cic)[0])


def _solve(a, b, t):
    """Integers ``(x, y)`` with ``a*x + b*y == t``, ``x`` small."""
    old_r, r, old_s, s = a, b, 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    g = old_r
    x = old_s * (t // g)
    x -= round(x / (b // g)) * (b // g)
    y = (t - a * x) // b
    assert a * x + b * y == t
    return x, y


def test_kernel_word_on_a_tie_rounds_half_to_even():
    params = SystemParams().replace(nonideality=NonidealityParams.ideal())
    chain = ReadoutChain(params)
    chain.chip.select_element(1)
    chain.fpga.select_element(1)
    u = np.full(2048, 0.3)
    BatchChainEngine([chain]).feed_loop_inputs(u[:, None])
    acc = _first_acc(chain, u)
    # Weight of each history entry in that accumulator.
    hist = chain.fpga.filter.fir._history
    weights = []
    for j in range(hist.size):
        hist[j] += 1
        weights.append(_first_acc(chain, u) - acc)
        hist[j] -= 1
    i, j = next(
        (i, j)
        for i in range(len(weights))
        for j in range(i + 1, len(weights))
        if weights[i] and weights[j] and math.gcd(weights[i], weights[j]) == 1
    )
    target = HALF + (1 << 19) * round((acc - HALF) / (1 << 19))
    if target < 0:
        target -= 1 << 18  # -(2m + 1/2): half away would round down
    x, y = _solve(weights[i], weights[j], target - acc)
    hist[i] += x
    hist[j] += y
    acc = _first_acc(chain, u)
    assert acc == target and acc % (1 << 18) == HALF

    reference = copy.deepcopy(chain)
    reference.chip.modulator.backend = "reference"
    want = BatchChainEngine([reference]).feed_loop_inputs(u[:, None])[0]
    got = BatchChainEngine([chain]).feed_loop_inputs(u[:, None])[0]
    scaled = acc * 2.0**-18
    half_away = math.floor(abs(scaled) + 0.5) * np.sign(scaled)
    assert want[0, 0] == np.round(scaled) != half_away
    assert np.array_equal(got, want)
