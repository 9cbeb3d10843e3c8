"""ABL-SPACE: the (loop order x OSR) design space, mapped.

Generalizes the two Sec.-4 outlook knobs into the full design grid the
paper's authors would have consulted for a second silicon spin: for every
loop order 1..3 and OSR 16..256, measure the ENOB at the corresponding
conversion rate, then extract the Pareto front of (conversion rate, ENOB)
— which architecture to pick for any target resolution/rate point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsp.cic import CICDecimator
from ..dsp.spectrum import analyze_tone, coherent_tone_frequency, enob_from_sndr
from ..errors import ConfigurationError
from ..parallel import ExecutorTelemetry, ParallelExecutor
from ..params import SystemParams
from ..sdm.higher_order import HigherOrderSDM


@dataclass(frozen=True)
class DesignSpaceResult:
    """ENOB grid over (order, OSR)."""

    orders: tuple[int, ...]
    osrs: np.ndarray
    enob: np.ndarray  # shape (len(orders), len(osrs))
    conversion_rates_hz: np.ndarray
    #: Executor counters of the run that produced this result.
    telemetry: ExecutorTelemetry | None = None

    def pareto_front(self) -> list[tuple[float, float, int, int]]:
        """(rate, enob, order, osr) points not dominated by any other."""
        points = []
        for i, order in enumerate(self.orders):
            for j, osr in enumerate(self.osrs):
                points.append(
                    (
                        float(self.conversion_rates_hz[j]),
                        float(self.enob[i, j]),
                        order,
                        int(osr),
                    )
                )
        front = []
        for p in points:
            dominated = any(
                q[0] >= p[0] and q[1] > p[1] or q[0] > p[0] and q[1] >= p[1]
                for q in points
            )
            if not dominated and np.isfinite(p[1]):
                front.append(p)
        front.sort(key=lambda p: p[0])
        return front

    def best_at_rate(self, rate_hz: float) -> tuple[int, int, float]:
        """(order, osr, enob) of the best architecture at one rate."""
        j = int(np.argmin(np.abs(self.conversion_rates_hz - rate_hz)))
        i = int(np.nanargmax(self.enob[:, j]))
        return (self.orders[i], int(self.osrs[j]), float(self.enob[i, j]))

    def rows(self) -> list[tuple[str, str, str]]:
        out = []
        for rate in (1000.0, 4000.0):
            order, osr, enob = self.best_at_rate(rate)
            out.append(
                (
                    f"best architecture at {rate:.0f} S/s",
                    "(design-space query)",
                    f"order {order}, OSR {osr}: {enob:.1f} bit",
                )
            )
        front = self.pareto_front()
        out.append(
            (
                "Pareto points (rate, ENOB)",
                "(not in paper)",
                "; ".join(
                    f"{p[0]:.0f} S/s -> {p[1]:.1f} b (N{p[2]}/OSR{p[3]})"
                    for p in front[:6]
                ),
            )
        )
        paper_j = int(np.argmin(np.abs(self.osrs - 128)))
        paper_i = self.orders.index(2)
        out.append(
            (
                "paper's point (order 2, OSR 128) [bit]",
                "~12 (chip interface)",
                f"{self.enob[paper_i, paper_j]:.1f} (modulator capability)",
            )
        )
        return out


def _cell_task(item: tuple[float, int, int, int]) -> float:
    """ENOB of one (order, OSR) grid cell (executor task)."""
    fs, order, osr, n_out = item
    out_rate = fs / osr
    tone = coherent_tone_frequency(out_rate / 64, out_rate, n_out)
    t = np.arange((n_out + 16) * osr) / fs
    sdm = HigherOrderSDM(order=order)
    amp = sdm.recommended_max_amplitude
    bits = sdm.simulate(amp * np.sin(2.0 * np.pi * tone * t)).bitstream
    cic = CICDecimator(order=order + 1, decimation=int(osr), input_bits=2)
    vals = (cic.process(bits.astype(np.int64)).astype(float) / cic.dc_gain)[
        16 : 16 + n_out
    ]
    analysis = analyze_tone(vals, out_rate, tone_hz=tone)
    # ENOB at each architecture's own maximum stable amplitude —
    # the comparison a designer actually faces (higher orders pay
    # their reduced stable range here automatically).
    return enob_from_sndr(analysis.snr_db)


def run_design_space(
    params: SystemParams | None = None,
    orders: tuple[int, ...] = (1, 2, 3),
    osrs: np.ndarray | None = None,
    n_out: int = 1024,
    jobs: int = 1,
) -> DesignSpaceResult:
    """Measure the ENOB grid (ideal loops, float sinc^(N+1) decimation).

    Grid cells are independent and deterministic (ideal loops draw no
    randomness), so they fan out over a
    :class:`~repro.parallel.ParallelExecutor` pool; the grid is
    bit-identical for every ``jobs`` value.
    """
    params = params or SystemParams()
    if osrs is None:
        osrs = np.array([16, 32, 64, 128, 256])
    osrs = np.asarray(osrs, dtype=int)
    if any(order not in (1, 2, 3, 4) for order in orders):
        raise ConfigurationError("orders must be within 1..4")

    fs = params.modulator.sampling_rate_hz
    rates = fs / osrs
    items = [
        (float(fs), int(order), int(osr), int(n_out))
        for order in orders
        for osr in osrs
    ]
    executor = ParallelExecutor(jobs=jobs)
    cells = executor.map(_cell_task, items)
    enob = np.asarray(cells, dtype=float).reshape(len(orders), osrs.size)
    return DesignSpaceResult(
        orders=tuple(orders),
        osrs=osrs,
        enob=enob,
        conversion_rates_hz=rates,
        telemetry=executor.telemetry,
    )
