"""Batched multi-session fast path: one pass over many concurrent chains.

The single-session pipeline converts one subject x element at a time;
its per-stage Python seams (modulator -> CIC -> FIR -> quantize ->
frame -> decode) cost more than the arithmetic once the modulator loop
is compiled. This package adds a *leading batch axis* over whole readout
chains and fuses the full chip->sigma-delta->CIC->FIR->decode cascade
into one compiled pass (:mod:`repro.batch.kernel`), so one core
processes hundreds of concurrent 1 kS/s sessions.

Layering:

* :mod:`repro.batch.kernel` — marshalling for the fused C kernels in
  :mod:`repro.native` (modulator recurrence, Hogenauer CIC, polyphase
  FIR, 12-bit quantizer over ``B`` lanes per sample, plus the
  capacitive front end).
* :mod:`repro.batch.engine` — :class:`BatchChainEngine`, which adapts a
  list of :class:`~repro.core.chain.ReadoutChain` objects, fixed when
  the engine is built, to the kernel: state lives *in the chains*
  between calls, so any chunk split, and handing a chain back to
  single-session processing, is bit-identical.
* :mod:`repro.batch.session` — :class:`BatchAcquisitionSession`, the
  ``B``-lane :class:`~repro.core.session.LaneSession` (with counted
  links) whose one-lane, USB-linked case is
  :class:`~repro.core.session.AcquisitionSession`; per-lane
  :class:`~repro.core.session.PipelineTelemetry` still reconciles
  exactly.
"""

from .engine import BatchChainEngine
from .kernel import batch_kernel_available
from .session import BatchAcquisitionSession

__all__ = [
    "BatchAcquisitionSession",
    "BatchChainEngine",
    "batch_kernel_available",
]
