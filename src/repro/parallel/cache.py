"""Process-local cache for expensive, immutable precomputations.

Several constructions repeat identical numeric work every time an object
is built: the droop-compensating FIR design in :mod:`repro.dsp.fir`
re-runs ``firwin2`` for every :class:`~repro.core.chain.ReadoutChain`,
and :class:`~repro.mems.membrane.MembraneSensor` re-solves the plate
deflection and Chebyshev transfer fit for every chip. Within one
process — and in every worker of a
:class:`~repro.parallel.executor.ParallelExecutor` pool — those results
depend only on frozen parameter dataclasses, so they can be computed
once and shared.

:class:`PrecomputeCache` is a keyed memo with hit/miss counters. Keys
must be hashable; the convention is a tuple whose first entry names the
computation and whose remaining entries are the relevant frozen params
dataclasses (hashable by construction) or canonical scalars. Cached
values are treated as immutable — factories producing arrays mark them
read-only so accidental mutation fails loudly instead of corrupting
every later consumer.

One process-global instance (:func:`precompute_cache`) backs the
library's built-in uses. Forked pool workers inherit the parent's warm
entries copy-on-write; each worker then accumulates its own counters,
which the executor folds into its telemetry.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from ..errors import ConfigurationError


class PrecomputeCache:
    """Keyed memo for expensive per-task setup, with hit/miss counters.

    Never evicts: the built-in users cache a handful of param-keyed
    designs whose lifetime is the process. Not thread-safe (the executor
    parallelizes across processes, where each process sees its own
    instance); a racy double-compute would be benign anyway because
    cached values are deterministic functions of their keys.
    """

    def __init__(self) -> None:
        self._store: dict[Hashable, Any] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on miss.

        ``factory`` runs only on a miss and must return a value that is
        a pure function of the key (same key, same value — the executor's
        determinism contract relies on it). A raising factory leaves the
        cache untouched — no miss is counted and nothing is stored — so
        a retried ``get`` behaves exactly like a first attempt.
        """
        try:
            value = self._store[key]
        except TypeError as exc:
            raise ConfigurationError(
                f"precompute cache keys must be hashable, got {key!r}"
            ) from exc
        except KeyError:
            value = factory()
            # Counted and stored only after the factory succeeded: an
            # exception must not book a miss for work that never
            # produced a value (telemetry would double-count retries)
            # nor poison the store.
            self.misses += 1
            self._store[key] = value
            return value
        self.hits += 1
        return value

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        self._store.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._store


#: The process-local cache behind the library's built-in precomputations.
_GLOBAL_CACHE = PrecomputeCache()


def precompute_cache() -> PrecomputeCache:
    """The process-local :class:`PrecomputeCache` instance.

    Module-level so forked executor workers share the parent's warm
    entries (copy-on-write) while keeping per-process counters.
    """
    return _GLOBAL_CACHE
