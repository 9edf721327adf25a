"""Last-level cache study for parallel workloads (§VII, ref. [26]).

The paper's related work cites Jaleel/Mattina/Jacob's finding that
parallel bioinformatics workloads share data heavily, so a *shared*
last-level cache needs far less off-chip bandwidth than private ones.
This module reproduces that experiment's machinery: feed the data
address streams of several worker traces through either one shared LLC
or per-worker private LLCs (same total capacity) and compare the miss
traffic — the off-chip-bandwidth proxy the original study used.

Timing is deliberately out of scope (as in the original, a cache
study): workers' accesses interleave round-robin in fixed quanta.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.isa.trace import F_LOAD, F_STORE, NO_VALUE, Trace, TraceEvent
from repro.uarch.cache import L1DCache
from repro.uarch.config import CacheConfig


@dataclass(frozen=True)
class LlcConfig:
    """Last-level cache geometry (a small L2/L3; default 256 KiB)."""

    total_size_bytes: int = 256 * 1024
    line_bytes: int = 128
    ways: int = 8

    def cache_config(self, share: int = 1) -> CacheConfig:
        """Geometry of one slice when capacity is split ``share`` ways."""
        if self.total_size_bytes % share:
            raise SimulationError(
                "LLC capacity must divide evenly across private slices"
            )
        return CacheConfig(
            size_bytes=self.total_size_bytes // share,
            line_bytes=self.line_bytes,
            ways=self.ways,
        )


@dataclass
class LlcResult:
    """Miss traffic of one organisation."""

    organisation: str
    accesses: int
    misses: int

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


_MEMORY_MASK = F_LOAD | F_STORE


def _address_stream(trace: Trace | list[TraceEvent]) -> list[int]:
    if isinstance(trace, Trace):
        start, stop = trace._bounds()
        flags = trace.flags
        addresses = trace.address
        return [
            addresses[i]
            for i in range(start, stop)
            if flags[i] & _MEMORY_MASK and addresses[i] != NO_VALUE
        ]
    return [
        event.address
        for event in trace
        if (event.is_load or event.is_store) and event.address is not None
    ]


def simulate_llc(
    worker_traces: "list[Trace | list[TraceEvent]]",
    config: LlcConfig | None = None,
    shared: bool = True,
    quantum: int = 256,
) -> LlcResult:
    """Run the workers' data accesses through one LLC organisation.

    ``shared=True`` sends every worker through a single cache of the
    full capacity; ``shared=False`` gives each worker a private slice
    of ``total/num_workers``. Accesses interleave round-robin in
    ``quantum``-sized bursts, approximating concurrent execution.
    """
    if not worker_traces:
        raise SimulationError("need at least one worker trace")
    if quantum < 1:
        raise SimulationError("quantum must be positive")
    config = config or LlcConfig()
    streams = [_address_stream(trace) for trace in worker_traces]
    workers = len(streams)

    if shared:
        caches = [L1DCache(config.cache_config(share=1))] * workers
        organisation = "shared"
    else:
        caches = [
            L1DCache(config.cache_config(share=workers))
            for _ in range(workers)
        ]
        organisation = "private"

    accesses = 0
    misses = 0
    cursors = [0] * workers
    live = True
    while live:
        live = False
        for worker in range(workers):
            stream = streams[worker]
            cursor = cursors[worker]
            if cursor >= len(stream):
                continue
            live = True
            cache = caches[worker]
            for address in stream[cursor : cursor + quantum]:
                accesses += 1
                if not cache.access(address):
                    misses += 1
            cursors[worker] = cursor + quantum
    return LlcResult(organisation, accesses, misses)


@dataclass(frozen=True)
class SharingStudy:
    """Shared-vs-private comparison for one parallel workload."""

    shared: LlcResult
    private: LlcResult

    @property
    def bandwidth_ratio(self) -> float:
        """Private-to-shared miss-traffic ratio (>1 favours shared)."""
        if self.shared.misses == 0:
            return float("inf") if self.private.misses else 1.0
        return self.private.misses / self.shared.misses

    def to_payload(self) -> dict:
        """JSON form: accesses and misses per organisation."""
        return {
            result.organisation: {
                "accesses": result.accesses, "misses": result.misses,
            }
            for result in (self.shared, self.private)
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SharingStudy":
        shared, private = (
            LlcResult(organisation, int(payload[organisation]["accesses"]),
                      int(payload[organisation]["misses"]))
            for organisation in ("shared", "private")
        )
        return cls(shared=shared, private=private)


def sharing_study(
    worker_traces: "list[Trace | list[TraceEvent]]",
    config: LlcConfig | None = None,
) -> SharingStudy:
    """Compare shared and private LLC organisations on one workload."""
    return SharingStudy(
        shared=simulate_llc(worker_traces, config, shared=True),
        private=simulate_llc(worker_traces, config, shared=False),
    )
