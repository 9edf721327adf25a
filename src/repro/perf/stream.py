"""Streaming orchestration: bounded-memory generate→simulate pipelines.

Genome-scale workloads (class D) produce traces too large to hold
resident. This module is the glue that lets the producers
(:meth:`repro.isa.interpreter.Machine.run_segments`,
:func:`repro.uarch.synthetic.generate_trace_segments`, the v3
tracestore's lazy :func:`repro.isa.tracestore.open_trace_segments`)
feed the carried-state consumers
(:meth:`repro.uarch.core.Core.simulate_stream`,
:func:`repro.uarch.batched.simulate_batched_stream`,
:func:`repro.bpred.replay.branch_stream`) without ever materialising
the whole trace:

* :func:`resolve_stream` / :func:`segment_events` read the
  ``REPRO_STREAM`` (default on) and ``REPRO_SEGMENT_EVENTS`` (default
  65536) switches;
* :func:`pipelined` overlaps generation with simulation through a
  bounded producer/consumer queue — the producer runs on its own
  thread, so the interpreter's pure-Python decode work interleaves
  with the simulator's loop at I/O and allocation points, and the
  queue depth bounds how many segments exist at once;
* every pipeline adds its ``stream.streams``,
  ``stream.segments_produced`` and ``stream.segments_consumed`` counts
  to a locked module accumulator, which the engine empties with
  :func:`drain_stream_stats` into its telemetry counters.
"""

from __future__ import annotations

import os
import queue
import sys
import threading

from repro.errors import WorkloadError

#: Values that turn a REPRO_* switch off (shared engine idiom).
_DISABLE_VALUES = ("off", "0", "false", "no")

#: Default bound on events per in-flight segment: large enough that
#: per-segment overheads (static-meta reuse, state handoff) vanish in
#: the noise, small enough that a segment's columns stay cache-friendly
#: and a handful of in-flight segments cost megabytes, not gigabytes.
DEFAULT_SEGMENT_EVENTS = 65_536

#: Default producer/consumer queue depth: one segment being consumed,
#: up to two queued, one being produced.
DEFAULT_QUEUE_DEPTH = 2

#: How long an abandoned pipeline waits for its producer thread to die
#: before declaring it wedged. The producer only ever blocks in 0.1 s
#: put timeouts, so anything near this bound means a stuck source
#: iterator, which must surface as an error rather than a silent hang.
JOIN_TIMEOUT_SECONDS = 30.0


def resolve_stream(stream: bool | None = None) -> bool:
    """Streaming switch: explicit > ``REPRO_STREAM`` > on.

    ``REPRO_STREAM=off`` (also ``0`` / ``false`` / ``no``) disables
    segment streaming — traces are materialised and simulated
    monolithically, exactly as before this subsystem existed; anything
    else leaves streaming enabled.
    """
    if stream is not None:
        return stream
    env = os.environ.get("REPRO_STREAM", "").strip().lower()
    return env not in _DISABLE_VALUES


def segment_events(override: int | None = None) -> int:
    """Events per segment: explicit > ``REPRO_SEGMENT_EVENTS`` > 65536."""
    if override is None:
        env = os.environ.get("REPRO_SEGMENT_EVENTS", "").strip()
        if not env:
            return DEFAULT_SEGMENT_EVENTS
        try:
            override = int(env)
        except ValueError:
            raise WorkloadError(
                f"REPRO_SEGMENT_EVENTS must be an integer, got {env!r}"
            ) from None
    if override < 1:
        raise WorkloadError(
            f"segment size must be positive, got {override}"
        )
    return override


#: Run-wide ``stream.*`` counters, drained by the engine after each run.
_COUNTERS: dict[str, int] = {}
_COUNTERS_LOCK = threading.Lock()


def drain_stream_stats() -> dict[str, int]:
    """Hand off and reset the accumulated counters (empty when no
    pipeline ran since the last drain)."""
    global _COUNTERS
    with _COUNTERS_LOCK:
        drained, _COUNTERS = _COUNTERS, {}
    return drained


class _Poison:
    """Queue sentinel carrying the producer's terminal state."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException | None = None) -> None:
        self.error = error


def pipelined(segments, depth: int = DEFAULT_QUEUE_DEPTH):
    """Run a segment producer on its own thread, bounded by ``depth``.

    Wraps any segment iterator in a producer thread plus a bounded
    :class:`queue.Queue` and yields the segments in order. At most
    ``depth`` finished segments are buffered, so memory stays bounded
    while generation overlaps consumption. A producer exception is
    re-raised at the consumer's next pull (after in-flight segments
    drain), preserving the sequential path's error surface; if the
    consumer abandons the iterator early, the producer is unblocked
    and joined. Once the stream finishes, its segment counts are added
    to the run-wide counters (:func:`drain_stream_stats`).
    """
    if depth < 1:
        raise WorkloadError(f"pipeline depth must be positive, got {depth}")
    produced = consumed = 0
    channel: queue.Queue = queue.Queue(maxsize=depth)
    abandoned = threading.Event()
    #: The producer's terminal exception, visible to the close path even
    #: when the consumer never pulls the poison that carries it.
    failure: list[BaseException] = []
    delivered = False

    def offer(item) -> bool:
        """Put that never outlives abandonment (a plain ``put`` can
        block forever if the consumer left and the drain slot refilled)."""
        while not abandoned.is_set():
            try:
                channel.put(item, timeout=0.1)
                return True
            except queue.Full:
                continue
        return False

    def produce() -> None:
        nonlocal produced
        try:
            for segment in segments:
                produced += 1
                if not offer(segment):
                    return
            offer(_Poison())
        except BaseException as error:  # re-raised on the consumer side
            failure.append(error)
            offer(_Poison(error))

    producer = threading.Thread(
        target=produce, name="repro-stream-producer", daemon=True
    )
    producer.start()
    try:
        while True:
            item = channel.get()
            if isinstance(item, _Poison):
                if item.error is not None:
                    delivered = True
                    raise item.error
                break
            consumed += 1
            yield item
    finally:
        abandoned.set()
        # Unblock a producer waiting on a full queue, then reap it.
        while True:
            try:
                channel.get_nowait()
            except queue.Empty:
                break
        producer.join(JOIN_TIMEOUT_SECONDS)
        with _COUNTERS_LOCK:
            for name, value in (
                ("stream.streams", 1),
                ("stream.segments_produced", produced),
                ("stream.segments_consumed", consumed),
            ):
                _COUNTERS[name] = _COUNTERS.get(name, 0) + value
        if producer.is_alive():
            raise WorkloadError(
                "stream producer thread failed to stop within "
                f"{JOIN_TIMEOUT_SECONDS:g}s of abandonment"
            )
        # A producer that died *after* abandonment (its source iterator
        # raised during wind-down) must not fail silently — but never
        # mask an exception already propagating on the consumer side.
        if failure and not delivered:
            pending = sys.exc_info()[0]
            if pending is None or pending is GeneratorExit:
                raise failure[0]
