"""Fault-tolerant process-pool fan-out of design points.

The scheduler deduplicates in-flight keys (a sweep that names the same
(app, variant, config) twice simulates it once), folds the unique
pending points into dispatch units, fans the units out over a
``concurrent.futures`` process pool, and merges worker results — and
worker telemetry — back into the parent engine. Workers share the
parent's persistent cache directory, so a trace or result any worker
generates is visible to every later run.

A unit is the pending points of one ``(app, variant)`` — within one run
the trace-digest equivalence class (:func:`group_by_trace`) — or, with
batching off (``REPRO_BATCH=off``), one point. Every unit runs the same
way, in-process or in a pool worker: through
:meth:`Engine.characterize_batch`, which decodes and frontend-walks the
unit's workload trace once for all of its core configs. Results fan
back into the memo, the persistent cache and the run journal exactly as
if each point ran alone (byte-identical payloads, one ``point_done``
record per point). A unit reads its own traces: it streams them from
the trace store frame by frame, or generates them on a miss, so nothing
decodes a trace ahead of the unit that simulates it.

Unlike a plain ``pool.map``, one bad point cannot abort the sweep. The
serial and pool loops share one failure policy:

* a unit of several points that fails — worker exception, crash, or
  deadline — splits into one-point units and bills no point, so
  batching can change throughput but never which points succeed;
* a one-point unit is billed an attempt and retried with exponential
  backoff up to ``retries`` (``REPRO_POINT_RETRIES``) extra attempts;
  a point that still fails becomes a structured
  :class:`~repro.engine.telemetry.PointFailure`. Under
  ``on_error="raise"`` (the default) the sweep then raises
  :class:`~repro.errors.SweepError` naming exactly the failed points;
  under ``on_error="keep_going"`` the completed points are returned in
  input order with ``None`` in the failed slots.

The pool loop adds what only worker processes allow:

* every unit carries a deadline, ``timeout`` (``REPRO_POINT_TIMEOUT``)
  per point it holds; a hung worker is reclaimed by killing and
  rebuilding the pool;
* a worker process dying (``BrokenProcessPool``) rebuilds the pool and
  resumes the remaining units; because the crash takes every in-flight
  future down with it, the victims are resubmitted **one at a time**
  (unbilled) so the culprit is identified exactly and innocent points
  are never billed for someone else's crash;
* if the pool keeps dying (more than ``max_rebuilds`` rebuilds) the
  remaining units degrade gracefully to the serial loop.

Job count resolution: explicit argument, else the ``REPRO_JOBS``
environment variable, else ``os.cpu_count()``. The serial loop
(``jobs=1`` or a single pending unit) runs in-process: retries and
failure records still apply, but timeouts are not enforced and a
hard-crashing point takes the parent down — use ``jobs >= 2`` when
fault isolation matters.

Parallel output is byte-identical to serial output because every point
is deterministic, simulated on a fresh core, and results are merged
back by key (never by completion order).
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback as traceback_module
from collections import deque

from repro.errors import SweepError, SweepInterrupted, WorkloadError
from repro.uarch.config import CoreConfig

#: Error policies for :func:`fan_out`.
ON_ERROR_RAISE = "raise"
ON_ERROR_KEEP_GOING = "keep_going"

#: Default bounded-retry / backoff / rebuild knobs (env-overridable).
DEFAULT_RETRIES = 1
DEFAULT_BACKOFF_SECONDS = 0.05
DEFAULT_MAX_REBUILDS = 3

#: How often the pool loop wakes to check for a delivered SIGINT/SIGTERM
#: when graceful-interrupt handlers are installed (a signal interrupts
#: ``wait`` but cannot make it return early, so the loop polls).
_INTERRUPT_POLL_SECONDS = 0.25

#: Telemetry/SweepError caveat for the in-process execution path.
SERIAL_TIMEOUT_NOTE = (
    "serial path (jobs=1 or a single pending unit): per-point timeouts "
    "are not enforced, so a hang is the design point itself, not a "
    "scheduler fault; use jobs >= 2 to enforce deadlines"
)


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit > ``REPRO_JOBS`` > ``os.cpu_count()``."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise WorkloadError(
                    f"REPRO_JOBS must be an integer, got {env!r}"
                ) from None
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise WorkloadError(f"jobs must be >= 1, got {jobs}")
    return jobs


def resolve_timeout(timeout: float | None = None) -> float | None:
    """Per-point deadline in seconds: explicit > ``REPRO_POINT_TIMEOUT``.

    ``None`` or a non-positive value disables the deadline.
    """
    if timeout is None:
        env = os.environ.get("REPRO_POINT_TIMEOUT", "").strip()
        if env:
            try:
                timeout = float(env)
            except ValueError:
                raise WorkloadError(
                    f"REPRO_POINT_TIMEOUT must be a number, got {env!r}"
                ) from None
    if timeout is not None and timeout <= 0:
        return None
    return timeout


def resolve_retries(retries: int | None = None) -> int:
    """Extra attempts per point: explicit > ``REPRO_POINT_RETRIES`` > 1."""
    if retries is None:
        env = os.environ.get("REPRO_POINT_RETRIES", "").strip()
        if env:
            try:
                retries = int(env)
            except ValueError:
                raise WorkloadError(
                    f"REPRO_POINT_RETRIES must be an integer, got {env!r}"
                ) from None
        else:
            retries = DEFAULT_RETRIES
    if retries < 0:
        raise WorkloadError(f"retries must be >= 0, got {retries}")
    return retries


def resolve_backoff(backoff: float | None = None) -> float:
    """Base retry backoff in seconds: explicit > ``REPRO_RETRY_BACKOFF``."""
    if backoff is None:
        env = os.environ.get("REPRO_RETRY_BACKOFF", "").strip()
        if env:
            try:
                backoff = float(env)
            except ValueError:
                raise WorkloadError(
                    f"REPRO_RETRY_BACKOFF must be a number, got {env!r}"
                ) from None
        else:
            backoff = DEFAULT_BACKOFF_SECONDS
    if backoff < 0:
        raise WorkloadError(f"backoff must be >= 0, got {backoff}")
    return backoff


def resolve_batch(batch: bool | None = None) -> bool:
    """Batched simulation switch: explicit > ``REPRO_BATCH`` > on.

    ``REPRO_BATCH=off`` (also ``0`` / ``false`` / ``no``) disables
    trace-sharing batch dispatch; anything else leaves it enabled.
    """
    if batch is not None:
        return batch
    env = os.environ.get("REPRO_BATCH", "").strip().lower()
    return env not in ("off", "0", "false", "no")


def group_by_trace(keys) -> dict:
    """Group point keys by the workload trace their points replay.

    Two design points share a trace pass iff they name the same
    ``(app, variant)`` pair: the trace store content-addresses traces
    by workload and source digest, so within a single run the pair *is*
    the trace-digest equivalence class. Returns
    ``{(app, variant): [key, ...]}`` in first-seen order.
    """
    groups: dict = {}
    for key in keys:
        groups.setdefault(key[:2], []).append(key)
    return groups


def _pool_context():
    """Prefer fork: a forked worker starts without re-importing the
    program; spawn where fork is unavailable."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _worker_init(graceful_parent: bool, workers: int) -> None:
    """Reset signal disposition in pool workers; split the CPUs.

    Forked workers inherit whatever handlers the parent had at fork
    time — including :class:`_InterruptWatch`'s graceful SIGTERM
    handler, which merely sets a flag and would make workers immune to
    ``Process.terminate()``. Workers must always die on SIGTERM (that
    is how hung or orphaned workers are reclaimed). Under a graceful
    parent they additionally ignore SIGINT: a terminal Ctrl-C goes to
    the whole process group, and the *parent* decides how to stop.

    A replay call spreads its configs over one thread per CPU of the
    affinity mask; ``workers`` pool workers share those CPUs, so each
    replays on ``max(1, cpus // workers)`` threads.
    """
    from repro.uarch.batched import host_cpus, set_replay_threads

    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if graceful_parent:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    set_replay_threads(max(1, host_cpus() // workers))


def _characterize_worker(task):
    """Run one unit in a worker process (module-level: picklable).

    ``task`` is ``(app, variant, configs, cache_root)``. The worker
    re-points its process-wide cache at the parent's directory
    explicitly (the perf-layer trace store persists through the
    process-wide cache, not the engine's private one), then runs the
    unit through :meth:`Engine.characterize_batch` on a
    process-wide-cache-backed engine, so trace and result counters both
    land in the returned telemetry.
    """
    app, variant, configs, cache_root = task
    from repro.engine.cache import use_cache_dir
    from repro.engine.engine import Engine

    use_cache_dir(cache_root)
    engine = Engine()
    return engine.characterize_batch(app, variant, configs), engine.stats


class _Unit:
    """Pending points of one ``(app, variant)``, dispatched together.

    ``attempts`` bills a one-point unit. A unit of several points is
    never billed: when it fails it splits into one-point units.
    """

    __slots__ = ("app", "variant", "keys", "configs", "attempts")

    def __init__(self, keys: list, configs: list) -> None:
        self.app, self.variant = keys[0][:2]
        self.keys = keys
        self.configs = configs
        self.attempts = 0

    def split(self) -> list["_Unit"]:
        return [
            _Unit([key], [config])
            for key, config in zip(self.keys, self.configs)
        ]


def _units(pending: dict, batch: bool) -> list[_Unit]:
    """Fold ``{key: config}`` into dispatch units, in first-seen order:
    one per ``(app, variant)`` with ``batch``, else one per point."""
    groups = group_by_trace(pending).values() if batch else (
        [key] for key in pending
    )
    return [_Unit(keys, [pending[key] for key in keys]) for keys in groups]


class _Interrupted(Exception):
    """Internal: a graceful-stop signal arrived mid-sweep."""

    def __init__(self, signal_name: str) -> None:
        self.signal_name = signal_name
        super().__init__(signal_name)


class _InterruptWatch:
    """Deferred SIGINT/SIGTERM: first signal requests a graceful stop.

    Installed only while a journaled sweep runs in the main thread. The
    first signal sets a flag the scheduler loops poll — the journal is
    already flushed record-by-record, so stopping between completions
    loses only the in-flight window. A second SIGINT falls through to
    :class:`KeyboardInterrupt` so a stuck sweep can still be killed.
    """

    def __init__(self) -> None:
        self.signal_name: str | None = None
        self.installed = False
        self._previous: dict[int, object] = {}

    @property
    def triggered(self) -> bool:
        return self.signal_name is not None

    def _handle(self, signum, frame) -> None:
        if self.signal_name is not None and signum == signal.SIGINT:
            raise KeyboardInterrupt
        self.signal_name = signal.Signals(signum).name

    def __enter__(self) -> "_InterruptWatch":
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._previous[signum] = signal.signal(
                        signum, self._handle
                    )
                except (ValueError, OSError):  # pragma: no cover
                    continue
            self.installed = bool(self._previous)
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover
                continue
        self._previous.clear()
        self.installed = False

    def check(self) -> None:
        if self.signal_name is not None:
            raise _Interrupted(self.signal_name)


def _point_failure(unit: _Unit, kind: str, error_type: str, message: str,
                   tb: str):
    from repro.engine.digest import SHORT_DIGEST
    from repro.engine.telemetry import PointFailure

    ((app, variant, digest),) = unit.keys
    return PointFailure(
        app=app,
        variant=variant,
        config_digest=digest[:SHORT_DIGEST],
        kind=kind,
        error_type=error_type,
        message=message,
        traceback=tb,
        attempts=unit.attempts,
    )


def _shutdown_pool(pool, kill: bool = False) -> None:
    """Tear a pool down; ``kill`` terminates workers (hung or broken).

    Termination escalates to SIGKILL for workers that survive SIGTERM —
    otherwise interpreter exit would block forever joining the
    executor's management thread while a hung worker sleeps on.
    """
    if kill:
        processes = list(
            (getattr(pool, "_processes", None) or {}).values()
        )
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass
        for process in processes:
            try:
                process.join(timeout=5.0)
                if process.is_alive():
                    process.kill()
            except Exception:
                pass
    try:
        pool.shutdown(wait=not kill, cancel_futures=True)
    except Exception:
        pass


def _result_digest(result) -> str:
    """Digest of a point's canonical result payload (for the journal)."""
    from repro.engine import serialize
    from repro.engine.digest import result_payload_digest

    return result_payload_digest(serialize.characterisation_to_dict(result))


def _journal_done(journal, key, result) -> None:
    if journal is not None:
        journal.record_point_done(key, _result_digest(result))


def _journal_failed(journal, key, failure) -> None:
    if journal is not None:
        journal.record_point_failed(
            key, failure.kind, failure.error_type, failure.message
        )


class _Policy:
    """The one failure policy of the serial and pool loops.

    Owns the queue of units both loops drain, the failures recorded so
    far and the journal the outcomes go to.
    """

    def __init__(self, units, retries: int, backoff: float,
                 journal=None) -> None:
        self.queue: deque = deque(units)
        self.failures: dict = {}
        self.retries = retries
        self.backoff = backoff
        self.journal = journal

    def done(self, unit: _Unit, results) -> None:
        for key, result in zip(unit.keys, results):
            _journal_done(self.journal, key, result)

    def failed(self, unit: _Unit, kind: str, error_type: str,
               message: str, tb: str) -> list[_Unit]:
        """Settle one failed attempt; returns the units requeued.

        A unit of several points splits into one-point units, none of
        them billed, so a bad point can only ever fail itself. A
        one-point unit, already billed this attempt, is retried with
        backoff while it has attempts left and recorded otherwise.
        Requeued units go to the front of the queue.
        """
        if len(unit.keys) > 1:
            requeued = unit.split()
        elif unit.attempts > self.retries:
            failure = _point_failure(unit, kind, error_type, message, tb)
            self.failures[unit.keys[0]] = failure
            _journal_failed(self.journal, unit.keys[0], failure)
            return []
        else:
            time.sleep(self.backoff * (2 ** (unit.attempts - 1)))
            requeued = [unit]
        self.queue.extendleft(reversed(requeued))
        return requeued


def _run_serial(engine, policy: _Policy, watch=None) -> None:
    """Drain ``policy.queue`` in-process.

    Per-point deadlines are **not** enforced here (there is no worker
    process to kill): see :data:`SERIAL_TIMEOUT_NOTE`. A graceful-stop
    signal is honoured between units — an in-flight unit runs to
    completion first.
    """
    from repro.engine.telemetry import FAILURE_EXCEPTION

    queue = policy.queue
    while queue:
        if watch is not None:
            watch.check()
        unit = queue.popleft()
        unit.attempts += 1
        try:
            results = engine.characterize_batch(
                unit.app, unit.variant, unit.configs
            )
        except Exception as exc:
            policy.failed(
                unit, FAILURE_EXCEPTION, type(exc).__name__, str(exc),
                traceback_module.format_exc(),
            )
        else:
            policy.done(unit, results)


def _run_pool(engine, policy: _Policy, workers: int, worker,
              timeout: float | None, max_rebuilds: int,
              watch=None) -> None:
    """Drain ``policy.queue`` through a self-healing process pool.

    Every success is adopted into ``engine`` directly (and journaled,
    when a journal is attached); failures settle through ``policy``. A
    graceful-stop signal kills the pool immediately — every
    already-journaled completion is durable, so only the in-flight
    window is lost.
    """
    # Imported here, like multiprocessing in _pool_context: only a pool
    # run needs them, and a serial or fully cached run never loads them.
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    from repro.engine.telemetry import (
        FAILURE_CRASH,
        FAILURE_EXCEPTION,
        FAILURE_TIMEOUT,
    )

    context = _pool_context()
    cache_root = engine.cache.root
    queue = policy.queue
    #: Units that were in flight when a pool died. While any remain,
    #: submission narrows to one unit at a time so the next crash is
    #: attributable to exactly one unit.
    suspects: set = set()
    rebuilds = 0
    pool = None
    in_flight: dict = {}  # future -> (unit, deadline)

    def fail(unit, kind, error_type, message, tb):
        suspects.discard(unit)
        requeued = policy.failed(unit, kind, error_type, message, tb)
        if kind == FAILURE_CRASH:
            # Still crash suspects on their next (isolated) attempts.
            suspects.update(requeued)

    def spare(unit):
        """A victim of someone else's fault: refund its attempt and
        isolate it while it drains."""
        unit.attempts -= 1
        suspects.add(unit)
        queue.append(unit)

    def submit_ready():
        if suspects:
            # Surface suspects first, one at a time, so a repeat crash
            # names its culprit exactly.
            ordered = sorted(queue, key=lambda unit: unit not in suspects)
            queue.clear()
            queue.extend(ordered)
        window = 1 if suspects else workers
        while queue and len(in_flight) < window:
            unit = queue.popleft()
            unit.attempts += 1
            try:
                future = pool.submit(
                    worker,
                    (unit.app, unit.variant, unit.configs, cache_root),
                )
            except BrokenProcessPool:
                # The pool died under a crash we have not drained yet:
                # put the unit back unbilled and let the caller rebuild.
                unit.attempts -= 1
                queue.appendleft(unit)
                raise
            # A unit's deadline scales with the points it holds.
            deadline = (
                time.monotonic() + timeout * len(unit.keys)
                if timeout is not None else None
            )
            in_flight[future] = (unit, deadline)

    def abandon_pool(kill):
        """Kill/shut the pool; spare the in-flight units; count a
        rebuild."""
        nonlocal pool, rebuilds
        for unit, _ in in_flight.values():
            spare(unit)
        in_flight.clear()
        _shutdown_pool(pool, kill=kill)
        pool = None
        rebuilds += 1
        engine.stats.count("recovery.pool_rebuilds")

    try:
        while queue or in_flight:
            if watch is not None and watch.triggered:
                # Graceful stop: the journal already holds every
                # completed point; reclaim the workers and surface the
                # interrupt. In-flight attempts are simply lost (their
                # points re-run on resume).
                _shutdown_pool(pool, kill=True)
                pool = None
                watch.check()
            if pool is None:
                if rebuilds > max_rebuilds:
                    # The pool keeps dying: finish the remainder serially.
                    engine.stats.count("recovery.serial_fallbacks")
                    _run_serial(engine, policy, watch=watch)
                    break
                pool = ProcessPoolExecutor(
                    max_workers=workers, mp_context=context,
                    initializer=_worker_init,
                    initargs=(watch is not None and watch.installed, workers),
                )
            try:
                submit_ready()
            except BrokenProcessPool:
                abandon_pool(kill=True)
                continue
            if not in_flight:
                continue

            wait_for = None
            if timeout is not None:
                now = time.monotonic()
                nearest = min(
                    deadline for _, deadline in in_flight.values()
                )
                wait_for = max(0.0, nearest - now)
            if watch is not None and watch.installed:
                # A signal interrupts wait() but cannot end it early, so
                # cap the sleep: the loop re-checks the flag each lap.
                wait_for = (
                    _INTERRUPT_POLL_SECONDS
                    if wait_for is None
                    else min(wait_for, _INTERRUPT_POLL_SECONDS)
                )
            done, _ = wait(
                set(in_flight), timeout=wait_for,
                return_when=FIRST_COMPLETED,
            )

            crashed: list = []
            for future in done:
                unit, _ = in_flight.pop(future)
                try:
                    results, stats = future.result()
                except BrokenProcessPool as exc:
                    crashed.append((unit, exc))
                except Exception as exc:
                    # The worker raised but the pool survived.
                    fail(
                        unit, FAILURE_EXCEPTION, type(exc).__name__,
                        str(exc),
                        "".join(traceback_module.format_exception(exc)),
                    )
                else:
                    engine.stats.merge(stats)
                    for config, result in zip(unit.configs, results):
                        engine.adopt(unit.app, unit.variant, config, result)
                    suspects.discard(unit)
                    policy.done(unit, results)

            if crashed:
                if len(crashed) == 1 and not in_flight:
                    # Exactly one unit was in flight: the crash is its.
                    unit, exc = crashed[0]
                    fail(
                        unit, FAILURE_CRASH, type(exc).__name__, str(exc),
                        "",
                    )
                else:
                    # Ambiguous: spare everyone; they retry one at a time.
                    for unit, _ in crashed:
                        spare(unit)
                abandon_pool(kill=True)
                continue

            if timeout is not None and in_flight:
                now = time.monotonic()
                expired = [
                    future
                    for future, (_, deadline) in in_flight.items()
                    if deadline <= now
                ]
                if expired:
                    for future in expired:
                        unit, _ = in_flight.pop(future)
                        fail(
                            unit, FAILURE_TIMEOUT, "TimeoutError",
                            f"design point exceeded {timeout:g}s", "",
                        )
                    # A hung worker can only be reclaimed by killing the
                    # pool; the survivors are spared.
                    abandon_pool(kill=True)
    finally:
        if pool is not None:
            _shutdown_pool(pool)


def fan_out(
    engine,
    points: list[tuple[str, str, CoreConfig]],
    jobs: int | None = None,
    *,
    on_error: str = ON_ERROR_RAISE,
    timeout: float | None = None,
    retries: int | None = None,
    backoff: float | None = None,
    max_rebuilds: int | None = None,
    worker=None,
    journal=True,
    run_id: str | None = None,
    batch: bool | None = None,
) -> list:
    """Characterize ``points`` with up to ``jobs`` workers.

    Returns results in input order. Points already memoised in
    ``engine`` are served from memory; the rest are deduplicated by
    canonical key and dispatched once each, with per-point deadlines,
    bounded retries, and pool-rebuild recovery (module docstring).

    Under ``on_error="keep_going"`` the failed points' slots hold
    ``None``; under ``on_error="raise"`` a :class:`SweepError` names
    them (successful points stay memoised either way).

    Durability: with ``journal=True`` (the default) and an enabled
    persistent cache, the sweep appends to a run journal
    (``runs/<run_id>.jsonl`` under the cache dir) — a header, one
    fsync'd record per completed/failed point, and a completion footer
    (see :mod:`repro.engine.journal`). While the journal is open,
    SIGINT/SIGTERM request a *graceful* stop: the pool is killed, the
    journal stays valid, and :class:`SweepInterrupted` (naming the
    resumable ``run_id``) is raised instead of a bare
    ``KeyboardInterrupt``. Pass an existing
    :class:`~repro.engine.journal.RunJournal` to continue a resumed
    run (the scheduler then owns and closes it), or ``journal=False``
    to disable durability entirely.

    ``batch`` folds each ``(app, variant)``'s pending points into one
    unit (module docstring); ``None`` defers to ``REPRO_BATCH``
    (default on). ``worker`` replaces the pool worker function (tests
    instrument it); it receives the same units the default one does.
    """
    from repro.engine.digest import point_key
    from repro.engine.journal import RunJournal

    if on_error not in (ON_ERROR_RAISE, ON_ERROR_KEEP_GOING):
        raise WorkloadError(
            f"on_error must be {ON_ERROR_RAISE!r} or "
            f"{ON_ERROR_KEEP_GOING!r}, got {on_error!r}"
        )
    jobs = resolve_jobs(jobs)
    timeout = resolve_timeout(timeout)
    retries = resolve_retries(retries)
    backoff = resolve_backoff(backoff)
    if max_rebuilds is None:
        max_rebuilds = DEFAULT_MAX_REBUILDS
    batch = resolve_batch(batch)
    if worker is None:
        worker = _characterize_worker

    engine.stats.jobs = max(engine.stats.jobs, jobs)

    keys = [point_key(app, variant, config) for app, variant, config in points]
    pending: dict = {}  # key -> config
    for key, (_, _, config) in zip(keys, points):
        if key in engine._memo or key in pending:
            # Served from memory when the ordered output is assembled —
            # a real memo hit, counted once per duplicate request.
            engine.stats.memo_hits += 1
        else:
            pending[key] = config

    journal_obj: RunJournal | None = None
    if isinstance(journal, RunJournal):
        # A resume attempt: the caller re-opened the run's journal and
        # already replayed its completed points into the memo.
        journal_obj = journal
    elif journal and engine.cache.enabled and pending:
        journal_obj = RunJournal.create(
            engine.cache.root, points, jobs=jobs, run_id=run_id,
        )
        # Memo-served points are durable immediately: their results
        # exist, so a resume must never re-run them.
        for key in dict.fromkeys(keys):
            if key in engine._memo:
                journal_obj.record_point_done(
                    key, _result_digest(engine._memo[key])
                )

    serial_notes: list[str] = []
    failures: dict = {}
    # The engine's counters accumulate across sweeps; the journal
    # records this sweep's share.
    before = dict(engine.stats.counters)
    try:
        if pending:
            units = _units(pending, batch)
            policy = _Policy(units, retries, backoff, journal=journal_obj)
            with _InterruptWatch() if journal_obj is not None \
                    else _NullWatch() as watch:
                if jobs == 1 or len(units) == 1:
                    if timeout is not None:
                        serial_notes.append(SERIAL_TIMEOUT_NOTE)
                        engine.stats.note(SERIAL_TIMEOUT_NOTE)
                    _run_serial(engine, policy, watch=watch)
                else:
                    _run_pool(
                        engine, policy, min(jobs, len(units)), worker,
                        timeout, max_rebuilds, watch=watch,
                    )
            failures = policy.failures
        if journal_obj is not None:
            delta = {
                name: value - before.get(name, 0)
                for name, value in engine.stats.counters.items()
                if value != before.get(name, 0)
            }
            if delta:
                journal_obj.record_counters(delta)
            journal_obj.record_complete(len(failures))
    except _Interrupted as stop:
        unique = list(dict.fromkeys(keys))
        done = sum(1 for key in unique if key in engine._memo)
        raise SweepInterrupted(
            journal_obj.run_id if journal_obj is not None else None,
            stop.signal_name, done, len(unique) - done,
        ) from None
    finally:
        if journal_obj is not None:
            journal_obj.close()

    if failures:
        for failure in failures.values():
            engine.stats.record_failure(failure)
        if on_error == ON_ERROR_RAISE:
            raise SweepError(failures.values(), notes=serial_notes)

    return [engine._memo.get(key) for key in keys]


class _NullWatch:
    """Watch stand-in for unjournaled sweeps (signals untouched)."""

    installed = False
    triggered = False
    signal_name = None

    def __enter__(self) -> "_NullWatch":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def check(self) -> None:
        return None
