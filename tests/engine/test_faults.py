"""Scheduler recovery paths under deterministic fault injection.

Every test drives a real multi-point sweep through ``fan_out`` with the
fault-wrapping worker from :mod:`tests.engine.faults`: workers that
raise, hard-exit (breaking the process pool), or hang on demand. A
module-scoped persistent cache keeps repeated points cheap — faults are
injected *before* the worker touches the cache, so recovery behaviour
is unaffected by warm entries.
"""

import pytest

from repro.engine import cache as cache_module
from repro.engine.digest import SHORT_DIGEST, config_digest
from repro.engine.engine import Engine
from repro.engine.scheduler import (
    fan_out,
    resolve_backoff,
    resolve_retries,
    resolve_timeout,
)
from repro.engine.telemetry import (
    FAILURE_CRASH,
    FAILURE_EXCEPTION,
    FAILURE_TIMEOUT,
)
from repro.errors import SweepError, WorkloadError
from repro.uarch.config import power5

from tests.engine import faults

#: Four real design points (input order matters to the assertions).
POINTS = [
    ("blast", "baseline", power5()),
    ("clustalw", "baseline", power5()),
    ("fasta", "baseline", power5()),
    ("hmmer", "baseline", power5()),
]


@pytest.fixture(scope="module")
def shared_cache_root(tmp_path_factory):
    """One persistent cache for the module: retries hit warm entries."""
    return tmp_path_factory.mktemp("fault-cache")


@pytest.fixture()
def engine(shared_cache_root, restore_globals):
    cache_module.use_cache_dir(shared_cache_root)
    return Engine(cache_dir=shared_cache_root)


class TestRetries:
    def test_transient_exception_retried_to_success(
        self, engine, tmp_path, monkeypatch
    ):
        faults.install_plan(
            tmp_path / "plan", monkeypatch,
            {"fasta:baseline": (faults.MODE_RAISE, 1)},
        )
        results = fan_out(
            engine, POINTS, jobs=2, retries=1, backoff=0.0,
            worker=faults.faulty_worker,
        )
        assert [r.app for r in results] == [p[0] for p in POINTS]
        assert engine.stats.failures == []
        assert engine.stats.counters.get("recovery.pool_rebuilds", 0) == 0

    def test_hard_exit_rebuilds_pool_and_resumes(
        self, engine, tmp_path, monkeypatch
    ):
        faults.install_plan(
            tmp_path / "plan", monkeypatch,
            {"hmmer:baseline": (faults.MODE_EXIT, 1)},
        )
        results = fan_out(
            engine, POINTS, jobs=2, retries=1, backoff=0.0,
            worker=faults.faulty_worker,
        )
        assert [r.app for r in results] == [p[0] for p in POINTS]
        assert engine.stats.failures == []
        assert engine.stats.counters["recovery.pool_rebuilds"] >= 1

    def test_serial_path_retries_and_keeps_going(self, engine, monkeypatch):
        real = engine.characterize_batch
        calls = {"fasta": 0}

        def flaky(app, variant, configs):
            if app == "fasta":
                calls["fasta"] += 1
                raise RuntimeError("flaky serial point")
            return real(app, variant, configs)

        monkeypatch.setattr(engine, "characterize_batch", flaky)
        results = engine.characterize_many(
            POINTS, jobs=1, retries=1, backoff=0.0, on_error="keep_going"
        )
        assert results[2] is None
        assert [r.app for i, r in enumerate(results) if i != 2] == [
            "blast", "clustalw", "hmmer"
        ]
        assert calls["fasta"] == 2  # first attempt + one retry
        (failure,) = engine.stats.failures
        assert failure.kind == FAILURE_EXCEPTION
        assert failure.attempts == 2


class TestTimeouts:
    def test_hung_point_becomes_timeout_failure(
        self, engine, tmp_path, monkeypatch
    ):
        faults.install_plan(
            tmp_path / "plan", monkeypatch,
            {"blast:baseline": (faults.MODE_HANG, faults.ALWAYS)},
        )
        results = fan_out(
            engine, POINTS, jobs=2, timeout=1.0, retries=0, backoff=0.0,
            on_error="keep_going", worker=faults.faulty_worker,
        )
        assert results[0] is None
        assert [r.app for r in results[1:]] == ["clustalw", "fasta", "hmmer"]
        (failure,) = engine.stats.failures
        assert failure.kind == FAILURE_TIMEOUT
        assert failure.app == "blast"
        assert failure.attempts == 1
        assert engine.stats.counters["recovery.pool_rebuilds"] >= 1

    def test_pool_that_keeps_dying_degrades_to_serial(
        self, engine, tmp_path, monkeypatch
    ):
        faults.install_plan(
            tmp_path / "plan", monkeypatch,
            {
                f"{app}:baseline": (faults.MODE_EXIT, faults.ALWAYS)
                for app, _variant, _config in POINTS
            },
        )
        results = fan_out(
            engine, POINTS, jobs=2, retries=1, backoff=0.0,
            max_rebuilds=0, on_error="keep_going",
            worker=faults.faulty_worker,
        )
        # Every pool worker dies on sight and rebuilding is forbidden:
        # the whole sweep degrades to in-process execution (where the
        # injected worker faults cannot reach) and still completes.
        assert [r.app for r in results] == [p[0] for p in POINTS]
        assert engine.stats.failures == []
        assert engine.stats.counters["recovery.pool_rebuilds"] == 1
        assert engine.stats.counters["recovery.serial_fallbacks"] == 1


class TestMultiPointUnits:
    """Pool-mode failures of a unit of several points.

    With batching the two fasta configs are one unit, dispatched beside
    the hmmer unit. A failed attempt of the fasta unit splits it into
    one-point units and bills neither point.
    """

    #: A unit of two configs of one (app, variant), and a second unit.
    POINTS = [
        ("fasta", "baseline", power5()),
        ("fasta", "baseline", power5().with_fxus(3)),
        ("hmmer", "baseline", power5()),
    ]

    @pytest.fixture(autouse=True)
    def warm(self, shared_cache_root, engine):
        # Warm results keep every clean attempt far inside its deadline;
        # the faults strike before the worker reads the cache.
        Engine(cache_dir=shared_cache_root).characterize_many(
            self.POINTS, jobs=1, journal=False
        )

    @pytest.mark.parametrize(
        "mode", [faults.MODE_RAISE, faults.MODE_EXIT, faults.MODE_HANG]
    )
    def test_one_fault_splits_the_unit_unbilled(
        self, engine, tmp_path, monkeypatch, mode
    ):
        faults.install_plan(
            tmp_path / "plan", monkeypatch, {"fasta:baseline": (mode, 1)},
        )
        # A hung unit is reclaimed at its scaled deadline: 2 x 2 s.
        results = fan_out(
            engine, self.POINTS, jobs=2, batch=True, timeout=2.0,
            retries=0, backoff=0.0, on_error="keep_going",
            worker=faults.faulty_worker,
        )
        assert [r.app for r in results] == ["fasta", "fasta", "hmmer"]
        assert engine.stats.failures == []
        rebuilds = engine.stats.counters.get("recovery.pool_rebuilds", 0)
        assert (rebuilds >= 1) == (mode != faults.MODE_RAISE)

    def test_unit_that_always_raises_fails_each_point(
        self, engine, tmp_path, monkeypatch
    ):
        faults.install_plan(
            tmp_path / "plan", monkeypatch,
            {"fasta:baseline": (faults.MODE_RAISE, faults.ALWAYS)},
        )
        results = fan_out(
            engine, self.POINTS, jobs=2, batch=True, retries=0,
            backoff=0.0, on_error="keep_going",
            worker=faults.faulty_worker,
        )
        assert results[0] is None and results[1] is None
        assert results[2].app == "hmmer"
        failures = engine.stats.failures
        assert sorted(f.config_digest for f in failures) == sorted(
            config_digest(config)[:SHORT_DIGEST]
            for _, _, config in self.POINTS[:2]
        )
        # Each point is billed only its own attempt; the unit's failed
        # attempt is billed to neither.
        assert [(f.kind, f.attempts) for f in failures] == [
            (FAILURE_EXCEPTION, 1), (FAILURE_EXCEPTION, 1)
        ]


class TestErrorPolicy:
    def _acceptance_plan(self, tmp_path, monkeypatch):
        """One point raises forever, one hard-exits forever."""
        faults.install_plan(
            tmp_path / "plan", monkeypatch,
            {
                "fasta:baseline": (faults.MODE_RAISE, faults.ALWAYS),
                "hmmer:baseline": (faults.MODE_EXIT, faults.ALWAYS),
            },
        )

    def test_keep_going_returns_partial_results_in_order(
        self, engine, tmp_path, monkeypatch
    ):
        self._acceptance_plan(tmp_path, monkeypatch)
        results = fan_out(
            engine, POINTS, jobs=2, retries=1, backoff=0.0,
            on_error="keep_going", worker=faults.faulty_worker,
        )
        assert [r.app for r in results[:2]] == ["blast", "clustalw"]
        assert results[2] is None and results[3] is None
        by_app = {f.app: f for f in engine.stats.failures}
        assert set(by_app) == {"fasta", "hmmer"}
        assert by_app["fasta"].kind == FAILURE_EXCEPTION
        assert by_app["fasta"].attempts == 2
        assert "injected fault" in by_app["fasta"].message
        assert by_app["hmmer"].kind == FAILURE_CRASH
        assert by_app["hmmer"].attempts == 2
        assert engine.stats.counters["recovery.pool_rebuilds"] >= 1

    def test_raise_names_exactly_the_failed_points(
        self, engine, tmp_path, monkeypatch
    ):
        self._acceptance_plan(tmp_path, monkeypatch)
        with pytest.raises(SweepError) as excinfo:
            fan_out(
                engine, POINTS, jobs=2, retries=1, backoff=0.0,
                worker=faults.faulty_worker,
            )
        error = excinfo.value
        assert {f"{f.app}:{f.variant}" for f in error.failures} == {
            "fasta:baseline", "hmmer:baseline"
        }
        assert "fasta:baseline" in str(error)
        assert "hmmer:baseline" in str(error)
        assert "blast" not in str(error)
        # The successful points survived the raise: they are memoised
        # and a rerun serves them from memory.
        assert len(engine._memo) == 2

    def test_unknown_policy_rejected(self, engine):
        with pytest.raises(WorkloadError):
            fan_out(engine, POINTS, jobs=2, on_error="explode")


class TestKnobResolution:
    def test_timeout_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_POINT_TIMEOUT", "2.5")
        assert resolve_timeout() == 2.5
        assert resolve_timeout(5.0) == 5.0  # explicit wins
        assert resolve_timeout(0) is None   # non-positive disables
        monkeypatch.setenv("REPRO_POINT_TIMEOUT", "soon")
        with pytest.raises(WorkloadError):
            resolve_timeout()

    def test_retries_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_POINT_RETRIES", raising=False)
        assert resolve_retries() >= 0
        monkeypatch.setenv("REPRO_POINT_RETRIES", "3")
        assert resolve_retries() == 3
        with pytest.raises(WorkloadError):
            resolve_retries(-1)
        monkeypatch.setenv("REPRO_POINT_RETRIES", "many")
        with pytest.raises(WorkloadError):
            resolve_retries()

    def test_backoff_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.25")
        assert resolve_backoff() == 0.25
        with pytest.raises(WorkloadError):
            resolve_backoff(-0.5)
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "later")
        with pytest.raises(WorkloadError):
            resolve_backoff()


class TestSerialTimeoutNote:
    """The serial path cannot enforce deadlines — and says so."""

    def test_serial_sweep_with_timeout_is_annotated(self, engine):
        from repro.engine.scheduler import SERIAL_TIMEOUT_NOTE

        fan_out(engine, POINTS[:1], jobs=1, timeout=30.0, journal=False)
        assert SERIAL_TIMEOUT_NOTE in engine.stats.notes
        assert "note: serial path" in engine.stats.render()

    def test_note_is_absent_without_a_timeout(self, engine, monkeypatch):
        monkeypatch.delenv("REPRO_POINT_TIMEOUT", raising=False)
        fan_out(engine, POINTS[:1], jobs=1, journal=False)
        assert engine.stats.notes == []

    def test_pool_path_is_not_annotated(self, engine):
        fan_out(engine, POINTS[:2], jobs=2, timeout=30.0, journal=False)
        assert engine.stats.notes == []

    def test_sweep_error_carries_the_note(self, engine, monkeypatch):
        from repro.engine.scheduler import SERIAL_TIMEOUT_NOTE

        # The serial path runs in-process (no worker), so inject the
        # failure through characterize_batch itself.
        def boom(app, variant, configs):
            raise RuntimeError("injected")

        monkeypatch.setattr(engine, "characterize_batch", boom)
        with pytest.raises(SweepError) as excinfo:
            fan_out(
                engine, POINTS[:1], jobs=1, timeout=30.0, retries=0,
                backoff=0.0, journal=False,
            )
        assert SERIAL_TIMEOUT_NOTE in excinfo.value.notes
        assert "timeouts" in str(excinfo.value)
