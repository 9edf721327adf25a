"""Multi-worker drains: deterministic splits, concurrent worker
processes, and the kill-mid-claim crash path.

The acceptance bar for the sweep service: two workers draining one
journaled run produce results byte-identical (as canonical JSON, in
request order) to a single serial sweep, every worker claims at least
one point, no point is journaled done twice, and a worker killed after
claiming — before any heartbeat — hands its point over via lease
expiry to whoever bids next.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.engine import serialize
from repro.engine.cache import use_cache_dir
from repro.engine.digest import point_key
from repro.engine.engine import Engine
from repro.engine.journal import journal_path, load_run
from repro.service.runner import collect_results, create_run
from repro.service.worker import drain_run
from repro.uarch.config import power5

POINTS = [
    ("blast", "baseline", power5()),
    ("clustalw", "baseline", power5()),
    ("fasta", "baseline", power5()),
    ("blast", "baseline", power5()),  # duplicate: ordered replay matters
]
KEYS = [point_key(app, variant, config) for app, variant, config in POINTS]


def serial_reference(root):
    """Canonical JSON for each point from a plain single-engine sweep."""
    use_cache_dir(root)
    engine = Engine()
    return [
        canonical(serialize.characterisation_to_dict(
            engine.characterize(app, variant, config)
        ))
        for app, variant, config in POINTS
    ]


def canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def journal_records(root, run_id, kind):
    return [
        record for record in (
            json.loads(line)
            for line in journal_path(root, run_id).read_text().splitlines()
        )
        if record.get("record") == kind
    ]


class TestDeterministicSplit:
    def test_two_workers_merge_byte_identical(self, tmp_path):
        reference = serial_reference(tmp_path / "serial")

        shared = tmp_path / "shared"
        run_id = create_run(shared, POINTS, workers=2)
        # max_points forces the split: alpha takes two, beta the rest.
        alpha = drain_run(
            shared, run_id, worker_id="alpha", max_points=2
        )
        beta = drain_run(shared, run_id, worker_id="beta")
        assert len(alpha.completed) == 2
        assert len(beta.completed) == 1

        state = load_run(shared, run_id)
        assert not state.pending_keys()
        assert set(state.workers) == {"alpha", "beta"}
        assert state.workers["alpha"]["claims"] == 2
        assert state.workers["beta"]["claims"] == 1

        merged = [
            canonical(serialize.characterisation_to_dict(result))
            for result in collect_results(shared, run_id)
        ]
        assert merged == reference

    def test_no_point_done_twice(self, tmp_path):
        shared = tmp_path / "shared"
        run_id = create_run(shared, POINTS, workers=2)
        drain_run(shared, run_id, worker_id="alpha", max_points=2)
        drain_run(shared, run_id, worker_id="beta")
        done = journal_records(shared, run_id, "point_done")
        keys = [
            (r["app"], r["variant"], r["config_digest"]) for r in done
        ]
        assert sorted(keys) == sorted(set(keys))
        assert len(keys) == len(set(KEYS))


DRAIN_WORKER_SCRIPT = """
import sys
from repro.service.worker import drain_run
drain_run(sys.argv[1], sys.argv[2], worker_id=sys.argv[3])
"""


class TestConcurrentWorkers:
    def test_two_processes_merge_byte_identical(self, tmp_path):
        reference = serial_reference(tmp_path / "serial")
        shared = tmp_path / "shared"
        run_id = create_run(shared, POINTS, workers=2)

        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(serialize.__file__)
        )))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        # Both start before either waits: they race for the same leases.
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", DRAIN_WORKER_SCRIPT,
                 str(shared), run_id, worker_id],
                env=env,
            )
            for worker_id in ("alpha", "beta")
        ]
        try:
            for worker in workers:
                assert worker.wait(timeout=600) == 0
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.kill()
                    worker.wait(timeout=30)

        state = load_run(shared, run_id)
        assert not state.pending_keys()
        assert not state.failed
        assert set(state.workers) == {"alpha", "beta"}
        done = journal_records(shared, run_id, "point_done")
        keys = [
            (r["app"], r["variant"], r["config_digest"]) for r in done
        ]
        assert sorted(keys) == sorted(set(KEYS))
        merged = [
            canonical(serialize.characterisation_to_dict(result))
            for result in collect_results(shared, run_id)
        ]
        assert merged == reference


HELD_WORKER_SCRIPT = """
import sys
from repro.service.worker import drain_run
drain_run(sys.argv[1], sys.argv[2], worker_id="held", lease_seconds=1.0)
"""


class TestKillMidClaim:
    def test_lease_expiry_reclaims_killed_workers_point(self, tmp_path):
        reference = serial_reference(tmp_path / "serial")
        shared = tmp_path / "shared"
        run_id = create_run(shared, POINTS, workers=2)

        hold_file = tmp_path / "held.marker"
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(serialize.__file__)
        )))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        env["REPRO_WORKER_HOLD_KEY"] = "clustalw:baseline"
        env["REPRO_WORKER_HOLD_FILE"] = str(hold_file)
        victim = subprocess.Popen(
            [sys.executable, "-c", HELD_WORKER_SCRIPT,
             str(shared), run_id],
            env=env,
        )
        try:
            deadline = time.time() + 120.0
            while not hold_file.exists():
                assert victim.poll() is None, "held worker died early"
                assert time.time() < deadline, "held worker never claimed"
                time.sleep(0.1)
            # The victim holds a confirmed lease on clustalw/baseline
            # and is parked before its first heartbeat. Kill it cold.
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait(timeout=30)

        report = drain_run(
            shared, run_id, worker_id="reclaimer",
            lease_seconds=30.0, poll_seconds=0.1,
        )
        state = load_run(shared, run_id)
        assert not state.pending_keys()
        assert not state.failed

        # The victim claimed at least one point before dying...
        claimed_by_victim = [
            r for r in journal_records(shared, run_id, "point_claimed")
            if r["worker"] == "held"
        ]
        assert claimed_by_victim
        # ...and the reclaimer stole the expired clustalw lease.
        assert report.stats.claim_steals >= 1
        assert state.lease_steals >= 1

        # Exactly one point_done per unique key, despite the crash.
        done = journal_records(shared, run_id, "point_done")
        keys = [
            (r["app"], r["variant"], r["config_digest"]) for r in done
        ]
        assert sorted(keys) == sorted(set(keys))
        assert len(keys) == len(set(KEYS))

        # Merged output still byte-identical to the serial sweep.
        merged = [
            canonical(serialize.characterisation_to_dict(result))
            for result in collect_results(shared, run_id)
        ]
        assert merged == reference


class TestDrainGuards:
    def test_rejects_nonpositive_lease(self, tmp_path):
        from repro.errors import WorkloadError

        run_id = create_run(tmp_path, POINTS, workers=1)
        with pytest.raises(WorkloadError):
            drain_run(tmp_path, run_id, lease_seconds=0.0)

    def test_max_points_bounds_the_take(self, tmp_path):
        run_id = create_run(tmp_path, POINTS, workers=1)
        report = drain_run(
            tmp_path, run_id, worker_id="solo", max_points=1
        )
        assert len(report.completed) == 1
        state = load_run(tmp_path, run_id)
        assert len(state.pending_keys()) == len(set(KEYS)) - 1
