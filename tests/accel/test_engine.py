"""Accelerator points through the engine: cache, fan-out, resume."""

import json

import pytest

from repro.accel import AccelEstimate, accel_slot, aphmm, bioseal, estimate
from repro.accel.lab import estimate_to_dict
from repro.engine import cache as cache_module
from repro.engine import serialize
from repro.engine.engine import Engine
from repro.engine.digest import config_digest
from repro.uarch.config import power5
from repro.validate import validate_points

#: A cheap mixed sweep: one real core sim + analytical accel points.
MIXED = [
    ("clustalw", "baseline", power5()),
    ("clustalw", "baseline", bioseal().with_class("A")),
    ("clustalw", "baseline", bioseal().with_class("B")),
    ("hmmer", "baseline", aphmm().with_class("A")),
]


def canonical(result) -> bytes:
    return json.dumps(
        serialize.characterisation_to_dict(result),
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")


class TestRouting:
    def test_simulated_then_memo_then_disk(self, fresh_engine):
        config = bioseal().with_class("A")
        first = fresh_engine.characterize("blast", "baseline", config)
        second = fresh_engine.characterize("blast", "baseline", config)
        assert isinstance(first, AccelEstimate)
        assert second is first  # memo
        assert fresh_engine.stats.memo_hits == 1
        assert [p.source for p in fresh_engine.stats.points] == ["simulated"]

        rehydrated = Engine(cache_dir=fresh_engine.cache.root)
        third = rehydrated.characterize("blast", "baseline", config)
        assert rehydrated.stats.points[-1].source == "disk"
        assert canonical(third) == canonical(first)

    def test_result_lands_in_the_accel_slot(self, fresh_engine):
        config = bioseal().with_class("A")
        fresh_engine.characterize("blast", "baseline", config)
        digest = config_digest(config)
        payload = fresh_engine.cache.load_result_payload(
            "blast", accel_slot("baseline"), digest
        )
        assert payload is not None and payload["backend"] == "bioseal"
        # ...and nothing leaked into the core variant's slot.
        assert fresh_engine.cache.load_result_payload(
            "blast", "baseline", digest
        ) is None

    def test_accel_counters(self, fresh_engine):
        fresh_engine.characterize(
            "blast", "baseline", bioseal().with_class("A")
        )
        fresh_engine.characterize(
            "hmmer", "baseline", aphmm().with_class("A")
        )
        counters = fresh_engine.stats.counters
        assert counters["accel.points"] == 2
        assert counters["accel.bioseal_points"] == 1
        assert counters["accel.aphmm_points"] == 1
        assert counters["accel.offload_cycles"] > 0
        assert counters["accel.transfer_cycles"] > 0


class TestAccelSlot:
    """The engine's one loader on the accelerator slot: an entry it
    cannot trust is evicted and the estimate computed again."""

    CONFIG = bioseal().with_class("A")

    def test_miss_then_disk_hit(self, fresh_engine):
        first = fresh_engine.characterize("blast", "baseline", self.CONFIG)
        rerun = Engine(cache_dir=fresh_engine.cache.root)
        second = rerun.characterize("blast", "baseline", self.CONFIG)
        assert fresh_engine.stats.points[-1].source == "simulated"
        assert rerun.stats.points[-1].source == "disk"
        assert second == first

    def test_corrupt_entry_evicted_and_recomputed(self, fresh_engine):
        est = fresh_engine.characterize("blast", "baseline", self.CONFIG)
        broken = estimate_to_dict(est)
        del broken["result"]["host_cycles"]
        fresh_engine.cache.store_result_payload(
            "blast", accel_slot("baseline"), config_digest(self.CONFIG),
            broken,
        )
        healer = Engine(cache_dir=fresh_engine.cache.root)
        healed = healer.characterize("blast", "baseline", self.CONFIG)
        assert healer.stats.points[-1].source == "simulated"
        assert healer.stats.cache.evictions == 1
        assert healed == est
        # The recomputed entry is good again.
        rerun = Engine(cache_dir=fresh_engine.cache.root)
        rerun.characterize("blast", "baseline", self.CONFIG)
        assert rerun.stats.points[-1].source == "disk"

    def test_misaddressed_entry_evicted(self, fresh_engine):
        other = estimate("fasta", "baseline", self.CONFIG)
        fresh_engine.cache.store_result_payload(
            "blast", accel_slot("baseline"), config_digest(self.CONFIG),
            estimate_to_dict(other),
        )
        healed = fresh_engine.characterize("blast", "baseline", self.CONFIG)
        assert fresh_engine.stats.points[-1].source == "simulated"
        assert fresh_engine.stats.cache.evictions == 1
        assert healed.app == "blast"

    def test_core_slot_holding_an_estimate_is_evicted(self, fresh_engine):
        """The slot follows the config's type, and so must the entry."""
        config = power5()
        fresh_engine.cache.store_result_payload(
            "clustalw", "baseline", config_digest(config),
            estimate_to_dict(estimate("clustalw", "baseline", self.CONFIG)),
        )
        result = fresh_engine.characterize("clustalw", "baseline", config)
        assert not isinstance(result, AccelEstimate)
        assert fresh_engine.stats.points[-1].source == "simulated"
        assert fresh_engine.stats.cache.evictions == 1


class TestMixedSweeps:
    def test_serial_equals_parallel_byte_identical(
        self, tmp_path, restore_globals
    ):
        serial_root = tmp_path / "serial"
        cache_module.use_cache_dir(serial_root)
        serial = Engine(cache_dir=serial_root).characterize_many(
            MIXED, jobs=1
        )
        parallel_root = tmp_path / "parallel"
        cache_module.use_cache_dir(parallel_root)
        parallel = Engine(cache_dir=parallel_root).characterize_many(
            MIXED, jobs=2
        )
        assert [canonical(a) for a in serial] == [
            canonical(b) for b in parallel
        ]

    def test_batched_matches_unbatched(self, tmp_path, restore_globals):
        on_root = tmp_path / "batched"
        cache_module.use_cache_dir(on_root)
        engine = Engine(cache_dir=on_root)
        batched = engine.characterize_many(MIXED, jobs=1, batch=True)
        off_root = tmp_path / "unbatched"
        cache_module.use_cache_dir(off_root)
        unbatched = Engine(cache_dir=off_root).characterize_many(
            MIXED, jobs=1, batch=False
        )
        assert [canonical(a) for a in batched] == [
            canonical(b) for b in unbatched
        ]

    def test_validation_gate_skips_estimates(self, fresh_engine):
        fresh_engine.characterize_many(MIXED, jobs=1)
        report = validate_points(fresh_engine.memoised_points())
        assert report.ok
        assert report.checked_points == 1  # only the core point


class TestResume:
    def test_accel_points_replay_from_the_journal(
        self, tmp_path, restore_globals
    ):
        root = tmp_path / "cache"
        cache_module.use_cache_dir(root)
        engine = Engine(cache_dir=root)
        originals = engine.characterize_many(
            MIXED, jobs=1, run_id="accel-run"
        )
        resumed_engine = Engine(cache_dir=root)
        outcome = resumed_engine.resume("accel-run")
        assert outcome.replayed == len(MIXED)
        assert outcome.submitted == 0
        assert [canonical(a) for a in originals] == [
            canonical(b) for b in outcome.results
        ]
        # Replayed estimates re-arm the offload telemetry.
        assert resumed_engine.stats.counters["accel.points"] == 3

    def test_resume_reroutes_evicted_accel_points(
        self, tmp_path, restore_globals
    ):
        root = tmp_path / "cache"
        cache_module.use_cache_dir(root)
        engine = Engine(cache_dir=root)
        originals = engine.characterize_many(
            MIXED, jobs=1, run_id="evicted-run"
        )
        config = MIXED[1][2]
        engine.cache.evict_result(
            "clustalw", accel_slot("baseline"), config_digest(config)
        )
        resumed = Engine(cache_dir=root)
        outcome = resumed.resume("evicted-run")
        assert outcome.submitted == 1  # only the evicted point re-ran
        assert [canonical(a) for a in originals] == [
            canonical(b) for b in outcome.results
        ]
