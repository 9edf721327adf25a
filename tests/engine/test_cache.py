"""Persistent cache: round-trips, invalidation, corruption, self-healing."""

import os
from pathlib import Path

import pytest

from repro.engine import cache as cache_module
from repro.engine.cache import PersistentCache, default_cache_dir
from repro.engine.digest import config_digest, point_key, sim_source_digest
from repro.uarch.config import power5
from repro.uarch.synthetic import generate_trace

from tests.engine.conftest import events_equal


class TestTraceRoundTrip:
    def test_synthetic_trace_round_trips(self, cache):
        events = generate_trace(400, seed=11)
        cache.store_trace("blast", "baseline", events)
        loaded = cache.load_trace("blast", "baseline")
        assert loaded is not None
        assert events_equal(loaded, events)
        assert cache.counters.trace_hits == 1

    def test_kernel_trace_round_trips(self, cache):
        """The store preserves a real (golden) kernel trace exactly."""
        from repro.perf.characterize import kernel_trace

        events = kernel_trace("fasta", "baseline")
        cache.store_trace("fasta", "baseline", events)
        loaded = cache.load_trace("fasta", "baseline")
        assert loaded is not None
        assert events_equal(loaded, events)

    def test_background_pseudo_variant_round_trips(self, cache):
        """'~background' cannot collide with a code variant and stores."""
        events = generate_trace(250, seed=13)
        cache.store_trace("hmmer", "~background", events)
        loaded = cache.load_trace("hmmer", "~background")
        assert loaded is not None
        assert events_equal(loaded, events)

    def test_cold_lookup_is_a_miss(self, cache):
        assert cache.load_trace("clustalw", "baseline") is None
        assert cache.counters.trace_misses == 1


class TestDigestInvalidation:
    def test_source_digest_change_invalidates_traces(self, cache, monkeypatch):
        events = generate_trace(60, seed=3)
        cache.store_trace("fasta", "baseline", events)
        monkeypatch.setattr(
            cache_module, "sim_source_digest", lambda: "f" * 64
        )
        assert cache.load_trace("fasta", "baseline") is None

    def test_source_digest_change_invalidates_results(
        self, cache, monkeypatch
    ):
        digest = config_digest(power5())
        cache.store_result_payload("fasta", "baseline", digest, {"x": 1})
        monkeypatch.setattr(
            cache_module, "sim_source_digest", lambda: "f" * 64
        )
        assert cache.load_result_payload("fasta", "baseline", digest) is None

    def test_config_digest_keys_results(self, cache):
        base = config_digest(power5())
        btac = config_digest(power5().with_btac())
        assert base != btac
        cache.store_result_payload("fasta", "baseline", base, {"x": 1})
        assert cache.load_result_payload("fasta", "baseline", base) == {
            "x": 1
        }
        assert cache.load_result_payload("fasta", "baseline", btac) is None

    def test_structurally_equal_configs_share_a_key(self):
        assert config_digest(power5()) == config_digest(power5())
        assert point_key("fasta", "baseline", power5()) == point_key(
            "fasta", "baseline", power5()
        )

    def test_source_digest_is_stable_hex(self):
        digest = sim_source_digest()
        assert digest == sim_source_digest()
        assert len(digest) == 64
        int(digest, 16)


class TestCorruption:
    def test_garbage_trace_evicted_not_raised(self, cache):
        events = generate_trace(60, seed=5)
        cache.store_trace("hmmer", "baseline", events)
        path = cache.trace_path("hmmer", "baseline")
        path.write_text("not a trace\n???\n", encoding="utf-8")
        assert cache.load_trace("hmmer", "baseline") is None
        assert not path.exists()
        assert cache.counters.evictions == 1
        # The corrupt bytes were quarantined, not silently unlinked.
        assert cache.counters.quarantined == 1
        quarantined = list(cache.quarantine_root.rglob("*.trace"))
        assert len(quarantined) == 1
        assert quarantined[0].read_text(encoding="utf-8") == \
            "not a trace\n???\n"
        # Regeneration path: the slot is writable again afterwards.
        cache.store_trace("hmmer", "baseline", events)
        reloaded = cache.load_trace("hmmer", "baseline")
        assert reloaded is not None and events_equal(reloaded, events)

    def test_truncated_trace_evicted(self, cache):
        events = generate_trace(120, seed=7)
        cache.store_trace("blast", "baseline", events)
        path = cache.trace_path("blast", "baseline")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert cache.load_trace("blast", "baseline") is None
        assert not path.exists()

    def test_bitflipped_v2_trace_evicted(self, cache):
        """A flipped byte inside the binary payload is caught, not served."""
        events = generate_trace(120, seed=8)
        cache.store_trace("blast", "baseline", events)
        path = cache.trace_path("blast", "baseline")
        blob = bytearray(path.read_bytes())
        blob[27] ^= 0xFF  # first byte of the deflated payload
        path.write_bytes(bytes(blob))
        assert cache.load_trace("blast", "baseline") is None
        assert not path.exists()

    def test_malformed_result_json_evicted(self, cache):
        digest = config_digest(power5())
        cache.store_result_payload("blast", "baseline", digest, {"a": 1})
        path = cache.result_path("blast", "baseline", digest)
        path.write_text("{ truncated", encoding="utf-8")
        assert cache.load_result_payload("blast", "baseline", digest) is None
        assert not path.exists()

    def test_non_object_result_json_evicted(self, cache):
        digest = config_digest(power5())
        cache.store_result_payload("blast", "baseline", digest, {"a": 1})
        path = cache.result_path("blast", "baseline", digest)
        path.write_text("[1, 2, 3]", encoding="utf-8")
        assert cache.load_result_payload("blast", "baseline", digest) is None


class TestFormatUpgrade:
    def test_v1_entry_loads_as_written(self, cache):
        """A hand-placed legacy v1 text entry loads, eager and streamed,
        and is left as written (the cache itself only writes v3)."""
        from repro.isa.tracestore import save_trace, trace_format

        events = generate_trace(80, seed=21)
        path = cache.trace_path("fasta", "baseline")
        path.parent.mkdir(parents=True, exist_ok=True)
        save_trace(path, events)
        written = path.read_bytes()
        loaded = cache.load_trace("fasta", "baseline")
        assert loaded is not None and events_equal(loaded, events)
        segments = cache.load_trace_segments("fasta", "baseline")
        streamed = [e for segment in segments for e in segment.to_events()]
        assert events_equal(streamed, events)
        assert trace_format(path) == 1
        assert path.read_bytes() == written
        assert cache.counters.trace_hits == 2

    def test_stats_reports_trace_format(self, cache):
        from repro.isa.tracestore import TRACE_FORMAT_VERSION

        assert cache.stats()["trace_format"] == TRACE_FORMAT_VERSION


class TestMaintenance:
    def test_stats_and_clear(self, cache):
        cache.store_trace("fasta", "baseline", generate_trace(50, seed=9))
        cache.store_result_payload(
            "fasta", "baseline", config_digest(power5()), {"x": 1}
        )
        stats = cache.stats()
        assert stats["trace_entries"] == 1
        assert stats["result_entries"] == 1
        assert stats["total_bytes"] > 0
        assert cache.clear() == 2
        after = cache.stats()
        assert after["trace_entries"] == 0
        assert after["result_entries"] == 0

    def test_disabled_cache_degrades_to_misses(self):
        disabled = PersistentCache(None)
        assert not disabled.enabled
        disabled.store_trace("fasta", "baseline", generate_trace(5, seed=1))
        assert disabled.load_trace("fasta", "baseline") is None
        disabled.store_result_payload("fasta", "baseline", "0" * 64, {})
        assert disabled.load_result_payload("fasta", "baseline", "0" * 64) \
            is None
        assert disabled.clear() == 0
        assert disabled.stats()["enabled"] is False

    def test_default_dir_honours_disable_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert default_cache_dir() is None
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
        assert str(default_cache_dir()) == "/tmp/somewhere"

    def test_stats_excludes_tmp_files(self, cache):
        """Satellite fix: in-flight/orphaned ``.tmp-*`` scratch files are
        not entries and must not count toward the footprint."""
        cache.store_trace("fasta", "baseline", generate_trace(50, seed=9))
        clean = cache.stats()
        path = cache.trace_path("fasta", "baseline")
        orphan = path.with_name(f".{path.name}.tmp-99999")
        orphan.write_bytes(b"x" * 4096)
        dirty = cache.stats()
        assert dirty["trace_entries"] == clean["trace_entries"] == 1
        assert dirty["total_bytes"] == clean["total_bytes"]

    def test_clear_tolerates_vanished_paths(self, cache, monkeypatch):
        """Satellite fix: a file deleted by a concurrent worker between
        the walk and the unlink must be skipped, not raised."""
        cache.store_result_payload(
            "fasta", "baseline", config_digest(power5()), {"x": 1}
        )
        real_rglob = Path.rglob

        def rglob_with_ghost(self, pattern):
            listed = list(real_rglob(self, pattern))
            return listed + [self / "ghost" / "vanished.json"]

        monkeypatch.setattr(Path, "rglob", rglob_with_ghost)
        assert cache.clear() == 1

    def test_clear_tolerates_concurrent_writes(self, cache, monkeypatch):
        """A file appearing mid-walk leaves its directory non-empty;
        ``clear()`` skips the ``rmdir`` instead of raising."""
        digest = config_digest(power5())
        cache.store_result_payload("fasta", "baseline", digest, {"x": 1})
        late = cache.result_path("fasta", "baseline", digest).with_name(
            "late-arrival.json"
        )
        late.write_text("{}", encoding="utf-8")
        real_rglob = Path.rglob

        def rglob_missing_late(self, pattern):
            return [p for p in real_rglob(self, pattern) if p != late]

        monkeypatch.setattr(Path, "rglob", rglob_missing_late)
        removed = cache.clear()
        assert removed == 1
        assert late.exists()


class TestTempNames:
    """Two containers can share a PID; the per-process random token in
    ``tmp_suffix()`` keeps their in-flight temp files from colliding
    when they write through one shared cache directory."""

    @staticmethod
    def store_both(cache):
        cache.store_result_payload(
            "fasta", "baseline", config_digest(power5()), {"x": 1}
        )
        cache.store_trace_segments(
            "blast", "baseline", generate_trace(400, seed=11).segments(150)
        )

    def test_temp_names_carry_process_random_token(
        self, cache, monkeypatch
    ):
        suffix = cache_module.tmp_suffix()
        assert f"-{os.getpid()}-" in suffix
        token = suffix.rsplit("-", 1)[-1]
        assert len(token) == 8  # 4 random bytes, hex
        int(token, 16)  # and actually hex

        sources = []
        real_replace = os.replace

        def spy(src, dst):
            sources.append(str(src))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        self.store_both(cache)
        assert len(sources) == 2
        assert all(suffix in name for name in sources)

    def test_no_temp_litter_after_writes(self, cache):
        self.store_both(cache)
        assert not [
            path for path in cache.root.rglob("*")
            if cache_module._is_tmp(path)
        ]
        assert cache.load_trace("blast", "baseline") is not None
        assert cache.stats()["result_entries"] == 1


class TestSelfHealing:
    def test_gc_removes_orphaned_tmp_files(self, cache):
        events = generate_trace(40, seed=17)
        cache.store_trace("blast", "baseline", events)
        trace_path = cache.trace_path("blast", "baseline")
        orphans = [
            trace_path.with_name(f".{trace_path.name}.tmp-12345"),
            cache.version_root / ".stray.json.tmp-777",
        ]
        for orphan in orphans:
            orphan.write_bytes(b"partial write")
        report = cache.gc()
        assert report["tmp_removed"] == 2
        assert report["quarantined"] == 0
        assert not any(orphan.exists() for orphan in orphans)
        # The valid entry was untouched and still loads.
        loaded = cache.load_trace("blast", "baseline")
        assert loaded is not None and events_equal(loaded, events)

    def test_gc_respects_tmp_max_age(self, cache):
        cache.store_trace("blast", "baseline", generate_trace(30, seed=2))
        path = cache.trace_path("blast", "baseline")
        orphan = path.with_name(f".{path.name}.tmp-4242")
        orphan.write_bytes(b"fresh")
        report = cache.gc(tmp_max_age_seconds=3600.0)
        assert report["tmp_removed"] == 0
        assert orphan.exists()

    def test_gc_quarantines_corrupt_entries_only(self, cache):
        """Acceptance: gc quarantines planted corruption and leaves
        every valid entry (and its bytes) alone."""
        good = generate_trace(80, seed=23)
        cache.store_trace("fasta", "baseline", good)
        cache.store_trace("hmmer", "baseline", generate_trace(60, seed=5))
        digest = config_digest(power5())
        cache.store_result_payload("fasta", "baseline", digest, {"x": 1})
        bad_trace = cache.trace_path("hmmer", "baseline")
        bad_trace.write_bytes(b"\x00corrupt")
        report = cache.gc()
        assert report["scanned"] == 3
        assert report["quarantined"] == 1
        assert cache.counters.quarantined == 1
        assert not bad_trace.exists()
        moved = list(cache.quarantine_root.rglob("*.trace"))
        assert len(moved) == 1
        assert moved[0].read_bytes() == b"\x00corrupt"
        # Valid entries untouched.
        loaded = cache.load_trace("fasta", "baseline")
        assert loaded is not None and events_equal(loaded, good)
        assert cache.load_result_payload("fasta", "baseline", digest) == {
            "x": 1
        }
        assert cache.stats()["quarantine_entries"] == 1

    def test_gc_quarantines_corrupt_result_json(self, cache):
        digest = config_digest(power5())
        cache.store_result_payload("blast", "baseline", digest, {"a": 1})
        path = cache.result_path("blast", "baseline", digest)
        path.write_text("[not, an, object", encoding="utf-8")
        report = cache.gc()
        assert report["quarantined"] == 1
        assert not path.exists()

    def test_gc_skips_the_quarantine_itself(self, cache):
        cache.store_trace("blast", "baseline", generate_trace(20, seed=3))
        path = cache.trace_path("blast", "baseline")
        path.write_bytes(b"junk")
        assert cache.gc()["quarantined"] == 1
        # A second sweep must not rescan (or double-quarantine) the
        # already-quarantined bytes.
        second = cache.gc()
        assert second["quarantined"] == 0
        assert cache.stats()["quarantine_entries"] == 1

    def test_gc_disabled_cache_is_a_noop(self):
        disabled = PersistentCache(None)
        assert disabled.gc() == {
            "tmp_removed": 0, "scanned": 0, "quarantined": 0
        }

    def test_quarantine_names_collide_without_clobbering(self, cache):
        """Two corrupt generations of one entry keep distinct evidence."""
        path = cache.trace_path("fasta", "baseline")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"first corruption")
        assert cache.load_trace("fasta", "baseline") is None
        path.write_bytes(b"second corruption")
        assert cache.load_trace("fasta", "baseline") is None
        kept = sorted(
            p.read_bytes() for p in cache.quarantine_root.rglob("*")
            if p.is_file()
        )
        assert kept == [b"first corruption", b"second corruption"]


class TestConcurrentVanishing:
    """Satellite fix: maintenance walks tolerate files vanishing under
    them (a concurrent worker's ``os.replace``/``unlink``) instead of
    leaking ``FileNotFoundError`` out of ``stats()``/``gc()``."""

    def test_stats_tolerates_file_vanishing_before_stat(
        self, cache, monkeypatch
    ):
        cache.store_result_payload(
            "fasta", "baseline", config_digest(power5()), {"x": 1}
        )
        ghost = cache.version_root / "ghost.json"
        real_iter = cache_module._iter_files

        def iter_with_ghost(root):
            yield from real_iter(root)
            if Path(root) == cache.version_root:
                yield ghost  # listed by the walk, gone by the stat

        monkeypatch.setattr(cache_module, "_iter_files", iter_with_ghost)
        stats = cache.stats()
        assert stats["result_entries"] == 1
        assert stats["total_bytes"] > 0

    def test_stats_tolerates_unreadable_directory(self, cache):
        # A root that never existed is just an empty walk.
        empty = PersistentCache(cache.root / "never-written")
        stats = empty.stats()
        assert stats["trace_entries"] == 0
        assert stats["total_bytes"] == 0

    def test_gc_skips_entry_vanishing_mid_scan(self, cache, monkeypatch):
        cache.store_result_payload(
            "fasta", "baseline", config_digest(power5()), {"x": 1}
        )
        ghost = cache.version_root / "vanished.json"
        real_iter = cache_module._iter_files

        def iter_with_ghost(root):
            yield from real_iter(root)
            if Path(root) == cache.root:
                yield ghost

        monkeypatch.setattr(cache_module, "_iter_files", iter_with_ghost)
        report = cache.gc()
        # The ghost is neither scanned nor quarantined — it vanished,
        # it is not corrupt.
        assert report["scanned"] == 1
        assert report["quarantined"] == 0

    def test_entry_is_valid_reports_vanished_as_none(self, cache):
        assert cache._entry_is_valid(
            cache.version_root / "never-existed.trace"
        ) is None
        assert cache._entry_is_valid(
            cache.version_root / "never-existed.json"
        ) is None
