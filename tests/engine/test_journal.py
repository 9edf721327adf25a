"""Run-journal durability: torn tails, corruption, listing, pruning.

The journal's contract is that what it acknowledges is durable and what
it reads back is trustworthy: a crash mid-append (torn final line) must
cost nothing that was already recorded, and damage anywhere else must
be surfaced as corruption rather than silently resumed from.
"""

import json
import time

import pytest

from repro.engine import journal as journal_module
from repro.engine.digest import config_digest, point_key
from repro.engine.journal import (
    STATUS_COMPLETE,
    STATUS_CORRUPT,
    STATUS_RESUMABLE,
    RunJournal,
    journal_path,
    list_runs,
    load_journal,
    load_run,
    new_run_id,
    prune_runs,
)
from repro.errors import WorkloadError
from repro.uarch.config import power5

POINTS = [
    ("blast", "baseline", power5()),
    ("clustalw", "baseline", power5()),
    ("fasta", "baseline", power5()),
    ("hmmer", "baseline", power5()),
]
KEYS = [point_key(app, variant, config) for app, variant, config in POINTS]


def make_journal(root, done=(), failed=(), complete=False, run_id=None):
    """A journal over POINTS with the given records appended."""
    journal = RunJournal.create(root, POINTS, jobs=2, run_id=run_id)
    for index in done:
        journal.record_point_done(KEYS[index], f"digest-{index}")
    for index in failed:
        journal.record_point_failed(
            KEYS[index], "exception", "RuntimeError", "injected"
        )
    if complete:
        journal.record_complete(len(failed))
    journal.close()
    return journal.run_id


class TestRoundTrip:
    def test_header_and_records_round_trip(self, tmp_path):
        run_id = make_journal(tmp_path, done=(0, 1), failed=(2,))
        state = load_run(tmp_path, run_id)
        assert state.status == STATUS_RESUMABLE
        assert state.total_points == len(POINTS)
        assert state.unique_keys == KEYS
        assert set(state.done) == {KEYS[0], KEYS[1]}
        assert state.done[KEYS[0]] == "digest-0"
        assert state.failed == {KEYS[2]: "exception"}
        assert state.torn_tail == 0 and state.corrupt is None

    def test_reconstructed_points_digest_identically(self, tmp_path):
        run_id = make_journal(tmp_path)
        state = load_run(tmp_path, run_id)
        rebuilt = state.reconstruct_points()
        assert [
            (app, variant, config_digest(config))
            for app, variant, config in rebuilt
        ] == KEYS

    def test_complete_footer_flips_status(self, tmp_path):
        run_id = make_journal(
            tmp_path, done=range(len(POINTS)), complete=True
        )
        assert load_run(tmp_path, run_id).status == STATUS_COMPLETE

    def test_reopen_resets_completion(self, tmp_path):
        run_id = make_journal(
            tmp_path, done=range(len(POINTS)), complete=True
        )
        RunJournal.reopen(tmp_path, run_id).close()
        state = load_run(tmp_path, run_id)
        assert state.status == STATUS_RESUMABLE
        assert state.resumed == 1
        # The done records survive the reopen marker.
        assert set(state.done) == set(KEYS)

    def test_done_after_failed_wins(self, tmp_path):
        run_id = make_journal(tmp_path, failed=(1,), done=())
        journal = RunJournal.reopen(tmp_path, run_id)
        journal.record_point_done(KEYS[1], "digest-retry")
        journal.close()
        state = load_run(tmp_path, run_id)
        assert state.done[KEYS[1]] == "digest-retry"
        assert KEYS[1] not in state.failed

    def test_missing_run_raises_and_names_existing(self, tmp_path):
        run_id = make_journal(tmp_path)
        with pytest.raises(WorkloadError, match=run_id):
            load_run(tmp_path, "no-such-run")

    def test_run_ids_are_unique(self):
        assert len({new_run_id() for _ in range(64)}) == 64


class TestTornTail:
    def test_every_truncation_of_the_final_line_is_tolerated(
        self, tmp_path
    ):
        """Crash-mid-append at any byte never corrupts, double-runs, or
        drops: the journal degrades to exactly its complete prefix."""
        run_id = make_journal(tmp_path, done=range(len(POINTS)))
        path = journal_path(tmp_path, run_id)
        raw = path.read_bytes()
        # Start of the final record line (the trailing newline belongs
        # to it). The final record is point_done for KEYS[-1].
        final_start = raw[:-1].rfind(b"\n") + 1
        prefix_done = set(KEYS[:-1])
        for cut in range(final_start, len(raw)):
            path.write_bytes(raw[:cut])
            state = load_journal(path)
            assert state.corrupt is None, f"cut at byte {cut}"
            assert state.status == STATUS_RESUMABLE
            if cut == len(raw) - 1:
                # Only the newline is gone: the record was fully
                # written, so it must be preserved, not dropped.
                assert set(state.done) == set(KEYS)
                assert state.torn_tail == 0
                continue
            # Every fully-written record survives; the torn record is
            # dropped whole. Nothing in between.
            assert set(state.done) == prefix_done, f"cut at byte {cut}"
            assert state.torn_tail == (1 if cut > final_start else 0)
            # Resume arithmetic: done + remainder tile the sweep with
            # no overlap — no point double-runs, none is dropped.
            remainder = [k for k in state.unique_keys if k not in state.done]
            assert set(remainder) | set(state.done) == set(KEYS)
            assert set(remainder) & set(state.done) == set()

    def test_truncation_removing_only_the_newline_keeps_the_record(
        self, tmp_path
    ):
        run_id = make_journal(tmp_path, done=range(len(POINTS)))
        path = journal_path(tmp_path, run_id)
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])  # strip the trailing \n only
        state = load_journal(path)
        # The record itself was fully written, so it is preserved.
        assert set(state.done) == set(KEYS)
        assert state.torn_tail == 0 and state.corrupt is None


class TestCorruption:
    def test_damage_before_the_tail_is_corrupt(self, tmp_path):
        run_id = make_journal(tmp_path, done=range(len(POINTS)))
        path = journal_path(tmp_path, run_id)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b"{garbage\n"
        path.write_bytes(b"".join(lines))
        state = load_journal(path)
        assert state.status == STATUS_CORRUPT
        assert "line 3" in state.corrupt
        # The prefix before the damage is still described.
        assert set(state.done) == {KEYS[0]}

    def test_newer_schema_is_refused(self, tmp_path):
        run_id = make_journal(tmp_path)
        path = journal_path(tmp_path, run_id)
        lines = path.read_bytes().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["schema"] = journal_module.JOURNAL_SCHEMA + 1
        lines[0] = json.dumps(header).encode() + b"\n"
        path.write_bytes(b"".join(lines))
        assert load_journal(path).status == STATUS_CORRUPT

    def test_unknown_record_types_are_skipped(self, tmp_path):
        run_id = make_journal(tmp_path, done=(0,))
        path = journal_path(tmp_path, run_id)
        with open(path, "ab") as handle:
            handle.write(b'{"record":"future_extension","x":1}\n')
        state = load_journal(path)
        assert state.corrupt is None
        assert set(state.done) == {KEYS[0]}


class TestCounters:
    def test_counter_records_are_summed(self, tmp_path):
        journal = RunJournal.create(tmp_path, POINTS, jobs=1, run_id="sum")
        journal.record_counters({"batch.points": 3, "stream.streams": 2})
        journal.close()
        journal = RunJournal.reopen(tmp_path, "sum")
        journal.record_counters(
            {"batch.points": 1, "recovery.pool_rebuilds": 1}
        )
        journal.close()
        assert load_run(tmp_path, "sum").counters == {
            "batch.points": 4,
            "stream.streams": 2,
            "recovery.pool_rebuilds": 1,
        }

    def test_legacy_records_read_as_prefixed_counters(self, tmp_path):
        run_id = make_journal(tmp_path, done=(0,))
        path = journal_path(tmp_path, run_id)
        legacy = [
            {"record": "batch_stats", "groups": 1, "points": 3},
            {"record": "stream_stats", "segments_consumed": 4},
            {"record": "accel_stats", "points": 1, "offload_cycles": 9},
            {"record": "counters", "counters": {"batch.points": 2}},
        ]
        with open(path, "ab") as handle:
            for record in legacy:
                handle.write(
                    json.dumps({**record, "run_id": run_id}).encode() + b"\n"
                )
        state = load_journal(path)
        assert state.corrupt is None
        assert state.counters == {
            "batch.groups": 1,
            "batch.points": 5,
            "stream.segments_consumed": 4,
            "accel.points": 1,
            "accel.offload_cycles": 9,
        }


class TestListingAndPruning:
    def test_list_runs_newest_first(self, tmp_path):
        old = make_journal(tmp_path, run_id="20200101-000000-aaaaaa")
        new = make_journal(tmp_path, run_id="20990101-000000-bbbbbb")
        # created timestamps are identical wall-clock; patch them apart
        # through the files themselves is overkill — ids break the tie.
        listed = [state.run_id for state in list_runs(tmp_path)]
        assert set(listed) == {old, new}

    def test_prune_keeps_resumable_by_default(self, tmp_path):
        resumable = make_journal(tmp_path, done=(0,))
        finished = make_journal(
            tmp_path, done=range(len(POINTS)), complete=True
        )
        removed = prune_runs(tmp_path, max_age_seconds=0.0)
        assert removed == 1
        remaining = {state.run_id for state in list_runs(tmp_path)}
        assert remaining == {resumable}
        assert finished not in remaining

    def test_prune_include_resumable_removes_everything(self, tmp_path):
        make_journal(tmp_path, done=(0,))
        make_journal(tmp_path, complete=True, done=range(len(POINTS)))
        removed = prune_runs(
            tmp_path, max_age_seconds=0.0, include_resumable=True
        )
        assert removed == 2
        assert list_runs(tmp_path) == []

    def test_prune_respects_max_age(self, tmp_path):
        make_journal(tmp_path, complete=True, done=range(len(POINTS)))
        assert prune_runs(tmp_path, max_age_seconds=3600.0) == 0
        assert len(list_runs(tmp_path)) == 1

    def test_corrupt_journal_is_prunable(self, tmp_path):
        run_id = make_journal(tmp_path, done=(0,))
        path = journal_path(tmp_path, run_id)
        path.write_bytes(b"{broken\n" + path.read_bytes())
        assert load_journal(path).status == STATUS_CORRUPT
        assert prune_runs(tmp_path, max_age_seconds=0.0) == 1

    def test_age_uses_header_timestamp(self, tmp_path):
        run_id = make_journal(tmp_path)
        state = load_run(tmp_path, run_id)
        assert 0.0 <= state.age_seconds(time.time()) < 60.0


class TestDefensiveListing:
    """Satellite fix: one damaged journal must not abort ``list_runs``
    or ``prune_runs`` — the bad entry is reported (as a warning plus a
    ``corrupt`` row) and its neighbours are processed normally."""

    def test_garbage_schema_value_does_not_abort_listing(self, tmp_path):
        good = make_journal(tmp_path, run_id="r-good")
        bad = make_journal(tmp_path, run_id="r-bad")
        path = journal_path(tmp_path, bad)
        lines = path.read_bytes().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["schema"] = "banana"  # int() raises: structural damage
        lines[0] = json.dumps(header).encode() + b"\n"
        path.write_bytes(b"".join(lines))
        with pytest.warns(journal_module.JournalWarning, match="r-bad"):
            states = list_runs(tmp_path)
        by_id = {state.run_id: state for state in states}
        assert by_id[good].status == STATUS_RESUMABLE
        assert by_id[bad].status == STATUS_CORRUPT
        assert "run_start" in by_id[bad].corrupt

    def test_malformed_record_payload_is_corrupt_not_raised(self, tmp_path):
        run_id = make_journal(tmp_path)
        path = journal_path(tmp_path, run_id)
        with open(path, "ab") as handle:
            # Valid JSON, valid record type, wrong field types — and
            # padded past the tail so torn-tail tolerance cannot hide it.
            handle.write(
                b'{"record":"point_done","app":"blast"}\n'
            )
            handle.write(b'{"record":"run_complete","failures":0}\n')
        state = load_journal(path)
        assert state.status == STATUS_CORRUPT
        assert "point_done" in state.corrupt

    def test_newer_schema_journal_is_never_pruned(self, tmp_path):
        keep = make_journal(
            tmp_path, done=range(len(POINTS)), complete=True,
            run_id="r-newer",
        )
        path = journal_path(tmp_path, keep)
        lines = path.read_bytes().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["schema"] = journal_module.JOURNAL_SCHEMA + 1
        lines[0] = json.dumps(header).encode() + b"\n"
        path.write_bytes(b"".join(lines))
        drop = make_journal(
            tmp_path, done=range(len(POINTS)), complete=True,
            run_id="r-old",
        )
        with pytest.warns(journal_module.JournalWarning,
                          match="not pruning"):
            removed = prune_runs(
                tmp_path, max_age_seconds=0.0, include_resumable=True
            )
        assert removed == 1
        remaining = {state.run_id for state in list_runs(tmp_path)}
        assert keep in remaining
        assert drop not in remaining
