"""Tests for the shared-vs-private LLC machinery."""

import pytest

from repro.errors import SimulationError
from repro.isa.instructions import Instruction, Op
from repro.isa.trace import TraceEvent
from repro.uarch.llc import LlcConfig, sharing_study, simulate_llc

_LOAD = Instruction(Op.LD, rd=3, ra=2, imm=0)


def load_stream(addresses):
    return [
        TraceEvent(0, _LOAD, False, 1, address) for address in addresses
    ]


class TestConfig:
    def test_private_slices_split_capacity(self):
        config = LlcConfig(total_size_bytes=64 * 1024)
        assert config.cache_config(share=4).size_bytes == 16 * 1024

    def test_uneven_split_rejected(self):
        config = LlcConfig(total_size_bytes=48 * 1024)
        with pytest.raises(SimulationError):
            config.cache_config(share=7)


class TestSimulateLlc:
    def test_empty_workers_rejected(self):
        with pytest.raises(SimulationError):
            simulate_llc([])

    def test_bad_quantum_rejected(self):
        with pytest.raises(SimulationError):
            simulate_llc([load_stream([0])], quantum=0)

    def test_all_accesses_counted(self):
        traces = [load_stream(range(100)), load_stream(range(100, 200))]
        result = simulate_llc(traces, LlcConfig(total_size_bytes=4096))
        assert result.accesses == 200

    def test_shared_data_dedupes_misses(self):
        """Two workers touching the same lines: shared LLC misses once
        per line, private slices miss once per worker per line."""
        addresses = list(range(0, 4096, 16))  # one access per line
        traces = [load_stream(addresses), load_stream(addresses)]
        config = LlcConfig(total_size_bytes=64 * 1024)
        study = sharing_study(traces, config)
        assert study.private.misses == 2 * study.shared.misses
        assert study.bandwidth_ratio == pytest.approx(2.0)

    def test_disjoint_data_shows_no_sharing_benefit(self):
        """Workers with disjoint footprints that fit their private
        slices: private organisation is no worse."""
        traces = [
            load_stream(list(range(0, 256)) * 3),
            load_stream(list(range(100_000, 100_256)) * 3),
        ]
        config = LlcConfig(total_size_bytes=64 * 1024)
        study = sharing_study(traces, config)
        assert study.private.misses <= study.shared.misses * 1.1

    def test_capacity_pressure_hurts_private(self):
        """A footprint that fits the shared cache but not one slice."""
        lines = LlcConfig().total_size_bytes // 128
        addresses = [i * 16 for i in range(lines // 2)] * 4
        traces = [load_stream(addresses) for _ in range(4)]
        study = sharing_study(traces)
        assert study.bandwidth_ratio > 1.5


class TestParallelSsearchStudy:
    def test_shared_wins_for_parallel_search(self):
        """The [26] reproduction at small scale: parallel workers over
        one database generate far less miss traffic under a shared
        LLC."""
        from repro.perf.apps import parallel_ssearch_traces

        traces = parallel_ssearch_traces(
            workers=2, subjects_count=2, subject_length=40,
            query_length=30,
        )
        study = sharing_study(
            traces, LlcConfig(total_size_bytes=4 * 1024)
        )
        assert study.bandwidth_ratio > 1.5

    def test_workers_share_database_addresses(self):
        from repro.perf.apps import worker_trace
        from repro.bio.workloads import make_family

        family = make_family("db", 2, 40, 0.3, seed=9)
        query = family[0][:30]
        first = worker_trace(0, query, family)
        second = worker_trace(1, query, family)
        first_addresses = {
            e.address for e in first if e.is_load or e.is_store
        }
        second_addresses = {
            e.address for e in second if e.is_load or e.is_store
        }
        shared = first_addresses & second_addresses
        # The database + matrix region is shared; rows/query are not.
        assert shared
        assert first_addresses - second_addresses
