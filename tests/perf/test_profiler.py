"""Tests for the gprof-like line-counting profiler."""

import sys

import pytest

from repro.errors import WorkloadError
from repro.perf.profiler import ProfileReport, Profiler, profile_call


def busy(n):
    total = 0
    for i in range(n):
        total += i * i
    return total


def caller(n):
    return busy(n) + busy(n)


def alpha():
    return 1


def beta():
    return 2


def tied():
    return beta() + alpha()


def this_module():
    """A profiler that counts this test module's functions."""
    return Profiler(package_filter=__name__)


class TestProfiler:
    def test_returns_value(self):
        value, report = this_module().run(caller, 100)
        assert value == caller(100)
        assert report.total_lines > 0
        assert [f.name for f in report.functions] == ["busy", "caller"]
        assert report.functions[0].calls == 2

    def test_only_package_lines_count(self):
        _, report = profile_call(busy, 100)
        assert report.functions == []
        assert report.share("busy") == 0.0

    def test_records_functions(self):
        # The profiler only sees repro-package functions; wrap the
        # workload in ones it can attribute.
        from repro.bio.pairwise import smith_waterman_score
        from repro.bio.scoring import BLOSUM62
        from repro.bio.sequence import Sequence

        a = Sequence("a", "MKVAWTHEAGAWGHEE" * 3)
        _, report = profile_call(smith_waterman_score, a, a, BLOSUM62)
        names = [f.name for f in report.functions]
        assert "smith_waterman_score" in names

    def test_hot_function_dominates(self):
        from repro.bio.fastatool import ssearch
        from repro.bio.workloads import fasta_input

        data = fasta_input("A", seed=5)
        _, report = profile_call(ssearch, data.query, data.database[:6])
        assert report.functions[0].name == "smith_waterman_score"
        assert report.share("smith_waterman_score") > 0.5

    def test_share_of_missing_function_is_zero(self):
        _, report = this_module().run(busy, 100)
        assert report.share("nonexistent") == 0.0

    def test_profiler_single_use(self):
        profiler = Profiler()
        profiler.run(busy, 100)
        with pytest.raises(WorkloadError):
            profiler.run(busy, 100)

    def test_format_renders(self):
        from repro.bio.workloads import random_sequence

        _, report = profile_call(random_sequence, "s", 200)
        text = report.format()
        assert "% lines" in text
        assert "random_sequence" in text

    def test_comprehensions_folded_into_caller(self):
        from repro.bio.workloads import random_sequence

        _, report = profile_call(random_sequence, "s", 500)
        assert all(not f.name.startswith("<") for f in report.functions)


class TestDeterminism:
    def test_two_profiles_of_one_call_are_equal(self):
        from repro.bio.fastatool import ssearch
        from repro.bio.workloads import fasta_input

        def profile():
            data = fasta_input("A", seed=5)
            return profile_call(ssearch, data.query, data.database[:3])[1]

        first, second = profile(), profile()
        assert first.total_lines > 0
        assert first == second

    def test_ties_rank_by_name(self):
        _, report = this_module().run(tied)
        lines = {f.name: f.lines for f in report.functions}
        assert lines["alpha"] == lines["beta"]
        names = [f.name for f in report.functions]
        assert names.index("alpha") < names.index("beta")

    def test_payload_round_trip(self):
        from repro.bio.workloads import random_sequence

        _, report = profile_call(random_sequence, "s", 200)
        assert ProfileReport.from_payload(report.to_payload()) == report

    def test_restores_the_previous_trace_function(self):
        original = sys.gettrace()

        def installed(frame, event, arg):
            return None

        sys.settrace(installed)
        try:
            profile_call(busy, 10)
            assert sys.gettrace() is installed
            with pytest.raises(ZeroDivisionError):
                profile_call(lambda: 1 / 0)
            assert sys.gettrace() is installed
        finally:
            sys.settrace(original)
