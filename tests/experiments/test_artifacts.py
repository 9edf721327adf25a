"""Cached artifacts: the numbers fig1, fig2, ext_phylip, ext_cmp_llc,
the interleaving and optimizer ablations and ext_accel's kernel extents
come from are stored once and read back, never recomputed; an entry
that cannot be trusted is quarantined and recomputed."""

import ast
import importlib
import json
import sys
from pathlib import Path

import pytest

import repro
from repro.engine import cache as cache_module
from repro.engine import engine as engine_module
from repro.engine.digest import _iter_source_files, artifact_key
from repro.experiments import ablations, ext_cmp_llc, ext_phylip, fig1, fig2
from repro.experiments.common import APPS

#: experiment -> (its rendered output, artifacts it reads per call).
RENDERS = {
    "fig1": (lambda: fig1.run({app: "A" for app in APPS}).render(), 4),
    "fig2": (lambda: fig2.run().render(), 1),
    "ext_phylip": (lambda: ext_phylip.run().render(), 1),
    "ext_cmp_llc": (lambda: ext_cmp_llc.run(workers=2).render(), 1),
    "interleaving": (lambda: ablations.interleaving().render(), 4),
    "optimizer": (lambda: ablations.optimizer_effect().render(), 4),
}

HELPERS = ("cached_artifact", "cached_numbers")

perf = importlib.import_module("repro.perf.characterize")


@pytest.fixture()
def fresh_cache(tmp_path, restore_globals):
    """A fresh process-wide cache, with a default engine on it."""
    cache = cache_module.use_cache_dir(tmp_path / "cache")
    engine_module._default_engine = None
    return cache


def counters() -> dict:
    return engine_module.default_engine().stats.counters


def forbid_recomputation(monkeypatch) -> None:
    """Make every step that produces an artifact's numbers raise."""
    from repro.compiler import codegen, ifconversion
    from repro.isa import interpreter, tracestore
    from repro.perf import profiler
    from repro.uarch import batched, llc

    def recomputed(*args, **kwargs):
        raise AssertionError("a cached artifact was recomputed")

    monkeypatch.setattr(interpreter.Machine, "run", recomputed)
    monkeypatch.setattr(interpreter.Machine, "run_segments", recomputed)
    for module in (tracestore, cache_module):
        monkeypatch.setattr(module, "load_trace_columnar", recomputed)
        monkeypatch.setattr(module, "open_trace_segments", recomputed)
    monkeypatch.setattr(batched, "simulate_batched", recomputed)
    monkeypatch.setattr(batched, "simulate_batched_stream", recomputed)
    monkeypatch.setattr(llc, "simulate_llc", recomputed)
    monkeypatch.setattr(profiler.Profiler, "run", recomputed)
    monkeypatch.setattr(ifconversion, "if_convert", recomputed)
    monkeypatch.setattr(codegen, "compile_function", recomputed)


class TestWarmRerun:
    @pytest.mark.parametrize("experiment", sorted(RENDERS))
    def test_second_call_renders_from_the_cache(
        self, experiment, fresh_cache, monkeypatch
    ):
        render, reads = RENDERS[experiment]
        first = render()
        assert counters().get("artifact.computed") == reads
        forbid_recomputation(monkeypatch)
        assert render() == first
        assert counters().get("artifact.disk") == reads
        assert counters().get("artifact.computed") == reads


class TestUntrustedEntries:
    @staticmethod
    def read(size: int, calls: list) -> dict:
        def compute():
            calls.append(size)
            return {"size": size}

        return engine_module.cached_numbers(
            "toy", "~test", compute, dict, dict, size=size
        )

    def test_garbled_entry_is_quarantined_and_recomputed(self, fresh_cache):
        calls: list = []
        assert self.read(1, calls) == {"size": 1}
        path = fresh_cache.result_path("toy", "~test", artifact_key(size=1))
        for garbage in ("{not json", "[1, 2]", json.dumps({"value": {}})):
            path.write_text(garbage)
            assert self.read(1, calls) == {"size": 1}
        assert calls == [1, 1, 1, 1]
        assert fresh_cache.counters.quarantined == 3
        assert counters()["artifact.computed"] == 4
        assert len(list(fresh_cache.quarantine_root.rglob("*.json*"))) == 3

    def test_misaddressed_entry_is_quarantined_and_recomputed(
        self, fresh_cache
    ):
        calls: list = []
        self.read(1, calls)
        source = fresh_cache.result_path("toy", "~test", artifact_key(size=1))
        target = fresh_cache.result_path("toy", "~test", artifact_key(size=2))
        target.write_bytes(source.read_bytes())
        assert self.read(2, calls) == {"size": 2}
        assert calls == [1, 2]
        assert fresh_cache.counters.quarantined == 1
        assert self.read(2, calls) == {"size": 2}
        assert calls == [1, 2]
        assert counters()["artifact.disk"] == 1

    def test_garbled_study_is_recomputed_with_the_same_output(
        self, fresh_cache
    ):
        first = ext_cmp_llc.run(workers=2).render()
        (path,) = (fresh_cache.version_root / "results" / "fasta").glob(
            "~llc-*.json"
        )
        payload = json.loads(path.read_text())
        payload["value"]["shared"]["misses"] = "many"
        path.write_text(json.dumps(payload))
        assert ext_cmp_llc.run(workers=2).render() == first
        assert counters()["artifact.computed"] == 2
        assert fresh_cache.counters.quarantined == 1


class TestKernelDimensions:
    """ext_accel's DP extents are an artifact: hmmer's kernel inputs
    take a Clustalw alignment and an HMM build to make."""

    def test_warm_read_builds_no_kernel_inputs(
        self, fresh_cache, monkeypatch
    ):
        first = {app: perf.kernel_dimensions(app) for app in APPS}
        assert counters()["artifact.computed"] == len(APPS)

        def rebuilt(app):
            raise AssertionError(f"{app} kernel inputs were rebuilt")

        monkeypatch.setattr(perf, "_kernel_inputs", rebuilt)
        assert {app: perf.kernel_dimensions(app) for app in APPS} == first
        assert counters()["artifact.disk"] == len(APPS)

    @pytest.mark.parametrize("value", [
        [], [[0, 3]], [[2, 3, 4]], [[True, 3]], [[2.0, 3]], "23", None,
    ], ids=repr)
    def test_anything_but_positive_integer_pairs_is_recomputed(
        self, fresh_cache, value
    ):
        expected = perf.kernel_dimensions("blast")
        (path,) = (fresh_cache.version_root / "results" / "blast").glob(
            "~dims-*.json"
        )
        payload = json.loads(path.read_text())
        payload["value"] = value
        path.write_text(json.dumps(payload))
        assert perf.kernel_dimensions("blast") == expected
        assert fresh_cache.counters.quarantined == 1
        assert counters()["artifact.computed"] == 2


@pytest.mark.parametrize("value", [
    [], [1, 2, 3], [1, 2, 3, 4, 5], [1, 2, 3, -4], [1, 2, 3, 4.0],
    [1, 2, 3, True], "1234", None,
], ids=repr)
def test_optimizer_counts_are_four_non_negative_integers(fresh_cache, value):
    from repro.perf.apps import optimizer_counts

    expected = optimizer_counts("fasta")
    (path,) = (fresh_cache.version_root / "results" / "fasta").glob(
        "~optimizer-*.json"
    )
    payload = json.loads(path.read_text())
    payload["value"] = value
    path.write_text(json.dumps(payload))
    assert optimizer_counts("fasta") == expected
    assert fresh_cache.counters.quarantined == 1
    assert counters()["artifact.computed"] == 2


def test_fig1_key_follows_the_python_minor_version(monkeypatch):
    from repro.perf.apps import profile_app

    keys = []
    monkeypatch.setattr(
        engine_module, "cached_artifact",
        lambda app, slot, key, *rest: keys.append(key),
    )
    major, minor = sys.version_info[:2]
    profile_app("hmmer", "A")
    profile_app("hmmer", "A")
    monkeypatch.setattr(sys, "version_info", (major, minor + 1, 0, "final", 0))
    profile_app("hmmer", "A")
    monkeypatch.undo()
    assert keys[0] == keys[1] != keys[2]


def _calls_a_helper(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None
            )
            if name in HELPERS:
                return True
    return False


def test_every_artifact_producer_is_in_the_source_digest():
    """An edit to any producer must re-address its artifacts, so every
    module that caches one is a simulation source."""
    package = Path(repro.__file__).resolve().parent
    helpers_home = package / "engine" / "engine.py"
    producers = {
        path.relative_to(package).as_posix()
        for path in package.rglob("*.py")
        if path != helpers_home and _calls_a_helper(path)
    }
    covered = {
        path.resolve().relative_to(package).as_posix()
        for path in _iter_source_files()
    }
    assert {"bpred/lab.py", "perf/apps.py", "perf/characterize.py"} <= producers
    assert producers <= covered
    assert "perf/profiler.py" in covered
