"""An engine simulates each app's background once per config.

The background trace is the same for every code variant of an app, so
:class:`Engine` keeps a ``(app, config)`` memo of background results and
hands it to :func:`characterize_batched`, which then simulates only the
configs the memo lacks. These tests count the traces that reach
``simulate_batched`` / ``simulate_batched_stream`` and pin every reused
result to the scalar reference, :func:`characterize`.
"""

import functools

import pytest

from repro.engine.scheduler import _result_digest
from repro.perf.characterize import (
    _background_length,
    characterize,
    characterize_batched,
)
from repro.uarch import batched as batched_module
from repro.uarch.config import power5

APP = "blast"
C1 = power5()
C2 = power5().with_fxus(3)
C3 = power5().with_btac()


@functools.lru_cache(maxsize=None)
def _scalar_digest(app, variant, config):
    return _result_digest(characterize(app, variant, config, stream=False))


def _digests(results):
    return [_result_digest(result) for result in results]


def _scalar_digests(app, variant, configs):
    return [_scalar_digest(app, variant, config) for config in configs]


@pytest.fixture()
def simulated(monkeypatch):
    """``(events, configs)`` of every trace simulated, in call order."""
    calls = []

    def whole(trace, configs, *args, **kwargs):
        calls.append((len(trace), len(configs)))
        return original_whole(trace, configs, *args, **kwargs)

    def streamed(segments, configs, *args, **kwargs):
        segments = list(segments)
        calls.append((sum(len(segment) for segment in segments),
                      len(configs)))
        return original_stream(iter(segments), configs, *args, **kwargs)

    original_whole = batched_module.simulate_batched
    original_stream = batched_module.simulate_batched_stream
    monkeypatch.setattr(batched_module, "simulate_batched", whole)
    monkeypatch.setattr(batched_module, "simulate_batched_stream", streamed)
    return calls


def _background_configs(calls, app=APP):
    """Config count of each background simulation among ``calls``."""
    length = _background_length(app)
    return [configs for events, configs in calls if events == length]


@pytest.fixture(params=("on", "off"), ids=("stream", "whole"))
def stream_mode(request, monkeypatch):
    monkeypatch.setenv("REPRO_STREAM", request.param)
    return request.param


class TestEngineReuse:
    def test_second_variant_skips_the_background(
        self, fresh_engine, simulated, stream_mode
    ):
        configs = [C1, C2, C3]
        fresh_engine.characterize_batch(APP, "baseline", configs)
        assert _background_configs(simulated) == [3]
        simulated.clear()
        results = fresh_engine.characterize_batch(
            APP, "combination", configs
        )
        # Only the combination kernel trace was simulated.
        assert len(simulated) == 1
        assert _background_configs(simulated) == []
        assert _digests(results) == _scalar_digests(
            APP, "combination", configs
        )

    def test_one_point_path_reuses(self, fresh_engine, simulated):
        fresh_engine.characterize(APP, "baseline", C3)
        simulated.clear()
        result = fresh_engine.characterize(APP, "combination", C3)
        assert len(simulated) == 1
        assert _background_configs(simulated) == []
        assert _result_digest(result) == _scalar_digest(
            APP, "combination", C3
        )

    def test_partial_memo_simulates_only_the_missing(
        self, fresh_engine, simulated, stream_mode
    ):
        fresh_engine.characterize_batch(APP, "baseline", [C1, C2])
        simulated.clear()
        configs = [C2, C3, C3, C1]
        results = fresh_engine.characterize_batch(APP, "hand_max", configs)
        # C3 is simulated once although it repeats; C1 and C2 are reused.
        assert _background_configs(simulated) == [1]
        assert _digests(results) == _scalar_digests(APP, "hand_max", configs)

    def test_clear_forgets_the_backgrounds(self, fresh_engine, simulated):
        fresh_engine.characterize(APP, "baseline", C1)
        fresh_engine.clear()
        simulated.clear()
        fresh_engine.characterize(APP, "combination", C1)
        assert _background_configs(simulated) == [1]

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_sweep_matches_scalar(self, fresh_engine, simulated, jobs):
        """Serial sweeps reuse backgrounds, pool workers build a fresh
        engine per task; both equal the scalar reference."""
        apps = ("clustalw", "fasta")
        points = [
            (app, variant, config)
            for app in apps
            for variant in ("baseline", "hand_max", "combination")
            for config in (power5(), power5().with_btac())
        ]
        results = fresh_engine.characterize_many(points, jobs=jobs)
        if jobs == 1:
            for app in apps:
                assert sum(_background_configs(simulated, app)) == 2
        assert _digests(results) == [
            _scalar_digest(*point) for point in points
        ]


class TestDirectCalls:
    def test_without_a_memo_every_call_simulates(self, simulated):
        characterize_batched(APP, "baseline", [C1])
        characterize_batched(APP, "combination", [C1])
        assert _background_configs(simulated) == [1, 1]

    def test_memo_entries_and_info(self, simulated, stream_mode):
        backgrounds = {}
        _, first = characterize_batched(
            APP, "baseline", [C1, C2], backgrounds=backgrounds
        )
        assert set(backgrounds) == {(APP, C1), (APP, C2)}
        assert all(batched for _, batched in backgrounds.values())
        simulated.clear()
        results, info = characterize_batched(
            APP, "combination", [C2, C1, C2], backgrounds=backgrounds
        )
        assert _background_configs(simulated) == []
        assert all(
            result.background is backgrounds[(APP, config)][0]
            for result, config in zip(results, (C2, C1, C2))
        )
        assert info == {
            "points": 3, "vectorized": 3, "fallback": 0,
            "native": first["native"],
        }
        assert _digests(results) == _scalar_digests(
            APP, "combination", [C2, C1, C2]
        )
