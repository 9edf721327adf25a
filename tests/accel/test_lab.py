"""The estimation lab: batching and payloads.

The persistent store is exercised through the engine, in
``tests/accel/test_engine.py``.
"""

import pytest

from repro.accel import (
    accel_slot,
    aphmm,
    bioseal,
    estimate,
    estimate_many,
    workload_batch,
)
from repro.accel.lab import estimate_from_dict, estimate_to_dict
from repro.engine.digest import config_digest
from repro.errors import SimulationError


class TestEstimate:
    def test_variant_is_addressing_only(self):
        a = estimate("blast", "baseline", bioseal())
        b = estimate("blast", "combination", bioseal())
        assert a.result == b.result
        assert a.variant != b.variant

    def test_mismatched_shared_batch_rejected(self):
        batch = workload_batch("blast", "A")
        with pytest.raises(SimulationError, match="does not match"):
            estimate("blast", "baseline", bioseal(), batch=batch)

    def test_unsupported_pairing_rejected(self):
        with pytest.raises(SimulationError, match="does not support"):
            estimate("hmmer", "baseline", bioseal())

    def test_properties_mirror_result(self):
        est = estimate("fasta", "baseline", bioseal().with_class("A"))
        assert est.backend == "bioseal"
        assert est.input_class == "A"
        assert est.cycles == est.result.host_cycles
        assert est.instructions == est.result.cells  # engine work measure
        assert est.merged is est

    def test_speedup_over_cycles(self):
        est = estimate("blast", "baseline", bioseal())
        assert est.speedup_over_cycles(est.cycles * 2) == pytest.approx(1.0)
        assert est.speedup_over_cycles(est.cycles) == pytest.approx(0.0)


class TestEstimateMany:
    def test_shares_batches_per_class(self):
        configs = [
            bioseal().with_class("A"),
            bioseal(arrays=8).with_class("A"),
            bioseal().with_class("B"),
        ]
        estimates, info = estimate_many("blast", "baseline", configs)
        assert [e.input_class for e in estimates] == ["A", "A", "B"]
        assert info == {"points": 3, "batches": 2, "shared": 1}

    def test_matches_unbatched(self):
        configs = [bioseal(arrays=n) for n in (1, 2, 4)]
        batched, _ = estimate_many("clustalw", "baseline", configs)
        solo = [estimate("clustalw", "baseline", c) for c in configs]
        assert batched == solo


class TestSlot:
    def test_slot_shape(self):
        assert accel_slot("baseline") == "baseline~accel"

    def test_slot_cannot_alias_a_variant(self):
        # "~" is not a legal code-variant character, so the pseudo-
        # variant can never collide with a real one.
        from repro.kernels.runtime import ALL_VARIANTS

        assert all("~" not in variant for variant in ALL_VARIANTS)


class TestPayload:
    def test_round_trip_exact(self):
        est = estimate("hmmer", "baseline", aphmm().with_class("B"))
        assert estimate_from_dict(estimate_to_dict(est)) == est

    def test_digest_survives_round_trip(self):
        est = estimate("blast", "baseline", bioseal())
        rebuilt = estimate_from_dict(estimate_to_dict(est))
        assert config_digest(rebuilt.config) == config_digest(est.config)

    def test_missing_key_rejected(self):
        payload = estimate_to_dict(estimate("blast", "baseline", bioseal()))
        payload.pop("result")
        with pytest.raises(ValueError, match="keys"):
            estimate_from_dict(payload)

    def test_backend_mismatch_rejected(self):
        payload = estimate_to_dict(estimate("blast", "baseline", bioseal()))
        payload["backend"] = "aphmm"
        with pytest.raises(ValueError, match="mismatch"):
            estimate_from_dict(payload)

    def test_payload_carries_the_discriminator(self):
        # The engine's deserializer switches on this key; no core
        # characterisation payload may ever gain it.
        payload = estimate_to_dict(estimate("blast", "baseline", bioseal()))
        assert payload["backend"] == "bioseal"

