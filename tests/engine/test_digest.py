"""``config_digest`` is memoised per process, yet returns exactly the
digest of the config's canonical JSON, call order notwithstanding."""

from dataclasses import replace

import pytest

from repro.engine import digest as digest_module
from repro.engine.digest import config_digest
from repro.uarch.config import power5

#: Digests of the canonical JSON each config hashes, computed before
#: the memo existed.
PINNED = {
    "power5": (
        power5(),
        "9ee96d89439cf1e5946e2d51c3e2ce826e13045aa81d51a932dc2e3a699f0b94",
    ),
    "btac+4fxu": (
        power5().with_btac().with_fxus(4),
        "09c33789be15114621d51365b5db05314cd873d60f040c8e913d14710680fb9d",
    ),
    "fxu_count=True": (
        replace(power5(), fxu_count=True),
        "502597de2d2d0a28e398e37a9d756510d7efaf7694573190667e43eb82c4a979",
    ),
    "fxu_count=1": (
        replace(power5(), fxu_count=1),
        "fefe92f55ee14e3d0da4c12d9aef79fac1b4150664128f6b9e51c550685eee6c",
    ),
    "penalty=2.0": (
        replace(power5(), taken_branch_penalty=2.0),
        "24835b1c40ffda8bbf11760e6e39735a579229d5e1b468d30a39fd47af62288d",
    ),
}

#: Configs that compare and hash equal but serialise differently.
EQUAL_PAIRS = (
    ("fxu_count=True", "fxu_count=1"),
    ("penalty=2.0", "power5"),
)


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(digest_module, "_config_forms", {})


@pytest.mark.parametrize("name", sorted(PINNED))
def test_digest_is_the_canonical_one(empty_memo, name):
    config, expected = PINNED[name]
    assert config_digest(config) == expected
    assert config_digest(config) == expected


@pytest.mark.parametrize("reverse", (False, True), ids=("given", "reversed"))
@pytest.mark.parametrize("pair", EQUAL_PAIRS, ids="/".join)
def test_equal_configs_keep_their_own_digests(empty_memo, pair, reverse):
    """``2 == 2.0`` and ``1 == True`` hash alike; a memo keyed on the
    config would hand the second of each pair the first one's digest."""
    names = pair[::-1] if reverse else pair
    first, second = (PINNED[name][0] for name in names)
    assert first == second and hash(first) == hash(second)
    assert [config_digest(first), config_digest(second)] == [
        PINNED[name][1] for name in names
    ]


def test_memo_is_bounded(empty_memo, monkeypatch):
    monkeypatch.setattr(digest_module, "_CONFIG_FORMS_MAX", 2)
    for name in sorted(PINNED):
        config, expected = PINNED[name]
        assert config_digest(config) == expected
        assert len(digest_module._config_forms) <= 2
