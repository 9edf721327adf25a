"""Shared fixtures for the micro-architecture tests."""

import pytest

from repro.uarch.batched import _native_kernel


@pytest.fixture(params=(True, False), ids=("native", "python"))
def native(request, monkeypatch):
    """Run a test under the native kernels and under REPRO_NATIVE=off."""
    if request.param:
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        if _native_kernel() is None:
            pytest.skip("no C compiler for the native kernels")
    else:
        monkeypatch.setenv("REPRO_NATIVE", "off")
    return request.param
