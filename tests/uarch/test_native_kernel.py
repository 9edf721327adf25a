"""The native kernels build, load and actually run.

``_native_kernel()`` turns every build failure into ``None`` so a host
without a compiler still simulates (in Python, exactly). That same
tolerance would hide a broken C source: the results stay right and the
speed quietly goes. These tests fail instead, on any host that has a C
compiler.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.uarch import batched
from repro.uarch.config import power5
from repro.uarch.synthetic import MixProfile, generate_trace

pytestmark = pytest.mark.skipif(
    not any(shutil.which(name) for name in ("cc", "gcc", "clang")),
    reason="no C compiler on PATH",
)


def test_kernel_builds_and_runs_both_halves(monkeypatch):
    monkeypatch.delenv("REPRO_NATIVE", raising=False)
    lib = batched._build_native()  # raises with the compiler's output
    assert lib is not None
    assert batched._native_kernel() is not None
    trace = generate_trace(4_000, MixProfile(), seed=5)
    outcome = batched.simulate_batched(
        trace, [power5(), power5().with_fxus(4)]
    )
    assert outcome.vectorized == 2
    assert outcome.native_frontend
    assert outcome.native


def test_concurrent_first_builds_each_get_both_entry_points(tmp_path):
    """Several processes build into one empty temp dir at once; none may
    read or install a half-written file."""
    script = (
        "from repro.uarch import batched\n"
        "lib = batched._build_native()\n"
        "print(bool(lib.repro_frontend_walk and lib.repro_replay_batch))\n"
    )
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=str(Path(repro.__file__).parents[1]))
    env.pop("REPRO_NATIVE", None)
    builders = [
        subprocess.Popen(
            [sys.executable, "-c", script], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for _ in range(4)
    ]
    outputs = [builder.communicate(timeout=120) for builder in builders]
    for builder, (out, err) in zip(builders, outputs):
        assert builder.returncode == 0, err.decode()
        assert out.decode().strip() == "True"
    built = list(tmp_path.glob("repro-native-*/*"))
    assert [path.suffix for path in built] == [".so"]
