"""A warm rerun loads only what it reads.

Reading every result from the cache needs neither numpy nor the
compiler, the kernels, the interpreter, the substitution matrices nor a
process pool. The package ``__init__``\\ s re-export lazily
(:func:`repro.lazy.lazy_exports`) and cold-path imports sit in the
functions that compute, so importing the experiments entry point, the
engine or the command line loads none of them. Each check runs in a
fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Modules that importing the experiments entry point, the engine or
#: the command line must not load.
BUDGET = (
    "numpy",
    "repro.compiler",
    "repro.kernels",
    "repro.isa.interpreter",
    "repro.bio.scoring",
    "multiprocessing",
    "concurrent.futures",
)

#: Packages whose ``__all__`` is checked. The first six re-export
#: lazily; ``repro.compiler`` and ``repro.accel`` stay eager.
PACKAGES = (
    "repro.isa", "repro.uarch", "repro.bio", "repro.perf", "repro.engine",
    "repro.bpred", "repro.compiler", "repro.accel",
)

#: Resolves every exported name before and after every submodule of
#: its package is imported, and prints the names that are not the
#: defining module's object. Some names are also submodule names
#: (``repro.perf.characterize`` and ``sweep``, ``repro.bpred.replay``,
#: ``repro.compiler.optimize``, ``repro.accel.aphmm`` and ``bioseal``):
#: importing the submodule must not leave the module under the name.
_CHECK_EXPORTS = """
import importlib, json, pkgutil, sys, types

def defining(package, name, value):
    exports = getattr(package, "_EXPORTS", None)
    if exports is None:
        return sys.modules[value.__module__]
    (module,) = [m for m, names in exports.items() if name in names]
    return importlib.import_module(module, package.__name__)

bad = []
packages = [importlib.import_module(name) for name in {packages!r}]
first = {{
    (package.__name__, name): getattr(package, name)
    for package in packages for name in package.__all__
}}
for package in packages:
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(package.__name__ + "." + info.name)
for package in packages:
    for name in package.__all__:
        value = getattr(package, name)
        if (isinstance(value, types.ModuleType)
                or value is not first[package.__name__, name]
                or value is not getattr(defining(package, name, value), name)):
            bad.append(package.__name__ + "." + name)
print(json.dumps(bad))
"""


def _run(code: str) -> str:
    """Standard output of ``code`` in a fresh interpreter."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=env, timeout=120,
    ).stdout


@pytest.mark.parametrize("module", (
    "repro.experiments.__main__", "repro.engine.engine", "repro.cli",
))
def test_import_stays_within_the_budget(module):
    loaded = _run(
        f"import sys, json\nimport {module}\n"
        f"print(json.dumps([m for m in {BUDGET!r} if m in sys.modules]))"
    )
    assert json.loads(loaded) == []


def test_every_export_is_its_defining_modules_object():
    assert json.loads(_run(_CHECK_EXPORTS.format(packages=PACKAGES))) == []

