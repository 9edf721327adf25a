"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package whose ``__init__`` re-exports its submodules' names with
``from .x import y`` loads every submodule, and everything they import,
as soon as any one submodule is imported. :func:`lazy_exports` gives a
package a module-level ``__getattr__`` instead, so
``from repro.uarch import power5`` loads only :mod:`repro.uarch.config`.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__)`` re-exporting ``exports`` from
    ``package`` lazily.

    ``exports`` maps each defining module, named as
    :func:`importlib.import_module` takes it relative to ``package``
    (``".config"``, or ``"repro.errors"`` outside it), to the names it
    defines. The first read of a name imports its module and binds the
    value in the package, so later reads are plain attribute lookups.

    A name that is also a submodule's name (``repro.perf.characterize``)
    cannot be served lazily: importing that submodule binds the module
    object under the name, and ``__getattr__`` is never consulted. The
    package imports such a name eagerly, after this call.
    """
    origin = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str):
        if name not in origin:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = importlib.import_module(origin[name], package)
        value = getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    return list(origin), __getattr__
