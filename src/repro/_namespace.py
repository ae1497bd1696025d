"""Lazy package namespaces (PEP 562): each public name declared once.

A package ``__init__`` declares one table, module -> the names the
package exports from it, and binds what :func:`lazy_namespace` returns::

    __all__, __getattr__, __dir__ = lazy_namespace(__name__, {
        "frame": ("Frame", "data_frame"),
    })

Nothing is imported until a name is first read; the owning module is
imported then and the value cached in the package's globals.  Any other
attribute that names a submodule or subpackage (``repro.can``,
``repro.traffic.run``) imports it on first access, as an eager
``__init__`` that had already imported it would have provided it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Dict, Mapping, Sequence


def lazy_namespace(package: str, exports: Mapping[str, Sequence[str]]):
    """``(__all__, __getattr__, __dir__)`` of ``package`` from its table.

    Raises ``ImportError`` when a name is listed under two modules.
    """
    owners: Dict[str, str] = {}
    for module, names in exports.items():
        for name in names:
            if name in owners:
                raise ImportError(
                    "%s exports %r from both .%s and .%s"
                    % (package, name, owners[name], module)
                )
            owners[name] = module
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        if name in owners:
            value = getattr(importlib.import_module("%s.%s" % (package, owners[name])), name)
            namespace[name] = value
            return value
        target = "%s.%s" % (package, name)
        if not name.startswith("__"):
            try:
                return importlib.import_module(target)
            except ModuleNotFoundError as exc:
                if exc.name != target:
                    raise
        raise AttributeError("module %r has no attribute %r" % (package, name))

    def __dir__():
        return sorted(set(namespace) | set(owners))

    return list(owners), __getattr__, __dir__
