"""Lazy package attributes: one PEP 562 ``__getattr__`` plus ``__dir__``.

A package ``__init__`` imports eagerly only what every user of the
package needs.  The rest of its public surface — names whose defining
module pulls in numpy, the partitioners or the campaign store, or a tier
only some runs use — is
declared with :func:`lazy_exports` and imported on first attribute
access, so an entry point loads only the code it runs::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.isa.batch": ("BatchCpu",),
    })

``from package import Name``, ``package.Name`` and ``from package
import *`` behave as with an eager import and bind the defining
module's own object; a resolved name is stored in the package, so only
its first access goes through ``__getattr__``.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, modules: Dict[str, Tuple[str, ...]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, resolving each name
    in ``modules`` (defining module -> names) on first access."""
    origin = {name: module for module, names in modules.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
