"""Lazy package exports (PEP 562).

A package that re-exports names from its submodules imports those
submodules when a name is first read, not when the package is imported.
``import repro`` therefore loads no submodule, and a caller pays only for
the modules whose names it uses.
"""

import importlib
import sys


def lazy_exports(package: str, sources: dict[str, tuple[str, ...]], public: list[str]):
    """Module-level ``__getattr__`` and ``__dir__`` for ``package``.

    ``sources`` maps each defining module to the names ``package``
    re-exports from it; ``public`` is the package's ``__all__``.  A name
    is imported from its defining module on first access and then stored
    in the package namespace, so later reads are plain attribute lookups
    and resolve to the same object as in the defining module.  Any other
    public name that is a submodule of ``package`` is imported, so
    ``import repro; repro.campaigns`` keeps working; everything else
    raises :class:`AttributeError`.
    """
    module_of = {name: module for module, names in sources.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = module_of.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
            namespace[name] = value
            return value
        if not name.startswith("_"):
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(public))

    return __getattr__, __dir__
