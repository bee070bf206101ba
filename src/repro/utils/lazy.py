"""PEP 562 lazy exports for package ``__init__`` modules."""

import importlib
import sys


def lazy_exports(package: str, targets: dict[str, str]):
    """The ``__getattr__`` and ``__dir__`` of a package whose names in
    ``targets`` import on first access, each from ``"module:attr"`` (a
    bare ``"module"`` is the module itself), and then stay cached."""

    def __getattr__(name: str):
        if name not in targets:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module, _, attr = targets[name].partition(":")
        value = importlib.import_module(module)
        value = getattr(value, attr) if attr else value
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(targets))

    return __getattr__, __dir__
