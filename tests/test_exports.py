import importlib
import pkgutil

import pytest

import vqt

MODULES = ["vqt"] + [f"vqt.{m.name}" for m in pkgutil.iter_modules(vqt.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # A name left in __all__ after its object was deleted breaks
    # `import *` and silently drops out of tools that read exports through
    # getattr(mod, name, None), such as perfbench's tracer.
    mod = importlib.import_module(name)
    exports = getattr(mod, "__all__", ())
    assert len(set(exports)) == len(exports), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exports if not hasattr(mod, attr)]
    assert missing == [], f"{name}.__all__ names missing attributes: {missing}"
