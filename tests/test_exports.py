import importlib
import pkgutil
import textwrap

import pytest

import vqt

from conftest import run_python

MODULES = ["vqt"] + [f"vqt.{m.name}" for m in pkgutil.iter_modules(vqt.__path__)]

# The names `import vqt` leaves to load on first use, by the module they
# come from.
LAZY = {
    "simulator": ["simulate", "simulate_replicated", "SimConfig", "SimEstimate", "Estimate"],
    "reference": ["erlang_c", "single_server", "ErlangCSolution", "SingleServerSolution"],
}


def run_code(code):
    """Run ``code`` in a fresh interpreter; its stdout."""
    proc = run_python("-c", textwrap.dedent(code))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


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


def test_import_loads_the_analytic_pipeline_only():
    out = run_code("""
        import sys
        import vqt, vqt.cli
        loaded = lambda: sorted(m for m in sys.modules if m.startswith("vqt"))
        print(loaded())
        vqt.SimConfig
        print(loaded())
        vqt.erlang_c
        print(loaded())
    """)
    pipeline = ["vqt", "vqt.cli", "vqt.errors", "vqt.model", "vqt.numerics", "vqt.solver",
                "vqt.spectral"]
    assert out.splitlines() == [str(pipeline), str(sorted(pipeline + ["vqt.simulator"])),
                                str(sorted(pipeline + ["vqt.reference", "vqt.simulator"]))]


def test_lazy_names_are_their_submodules_names():
    run_code(f"""
        import sys
        import vqt
        for module, names in {LAZY!r}.items():
            assert getattr(vqt, module) is sys.modules["vqt." + module], module
            for name in names:
                assert getattr(vqt, name) is getattr(sys.modules["vqt." + module], name), name
    """)


def test_dir_and_star_import_list_every_export():
    run_code("""
        import vqt
        assert set(vqt.__all__) <= set(dir(vqt)), set(vqt.__all__) - set(dir(vqt))
        assert {"simulator", "reference"} <= set(dir(vqt))
        namespace = {}
        exec("from vqt import *", namespace)
        assert all(namespace[name] is getattr(vqt, name) for name in vqt.__all__)
    """)


def test_unknown_name_raises_attribute_error():
    assert not hasattr(vqt, "no_such_name")
    with pytest.raises(AttributeError, match="module 'vqt' has no attribute 'no_such_name'"):
        vqt.no_such_name
