"""The benchmark's self-test passes on this checkout: each output check it
holds accepts the CLI's clean output and rejects a perturbed one, so a CLI
change that the benchmark's checks would reject fails here first."""

import subprocess
import sys
from pathlib import Path

from conftest import run_python

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


TRACER_ROUND_TRIP = """
import vqt, vqt.cli
import tracing

def wrappers():
    modules = [("vqt", vqt)] + [(layer, getattr(vqt, layer)) for layer in tracing.LAYERS]
    return {(name, attr): value for name, mod in modules for attr, value in vars(mod).items()
            if getattr(value, "__qualname__", "") == "Tracer._wrap.<locals>.traced"}

tracer = tracing.Tracer(vqt)
tracer.install()
wrapped = wrappers()
assert set(tracing.LAYERS) <= {name for name, _ in wrapped}, wrapped
assert {("solver", "solve"), ("reference", "erlang_c"), ("simulator", "simulate")} <= set(wrapped)
tracer.uninstall()
assert wrappers() == {}
modules = {"vqt": vqt, **{layer: getattr(vqt, layer) for layer in tracing.LAYERS}}
assert all(getattr(modules[name], attr) is value.__wrapped__
           for (name, attr), value in wrapped.items())
"""


def test_tracer_installs_on_a_fresh_import():
    # the tracer reaches each layer as an attribute of the package, also the
    # ones `import vqt` leaves to load on first use
    proc = run_python("-c", TRACER_ROUND_TRIP, path=[SELFTEST.parent])
    assert proc.returncode == 0, proc.stdout + proc.stderr
