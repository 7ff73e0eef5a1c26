"""Bit-identity check of vqt between two source trees.

    python tools/bitcheck.py OLD_SRC NEW_SRC

Each SRC is a directory that holds the ``vqt`` package (a checkout's
``src``; for a commit, ``git archive <commit> | tar -x -C DIR`` gives
``DIR/src``).  The check runs one dumper process per tree, each importing vqt
from its own SRC only, and compares what they print: one record per line,
a name and the SHA-256 digest of a value.  It reports the first record whose
digest differs, the records present in one tree only, and a count of the
differing records by kind, and exits 1 on any difference (0 when every
record matches).

The records cover, for every input below: the outcome of ``solve`` (or the
type and message of its error), every field of the solution, of its
matrices and of its spectral data, the mixture's arrays, ``eval_cdf`` and
``eval_density`` on 41 points of [0, 4k], ``mean_wait`` and
``verify_solution(rng=0)``, each with the Python warnings it emitted.  A
value's digest covers its type, dtype, shape and bytes.  The inputs are

* aim 3's draw set (``draws``);
* the scan lambda = 0.7c, mu1 = 0.8, mu2 = 1, k = 0.5 for c = 1..32;
* the named inputs of ROADMAP item 1 and the README's examples, where the
  mixture's own evaluators and ``eval_cdf`` are also asked at x = -1 and NaN,
  and the two light-load inputs whose mean and components are roundoff
  below 0 (c = 8, lambda = 0.000896 and c = 12, lambda = 0.01344, with
  mu1 = 0.75, mu2 = 1.12, k = 0.45), and the input (3, 2.0, 0.6, 0.8, 1e-7),
  whose lower rates all take ``mean_wait``'s series (``solver._moment``);
* lambda, mu1 and k stacks through ``solve_rows``, with rows that fail, and
  the k stack geomspace(1e-7, 3, 9) at c = 3, lambda = 1.5, mu1 = 0.8,
  mu2 = 1, whose smallest k take the series;
* the reference laws: ``single_server``'s cdf and density at x in {0, 0.1,
  0.45, 1, 3, inf} on three c = 1 inputs, and ``erlang_c``'s c_prob,
  decay, p_wait_zero, mean, cdf and density (the same x) on two equal-rate
  inputs;
* every ``SimEstimate`` field of three ``simulate`` runs, one of them
  unstable and one at light load (c = 16, lambda = 8, mu1 = 0.8, mu2 = 1,
  k = 0.5: about 6 % of arrivals wait), and of two ``simulate_replicated``
  runs, one with three replications and one with two at c = 8,
  lambda = 7.2 (about 88 % wait);
* a fixed list of ``vqt solve``/``sweep``/``validate`` calls, run in process:
  exit code, stdout and stderr.  Two of them change the time unit: the
  README's worked example as ``solve --format json --mean`` with rates x 2^40
  and k x 2^-40, and the README's validate input with rates x 2^50 and
  k x 2^-50.

Numpy and Python-float arithmetic do not give the same bits here, so moving
a computation between them is a number change, not a refactor: on an
AVX-512 x86-64 CPU with numpy 2.4, ``np.power`` and ``**`` differed on
64 597 of 2.4 M values, and a 1-D ``a @ b`` differed from a sequential
Python sum on 17-63 % of random vectors of length 2 to 16.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import hashlib
import io
import os
import subprocess
import sys
import warnings

import numpy as np

# ROADMAP item 1's inputs, the README's and those named in tests.
NAMED = [
    (2, 2.0, 0.75, 1.12, 0.45),
    (3, 2.0, 0.3, 0.8, 5.0),
    (3, 2.0, 0.8, 0.7, 5.0),
    (8, 4.004, 1.5, 1.0, 0.5),
    (24, 16.799999999999997, 0.8, 1.0, 0.5),
    (24, 16.8, 0.8, 1.0, 0.5),
    (12, 5.03289, 0.6549, 1.0, 0.332),
    (24, 19.132594520618298, 0.7424959476836241, 2.781652614944676, 0.02208765673970857),
    (10, 9.855924690991543, 0.8434899039445973, 1.7897671539116908, 0.31205625598920195),
    (8, 0.11411819831714975, 0.01696416629872374, 0.01658295957743674, 6638.120385302224),
    (8, 9.219533391614547, 2.732484510277274, 2.2966611484135684, 23.467079576678415),
    (2, 2e6, 750000.0, 1.12e6, 4.5e-7),
    (2, 3.7245930716628366, 6.0776831686377554e-09, 3.0637119266621804, 0.934044314559858),
    (16, 11.2, 0.8, 1.0, 0.5),
    (8, 0.000896, 0.75, 1.12, 0.45),
    (12, 0.01344, 0.75, 1.12, 0.45),
    (3, 2.0, 0.6, 0.8, 1e-7),
]

# (label, c, {parameter: values}, the other parameters)
STACKS = [
    ("lam", 6, {"lam": np.linspace(0.2, 3.0, 600).tolist()},
     dict(mu1=0.3, mu2=0.8, k=5.0)),
    ("mu1", 2, {"mu1": [0.5, 6.0776831686377554e-09, 1.0]},
     dict(lam=3.7245930716628366, mu2=3.0637119266621804, k=0.934044314559858)),
    ("mu1-degenerate", 2, {"mu1": [1.3, 1.500000002, 1.7, 1.9]}, dict(lam=1.0, mu2=1.0, k=1.0)),
    ("k", 3, {"k": np.linspace(0.5, 480.0, 12).tolist()}, dict(lam=2.0, mu1=0.3, mu2=0.8)),
    ("k-mean", 8, {"k": [100.0, 6638.120385302224, 1000.0]},
     dict(lam=0.11411819831714975, mu1=0.01696416629872374, mu2=0.01658295957743674)),
    ("k-series", 3, {"k": np.geomspace(1e-7, 3.0, 9).tolist()}, dict(lam=1.5, mu1=0.8, mu2=1.0)),
]

SINGLE_SERVER = [(1, 1.0, 2.0, 4.0, 1.0), (1, 0.7, 1.1, 0.9, 2.0), (1, 1.0, 3.0, 1.4, 0.3)]
ERLANG_C = [(2, 1.4, 1.0, 1.0, 0.5), (8, 6.0, 0.8, 0.8, 0.5)]
REFERENCE_X = [0.0, 0.1, 0.45, 1.0, 3.0, float("inf")]
# validate's default grid at k = 0.5
VALIDATE_GRID = tuple(0.5 * f for f in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0))
# (label, the queue's five inputs, SimConfig's fields)
SIMULATIONS = [
    ("simulate", (2, 1.4, 0.8, 1.0, 0.5), dict(num_arrivals=20_000, seed=5, grid=(0.25, 0.5, 1.0))),
    ("simulate unstable", (3, 3.5, 0.9, 1.1, 0.7),
     dict(num_arrivals=20_000, seed=6, grid=(0.5, 2.0))),
    ("simulate_replicated", (2, 1.4, 0.8, 1.0, 0.5),
     dict(num_arrivals=20_000, seed=404, grid=(0.0, 0.5, 2.5), replications=3)),
    # the benchmark's validate inputs at both ends of the waiting share
    ("simulate light load", (16, 8.0, 0.8, 1.0, 0.5),
     dict(num_arrivals=60_000, seed=1002, grid=VALIDATE_GRID)),
    ("simulate_replicated", (8, 7.2, 0.8, 1.0, 0.5),
     dict(num_arrivals=60_000, seed=1001, grid=VALIDATE_GRID, replications=2)),
]

GOLDEN = ["--c", "2", "--lambda", "2", "--mu1", "0.75", "--mu2", "1.12", "--k", "0.45"]
CLI_CALLS = [
    ["solve", *GOLDEN],
    ["solve", *GOLDEN, "--mean", "--mixture", "--verify", "--format", "json"],
    ["solve", *GOLDEN, "--mean", "--mixture", "--verify", "--spacing", "log",
     "--grid-points", "50"],
    ["solve", "--c", "3", "--lambda", "2", "--mu1", "0.3", "--mu2", "0.8", "--k", "5",
     "--format", "json", "--mixture", "--verify"],
    ["solve", "--c", "24", "--lambda", "16.799999999999997", "--mu1", "0.8", "--mu2", "1",
     "--k", "0.5", "--mean", "--mixture", "--verify"],
    ["solve", "--c", "10", "--lambda", "9.855924690991543", "--mu1", "0.8434899039445973",
     "--mu2", "1.7897671539116908", "--k", "0.31205625598920195", "--verify"],
    ["solve", "--c", "8", "--lambda", "0.11411819831714975", "--mu1", "0.01696416629872374",
     "--mu2", "0.01658295957743674", "--k", "6638.120385302224", "--mean", "--format", "json"],
    ["solve", "--c", "3", "--lambda", "2e160", "--mu1", "1.5e160", "--mu2", "1e160",
     "--k", "1e-160", "--grid-points", "3"],
    ["solve", "--c", "32", "--lambda", "22.4", "--mu1", "0.8", "--mu2", "1", "--k", "0.5"],
    ["solve", "--c", "2", "--lambda", "1.4", "--mu1", "1", "--mu2", "1", "--k", "0.5",
     "--mean", "--format", "json"],
    ["solve", "--c", "2", "--lambda", "3", "--mu1", "1", "--mu2", "1.2", "--k", "0.5"],
    ["solve", *GOLDEN, "--grid-points", "0"],
    ["solve", "--c", "2", "--lambda", "2199023255552.0", "--mu1", "824633720832.0",
     "--mu2", "1231453023109.12", "--k", "4.092726157978177e-13", "--format", "json", "--mean"],
    ["sweep", *GOLDEN, "--sweep", "lambda=0.2:2.2:21", "--metrics", "mean,p_wait,cdf@1"],
    ["sweep", "--c", "3", "--lambda", "2", "--mu1", "0.8", "--mu2", "1", "--k", "0.5",
     "--sweep", "c=3:16:14", "--metrics", "mean,p_wait"],
    ["sweep", "--c", "3", "--lambda", "2", "--mu1", "0.3", "--mu2", "0.8", "--k", "0.5",
     "--sweep", "k=0.5:480:12", "--metrics", "mean,cdf@3"],
    ["sweep", "--c", "2", "--lambda", "1", "--mu1", "1.3", "--mu2", "1", "--k", "1",
     "--sweep", "mu1=0.9:1.9:11", "--metrics", "mean,p_wait,cdf@2"],
    ["sweep", "--c", "6", "--lambda", "2", "--mu1", "0.3", "--mu2", "0.8", "--k", "5",
     "--sweep", "lambda=0.2:3.0:600", "--metrics", "mean,p_wait,cdf@5"],
    ["sweep", "--c", "16", "--lambda", "11.2", "--mu1", "0.8", "--mu2", "1", "--k", "0.5",
     "--sweep", "c=15:16:2", "--metrics", "mean"],
    ["validate", *GOLDEN, "--events", "20000", "--replications", "2", "--seed", "11"],
    ["validate", "--c", "16", "--lambda", "8", "--mu1", "0.8", "--mu2", "1", "--k", "0.5",
     "--events", "20000", "--replications", "2", "--seed", "3"],
    ["validate", "--c", "2", "--lambda", "1.4", "--mu1", "1", "--mu2", "1", "--k", "0.5",
     "--events", "20000", "--replications", "2", "--seed", "5"],
    ["validate", "--c", "2", "--lambda", "1576259869579673.5", "--mu1", "900719925474099.2",
     "--mu2", "1125899906842624.0", "--k", "4.440892098500626e-16", "--events", "20000",
     "--replications", "2", "--seed", "5"],
]


def _update(h, value) -> None:
    """Feed a value's type and bits to the hash h."""
    h.update(type(value).__name__.encode() + b"|")
    if isinstance(value, (tuple, list)):
        h.update(str(len(value)).encode() + b"[")
        for item in value:
            _update(h, item)
    elif isinstance(value, dict):
        h.update(str(len(value)).encode() + b"{")
        for key, item in value.items():
            _update(h, key)
            _update(h, item)
    elif value is None:
        pass
    elif isinstance(value, (str, bytes)):
        h.update(value.encode() if isinstance(value, str) else value)
    elif isinstance(value, BaseException):
        h.update(f"{type(value).__name__}: {value}".encode())
        _update(h, getattr(value, "errors", None))          # RowErrors: every row's
    elif isinstance(value, (bool, int, float, complex, np.ndarray, np.generic)):
        a = np.asarray(value)
        if a.dtype.hasobject:
            raise TypeError("no digest for an object array")
        h.update(f"{a.dtype.str}{a.shape}".encode() + np.ascontiguousarray(a).tobytes())
    else:
        raise TypeError(f"no digest for {type(value).__name__}")
    h.update(b";")


def draws():
    """Aim 3's draw set (ROADMAP, "Aim 3's draw set"): (seed, i, the five
    inputs) of each of the 400/800/400 valid draws of seeds 0/1/2, at
    c <= 8/12/16, in order, from the vqt on sys.path."""
    import vqt
    from vqt.errors import ValidationError
    for seed, c_max, n in ((0, 8, 400), (1, 12, 800), (2, 16, 400)):
        rng, i = np.random.default_rng(seed), 0
        while i < n:
            c = int(rng.integers(1, c_max + 1))
            mu1, mu2 = rng.uniform(0.2, 3, 2)
            lam = rng.uniform(0.05, 0.97) * c * mu2
            k = 10 ** rng.uniform(-2, 2)
            args = (c, float(lam), float(mu1), float(mu2), float(k))
            try:
                vqt.validate_params(*args)
            except ValidationError:
                continue
            yield seed, i, args
            i += 1


def _run(call):
    """(the result or the exception of call(), the warnings it emitted)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except Exception as exc:                # the error is the record
            result = exc
    return result, [f"{w.category.__name__}: {w.message}" for w in caught]


def _dump(emit) -> None:
    """Every record of the tree on sys.path, in a fixed order."""
    import vqt
    import vqt.cli
    from vqt.errors import ValidationError
    from vqt.solver import (eval_cdf, eval_density, mean_wait, solve, solve_rows,
                            verify_solution)

    def fields(prefix, obj, skip=()):
        for f in dataclasses.fields(obj):
            if f.name not in skip:
                emit(f"{prefix}.{f.name}", getattr(obj, f.name))

    def solution(label, sol, k_max):
        fields(label + " solution", sol, ("params", "matrices", "spectral", "mixture"))
        for name in ("f_infinity", "p_wait_zero", "warnings"):
            emit(f"{label} solution.{name}", getattr(sol, name))
        fields(label + " matrices", sol.matrices)
        fields(label + " spectral", sol.spectral)
        fields(label + " mixture", sol.mixture)
        xs = np.linspace(0.0, 4.0 * k_max, 41)
        emit(label + " eval_cdf", _run(lambda: eval_cdf(sol, xs)))
        emit(label + " eval_density", _run(lambda: eval_density(sol, xs)))
        emit(label + " mean_wait", _run(lambda: mean_wait(sol)))
        report = _run(lambda: verify_solution(sol, rng=0))
        if not isinstance(report[0], Exception):
            report = ((report[0].residuals, report[0].warnings), report[1])
        emit(label + " verify_solution", report)

    def point(label, args, probe=False):
        params, caught = _run(lambda: vqt.validate_params(*args))
        if isinstance(params, ValidationError):
            emit(label + " validate_params", (params, caught))
            return
        sol, caught = _run(lambda: solve(params))
        emit(label + " solve", (sol if isinstance(sol, Exception) else "ok", caught))
        if isinstance(sol, Exception):
            return
        solution(label, sol, params.k)
        if probe:       # the mixture's own evaluators and the functions off their domain
            mix = sol.mixture
            for x in (-1.0, float("nan")):
                emit(f"{label} mixture.components({x})", _run(lambda: mix.components(x)))
                emit(f"{label} mixture.density({x})", _run(lambda: mix.density(x)))
                emit(f"{label} eval_cdf({x})", _run(lambda: eval_cdf(sol, x)))
                emit(f"{label} eval_density({x})", _run(lambda: eval_density(sol, x)))

    for seed, i, args in draws():
        point(f"draw {seed}/{i}", args)
    for c in range(1, 33):
        point(f"scan c={c}", (c, 0.7 * c, 0.8, 1.0, 0.5))
    for args in NAMED:
        point(f"named {args}", args, probe=True)

    for label, c, varied, base in STACKS:
        (name, values), = varied.items()
        points = []
        for v in values:
            try:
                points.append(vqt.validate_params(c, **{**base, name: v}))
            except ValidationError:
                pass
        label = f"stack {label}"
        (sol, live, errors), caught = _run(lambda: solve_rows(points))
        emit(label + " solve_rows", (sol is not None, live, errors, caught))
        if sol is not None:
            solution(label, sol, max(p.k for p in points))

    for args in SINGLE_SERVER:
        law, caught = _run(lambda: vqt.single_server(vqt.inspect_params(*args)))
        emit(f"single_server {args}", (law if isinstance(law, Exception) else "ok", caught))
        for name in ("cdf", "density"):
            emit(f"single_server {args} {name}",
                 _run(lambda: [getattr(law, name)(x) for x in REFERENCE_X]))
    for args in ERLANG_C:
        law, caught = _run(lambda: vqt.erlang_c(vqt.inspect_params(*args)))
        emit(f"erlang_c {args}", (law if isinstance(law, Exception) else "ok", caught))
        for name in ("c_prob", "decay", "p_wait_zero"):
            emit(f"erlang_c {args} {name}", _run(lambda: getattr(law, name)))
        emit(f"erlang_c {args} mean", _run(lambda: law.mean()))
        for name in ("cdf", "density"):
            emit(f"erlang_c {args} {name}",
                 _run(lambda: [getattr(law, name)(x) for x in REFERENCE_X]))

    for label, args, config in SIMULATIONS:
        run = vqt.simulate if config.get("replications", 1) == 1 else vqt.simulate_replicated
        est, caught = _run(lambda: run(vqt.inspect_params(*args), vqt.SimConfig(**config)))
        emit(f"{label} {args}", (est if isinstance(est, Exception) else "ok", caught))
        if not isinstance(est, Exception):
            fields(f"{label} {args} estimate", est)

    for argv in CLI_CALLS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = vqt.cli.main(list(argv))
            except SystemExit as exc:               # argparse
                code = exc.code
        emit("cli " + " ".join(argv), (code, out.getvalue(), err.getvalue()))


def dump(src: str) -> None:
    """Print every record of the tree at src, one 'digest name' line each."""
    sys.path.insert(0, os.path.abspath(src))
    import vqt
    if not os.path.abspath(vqt.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"vqt imported from {vqt.__file__}, not {src}")
    out = sys.stdout         # the CLI calls print to their own buffers

    def emit(name, value):
        h = hashlib.sha256()
        _update(h, value)
        out.write(f"{h.hexdigest()[:32]} {name}\n")

    _dump(emit)


def _records(text: str) -> dict[str, str]:
    records = {}
    for line in text.splitlines():
        digest, name = line.split(" ", 1)
        records[name] = digest
    return records


def _kind(name: str) -> str:
    """What a record holds, without the input: 'solution.f_at_k', 'cli'."""
    return "cli" if name.startswith("cli ") else name.rsplit(" ", 1)[-1]


def compare(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """The lines of the report; empty when every record matches."""
    differ = [name for name in old if name in new and old[name] != new[name]]
    only_old = [name for name in old if name not in new]
    only_new = [name for name in new if name not in old]
    lines = []
    if differ:
        lines.append(f"first differing record: {differ[0]}")
    for label, names in (("differ", differ), ("only in OLD", only_old), ("only in NEW", only_new)):
        for kind, count in collections.Counter(map(_kind, names)).items():
            lines.append(f"{label}: {count} x {kind}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--dump":
        dump(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    texts = []
    for src in argv:            # one tree at a time, each in a fresh interpreter
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", src],
                              capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            print(f"dumper for {src} failed:\n{proc.stderr}", file=sys.stderr)
            return 2
        texts.append(proc.stdout)
    old, new = map(_records, texts)
    lines = compare(old, new)
    print(f"{len(old)} records in OLD, {len(new)} in NEW")
    print("\n".join(lines) if lines else "every record is bit-identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
