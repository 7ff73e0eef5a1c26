"""Outcome counts of vqt on aim 3's inputs, for one source tree.

    python tools/outcomes.py SRC

SRC is a directory that holds the ``vqt`` package (a checkout's ``src``).
The tool runs in one process that imports vqt from SRC only, and prints

* the outcome counts of aim 3's draw set (``bitcheck.draws``; ROADMAP,
  "Aim 3's draw set"), with how many of the returned solves are warned and
  how many are visibly wrong;
* the scan lambda = 0.7c, mu1 = 0.8, mu2 = 1, k = 0.5 for c = 1..64, one
  line per c;
* one such line for each of ``bitcheck.NAMED``.

An input's outcome is the name of the error that ``validate_params`` or
``solve`` raises, or, when solve returns, ``clean`` (the max residual of
``verify_solution(rng=0)`` is at most 1e-8) or ``degraded`` (larger).  A
returned solve is warned when it carries a warning, and visibly wrong when,
on 401 points of [0, 4k], some component of F is below -1e-8 or the total
P(W <= x) falls by more than 1e-8 between neighbouring points.  Falls of
any size are not counted: roundoff makes the total fall by less than that
on many clean solves.
"""

from __future__ import annotations

import collections
import os
import sys
from typing import NamedTuple

import numpy as np

from bitcheck import NAMED, draws

CLEAN = 1e-8        # the largest max residual of a clean solve
WRONG = 1e-8        # how far F may go below 0, or the total fall, and not be visibly wrong


class Outcome(NamedTuple):
    outcome: str                    # "clean", "degraded" or the error's class name
    max_residual: float | None      # None where solve raised
    warned: bool
    visibly_wrong: bool


def classify(args) -> Outcome:
    """The outcome of the input (c, lam, mu1, mu2, k) with the vqt on sys.path."""
    import vqt
    from vqt.errors import VqtError
    from vqt.solver import eval_cdf, solve, verify_solution
    try:
        sol = solve(vqt.validate_params(*args))
    except VqtError as exc:
        return Outcome(type(exc).__name__, None, False, False)
    residual = verify_solution(sol, rng=0).max_residual
    comps, total = eval_cdf(sol, np.linspace(0.0, 4.0 * sol.params.k, 401))
    wrong = comps.min() < -WRONG or np.diff(total).min() < -WRONG
    return Outcome("clean" if residual <= CLEAN else "degraded", residual,
                   bool(sol.warnings), bool(wrong))


def _line(label: str, o: Outcome) -> str:
    out = f"{label}: {o.outcome}"
    if o.max_residual is not None:
        out += f", max residual {o.max_residual:.1e}"
    return out + ", warned" * o.warned + ", visibly wrong" * o.visibly_wrong


def report() -> list[str]:
    """The lines the tool prints."""
    outcomes, warned, wrong = collections.Counter(), collections.Counter(), 0
    for _, _, args in draws():
        o = classify(args)
        outcomes[o.outcome] += 1
        warned[o.outcome] += o.warned
        wrong += o.visibly_wrong
    returned = ("clean", "degraded")
    lines = [f"aim 3's draw set: {sum(outcomes.values())} draws"]
    lines += [f"  {kind} {outcomes[kind]}" for kind in returned]
    lines += [f"  {kind} {n}" for kind, n in outcomes.most_common() if kind not in returned]
    lines += [f"  warned {kind} {warned[kind]}" for kind in returned]
    lines.append(f"  visibly wrong {wrong}")
    lines.append("scan lambda = 0.7c, mu1 = 0.8, mu2 = 1, k = 0.5")
    lines += [_line(f"  c={c}", classify((c, 0.7 * c, 0.8, 1.0, 0.5))) for c in range(1, 65)]
    lines.append("named inputs (c, lambda, mu1, mu2, k)")
    lines += [_line(f"  {args}", classify(args)) for args in NAMED]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0])
    sys.path.insert(0, src)
    import vqt
    if not os.path.abspath(vqt.__file__).startswith(src + os.sep):
        sys.exit(f"vqt imported from {vqt.__file__}, not {src}")
    with np.errstate(all="ignore"):        # the outcome is the record, not numpy's warnings
        print("\n".join(report()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
