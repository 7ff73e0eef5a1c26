#!/usr/bin/env python3
"""Self-tests of the benchmark's output checks: each check must accept a
clean output and reject a known-bad one, so none of them is vacuous.

    python3 perfbench/selftest.py

Clean outputs are made by the CLI of this checkout; the bad ones are the
clean ones with one value perturbed, plus three rows of the c = 24 CSV that
vqt printed (with exit code 0) when this benchmark was written.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import vqt  # noqa: E402
import vqt.cli  # noqa: E402,F401
from vqt import reference  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import Params  # noqa: E402
from workloads import cli_call  # noqa: E402

C24 = Params(24, 16.799999999999997, 0.8, 1.0, 0.5)
C24_ROWS = """\
x,F_0,F_1,F_2,F_3,F_4,F_5,F_6,F_7,F_8,F_9,F_10,F_11,F_12,F_13,F_14,F_15,F_16,F_17,F_18,F_19,F_20,F_21,F_22,F_23,cdf,pdf
0.5,0.000375817195797029,-0.000506660308258766,-0.000496141199014474,0.00463552001837012,-0.00703847957307288,0.00858845408220934,-0.00480101395954874,0.00397592542495199,0.000210611397051579,0.0018980853048985,0.00180701190794174,0.00221786447879314,0.00258304322503502,0.00300879732726315,0.00349888485230876,0.00407241281068555,0.0047518794333741,0.00560990129945156,0.00665953400682896,0.00815905928019945,0.0102997217378434,0.0140490708560858,0.0229684861439283,0.211837244019294,0.934182236008897,0.28312971138413
0.50125313283208,-0.00299862904555237,0.0100784853560754,-0.00961013916833053,-0.0060298286316538,0.0293119963243953,-0.0386657996969006,0.0339142781667761,-0.0181918370508356,0.00951995383366011,-0.0010251002968289,0.00252455071313307,0.00210051736212336,0.00260795727081131,0.00302110191842075,0.00351167812186759,0.00408677897939924,0.00476756283751456,0.00562704428284633,0.00667879529493121,0.00818037581247211,0.0103245351219083,0.0140785596030442,0.023007014089504,0.21190607741408,0.934543134859342,0.281415110620495
0.513784461152882,-0.00292572416840065,0.00994398538744434,-0.00962168534357488,-0.0051686385886569,0.0276890316599747,-0.0366337564119021,0.0324024820438353,-0.0172426799836103,0.00924086016311776,-0.000827867508633062,0.00259220381849445,0.00220772143802606,0.00271922851970885,0.00314243924367474,0.0036436428745219,0.00423036019674328,0.00492454579307378,0.00579848859410959,0.00687063256185638,0.00839265940789602,0.0105704691595783,0.0143696847154084,0.0233830898680271,0.212512412287796,0.93803079197499,0.269557061023273
"""
WORKED = Params(2, 2.0, 0.75, 1.12, 0.45)
SINGLE = Params(1, 0.7, 0.8, 1.0, 0.5)


def solve_csv(p: Params) -> str:
    code, out, err = cli_call(vqt, ["solve", *p.argv(), "--mean", "--mixture"])
    assert code == 0, err
    return out


def replace_row(text: str, index: int, edit) -> str:
    """Apply ``edit`` to the values of data row ``index`` of a solve CSV."""
    lines = text.splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
    cells = [float(v) for v in lines[data[index]].split(",")]
    lines[data[index]] = ",".join(f"{v:.15g}" for v in edit(cells))
    return "\n".join(lines) + "\n"


def mentions(problems: list[str], text: str) -> bool:
    return any(text in p for p in problems)


class GridChecks(unittest.TestCase):
    def test_clean_worked_case_passes(self):
        self.assertEqual(checks.check_solve_csv(WORKED, solve_csv(WORKED)), [])

    def test_c24_rows_rejected(self):
        doc = checks.parse_solve_csv(C24_ROWS)
        rows = doc["rows"]
        problems = checks.check_grid(C24, [r[0] for r in rows], [r[-2] for r in rows],
                                     [r[-1] for r in rows], [r[1:-2] for r in rows])
        self.assertTrue(mentions(problems, "component probability -0.0386"), problems)

    def test_cdf_with_a_dip_rejected(self):
        text = solve_csv(WORKED)
        before = checks.parse_solve_csv(text)["rows"][99][-2]

        def dip(cells):
            cells[-2] = before - 1e-6
            return cells
        problems = checks.check_solve_csv(WORKED, replace_row(text, 100, dip))
        self.assertTrue(mentions(problems, "cdf decreases"), problems)

    def test_density_off_the_cdf_rejected(self):
        def bump(cells):
            cells[-1] *= 1.5
            return cells
        problems = checks.check_solve_csv(WORKED, replace_row(solve_csv(WORKED), 200, bump))
        self.assertTrue(mentions(problems, "integrated density"), problems)

    def test_mean_outside_bracket_rejected(self):
        text = solve_csv(WORKED)
        mean = checks.parse_solve_csv(text)["mean"]
        bad = text.replace(f"# mean={mean:.15g}", f"# mean={0.1 * mean:.15g}")
        self.assertTrue(mentions(checks.check_solve_csv(WORKED, bad), "outside bracket"))

    def test_mixture_off_the_grid_rejected(self):
        text = solve_csv(WORKED)
        line = next(li for li in text.splitlines() if li.startswith("# mixture,above,constant"))
        weights = [float(v) * 1.001 for v in line.split("weights=")[1].split(";")]
        bad = text.replace(line, "# mixture,above,constant,weights="
                           + ";".join(f"{v:.15g}" for v in weights))
        self.assertTrue(mentions(checks.check_solve_csv(WORKED, bad), "mixture misses"))

    def test_single_server_closed_form(self):
        text = solve_csv(SINGLE)
        self.assertEqual(checks.check_solve_csv(SINGLE, text), [])

        def nudge(cells):
            cells[-2] += 1e-9
            cells[1] += 1e-9
            return cells
        bad = replace_row(text, 50, nudge)
        self.assertTrue(mentions(checks.check_solve_csv(SINGLE, bad), "closed form"))

    def test_json_matches_csv(self):
        code, out, _ = cli_call(vqt, ["solve", *WORKED.argv(), "--mean", "--mixture",
                                      "--format", "json"])
        self.assertEqual(code, 0)
        csv = solve_csv(WORKED)
        self.assertEqual(checks.check_solve_json(WORKED, out, csv), [])
        self.assertTrue(mentions(checks.check_solve_json(
            WORKED, out, replace_row(csv, 10, lambda c: c[:-2] + [c[-2] + 1e-9, c[-1]])),
            "disagrees with the csv"))


class SweepChecks(unittest.TestCase):
    metrics = ["mean", "p_wait", "cdf@1"]

    def sweep(self, base: Params, spec: str) -> str:
        code, out, err = cli_call(vqt, ["sweep", *base.argv(), "--sweep", spec,
                                        "--metrics", ",".join(self.metrics)])
        self.assertEqual(code, 0, err)
        return out

    def test_erlang_rows(self):
        base = Params(4, 1.0, 1.0, 1.0, 1.0)
        values = [0.4 + 0.4 * i for i in range(9)]
        text = self.sweep(base, "lambda=0.4:3.6:9")
        problems, rows = checks.check_sweep(base, "lambda", values, self.metrics, text)
        self.assertEqual((problems, rows), ([], 9))
        lines = text.splitlines()
        cells = lines[5].split(",")
        cells[2] = f"{float(cells[2]) * (1 + 1e-6):.15g}"          # perturb one mean
        lines[5] = ",".join(cells)
        problems, _ = checks.check_sweep(base, "lambda", values, self.metrics, "\n".join(lines))
        self.assertTrue(mentions(problems, "closed form"), problems)

    def test_threshold_rows_and_status(self):
        base = Params(3, 2.0, 0.3, 0.8, 5.0)
        values = [0.2 + 0.05 * i for i in range(5)]
        text = self.sweep(base, "lambda=0.2:0.4:5")
        problems, _ = checks.check_sweep(base, "lambda", values, self.metrics, text)
        self.assertEqual(problems, [])
        bad = text.replace("0.3,ok,", "0.3,degenerate,", 1)
        problems, _ = checks.check_sweep(base, "lambda", values, self.metrics, bad)
        self.assertTrue(mentions(problems, "reported degenerate"), problems)


class SolutionChecks(unittest.TestCase):
    def test_solution_invariants(self):
        sol = vqt.solve(vqt.validate_params(WORKED.c, WORKED.lam, WORKED.mu1, WORKED.mu2,
                                            WORKED.k))
        pis = [float(v) for level in sol.pi_levels for v in level]
        f_inf = [float(v) for v in sol.f_infinity]
        self.assertEqual(checks.check_solution(WORKED, sol.p_wait_zero, f_inf, pis), [])
        self.assertTrue(mentions(checks.check_solution(WORKED, sol.p_wait_zero + 1e-6, f_inf, pis),
                                 "P(W=0) + sum F(inf)"))
        rep = sol.verify(rng=1)
        self.assertEqual(checks.check_verify(rep.residuals, rep.warnings), [])
        worse = dict(rep.residuals, integro_differential=1e-3)
        self.assertTrue(mentions(checks.check_verify(worse, ()), "unflagged"))


class ValidateChecks(unittest.TestCase):
    def test_validate_output(self):
        p = Params(2, 1.4, 0.8, 1.0, 0.5)
        code, out, _ = cli_call(vqt, ["validate", *p.argv(), "--events", "100000",
                                      "--replications", "1", "--seed", "11"])
        grid = [p.k * f for f in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0)]
        self.assertEqual(checks.check_validate(p, code, out, grid), [])
        self.assertTrue(mentions(checks.check_validate(p, 4, out, grid), "exit code 4"))
        mean = checks.parse_validate(out)["mean"]
        bad = out.replace(f"sim={mean['sim']:.15g}", f"sim={0.1 * mean['sim']:.15g}")
        self.assertTrue(mentions(checks.check_validate(p, code, bad, grid), "simulated mean"))


class FaultSignatures(unittest.TestCase):
    """An operation tagged with a known fault counts as that fault only when
    every problem found is the one the fault causes."""

    def test_c24_rows_are_the_c24_fault(self):
        doc = checks.parse_solve_csv(C24_ROWS)
        rows = doc["rows"]
        problems = checks.check_grid(C24, [r[0] for r in rows], [r[-2] for r in rows],
                                     [r[-1] for r in rows], [r[1:-2] for r in rows])
        components = [p for p in problems if "component probability" in p]
        self.assertTrue(components and workloads.C24_FIGURE.explains(components))
        self.assertFalse(workloads.C24_FIGURE.explains(
            components + ["grid: cdf decreases from 0.5 to 0.4 at x=1"]))

    def test_singular_abort_is_the_sweep_fault(self):
        abort = "exit code 3: error: Singular: zero pivot in column 3"
        self.assertTrue(workloads.ROADMAP_SWEEP.explains([abort]))
        self.assertFalse(workloads.ROADMAP_SWEEP.explains(["exit code 3: error: overflow"]))
        self.assertFalse(workloads.ROADMAP_SWEEP.explains(
            ["sweep lambda=2.99: mean 9.0 outside bracket [1.0, 2.0]"]))

    def test_saturated_points_are_the_validate_fault(self):
        p = Params(2, 1.4, 0.8, 1.0, 0.5)
        code, out, _ = cli_call(vqt, ["validate", *p.argv(), "--events", "100000",
                                      "--replications", "1", "--seed", "11"])
        self.assertEqual(code, 0)
        grid = [p.k * f for f in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0)]
        lines = out.splitlines()
        row = next(i for i, li in enumerate(lines) if li.startswith("2,"))
        x, ref = lines[row].split(",")[:2]
        z = (1.0 - float(ref)) / (1e-15 / 1.96)
        lines[row] = f"{x},{ref},1,1e-15,{z:+.3f}"          # every batch saw P(W<=2) = 1
        saturated = "\n".join(lines) + "\n"
        problems = checks.check_validate(p, 4, saturated, grid)
        self.assertTrue(mentions(problems, "every batch saw"), problems)
        self.assertTrue(workloads.SATURATED_Z.explains(problems), problems)
        # the same exit 4, but with a simulated mean outside the bracket too
        mean = checks.parse_validate(out)["mean"]
        off = saturated.replace(f"sim={mean['sim']:.15g}", f"sim={0.1 * mean['sim']:.15g}")
        problems = checks.check_validate(p, 4, off, grid)
        self.assertTrue(mentions(problems, "simulated mean"), problems)
        self.assertFalse(workloads.SATURATED_Z.explains(problems))


class References(unittest.TestCase):
    """The benchmark's closed forms agree with vqt's own, derived apart."""

    def test_erlang_c(self):
        for c, a in ((1, 0.5), (4, 3.2), (16, 11.2), (24, 20.0)):
            mine, _ = checks.erlang_c(c, a, 1.0)
            self.assertAlmostEqual(mine, reference.erlang_c_prob(c, a), delta=1e-13)

    def test_single_server(self):
        p = vqt.inspect_params(1, 0.7, 0.8, 1.0, 0.5)
        theirs = reference.single_server(p)
        mine = checks.SingleServerLaw(0.7, 0.8, 1.0, 0.5)
        self.assertAlmostEqual(mine.p0, theirs.pi00, delta=1e-14)
        for x in (0.1, 0.5, 0.9, 3.0):
            self.assertAlmostEqual(mine.cdf(x), theirs.cdf(x), delta=1e-14)


if __name__ == "__main__":
    unittest.main()
