import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import vqt
from vqt import cli, solver
from vqt.cli import _grid, _json, build_parser, main
from vqt.model import inspect_params, validate_params
from vqt.reference import erlang_c
from vqt.solver import eval_cdf, eval_density, solve, verify_solution

GOLDEN = ["solve", "--c", "2", "--lambda", "2", "--mu1", "0.75", "--mu2", "1.12",
          "--k", "0.45"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_golden_row_at_threshold(self, capsys):
        code, out, _ = run(capsys, GOLDEN + ["--grid-points", "5", "--mean"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,F_0,F_1,cdf,pdf"
        row = next(l for l in lines if l.startswith("0.45,"))
        cells = [float(v) for v in row.split(",")]
        assert cells[3] == pytest.approx(0.0768040 + 0.02202 + 0.03179, abs=5e-5)
        assert lines[-1].startswith("# mean=")

    def test_threshold_point_injected_once(self, capsys):
        _, out, _ = run(capsys, GOLDEN + ["--grid-points", "7"])
        xs = [l.split(",")[0] for l in out.strip().splitlines()[1:]]
        assert xs.count("0.45") == 1

    def test_threshold_beyond_grid_max_left_out(self, capsys):
        # k is injected only when k <= grid-max; the grid stops at its maximum
        code, out, _ = run(capsys, ["solve", "--c", "2", "--lambda", "1.4", "--mu1", "0.8",
                                    "--mu2", "1", "--k", "5", "--grid-max", "1",
                                    "--grid-points", "3"])
        assert code == 0
        xs = [float(l.split(",")[0]) for l in out.strip().splitlines()[1:]]
        assert xs == [0.0, 0.5, 1.0]
        for spacing in ("linear", "log"):
            grid = _grid(1.0, 5, spacing, 5.0)
            assert len(grid) == 5 and grid.max() == 1.0

    def test_erlang_routing_header(self, capsys):
        code, out, _ = run(capsys, ["solve", "--c", "1", "--lambda", "0.5",
                                    "--mu1", "1", "--mu2", "1", "--k", "1",
                                    "--grid-points", "3"])
        assert code == 0
        assert out.splitlines()[0] == "# model=erlang_c"
        assert out.splitlines()[1] == "x,cdf,pdf"

    def test_unstable_literal_equal_rate_example_exits_2(self, capsys):
        # rho = 2 here: no stationary law exists, routing cannot save it
        code, _, err = run(capsys, ["solve", "--c", "1", "--lambda", "2",
                                    "--mu1", "1", "--mu2", "1", "--k", "1"])
        assert code == 2
        assert "Unstable" in err

    def test_degenerate_exit_and_suggestion(self, capsys):
        code, _, err = run(capsys, ["solve", "--c", "3", "--lambda", "2.4",
                                    "--mu1", "0.8", "--mu2", "0.9", "--k", "5"])
        assert code == 2
        assert "Degenerate" in err and "mu1" in err

    def test_csv_warnings_on_stderr(self, capsys):
        # degraded c = 24 solve: stdout stays pure CSV, the warning goes to stderr
        _, out, err = run(capsys, ["solve", "--c", "24", "--lambda", "16.799999999999997",
                                   "--mu1", "0.8", "--mu2", "1", "--k", "0.5",
                                   "--grid-points", "5"])
        assert "warning: IllConditioned" in err
        assert "IllConditioned" not in out

    def test_csv_verify_lists_warnings(self, capsys):
        # a warned solve (the U2- basis condition is 7.9e10): --verify appends
        # one "# warning," line per warning of the report, after its residual lines
        argv = ["--c", "16", "--lambda", "11.2", "--mu1", "0.8", "--mu2", "1", "--k", "0.5"]
        code, out, _ = run(capsys, ["solve", *argv, "--grid-points", "3", "--verify"])
        assert code == 0
        report = verify_solution(solve(validate_params(16, *map(float, argv[3::2]))), rng=0)
        assert report.warnings
        tail = out.splitlines()[-len(report.residuals) - len(report.warnings):]
        assert tail == ([f"# residual,{name},{cli._fmt(v)}" for name, v in report.residuals.items()]
                        + [f"# warning,{w}" for w in report.warnings])

    def test_csv_reemission_idempotent(self, capsys):
        _, out, _ = run(capsys, GOLDEN + ["--grid-points", "9"])
        lines = out.strip().splitlines()
        for line in lines[1:]:
            cells = line.split(",")
            again = ",".join(f"{float(v):.15g}" for v in cells)
            assert again == line

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, GOLDEN + ["--format", "json", "--grid-points",
                                             "4", "--mean", "--mixture", "--verify"])
        assert code == 0
        payload = json.loads(out)
        for key in ("params", "pi", "b_c", "grid", "cdf", "pdf", "components",
                    "mean", "mixture", "residuals", "warnings"):
            assert key in payload
        assert payload["b_c"] == pytest.approx(-0.827051, abs=5e-5)
        assert payload["pi"][0][0] == pytest.approx(0.0224116, abs=5e-5)
        assert payload["pi"][0][1] == pytest.approx(0.0108889, abs=5e-5)
        assert payload["pi"][1][0] == pytest.approx(0.0435035, abs=5e-5)
        assert max(payload["residuals"].values()) < 1e-8
        assert 0.45 in payload["grid"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_verify_reproducible_byte_identical(self, capsys, fmt):
        argv = ["solve", "--c", "8", "--lambda", "5.6", "--mu1", "0.8", "--mu2", "1",
                "--k", "0.5", "--grid-points", "3", "--verify", "--format", fmt]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert "integro_differential" in out1
        assert out1 == out2

    @pytest.mark.parametrize("c, lam", [(2, 1.4), (8, 5.6)])
    def test_grid_equals_per_point_rendering(self, capsys, c, lam):
        # The grid evaluated one point at a time and rendered value by value,
        # against the CLI's one-call grid.
        argv = ["solve", "--c", str(c), "--lambda", str(lam), "--mu1", "0.8",
                "--mu2", "1", "--k", "0.5", "--mean", "--mixture"]
        sol = solve(validate_params(c, lam, 0.8, 1.0, 0.5))
        grid = _grid(5.0, 400, "linear", 0.5)
        comps = [eval_cdf(sol, x)[0] for x in grid]
        cdf = [eval_cdf(sol, x)[1] for x in grid]
        pdf = [float(eval_density(sol, x).sum()) for x in grid]
        rows = [",".join(f"{v:.15g}" for v in (x, *f, t, d))
                for x, f, t, d in zip(grid, comps, cdf, pdf)]

        _, out, _ = run(capsys, argv)
        lines = out.split("\n")
        assert lines[1:len(grid) + 1] == rows
        assert lines[len(grid) + 1].startswith("# mean=")

        _, out, _ = run(capsys, argv + ["--format", "json"])
        expected = json.loads(out)
        expected["grid"] = [float(x) for x in grid]
        expected["cdf"] = [float(t) for t in cdf]
        expected["pdf"] = pdf
        expected["components"] = [[float(v) for v in f] for f in comps]
        assert out == json.dumps(expected, indent=1) + "\n"

    def test_json_erlang_route_is_standard_encoding(self, capsys):
        code, out, _ = run(capsys, ["solve", "--c", "2", "--lambda", "1.4", "--mu1", "1",
                                    "--mu2", "1", "--k", "0.5", "--mean", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=1) + "\n"
        sol = erlang_c(inspect_params(2, 1.4, 1.0, 1.0, 0.5))
        grid = _grid(5.0, 400, "linear", 0.5)
        assert payload["model"] == "erlang_c"
        assert payload["grid"] == grid.tolist()
        assert payload["cdf"] == [sol.cdf(x) for x in grid]
        assert payload["pdf"] == [sol.density(x) for x in grid]
        assert payload["mean"] == sol.mean()

    def test_json_verify_log_spacing_is_standard_encoding(self, capsys):
        code, out, _ = run(capsys, GOLDEN + ["--verify", "--spacing", "log", "--mean",
                                             "--mixture", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=1) + "\n"
        sol = solve(validate_params(2, 2.0, 0.75, 1.12, 0.45))
        grid = _grid(4.5, 400, "log", 0.45)
        comps, cdf = eval_cdf(sol, grid)
        assert payload["grid"] == grid.tolist()
        assert payload["cdf"] == cdf.tolist()
        assert payload["components"] == comps.tolist()
        assert payload["residuals"] == verify_solution(sol, rng=0).residuals

    def test_log_spacing(self, capsys):
        _, out, _ = run(capsys, GOLDEN + ["--spacing", "log", "--grid-points", "5"])
        xs = [float(l.split(",")[0]) for l in out.strip().splitlines()[1:]]
        assert xs == sorted(xs)
        assert 0.45 in xs

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, out, _ = run(capsys, GOLDEN + ["--grid-points", "3", "--out",
                                             str(target)])
        assert code == 0 and out == ""
        assert target.read_text().startswith("x,F_0")


class TestValidate:
    def test_matched_model_passes(self, capsys):
        code, out, _ = run(capsys, [
            "validate", "--c", "2", "--lambda", "2", "--mu1", "0.75",
            "--mu2", "1.12", "--k", "0.45", "--events", "150000",
            "--replications", "2", "--seed", "9",
        ])
        assert code == 0
        assert out.startswith("x,analytic_cdf,sim_cdf,half_width,z")
        assert "# mean analytic=" in out

    def test_mismatched_model_exits_4(self, capsys, monkeypatch):
        # simulate a slowdown system but compare against the analytic CDF of
        # a faster one: the gap dwarfs Monte Carlo noise
        import vqt.cli as cli_mod
        from vqt.model import validate_params
        from vqt import solver
        real_solve = solver.solve

        def solve_wrong(params):
            return real_solve(validate_params(params.c, params.lam, params.mu1,
                                              0.9, params.k))
        monkeypatch.setattr(cli_mod.solver, "solve", solve_wrong)
        code, out, _ = run(capsys, [
            "validate", "--c", "3", "--lambda", "2", "--mu1", "0.8",
            "--mu2", "0.7", "--k", "5", "--events", "200000",
            "--replications", "1", "--seed", "12", "--grid", "3,5,7,10",
        ])
        assert code == 4

    def test_saturated_tail_points_pass(self, capsys):
        # At load 0.5 every batch sees P(W <= x) = 1 at x = 1.5 and 2, so the
        # batch means there have no spread; the binomial floor keeps z finite.
        code, out, _ = run(capsys, [
            "validate", "--c", "16", "--lambda", "8", "--mu1", "0.8",
            "--mu2", "1", "--k", "0.5", "--events", "250000",
            "--replications", "2", "--seed", "1002",
        ])
        assert code == 0, out

    def test_reproducible_byte_identical(self, capsys):
        argv = ["validate", "--c", "2", "--lambda", "2", "--mu1", "0.75",
                "--mu2", "1.12", "--k", "0.45", "--events", "60000",
                "--replications", "2", "--seed", "33"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_equal_rate_input_compares_with_erlang_c(self, capsys):
        # mu1 == mu2 routes to the Erlang C law: its CDF and mean are the
        # analytic column
        code, out, err = run(capsys, [
            "validate", "--c", "4", "--lambda", "3", "--mu1", "1", "--mu2", "1",
            "--k", "0.5", "--events", "60000", "--replications", "2", "--seed", "4",
            "--grid", "0,0.5,1,2"])
        assert (code, err) == (0, "")
        ref = erlang_c(inspect_params(4, 3.0, 1.0, 1.0, 0.5))
        lines = out.splitlines()
        assert lines[0] == "x,analytic_cdf,sim_cdf,half_width,z"
        rows = [line.split(",") for line in lines[1:5]]
        assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0, 2.0]
        assert [r[1] for r in rows] == [cli._fmt(ref.cdf(x)) for x in (0.0, 0.5, 1.0, 2.0)]
        assert lines[5].startswith(f"# mean analytic={cli._fmt(ref.mean())} ")
        assert len(lines) == 6


class TestBadInput:
    MODEL = ["--c", "2", "--lambda", "1.4", "--mu1", "0.8", "--mu2", "1", "--k", "0.5"]
    OVERFLOW = ["--c", "8", "--lambda", "11.63931848796125", "--mu1", "1.7518072811296523",
                "--mu2", "1.9476696008438312", "--k", "67.57945954330552"]

    @pytest.mark.parametrize("extra", [
        ["--grid", "a,b"],
        ["--grid", "1,1"],
        ["--grid=-1,2"],
        ["--grid=nan"],
        ["--events", "0"],
        ["--replications", "0"],
    ])
    def test_validate_option_rejected(self, capsys, extra):
        code, out, err = run(capsys, ["validate", *self.MODEL, "--events", "2000", *extra])
        assert code == 2, err
        assert out == ""
        assert err.startswith("ValidationError: ")

    @pytest.mark.parametrize("metrics", [
        "cdf@abc", "cdf@", "cdf@-1", "cdf@nan", "cdf@inf", "mean,cdf@-0.5", "median",
        "", ",", "mean,mean", "mean,p_wait,mean",
    ])
    def test_sweep_metric_rejected_before_solving(self, capsys, monkeypatch, metrics):
        def no_solve(*args):
            raise AssertionError("solved before the metrics were checked")

        monkeypatch.setattr(vqt.cli, "_sweep_rows", no_solve)
        code, out, err = run(capsys, ["sweep", *self.MODEL, "--sweep", "lambda=0.5:1.5:3",
                                      "--metrics", metrics])
        assert code == 2
        assert out == ""
        assert err.startswith("ValidationError: ") and err.count("\n") == 1

    @pytest.mark.parametrize("spec", [
        "c=nan:5:3", "c=inf:5:3", "k=inf:1:3", "k=0.5:-inf:3", "lambda=0.5:1:0",
        "lambda=0.5:1:-2", "c=1.5:2.5:3", "lambda", "lambda=0.5:1",
    ])
    def test_sweep_range_rejected_before_solving(self, capsys, monkeypatch, spec):
        def no_solve(*args):
            raise AssertionError("solved before the range was checked")

        monkeypatch.setattr(vqt.cli, "_sweep_rows", no_solve)
        code, out, err = run(capsys, ["sweep", *self.MODEL, "--sweep", spec])
        assert code == 2
        assert out == ""
        assert err.startswith(f"ValidationError: bad --sweep spec {spec!r}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_solve_grid_max_rejected(self, capsys, value):
        code, out, err = run(capsys, ["solve", *self.MODEL, "--grid-max", value])
        assert code == 2
        assert out == ""
        assert err == "ValidationError: grid-max must be finite\n"

    @pytest.mark.parametrize("option, message", [
        (["--grid-points", "1"], "grid needs at least 2 points"),
        (["--grid-points", "0"], "grid needs at least 2 points"),
        (["--grid-max", "0"], "grid-max must be > 0"),
        (["--grid-max", "-2"], "grid-max must be > 0"),
    ])
    def test_solve_grid_rejected(self, capsys, option, message):
        code, out, err = run(capsys, ["solve", *self.MODEL, *option])
        assert (code, out, err) == (2, "", f"ValidationError: {message}\n")

    @pytest.mark.parametrize("option, message", [
        (["--grid-points", "1"], "grid needs at least 2 points"),
        (["--grid-max", "nan"], "grid-max must be finite"),
    ])
    def test_solve_grid_checked_before_solving(self, capsys, option, message):
        # at k = 2000 the solve itself fails: theta_max*k passes 709 (exit 3)
        model = [*self.MODEL[:-1], "2000"]
        code, out, err = run(capsys, ["solve", *model, *option])
        assert (code, out, err) == (2, "", f"ValidationError: {message}\n")

    @pytest.mark.parametrize("model, option", [
        (["--k", "1e-322"], []),
        (["--k", "0.5"], ["--grid-max", "1e-322"]),
    ])
    def test_log_grid_whose_first_point_underflows(self, capsys, model, option):
        # the log grid starts at grid-max * 1e-3 (default grid-max 10 k)
        code, out, err = run(capsys, ["solve", *self.MODEL[:-2], *model, "--spacing", "log",
                                      "--grid-points", "3", *option])
        assert (code, out, err) == (2, "", "ValidationError: log spacing starts at "
                                           "grid-max * 1e-3, which underflows to 0\n")

    def test_solve_bad_k_named_before_its_default_grid(self, capsys):
        code, out, err = run(capsys, ["solve", *self.MODEL[:-1], "-1"])
        assert (code, out, err) == (2, "", "NonPositive: k must be finite and > 0, got -1.0\n")

    @pytest.mark.parametrize("command", [
        ["solve", "--mean", "--grid-points", "3"],
        ["validate", "--events", "1000", "--replications", "1"],
    ])
    def test_growth_overflow_exits_3(self, capsys, command):
        code, out, err = run(capsys, [command[0], *self.OVERFLOW, *command[1:]])
        assert code == 3
        assert out == ""
        assert "NumericalError" in err and "theta_max*k" in err

    GROWTH = ["--c", "8", "--lambda", "9.219533391614547", "--mu1", "2.732484510277274",
              "--mu2", "2.2966611484135684", "--k", "23.467079576678415"]

    def test_top_level_singular_names_growth(self, capsys):
        # theta_max*k = 194.5: the twenty-matrix route's top-level matrix
        # failed its pivot test here (exit 3); the bordered system solves it
        # to the multiprecision value of P(W <= 0.1), so growth alone earns
        # no warning
        code, out, err = run(capsys, ["solve", *self.GROWTH, "--grid-max", "0.2",
                                      "--grid-points", "3", "--format", "json", "--verify"])
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["cdf"][1] == pytest.approx(0.993046485855, abs=1e-11)
        assert max(payload["residuals"].values()) <= 1e-12
        assert payload["warnings"] == []

    def test_growth_input_carries_no_warning(self, capsys):
        assert solve(validate_params(8, *map(float, self.GROWTH[3::2]))).warnings == ()
        code, out, err = run(capsys, ["solve", *self.GROWTH, "--grid-points", "3"])
        assert (code, err) == (0, "")
        assert out.startswith("x,F_0,")

    def test_growth_input_validates(self, capsys):
        # the same input against the simulator, on points below the CDF's
        # saturated end
        code, out, _ = run(capsys, ["validate", *self.GROWTH, "--events", "200000",
                                    "--grid", "0,0.02,0.05,0.1,0.2"])
        assert code == 0
        z = [float(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:6]]
        z.append(float(out.split("z=")[1]))
        assert max(map(abs, z)) <= 4.0

    @pytest.mark.parametrize("command", [
        ["solve", "--mean"],
        ["validate", "--events", "1000", "--replications", "1"],
    ])
    def test_growth_overflow_stderr_is_one_line(self, command):
        # A fresh interpreter: in-process, pytest collects numpy's
        # RuntimeWarnings before they could reach stderr.
        src = str(Path(vqt.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "vqt.cli", command[0], *self.OVERFLOW, *command[1:]],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == ("NumericalError: non-finite solution: growth exponent "
                               "theta_max*k = 734.1 (exp overflows past about 709)\n")

    @pytest.mark.parametrize("command", [
        ["solve", "--grid-points", "3"],
        ["sweep", "--sweep", "lambda=0.5:1.5:3"],
        ["validate", "--events", "1000", "--replications", "1"],
    ])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, monkeypatch, command):
        def work(*args, **kwargs):
            raise AssertionError("solve or simulation ran before the --out check")
        monkeypatch.setattr(cli, "simulate_replicated", work)
        monkeypatch.setattr(solver, "solve", work)
        path = tmp_path / "missing" / "out.csv"
        code, out, err = run(capsys, [command[0], *self.MODEL, *command[1:],
                                      "--out", str(path)])
        assert code == 2
        assert out == ""
        assert err == f"FileNotFoundError: [Errno 2] No such file or directory: '{path}'\n"
        assert not path.parent.exists()
        code, out, err = run(capsys, [command[0], *self.MODEL, *command[1:],
                                      "--out", str(tmp_path)])
        assert (code, out) == (2, "")
        assert err == f"IsADirectoryError: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["solve", "--mean", "--grid-points", "3"],
        ["validate", "--events", "1000", "--replications", "1"],
    ])
    def test_failed_run_leaves_out_as_it_was(self, capsys, tmp_path, command):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("kept\n")
        for path in (new, old):
            code, out, err = run(capsys, [command[0], *self.OVERFLOW, *command[1:],
                                          "--out", str(path)])
            assert code == 3 and out == "" and "NumericalError" in err
        assert not new.exists()
        assert old.read_text() == "kept\n"


class TestSweep:
    def test_roundoff_below_zero_p_wait_prints_0(self, capsys):
        # 1 - P(W = 0) falls below one ulp of 1 near c = 16: it rounds to 0.0
        # at c = 20 and 22 here, and to -2.2e-16 at c = 18 and 20 with
        # lambda = 0.3; both print as 0, as pi entries do in solve
        code, out, _ = run(capsys, [
            "sweep", "--c", "4", "--lambda", "0.9", "--mu1", "1.3", "--mu2", "0.7",
            "--k", "0.8", "--sweep", "c=4:22:10", "--metrics", "mean,p_wait,cdf@3",
        ])
        assert code == 0
        for c in (20, 22):
            assert 1.0 - solve(validate_params(c, 0.9, 1.3, 0.7, 0.8)).p_wait_zero == 0.0
        rows = {r[0]: r for r in (l.split(",") for l in out.strip().splitlines()[1:])}
        assert rows["22"][3] == "0" and rows["20"][3] == "0"
        assert all(float(r[3]) > 0 for c, r in rows.items() if int(c) <= 18)
        assert float(rows["22"][2]) > 0
        code, out, _ = run(capsys, [
            "sweep", "--c", "18", "--lambda", "0.3", "--mu1", "1.3", "--mu2", "0.7",
            "--k", "0.8", "--sweep", "c=18:20:2", "--metrics", "p_wait"])
        assert code == 0
        for c in (18, 20):
            assert 1.0 - solve(validate_params(c, 0.3, 1.3, 0.7, 0.8)).p_wait_zero < 0
        assert out.strip().splitlines()[1:] == ["18,ok,0", "20,ok,0"]

    def test_degenerate_row_skipped_neighbors_ok(self, capsys):
        code, out, _ = run(capsys, [
            "sweep", "--c", "3", "--lambda", "2", "--mu1", "0.3", "--mu2", "0.8",
            "--k", "5", "--sweep", "lambda=0.7:1.1:5", "--metrics", "mean",
        ])
        assert code == 0
        lines = out.strip().splitlines()
        statuses = [l.split(",")[1] for l in lines[1:]]
        assert statuses[2] == "degenerate"       # lambda = 0.9 = c*mu1
        assert statuses[0] == "ok" and statuses[-1] == "ok"
        degenerate_row = lines[3].split(",")
        assert degenerate_row[2] == ""

    def test_equal_rate_point_routed(self, capsys):
        code, out, _ = run(capsys, [
            "sweep", "--c", "3", "--lambda", "2", "--mu1", "0.8", "--mu2", "0.8",
            "--k", "5", "--sweep", "mu2=0.7:0.9:3",
            "--metrics", "cdf@3,p_wait",
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "mu2,status,cdf@3,p_wait"
        rows = [l.split(",") for l in lines[1:]]
        assert [r[1] for r in rows] == ["ok", "erlang_c", "ok"]
        cdfs = [float(r[2]) for r in rows]
        assert cdfs == sorted(cdfs)              # pointwise ordered in mu2

    def test_all_invalid_exits_2(self, capsys):
        code, _, err = run(capsys, [
            "sweep", "--c", "1", "--lambda", "2", "--mu1", "1", "--mu2", "1.2",
            "--k", "1", "--sweep", "mu2=0.5:1.5:3", "--metrics", "mean",
        ])
        assert code == 2

    def test_convexity_violation_of_mean_in_lambda(self, capsys):
        code, out, _ = run(capsys, [
            "sweep", "--c", "3", "--lambda", "2", "--mu1", "0.3", "--mu2", "0.8",
            "--k", "5", "--sweep", "lambda=0.2:2.3:40", "--metrics", "mean",
        ])
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()[1:]]
        pts = [(float(r[0]), float(r[2])) for r in rows if r[1] == "ok"]
        violated = any(
            pts[i][1] > 0.5 * (pts[i - 1][1] + pts[i + 1][1]) + 1e-12
            for i in range(1, len(pts) - 1)
            if pts[i + 1][0] - pts[i][0] == pytest.approx(pts[i][0] - pts[i - 1][0])
        )
        assert violated

    def test_cdf_metric_spellings_agree(self, capsys):
        argv = ["sweep", "--c", "3", "--lambda", "2", "--mu1", "0.3", "--mu2", "0.8",
                "--k", "5", "--sweep", "lambda=0.7:1.1:5", "--metrics"]
        code, out, _ = run(capsys, argv + ["cdf@3,cdf@3.0,cdf@0,mean"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,status,cdf@3,cdf@3.0,cdf@0,mean"
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[2] == cells[3]
            if cells[1] == "ok":
                sol = solve(validate_params(3, float(cells[0]), 0.3, 0.8, 5.0))
                assert float(cells[4]) == pytest.approx(sol.p_wait_zero, abs=1e-14)

    def test_bad_sweep_spec(self, capsys):
        code, _, err = run(capsys, [
            "sweep", "--c", "2", "--lambda", "1", "--mu1", "1", "--mu2", "1.2",
            "--k", "1", "--sweep", "nope=1:2:3", "--metrics", "mean",
        ])
        assert code == 2


def test_calls_in_a_row_match_first_calls(capsys):
    # one process, one parser: each call, also the one after an argv that
    # argparse rejects, prints what it prints as the first call of a fresh main
    argvs = [
        GOLDEN + ["--grid-points", "5", "--mean"],
        ["sweep", "--c", "3", "--lambda", "2", "--mu1", "0.3", "--mu2", "0.8",
         "--k", "5", "--sweep", "lambda=0.7:1.1:5", "--metrics", "mean,cdf@3"],
        ["solve", "--c", "2", "--lambda", "two", "--mu1", "0.75", "--mu2", "1.12",
         "--k", "0.45"],
        GOLDEN + ["--format", "json", "--grid-points", "4", "--mixture"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first_calls = []
    for argv in argvs:
        build_parser.cache_clear()
        first_calls.append(call(argv))
    build_parser.cache_clear()
    in_a_row = [call(argv) for argv in argvs]
    assert in_a_row == first_calls
    assert [code for code, _, _ in in_a_row] == [0, 0, 2, 0]
    assert "invalid float value: 'two'" in in_a_row[2][2]
    assert build_parser() is build_parser()


# float64 values, with NaN, +-inf, -0.0 and subnormals drawn often
_FLOATS = st.floats(width=64) | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.2250738585072014e-308])
_SHAPES = st.sampled_from([(0,), (0, 3), (3, 0)]) | hnp.array_shapes(
    min_dims=0, max_dims=2, min_side=1, max_side=5)
_ARRAYS = (hnp.arrays(np.float64, _SHAPES, elements=_FLOATS)
           | hnp.arrays(np.float64, _SHAPES, elements=st.floats(allow_nan=False,
                                                                allow_infinity=False))
           | hnp.arrays(np.int64, _SHAPES))
_LEAVES = (st.none() | st.booleans() | st.integers() | _FLOATS | st.text(max_size=8)
           | _ARRAYS)
_KEYS = st.text(max_size=8) | st.integers() | _FLOATS | st.booleans() | st.none()
_OBJECTS = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(_KEYS, inner, max_size=4), max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_OBJECTS)
def test_json_writer_equals_standard_encoder(obj):
    assert _json(obj) == json.dumps(obj, indent=1, default=np.ndarray.tolist)
