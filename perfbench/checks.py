"""Output checks for the vqt benchmark, computed apart from the program.

Nothing here imports vqt.  The references are the textbook Erlang-C law
(through the Erlang-B recursion, not the partial sums vqt.reference uses), the
single-server threshold law derived below from level crossing, and a
stochastic bracket:

Under FCFS a customer's service time is E/mu with E ~ Exp(1) and mu either
mu1 or mu2, so it lies between E/max(mu1, mu2) and E/min(mu1, mu2).  The
waiting times of an FCFS multi-server queue are monotone in the service
times (Kiefer-Wolfowitz recursion), so W lies stochastically between the
plain M/M/c waits at rate max(mu1, mu2) and, when lam < c*min(mu1, mu2), at
rate min(mu1, mu2).  The bracket holds for every CDF point, the mean and
P(W > 0).

Every check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Slack on bracket comparisons: the solver's own residuals reach 4e-8 at
# c = 16, and a bracket that is tight (mu1 close to mu2) must not reject them.
BRACKET_TOL = 1e-7
# Relative agreement of two closed forms of the same law (printed with 15
# significant digits, computed by different algorithms).
ROUNDOFF = 1e-11
# Component probabilities and densities below this are wrong, not round-off
# (the CLI itself clamps boundary probabilities in (-1e-8, 0) to zero).
FLOOR = -1e-8
# A CDF may step down by at most this much between grid points.
MONOTONE_TOL = 1e-12
# Residual above which a verify report on an unflagged solution is wrong.
RESIDUAL_TOL = 1e-6
# Trapezoid of the density against the CDF increment: relative tolerance per
# grid interval (the fastest mode at c = 16 has rate*h ~ 0.35, a 1 % error),
# and absolute, in probability, over the whole grid (the trapezoid's error on
# the fast modes near x = 0 reaches 2e-4 on clean draws).
TRAPZ_STEP_TOL = 0.05
TRAPZ_TOTAL_TOL = 1e-3
# Simulated means may sit this many half-widths outside the bracket.
SIM_HALF_WIDTHS = 6.0
# validate exits 4 when a |z| exceeds this; its half-widths never go below
# the floor.
Z_LIMIT = 4.0
HALF_WIDTH_FLOOR = 1e-15
# Relative distance to a collision manifold inside which vqt reports
# "degenerate" (its documented 1e-9 guard, with room for round-off).
DEGENERATE_GUARD = 2e-9


# ---------------------------------------------------------------- references

def erlang_c(c: int, lam: float, mu: float) -> tuple[float, float]:
    """(P(W > 0), decay rate) of the M/M/c wait; needs lam < c*mu.

    Erlang-B by its recursion B_n = a B_{n-1} / (n + a B_{n-1}), then
    C = c B / (c - a (1 - B)).
    """
    a = lam / mu
    if a >= c:
        raise ValueError("unstable M/M/c")
    b = 1.0
    for n in range(1, c + 1):
        b = a * b / (n + a * b)
    return c * b / (c - a * (1.0 - b)), c * mu - lam


class ErlangLaw:
    def __init__(self, c: int, lam: float, mu: float):
        self.p_wait, self.decay = erlang_c(c, lam, mu)

    def cdf(self, x: float) -> float:
        return 1.0 - self.p_wait * math.exp(-self.decay * x)

    def pdf(self, x: float) -> float:
        return self.p_wait * self.decay * math.exp(-self.decay * x) if x > 0 else 0.0

    def mean(self) -> float:
        return self.p_wait / self.decay


class SingleServerLaw:
    """c = 1 threshold queue, from level crossing of the workload V.

    Down-crossings of level x happen at rate f(x); up-crossings at rate
    lam*p0*P(S > x) + lam*int_0^x f(y) P(S(y) > x - y) dy, where S(y) has
    rate mu1 for y <= k and mu2 above.  Below k this gives
    f(x) = lam p0 e^{-(mu1-lam) x}.  Above k, g(y) = f(k + y) satisfies
    g = L e^{-mu1 y} + lam (g * e^{-mu2 .}) with L = f(k), so its transform is
    L (s + mu2) / ((s + mu1)(s + mu2 - lam)): a two-term mixture with rates
    mu1 and mu2 - lam.  p0 follows from total mass one.
    """

    def __init__(self, lam: float, mu1: float, mu2: float, k: float):
        if lam >= mu2 or abs(mu2 - mu1 - lam) < 1e-6 * mu2 or abs(mu1 - lam) < 1e-9:
            raise ValueError("outside the closed form's domain")
        self.lam, self.mu1, self.mu2, self.k = lam, mu1, mu2, k
        r = mu1 - lam
        decay_k = math.exp(-r * k)
        self.r = r
        self.p0 = 1.0 / (1.0 + lam * (1.0 - decay_k) / r
                         + lam * decay_k * mu2 / (mu1 * (mu2 - lam)))
        level = lam * self.p0 * decay_k                  # f(k)
        gap = mu2 - mu1 - lam
        self.a = level * (mu2 - mu1) / gap               # weight of e^{-mu1 y}
        self.b = -level * lam / gap                      # weight of e^{-(mu2-lam) y}
        self.s = mu2 - lam
        self.cdf_k = self.p0 + lam * self.p0 * (1.0 - decay_k) / r

    def pdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        if x <= self.k:
            return self.lam * self.p0 * math.exp(-self.r * x)
        y = x - self.k
        return self.a * math.exp(-self.mu1 * y) + self.b * math.exp(-self.s * y)

    def cdf(self, x: float) -> float:
        if x <= self.k:
            return self.p0 + self.lam * self.p0 * (1.0 - math.exp(-self.r * x)) / self.r
        y = x - self.k
        return (self.cdf_k + self.a / self.mu1 * (1.0 - math.exp(-self.mu1 * y))
                + self.b / self.s * (1.0 - math.exp(-self.s * y)))

    def mean(self) -> float:
        lam, r, k = self.lam, self.r, self.k
        # int_0^k x lam p0 e^{-r x} dx
        below = lam * self.p0 * (1.0 - math.exp(-r * k) * (1.0 + r * k)) / (r * r)
        tail_mass = self.a / self.mu1 + self.b / self.s
        tail_moment = self.a / self.mu1 ** 2 + self.b / self.s ** 2
        return below + k * tail_mass + tail_moment


class Bracket:
    """Stochastic bracket of W between M/M/c at max(mu) and at min(mu)."""

    def __init__(self, c: int, lam: float, mu1: float, mu2: float):
        self.fast = ErlangLaw(c, lam, max(mu1, mu2))
        slow_mu = min(mu1, mu2)
        self.slow = ErlangLaw(c, lam, slow_mu) if lam < c * slow_mu else None

    def cdf(self, x: float) -> tuple[float, float]:
        lo = self.slow.cdf(x) if self.slow else 0.0
        return lo, self.fast.cdf(x)

    def mean(self) -> tuple[float, float]:
        return self.fast.mean(), (self.slow.mean() if self.slow else math.inf)

    def p_wait(self) -> tuple[float, float]:
        return self.fast.p_wait, (self.slow.p_wait if self.slow else 1.0)


def _outside(value: float, lo: float, hi: float, tol: float) -> bool:
    return not (lo - tol <= value <= hi + tol) or math.isnan(value)


def _rel_close(a: float, b: float, tol: float = ROUNDOFF) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


class Params:
    """Plain queue parameters as the benchmark generates them."""

    def __init__(self, c: int, lam: float, mu1: float, mu2: float, k: float):
        self.c, self.lam, self.mu1, self.mu2, self.k = int(c), lam, mu1, mu2, k

    def replace(self, name: str, value: float) -> "Params":
        fields = dict(c=self.c, lam=self.lam, mu1=self.mu1, mu2=self.mu2, k=self.k)
        fields["lam" if name == "lambda" else name] = int(round(value)) if name == "c" else value
        return Params(**fields)

    def argv(self) -> list[str]:
        return ["--c", str(self.c), "--lambda", repr(self.lam), "--mu1", repr(self.mu1),
                "--mu2", repr(self.mu2), "--k", repr(self.k)]

    def manifold_distance(self) -> float:
        """Relative distance to the nearest eigenvalue-collision manifold."""
        c, lam, mu1, mu2 = self.c, self.lam, self.mu1, self.mu2
        scale = max(lam, c * mu1, c * mu2)
        return min(abs(lam - c * mu1), abs(lam - c * (mu1 - mu2)),
                   abs(lam - c * (mu2 - mu1)), c * abs(mu1 - mu2)) / scale

    def exact_law(self):
        """The closed-form law when one applies (equal rates or c = 1)."""
        if self.mu1 == self.mu2:
            return ErlangLaw(self.c, self.lam, self.mu1)
        if self.c == 1:
            return SingleServerLaw(self.lam, self.mu1, self.mu2, self.k)
        return None

    def __repr__(self) -> str:
        return f"c={self.c} lam={self.lam!r} mu1={self.mu1!r} mu2={self.mu2!r} k={self.k!r}"


# ------------------------------------------------------------------- checks

def check_point(p: Params, x: float, cdf: float, where: str) -> list[str]:
    lo, hi = Bracket(p.c, p.lam, p.mu1, p.mu2).cdf(x)
    out = []
    if _outside(cdf, lo, hi, BRACKET_TOL):
        out.append(f"{where}: P(W<={x:g}) = {cdf!r} outside bracket [{lo!r}, {hi!r}]")
    law = p.exact_law()
    if law is not None and not _rel_close(cdf, law.cdf(x)):
        out.append(f"{where}: P(W<={x:g}) = {cdf!r}, closed form {law.cdf(x)!r}")
    return out


def check_mean(p: Params, mean: float, where: str) -> list[str]:
    lo, hi = Bracket(p.c, p.lam, p.mu1, p.mu2).mean()
    out = []
    if _outside(mean, lo, hi, BRACKET_TOL * max(1.0, lo)):
        out.append(f"{where}: mean {mean!r} outside bracket [{lo!r}, {hi!r}]")
    law = p.exact_law()
    if law is not None and not _rel_close(mean, law.mean()):
        out.append(f"{where}: mean {mean!r}, closed form {law.mean()!r}")
    return out


def check_p_wait(p: Params, p_wait: float, where: str) -> list[str]:
    lo, hi = Bracket(p.c, p.lam, p.mu1, p.mu2).p_wait()
    out = []
    if _outside(p_wait, lo, hi, BRACKET_TOL):
        out.append(f"{where}: P(W>0) = {p_wait!r} outside bracket [{lo!r}, {hi!r}]")
    law = p.exact_law()
    if law is not None:
        exact = law.p_wait if isinstance(law, ErlangLaw) else 1.0 - law.p0
        if not _rel_close(p_wait, exact):
            out.append(f"{where}: P(W>0) = {p_wait!r}, closed form {exact!r}")
    return out


def check_grid(p: Params, xs, cdf, pdf, components=None, where: str = "grid") -> list[str]:
    """Shape, bracket and closed-form checks on one evaluated grid."""
    out: list[str] = []
    n = len(xs)
    if n < 2 or len(cdf) != n or len(pdf) != n:
        return [f"{where}: ragged grid ({n} x, {len(cdf)} cdf, {len(pdf)} pdf)"]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        out.append(f"{where}: grid not strictly increasing")
    if components is not None:
        worst = min(min(row) for row in components)
        if worst < FLOOR:
            out.append(f"{where}: component probability {worst!r} below {FLOOR}")
        if any(len(row) != p.c for row in components):
            out.append(f"{where}: component rows are not {p.c} wide")
        # with x = 0 on the grid, its CDF value is P(W = 0)
        gap = max(abs(sum(row) - (f - cdf[0])) for row, f in zip(components, cdf))
        if xs[0] == 0.0 and gap > BRACKET_TOL:
            out.append(f"{where}: components do not sum to cdf - P(W=0) ({gap:.3e})")
    dips = [i for i in range(n - 1) if cdf[i + 1] < cdf[i] - MONOTONE_TOL]
    if dips:
        i = dips[0]
        out.append(f"{where}: cdf decreases from {cdf[i]!r} to {cdf[i + 1]!r} at x={xs[i + 1]:g}")
    if min(pdf) < FLOOR:
        out.append(f"{where}: density {min(pdf)!r} below {FLOOR}")
    total_inc = total_trap = 0.0
    for i in range(n - 1):
        h = xs[i + 1] - xs[i]
        inc = cdf[i + 1] - cdf[i]
        trap = 0.5 * h * (pdf[i] + pdf[i + 1])
        total_inc += inc
        total_trap += trap
        if abs(inc - trap) > TRAPZ_STEP_TOL * max(abs(inc), abs(trap)) + 1e-9:
            out.append(f"{where}: cdf increment {inc!r} on [{xs[i]:g}, {xs[i + 1]:g}] "
                       f"disagrees with integrated density {trap!r}")
            break
    if abs(total_inc - total_trap) > TRAPZ_TOTAL_TOL:
        out.append(f"{where}: total cdf increment {total_inc!r} vs integrated density {total_trap!r}")
    for x, f in zip(xs, cdf):
        found = check_point(p, x, f, where)
        if found:
            out.extend(found[:2])
            break
    law = p.exact_law()
    if law is not None:
        for x, d in zip(xs, pdf):
            if x > 0 and abs(d - law.pdf(x)) > ROUNDOFF * max(abs(d), 1e-300) + 1e-13:
                out.append(f"{where}: density {d!r} at x={x:g}, closed form {law.pdf(x)!r}")
                break
    return out


def check_mixture(xs, components, k: float, terms, where: str = "mixture") -> list[str]:
    """The printed exponential mixture must reproduce the printed components.

    ``terms`` maps branch ('below'/'above') to a list of (rate or None for the
    constant, weights).  Rates on the 'above' branch apply to x - k.
    """
    xs = np.asarray(xs, dtype=float)
    comps = np.asarray(components, dtype=float)
    acc = np.zeros_like(comps)
    for branch, mask, shift in (("below", xs <= k, 0.0), ("above", xs > k, k)):
        for rate, weights in terms.get(branch, ()):
            e = np.ones(mask.sum()) if rate is None else np.exp(rate * (xs[mask] - shift))
            acc[mask] += np.outer(e, weights)
    worst = float(np.max(np.abs(acc - comps)))
    if worst > 1e-6 or math.isnan(worst):
        return [f"{where}: exponential mixture misses the grid by {worst:.3e}"]
    return []


# --------------------------------------------------------------- CLI parsers

def parse_solve_csv(text: str) -> dict:
    lines = text.strip().splitlines()
    out = {"model": "threshold", "mean": None, "mixture": {}, "warnings": [], "rows": []}
    header = None
    for line in lines:
        if line.startswith("# model="):
            out["model"] = line.split("=", 1)[1]
        elif line.startswith("# mean="):
            out["mean"] = float(line.split("=", 1)[1])
        elif line.startswith("# mixture,"):
            _, branch, rest = line.split(",", 2)
            rate = None if rest.startswith("constant") else float(rest.split(",")[0][5:])
            weights = [float(v) for v in rest.split("weights=", 1)[1].split(";")]
            out["mixture"].setdefault(branch, []).append((rate, weights))
        elif line.startswith("# warning,"):
            out["warnings"].append(line[len("# warning,"):])
        elif line.startswith("#"):
            continue
        elif header is None:
            header = line.split(",")
        else:
            out["rows"].append([float(v) for v in line.split(",")])
    out["header"] = header or []
    return out


def check_solve_csv(p: Params, text: str) -> list[str]:
    doc = parse_solve_csv(text)
    rows = doc["rows"]
    if not rows:
        return ["csv: no rows"]
    xs = [r[0] for r in rows]
    cdf = [r[-2] for r in rows]
    pdf = [r[-1] for r in rows]
    out = []
    if doc["model"] == "erlang_c":
        comps = None
        if p.mu1 != p.mu2:
            out.append("csv: erlang_c route taken for unequal rates")
    else:
        comps = [r[1:-2] for r in rows]
        if doc["header"] != ["x"] + [f"F_{i}" for i in range(p.c)] + ["cdf", "pdf"]:
            out.append(f"csv: header {doc['header'][:4]}... is not x,F_0..F_{p.c - 1},cdf,pdf")
    if abs(max(xs) - 10 * p.k) > 1e-9 * p.k or p.k not in xs:
        out.append("csv: default grid must end at 10k and contain k")
    out += check_grid(p, xs, cdf, pdf, comps, "csv")
    if doc["mean"] is None:
        out.append("csv: no mean line")
    else:
        out += check_mean(p, doc["mean"], "csv")
    if comps is not None:
        out += check_mixture(xs, comps, p.k, doc["mixture"], "csv mixture")
    return out


def check_solve_json(p: Params, text: str, csv_text: str | None = None) -> list[str]:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"json: unparsable ({exc})"]
    out = []
    comps = doc.get("components")
    out += check_grid(p, doc["grid"], doc["cdf"], doc["pdf"], comps, "json")
    if comps is not None:
        pi = [v for row in doc["pi"] for v in row]
        if min(pi) < 0.0:
            out.append(f"json: reported boundary probability {min(pi)!r} < 0")
        if abs(sum(pi) - doc["cdf"][0]) > BRACKET_TOL:
            out.append("json: boundary probabilities do not sum to P(W=0)")
        mix = doc.get("mixture", {})
        terms = {b: [(t["rate"], t["weights"]) for t in mix[b]["terms"]]
                 + [(None, mix[b]["constant"])] for b in mix}
        out += check_mixture(doc["grid"], comps, p.k, terms, "json mixture")
    if "mean" not in doc:
        out.append("json: no mean")
    else:
        out += check_mean(p, doc["mean"], "json")
    if csv_text is not None:
        rows = parse_solve_csv(csv_text)["rows"]
        worst = max((abs(r[-2] - f) for r, f in zip(rows, doc["cdf"])), default=math.inf)
        if len(rows) != len(doc["cdf"]) or worst > 1e-14:
            out.append("json: cdf disagrees with the csv output of the same command")
    return out


def check_solution(p: Params, p_wait_zero: float, f_infinity, pi_values) -> list[str]:
    """Invariants of a solution object, read from its public fields."""
    out = []
    total = p_wait_zero + sum(f_infinity)
    if abs(total - 1.0) > 1e-9:
        out.append(f"solve: P(W=0) + sum F(inf) = {total!r}")
    if min(pi_values) < FLOOR:
        out.append(f"solve: boundary probability {min(pi_values)!r} below {FLOOR}")
    if min(f_infinity) < FLOOR:
        out.append(f"solve: F(inf) component {min(f_infinity)!r} below {FLOOR}")
    out += check_p_wait(p, 1.0 - p_wait_zero, "solve")
    return out


def check_verify(residuals: dict, warnings) -> list[str]:
    """A residual report must be complete and finite; an unflagged solution
    must verify to RESIDUAL_TOL (a flagged one may report degraded digits)."""
    expected = {"con1_F0", "con2_value_at_k", "con3_slope_at_k", "con4_slope_at_0",
                "con5_balance", "con6_normalization", "null_mode_alpha0",
                "null_mode_alpha1", "integro_differential"}
    out = []
    if set(residuals) != expected:
        out.append(f"verify: residual keys {sorted(residuals)}")
    values = list(residuals.values())
    if any(not math.isfinite(v) or v < 0 for v in values):
        out.append("verify: non-finite or negative residual")
    elif not warnings and max(values, default=0.0) > RESIDUAL_TOL:
        out.append(f"verify: residual {max(values):.3e} on an unflagged solution")
    return out


def check_sweep(base: Params, name: str, values, metrics, text: str) -> tuple[list[str], int]:
    """Check every row of a sweep; returns (problems, rows emitted)."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != f"{name},status," + ",".join(metrics):
        return [f"sweep: header {lines[:1]}"], 0
    rows = [line.split(",") for line in lines[1:]]
    out = []
    if len(rows) != len(values):
        out.append(f"sweep: {len(rows)} rows for {len(values)} values")
    for cells, value in zip(rows, values):
        v = float(cells[0])
        where = f"sweep {name}={cells[0]}"
        if abs(v - value) > 1e-12 * max(abs(value), 1.0):
            out.append(f"{where}: expected value {value!r}")
            continue
        p = base.replace(name, value)
        status = cells[1]
        if status in ("ok", "erlang_c"):
            if (status == "erlang_c") != (p.mu1 == p.mu2):
                out.append(f"{where}: status {status} for mu1={p.mu1} mu2={p.mu2}")
            for metric, cell in zip(metrics, cells[2:]):
                val = float(cell)
                if metric == "mean":
                    out += check_mean(p, val, where)
                elif metric == "p_wait":
                    out += check_p_wait(p, val, where)
                else:
                    out += check_point(p, float(metric[4:]), val, where)
        elif status == "unstable":
            if p.lam < p.c * p.mu2:
                out.append(f"{where}: reported unstable at rho={p.lam / (p.c * p.mu2):.4f}")
        elif status == "degenerate":
            if p.mu1 == p.mu2 or p.manifold_distance() > DEGENERATE_GUARD:
                out.append(f"{where}: reported degenerate at distance {p.manifold_distance():.2e}")
        else:
            out.append(f"{where}: status {status}")
    return out, len(rows)


def parse_validate(text: str) -> dict:
    lines = text.strip().splitlines()
    table = []
    mean = None
    for line in lines[1:]:
        if line.startswith("# mean "):
            fields = dict(f.split("=") for f in line[len("# mean "):].split())
            mean = {k: float(v) for k, v in fields.items()}
        elif not line.startswith("#"):
            x, ref, sim, hw, z = (float(v) for v in line.split(","))
            table.append((x, ref, sim, hw, z))
    return {"header": lines[0] if lines else "", "table": table, "mean": mean}


def check_validate(p: Params, exit_code: int, text: str, grid) -> list[str]:
    out = []
    if exit_code != 0:
        out.append(f"validate: exit code {exit_code}")
    doc = parse_validate(text)
    if doc["header"] != "x,analytic_cdf,sim_cdf,half_width,z" or doc["mean"] is None:
        return out + ["validate: malformed output"]
    if [row[0] for row in doc["table"]] != sorted(grid):
        out.append("validate: comparison grid differs from the one requested")
    bracket = Bracket(p.c, p.lam, p.mu1, p.mu2)
    for x, ref, sim, hw, z in doc["table"]:
        out += check_point(p, x, ref, "validate analytic")
        saturated = (", where every batch saw P(W<=x) = 1"
                     if sim == 1.0 and hw <= HALF_WIDTH_FLOOR else "")
        lo, hi = bracket.cdf(x)
        if _outside(sim, lo, hi, SIM_HALF_WIDTHS * hw):
            out.append(f"validate: simulated P(W<={x:g}) = {sim!r} outside "
                       f"[{lo!r}, {hi!r}]{saturated}")
        if abs(z) > Z_LIMIT:
            out.append(f"validate: z = {z:+.3g} at x={x:g}{saturated}")
    m = doc["mean"]
    out += check_mean(p, m["analytic"], "validate analytic")
    lo, hi = bracket.mean()
    if _outside(m["sim"], lo, hi, SIM_HALF_WIDTHS * m["half_width"]):
        out.append(f"validate: simulated mean {m['sim']!r} outside [{lo!r}, {hi!r}]")
    if abs(m["z"]) > Z_LIMIT:
        out.append(f"validate: z = {m['z']:+.3g} on the mean")
    return out
