"""Seeded inputs, tasks and oracles of the four benchmark workloads.

Every workload is a fixed list of tasks generated from the workload seed;
the package only ever sees the generated inputs. A task has a timed `run`
that makes the library calls and an untimed `check` that compares the
results with oracles the package already has. All library calls go
through module attributes (`sq.solve_poisson`, `sq.cli.price_sweep`) so
that the tracer's rebinding reaches them.

Why these four workloads:

- analyze: the per-policy path every command and oracle uses. Desk-size
  draws are bound by per-call overhead and set the median; wide chains are
  bound by the O(k^2) Python loops of the rg and explicit Poisson routes
  and set the tail. Draws are not filtered for conditioning, so the
  package's NumericalError refusals show up as failures.
- search: the two kinds of policy enumeration, vectorized `optimize` and
  the per-policy Poisson solves of critical prices. Changes to the
  realization-factor or optimizer code show here and nowhere else.
- simulate: event-mode runs on a small and a wide state space, since
  a block-scan kernel's cost grows with the state count; plus the
  time-unit, replication and trace paths.
- cli: one in-process `sleepq.cli.main` call per quick command, each
  writing its CSV, which measures argument parsing, the model file and CSV
  output on top of the library. Start-up and import cost, which dominate a
  command run from the shell, are in every workload's setup_s.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil
import statistics
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Callable

import numpy as np

import sleepq as sq
import sleepq.cli  # noqa: F401  (binds sq.cli)

POISSON_METHODS = ("rg", "dense", "explicit")

#: Test-suite conditioning rule, re-implemented: sum of the unnormalized
#: stationary weights and the infinity-norm condition number of the
#: reduced generator.
MASS_LIMIT = 1e4
CONDITION_LIMIT = 1e6


class OracleMismatch(Exception):
    """A result disagrees with its oracle."""


@dataclass
class Task:
    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], None]


@dataclass
class Workload:
    tasks: list[Task]
    warmup: Callable[[], None]
    # Seconds one round of the tasks takes at the nominal machine speed;
    # it fixes how many rounds fit in a run (see run.round_count).
    round_s: float
    properties: Callable[[], dict] = dict
    # Extra rate metrics, from the round contexts of untraced rounds.
    extra_metrics: Callable[[list[dict]], dict] = lambda contexts: {}
    cleanup: Callable[[], None] = lambda: None


def _close(a, b, rel, floor=1.0):
    return abs(a - b) <= rel * max(floor, abs(a), abs(b))


def _require(ok, message):
    if not ok:
        raise OracleMismatch(message)


def _log_uniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _params(rng, n, m, lam, mu1, mu2):
    """Costs, powers and price in the test-corpus ranges."""
    p2_work = float(rng.uniform(0.2, 4.0))
    return sq.ModelParams(
        lambda_=lam, mu1=mu1, mu2=mu2, n=n, m=m,
        p1_work=float(rng.uniform(0.2, 4.0)), p2_work=p2_work,
        p2_sleep=p2_work * float(rng.uniform(0.05, 0.95)),
        c_energy=float(rng.uniform(0.0, 5.0)),
        c_hold_g1=float(rng.uniform(0.0, 5.0)),
        c_hold_g2=float(rng.uniform(0.0, 5.0)),
        c_transfer=float(rng.uniform(0.0, 5.0)),
        c_loss=float(rng.uniform(0.0, 5.0)),
        price=float(rng.uniform(0.0, 20.0)),
    )


def _random_policy(rng, m):
    return tuple(int(v) for v in rng.integers(0, m + 1, size=m))


def _xi(params, d):
    """Unnormalized birth-death stationary weights, xi_0 = 1."""
    n, m = params.n, params.m
    xi = np.empty(n + m + 1)
    xi[0] = 1.0
    for i in range(1, n + 1):
        xi[i] = xi[i - 1] * params.lambda_ / (i * params.mu1)
    for j in range(1, m + 1):
        nu = n * params.mu1 + min(d[j - 1], j) * params.mu2
        xi[n + j] = xi[n + j - 1] * params.lambda_ / nu
    return xi


def ill_conditioned(params, d):
    """True when a draw breaks the test suite's conditioning rule."""
    if _xi(params, d).sum() > MASS_LIMIT:
        return True
    size = params.n + params.m
    neg_b = np.zeros((size, size))
    for k in range(1, size + 1):
        death = (k * params.mu1 if k <= params.n else
                 params.n * params.mu1
                 + min(d[k - params.n - 1], k - params.n) * params.mu2)
        birth = params.lambda_ if k < size else 0.0
        neg_b[k - 1, k - 1] = birth + death
        if k > 1:
            neg_b[k - 1, k - 2] = -death
        if k < size:
            neg_b[k - 1, k] = -birth
    try:
        inv = np.linalg.inv(neg_b)
    except np.linalg.LinAlgError:
        return True
    kappa = np.abs(neg_b).sum(axis=1).max() * np.abs(inv).sum(axis=1).max()
    return not kappa <= CONDITION_LIMIT


# ---------------------------------------------------------------- analyze

def _change_pair(rng, m):
    """Policies differing at one level j, both values in 0..j there."""
    d = list(_random_policy(rng, m))
    j = int(rng.integers(1, m + 1))
    a, b = (int(v) for v in rng.choice(j + 1, size=2, replace=False))
    d[j - 1] = a
    d_prime = list(d)
    d_prime[j - 1] = b
    return tuple(d), tuple(d_prime)


def _analyze_run(params, d, d_prime):
    sol = sq.stationary_closed_form(params, d)
    numeric = sq.stationary_numeric(sq.build_generator(params, d))
    eta = sq.policy_profit(params, d)
    g = {method: sq.solve_poisson(params, d, method=method).g
         for method in POISSON_METHODS}
    sq.perturbation_factors(params, d)
    closed = sq.single_coordinate_difference(params, d, d_prime)
    eta_prime = sq.policy_profit(params, d_prime)
    return sol.pi, numeric.pi, g, eta, eta_prime, closed


def _analyze_check(out, ctx):
    pi, pi_numeric, g, eta, eta_prime, closed = out
    gap = float(np.max(np.abs(pi - pi_numeric)))
    _require(gap < 1e-10, f"closed-form pi off the numeric oracle by {gap:.2e}")
    scale = max(1.0, float(np.max(np.abs(g["dense"]))))
    for method in ("rg", "explicit"):
        gap = float(np.max(np.abs(g[method] - g["dense"])))
        _require(gap <= 1e-9 * scale,
                 f"{method} potentials off the dense route by {gap:.2e}")
    _require(_close(closed, eta_prime - eta, 1e-9),
             f"single-coordinate difference {closed!r} vs "
             f"profit difference {eta_prime - eta!r}")


def analyze(seed, tiny=False):
    rng = np.random.default_rng([seed, 1])
    desk_count, wide_count = (12, 2) if tiny else (320, 32)
    draws = []
    for _ in range(desk_count):
        n, m = (int(v) for v in rng.integers(1, 21, size=2))
        lam, mu1, mu2 = (_log_uniform(rng, 0.1, 10.0) for _ in range(3))
        params = _params(rng, n, m, lam, mu1, mu2)
        draws.append(("desk", params, *_change_pair(rng, m)))
    # Wide chains at light load; m is stratified over 60..200 so every
    # seed has the same spread of sizes, which the tail depends on.
    for i in range(wide_count):
        m = 60 + int((i + rng.uniform()) * 141 / wide_count)
        n = int(rng.integers(1, 5))
        lam = _log_uniform(rng, 0.1, 1.0)
        mu1, mu2 = (_log_uniform(rng, 1.0, 10.0) for _ in range(2))
        params = _params(rng, n, m, lam, mu1, mu2)
        draws.append(("wide", params, *_change_pair(rng, m)))
    draws = [draws[i] for i in rng.permutation(len(draws))]

    tasks = [Task(f"{kind}-{k}",
                  lambda ctx, p=p, d=d, dp=dp: _analyze_run(p, d, dp),
                  _analyze_check)
             for k, (kind, p, d, dp) in enumerate(draws)]

    def warmup():
        p = _params(np.random.default_rng(0), 1, 2, 1.0, 1.0, 1.0)
        _analyze_run(p, (0, 2), (1, 2))

    def properties():
        ill = sum(ill_conditioned(p, d) for _, p, d, _ in draws)
        return {"tasks": len(draws),
                "share_wide": wide_count / len(draws),
                "share_ill_conditioned": ill / len(draws),
                "wide_m": sorted(p.m for kind, p, *_ in draws if kind == "wide")}

    return Workload(tasks, warmup, 3.0, properties)


# ----------------------------------------------------------------- search

def _optimize_task(tag, params, space, threads=None):
    def run(ctx):
        res = sq.optimize(params, space, threads=threads)
        # Oracles: bang-bang attains the full optimum (c08), and the
        # threshold family never beats it (c13). Compare eta only, since
        # ties between policies are legitimate.
        bang = sq.optimize(params, "bang_bang")
        thresh = sq.optimize(params, "threshold")
        return res.best_eta, bang.best_eta, thresh.best_eta

    def check(out, ctx):
        eta, bang, thresh = out
        _require(abs(eta - bang) <= 1e-12 * max(1.0, abs(eta)),
                 f"{space} optimum {eta!r} vs bang-bang {bang!r}")
        _require(thresh <= eta + 1e-12 * max(1.0, abs(eta)),
                 f"threshold optimum {thresh!r} beats {space} {eta!r}")

    label = f"{tag}.optimize.{space}.m{params.m}" + (f".t{threads}" if threads else "")
    return Task(label, run, check)


def _critical_task(tag, params, space):
    def run(ctx):
        crit = sq.critical_prices_global(params, space)
        ctx[f"{tag}.crit.{space}"] = crit
        return crit

    def check(crit, ctx):
        _require(np.isfinite(crit.r_high) and crit.r_high >= 0.0,
                 f"R_H={crit.r_high!r} is not a finite price")
        _require(not crit.r_low > crit.r_high,
                 f"R_L={crit.r_low!r} above R_H={crit.r_high!r}")
        _require(crit.exact == (space == "full"), "exactness flag is wrong")

    return Task(f"{tag}.critical_prices.{space}.m{params.m}", run, check)


def _extreme_task(tag, params):
    key = f"{tag}.crit.full"

    def run(ctx):
        if key not in ctx:
            raise sq.SleepqError(f"{key} was refused earlier in the round")
        crit = ctx[key]
        high = replace(params, price=crit.r_high + 1.0 + 0.05 * abs(crit.r_high))
        policy, eta = sq.optimal_extreme_prices(high, "high", crit=crit)
        return eta, sq.optimize(high, "full").best_eta

    def check(out, ctx):
        eta, generic = out
        _require(abs(eta - generic) <= 1e-10,
                 f"closed-form high-price optimum {eta!r} vs enumeration "
                 f"{generic!r}")

    return Task(f"{tag}.optimal_extreme_prices.m{params.m}", run, check)


def _threshold_task(tag, params):
    def run(ctx):
        scan = sq.threshold_scan(params)
        return (scan, sq.optimize(params, "threshold").best_eta,
                sq.optimize(params, "bang_bang").best_eta)

    def check(out, ctx):
        scan, thresh, bang = out
        best = float(scan.eta_by_theta[scan.theta_star - 1])
        _require(best == float(np.max(scan.eta_by_theta)) and best == thresh,
                 f"theta* profit {best!r} is not the threshold optimum {thresh!r}")
        _require(best <= bang + 1e-12 * max(1.0, abs(bang)),
                 f"threshold optimum {best!r} beats bang-bang {bang!r}")

    return Task(f"{tag}.threshold_scan.m{params.m}", run, check)


def _sweep_task(tag, params, grid):
    def run(ctx):
        # price_sweep raises ConsistencyError when a grid point's optimum
        # leaves the affine form R * completion_rate - cost_rate.
        rows, _ = sq.cli.price_sweep(params, grid)
        return rows

    def check(rows, ctx):
        _require([row[0] for row in rows] == grid, "price sweep lost grid points")

    return Task(f"{tag}.price_sweep.m{params.m}", run, check)


def _steps_task(name, steps):
    """One task that runs several tasks in turn and checks each result."""
    def run(ctx):
        return [step.run(ctx) for step in steps]

    def check(outs, ctx):
        for step, out in zip(steps, outs):
            try:
                step.check(out, ctx)
            except OracleMismatch as exc:
                raise OracleMismatch(f"{step.name}: {exc}") from exc

    return Task(name, run, check)


def search(seed, tiny=False):
    rng = np.random.default_rng([seed, 2])
    # n is fixed: the cost of every Poisson solve grows with n + m, so a
    # seeded n would make the seed, not the program, move wall_s.
    n = 2
    # A task is the whole search of one parameter set: every space, the
    # threshold scan, critical and extreme prices, and a price sweep. The
    # Poisson solves refine their result a data-dependent number of times,
    # so the cost of a parameter set varies; several sets average that out.
    # Full m=6 is the smallest full space that optimize splits into two
    # blocks, so threads=2 has work to share.
    if tiny:
        param_sets = 1
        sizes = dict(full=3, reduced=5, bang=8, thresh=6, crit=3, crit_bang=4, sweep=2)
    else:
        param_sets = 4
        sizes = dict(full=6, reduced=7, bang=12, thresh=12, crit=4, crit_bang=7, sweep=3)
    grid = [float(r) for r in np.linspace(0.0, 20.0, 25)]
    bases = []
    tasks = []
    for k in range(param_sets):
        lam, mu1, mu2 = (_log_uniform(rng, 0.5, 2.0) for _ in range(3))
        base = _params(rng, n, 1, lam, mu1, mu2)
        bases.append(base)

        def at(m, base=base):
            return replace(base, m=m)

        tag = f"p{k}"
        if k == 0:
            # One threads 1 / threads 2 pair per round, as tasks of their
            # own so that the report shows both times.
            tasks += [_optimize_task(tag, at(sizes["full"]), "full", threads=1),
                      _optimize_task(tag, at(sizes["full"]), "full", threads=2)]
        tasks.append(_steps_task(f"{tag}.search", [
            _optimize_task(tag, at(sizes["reduced"]), "reduced"),
            _optimize_task(tag, at(sizes["bang"]), "bang_bang"),
            _threshold_task(tag, at(sizes["thresh"])),
            _critical_task(tag, at(sizes["crit"]), "full"),
            _critical_task(tag, at(sizes["crit_bang"]), "bang_bang"),
            _extreme_task(tag, at(sizes["crit"])),
            _sweep_task(tag, at(sizes["sweep"]), grid),
        ]))

    def warmup():
        p = replace(bases[0], m=2)
        sq.optimize(p, "full", threads=1)
        sq.optimize(replace(bases[0], m=sizes["full"]), "full", threads=2)
        sq.threshold_scan(p)
        crit = sq.critical_prices_global(p, "full")
        sq.optimal_extreme_prices(replace(p, price=crit.r_high + 1.0), "high",
                                  crit=crit)
        sq.cli.price_sweep(p, [0.0, 10.0])

    def properties():
        enumerated = [("full", sizes["full"]), ("reduced", sizes["reduced"]),
                      ("bang_bang", sizes["bang"]), ("full", sizes["crit"]),
                      ("bang_bang", sizes["crit_bang"]), ("full", sizes["sweep"])]
        return {"n": n, "parameter_sets": param_sets, "policies_per_space": {
            f"{space}.m{m}": sq.policy_space_size(m, space) for space, m in enumerated}}

    return Workload(tasks, warmup, 2.5, properties)


# --------------------------------------------------------------- simulate

def _event_rate(params, d):
    """Mean events per unit time: sum of pi_k times the total rate out of k."""
    xi = _xi(params, d)
    pi = xi / xi.sum()
    n, m = params.n, params.m
    out = np.array([k * params.mu1 for k in range(n + 1)]
                   + [n * params.mu1 + min(d[j - 1], j) * params.mu2
                      for j in range(1, m + 1)])
    return float(pi @ (out + params.lambda_))


def _sim_task(name, params, d, cfg, trace=False):
    def run(ctx):
        start = perf_counter()
        res = sq.simulate(params, d, cfg, trace=trace)
        ctx.setdefault("inside_s", {})[name] = perf_counter() - start
        if trace:
            ctx["trace_eta"] = res.eta_hat
        return res, sq.policy_profit(params, d)

    def check(out, ctx):
        res, eta = out
        # Batch means: the estimate lies within a small multiple of the
        # confidence half-width of the closed-form profit.
        _require(abs(res.eta_hat - eta) <= 4.0 * res.ci_half_width,
                 f"eta_hat {res.eta_hat!r} vs eta {eta!r} exceeds 4 half-widths "
                 f"({res.ci_half_width!r})")
        if cfg.unit == "events":
            _require(res.counts.events == int(cfg.horizon) - int(cfg.resolved_warmup()),
                     "event budget not met")
        if trace:
            _require(len(res.trace) == int(cfg.horizon),
                     f"trace holds {len(res.trace)} of {int(cfg.horizon)} events")

    return Task(name, run, check)


def _repeat_task(params, d, cfg):
    def run(ctx):
        return sq.simulate(params, d, cfg), sq.simulate(params, d, cfg)

    def check(out, ctx):
        first, second = out
        _require(first.eta_hat == second.eta_hat
                 and np.array_equal(first.batch_records, second.batch_records)
                 and np.array_equal(first.pi_hat, second.pi_hat),
                 "two runs under the same seed differ")
        if "trace_eta" in ctx:
            _require(first.eta_hat == ctx["trace_eta"],
                     "the trace run and the plain run differ")

    return Task("repeat", run, check)


def simulate(seed, tiny=False):
    rng = np.random.default_rng([seed, 3])
    # Each state-space size gets three runs rather than one three times as
    # long: the reference computation is timed between tasks, and shorter
    # tasks let it follow the host's speed more closely.
    long_events = 3_000 if tiny else 50_000
    runs_per_size = 3
    short_events = 1_000 if tiny else 20_000
    rep_events = 1_000 if tiny else 12_500

    def draw(n, m, lam_range):
        lam = _log_uniform(rng, *lam_range)
        mu1, mu2 = (_log_uniform(rng, 0.5, 2.0) for _ in range(2))
        params = _params(rng, n, m, lam, mu1, mu2)
        return params, _random_policy(rng, m)

    # About 6 and 160 states; the wide chain runs at light load so that
    # batch means mix and the confidence interval is honest.
    small, small_d = draw(2, 3, (0.5, 2.0))
    wide, wide_d = draw(10, 149, (0.5, 2.0))
    timed, timed_d = draw(2, 3, (0.5, 2.0))
    horizon = rep_events / _event_rate(timed, timed_d)
    short = sq.SimConfig(horizon=short_events, seed=int(rng.integers(1 << 31)))

    def events_cfg():
        return sq.SimConfig(horizon=long_events, seed=int(rng.integers(1 << 31)))

    long_runs = {kind: [f"{kind}-{k}" for k in range(runs_per_size)]
                 for kind in ("small", "wide")}
    chains = {"small": (small, small_d), "wide": (wide, wide_d)}
    tasks = [_sim_task(name, *chains[kind], events_cfg())
             for kind, names in long_runs.items() for name in names]
    tasks += [
        _sim_task("time_units", timed, timed_d,
                  sq.SimConfig(horizon=horizon, unit="time", replications=4,
                               seed=int(rng.integers(1 << 31)))),
        _sim_task("trace", small, small_d, short, trace=True),
        _repeat_task(small, small_d, short),
    ]
    sizes = {"small": small.n + small.m + 1, "wide": wide.n + wide.m + 1}
    events_per_size = runs_per_size * long_events

    def warmup():
        cfg = sq.SimConfig(horizon=2000, seed=0)
        sq.simulate(small, small_d, cfg)
        sq.simulate(small, small_d, cfg, trace=True)
        sq.simulate(timed, timed_d, replace(cfg, horizon=10.0, unit="time",
                                            replications=2))

    def properties():
        return {"states": sizes,
                "events_per_size": {"small": events_per_size, "wide": events_per_size},
                "kernel": "jit" if sq._simkernel.kernel_jit is not None else "python"}

    def extra(contexts):
        # Simulated events (warm-up included) over the time inside simulate.
        inside = {kind: sum(statistics.median(ctx["inside_s"][name] for ctx in contexts)
                            for name in names)
                  for kind, names in long_runs.items()}
        return {"events_per_s": (2 * events_per_size / (inside["small"] + inside["wide"]),
                                 "events/s"),
                "events_per_s.small": (events_per_size / inside["small"], "events/s"),
                "events_per_s.wide": (events_per_size / inside["wide"], "events/s")}

    return Workload(tasks, warmup, 1.5, properties, extra)


# -------------------------------------------------------------------- cli

def _write_model(path, params):
    keys = ("lambda", "mu1", "mu2", "n", "m", "p1_work", "p2_work", "p2_sleep",
            "c_energy", "c_hold_g1", "c_hold_g2", "c_transfer", "c_loss", "price")
    with open(path, "w", encoding="utf-8") as fp:
        for key in keys:
            fp.write(f"{key}={getattr(params, 'lambda_' if key == 'lambda' else key)!r}\n")


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fp:
        lines = [line for line in fp if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _same_cell(text, value):
    got = float(text)
    if math.isnan(value) or math.isnan(got):
        return math.isnan(value) and math.isnan(got)
    return _close(got, float(value), 1e-9, floor=1e-300)


def _cli_reference(command, params, d, j, method, sim_cfg):
    """The library's own result for a command: (columns, row values)."""
    states = sq.state_space(params).states
    if command == "stationary":
        sol = sq.stationary_closed_form(params, d)
        return ("xi", "pi"), list(zip(sol.xi, sol.pi))
    if command == "reward":
        aff = sq.affine_decomposition(params, d)
        return ("a", "b", "f"), list(zip(aff.a, aff.b, sq.build_reward(params, d)))
    if command == "potentials":
        return ("g",), [(v,) for v in sq.solve_poisson(params, d, method=method).g]
    if command == "sensitivity":
        rep = sq.perturbation_factors(params, d)
        return ("prf", "critical_price", "sign"), list(zip(rep.prf, rep.crit_prices,
                                                           rep.signs))
    if command == "threshold":
        return ("eta",), [(v,) for v in sq.threshold_scan(params).eta_by_theta]
    if command == "monotonicity":
        return ("eta",), [(v,) for v in sq.verify_monotonicity(params, d, j).etas]
    if command == "optimize":
        ranking = sq.optimize(params, "full", top_k=5).ranking
        return ("eta",), [(eta,) for _, eta in ranking]
    if command == "simulate":
        res = sq.simulate(params, d, sim_cfg)
        names = ("eta",) + tuple(f"pi_{i}_{jj}" for i, jj in states)
        return names, [(rec[3],) + tuple(pi) for rec, pi in
                       zip(res.batch_records, res.batch_pi)]
    raise ValueError(command)


def cli(seed, tiny=False, *, out_dir):
    rng = np.random.default_rng([seed, 4])
    work = os.path.abspath(os.path.join(out_dir, f"cli-{os.getpid()}"))
    os.makedirs(work, exist_ok=True)
    n = int(rng.integers(1, 5))
    m = 3 if tiny else 5
    lam, mu1, mu2 = (_log_uniform(rng, 0.5, 2.0) for _ in range(3))
    params = _params(rng, n, m, lam, mu1, mu2)
    model = os.path.join(work, "model.cfg")
    _write_model(model, params)
    d = _random_policy(rng, m)
    j = int(rng.integers(1, m + 1))
    sim_seed = int(rng.integers(1 << 31))
    horizon = 1_000 if tiny else 100_000
    sim_cfg = sq.SimConfig(horizon=horizon, seed=sim_seed)
    policy = ",".join(str(v) for v in d)

    commands = [("validate", None, [])]
    commands += [("stationary", None, ["--policy", policy]),
                 ("reward", None, ["--policy", policy])]
    commands += [("potentials", method, ["--policy", policy, "--method", method])
                 for method in POISSON_METHODS]
    commands += [("sensitivity", None, ["--policy", policy]),
                 ("threshold", None, []),
                 ("monotonicity", None, ["--policy", policy, "--j", str(j)]),
                 ("optimize", None, ["--space", "full", "--top-k", "5"]),
                 ("simulate", None, ["--policy", policy, "--horizon", str(horizon),
                                     "--seed", str(sim_seed)])]
    references: dict = {}

    def make_task(command, method, extra):
        name = command + (f"-{method}" if method else "")
        csv_path = os.path.join(work, f"{name}.csv")
        argv = [command, "--model", model, "--output", csv_path] + extra

        def run(ctx):
            if os.path.exists(csv_path):
                os.remove(csv_path)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = sq.cli.main(argv)
            if status != 0:
                raise sq.SleepqError(f"exit {status}: {err.getvalue().strip()}")
            return out.getvalue(), csv_path

        def check(out, ctx):
            stdout, csv_path = out
            if command == "validate":
                report = sq.validate(params)
                _require(report.ok and stdout.strip().splitlines()[-1] == "ok",
                         "validate did not report ok")
                return
            key = (command, method)
            if key not in references:
                references[key] = _cli_reference(command, params, d, j, method, sim_cfg)
            columns, expected = references[key]
            header, rows = _read_csv(csv_path)
            _require(len(rows) == len(expected),
                     f"{name}: {len(rows)} CSV rows, expected {len(expected)}")
            index = [header.index(c) for c in columns]
            for row, want in zip(rows, expected):
                for col, value in zip(index, want):
                    _require(_same_cell(row[col], float(value)),
                             f"{name}: CSV {header[col]}={row[col]} vs library {value!r}")

        return Task(name, run, check)

    tasks = [make_task(*c) for c in commands]

    def warmup():
        tasks[0].run({})

    def cleanup():
        shutil.rmtree(work, ignore_errors=True)

    return Workload(tasks, warmup, 0.45, lambda: {"m": m, "n": n, "commands": len(tasks)},
                    cleanup=cleanup)


BUILDERS = {"analyze": analyze, "search": search, "simulate": simulate, "cli": cli}
