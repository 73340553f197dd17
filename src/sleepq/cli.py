"""Batch command-line front end.

Every analysis the library offers is reachable as `sleepq <command>`:
model validation, stationary law, rewards, potentials, sensitivity
factors, critical prices, policy search, threshold scan, monotonicity
checks, simulation, and price sweeps. Each command reads a key=value
config file, prints an aligned table to stdout, and optionally writes
the same rows as CSV with a `#`-prefixed metadata header. CSV output is
bit-stable: no timestamps, numbers at 12 significant digits, RFC-4180
quoting.

Exit codes: 0 success, 1 usage, 2 config or validation, 3 gate or
regime violation, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import re
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .chain import stationary_closed_form
from .errors import ConfigError, GateError, NumericalError
from .model import (
    POLICY_SPACES,
    ModelParams,
    _size_text,
    format_policy,
    params_digest,
    params_from_file,
    parse_policy,
    require_valid,
    state_space,
    validate,
)
from .optimize import (
    _price_grid,
    optimize,
    price_sweep,
    threshold_scan,
    verify_monotonicity,
)
from .potential import SOLVE_METHODS, solve_poisson
from .reward import affine_decomposition, build_reward, policy_profit, profit_components
from .sensitivity import critical_prices_global, perturbation_factors
from .sim import SimConfig, simulate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_GATE = 3
EXIT_NUMERICAL = 4

@dataclass(frozen=True)
class CommandOutput:
    """Rows destined for stdout and, when requested, a CSV file."""

    header: tuple[str, ...]
    rows: tuple[tuple, ...]
    meta: tuple[str, ...] = ()       # extra "# key=value" lines for the CSV
    summary: tuple[str, ...] = ()    # stdout-only lines printed before the table


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern (3.10 to 3.13.0) takes "-1e5" for an
        # option, not a negative number: a price that %.12g prints as
        # -1.2e-05 must parse back.
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits with 2 on bad usage; the documented contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12g" % value
    return str(value)


def _print_table(out: CommandOutput, stream) -> None:
    for line in out.summary:
        stream.write(line + "\n")
    if not out.rows:
        return
    if out.summary:
        stream.write("\n")
    cells = [list(out.header)] + [[_fmt(v) for v in row] for row in out.rows]
    widths = [max(len(row[c]) for row in cells) for c in range(len(out.header))]
    for row in cells:
        line = "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
        stream.write(line.rstrip() + "\n")


def _provenance(params: ModelParams, command: str, meta=()) -> str:
    """The "# key=value" lines that open every CSV file."""
    return "".join(f"# {line}\n" for line in (
        f"model={params_digest(params)}", f"command={command}",
        f"version={__version__}", *meta))


def _write_csv(path: str, params: ModelParams, command: str,
               header: Sequence[str], rows: Iterable[tuple],
               meta: Sequence[str] = ()) -> None:
    """Write rows under the provenance lines and header, row by row."""
    with open(path, "w", encoding="utf-8", newline="") as fp:
        fp.write(_provenance(params, command, meta))
        writer = csv.writer(fp)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _policy_arg(params: ModelParams, args) -> tuple:
    if args.policy is None:
        raise ValueError("--policy is required for this command")
    return parse_policy(args.policy, params.m)


def _state_rows(params: ModelParams, *columns) -> tuple:
    """One (i, j, column[k]...) row per state k, the values as floats."""
    return tuple((i, j, *(float(column[k]) for column in columns))
                 for k, (i, j) in enumerate(state_space(params).states))


def _cmd_stationary(params: ModelParams, args) -> CommandOutput:
    d = _policy_arg(params, args)
    sol = stationary_closed_form(params, d)
    loss = float(sol.pi[-1])
    return CommandOutput(
        header=("i", "j", "xi", "pi"),
        rows=_state_rows(params, sol.xi, sol.pi),
        meta=(f"policy={format_policy(d)}", f"loss_probability={_fmt(loss)}"),
        summary=(f"policy: {format_policy(d)}",
                 f"loss probability: {_fmt(loss)}"),
    )


def _cmd_reward(params: ModelParams, args) -> CommandOutput:
    d = _policy_arg(params, args)
    aff = affine_decomposition(params, d)
    eta = policy_profit(params, d)
    completions, cost = profit_components(stationary_closed_form(params, d), aff)
    meta = (f"policy={format_policy(d)}", f"eta={_fmt(eta)}",
            f"completion_rate={_fmt(completions)}", f"cost_rate={_fmt(cost)}")
    return CommandOutput(
        header=("i", "j", "a", "b", "f"),
        rows=_state_rows(params, aff.a, aff.b, build_reward(params, d)),
        meta=meta,
        summary=(f"policy: {format_policy(d)}",
                 f"eta: {_fmt(eta)}",
                 f"completion rate: {_fmt(completions)}",
                 f"cost rate: {_fmt(cost)}"),
    )


def _cmd_potentials(params: ModelParams, args) -> CommandOutput:
    d = _policy_arg(params, args)
    sol = solve_poisson(params, d, normalization=args.normalization,
                        anchor=args.anchor, method=args.method)
    meta = (f"policy={format_policy(d)}", f"eta={_fmt(sol.eta)}",
            f"normalization={sol.normalization}", f"anchor={_fmt(sol.anchor)}",
            f"method={sol.method}", f"residual={_fmt(sol.residual)}")
    return CommandOutput(
        header=("i", "j", "g"),
        rows=_state_rows(params, sol.g),
        meta=meta,
        summary=(f"policy: {format_policy(d)}",
                 f"eta: {_fmt(sol.eta)}",
                 f"residual: {_fmt(sol.residual)}"),
    )


def _cmd_sensitivity(params: ModelParams, args) -> CommandOutput:
    d = _policy_arg(params, args)
    rep = perturbation_factors(params, d)
    rows = tuple(
        (j + 1, float(rep.prf[j]), float(rep.crit_prices[j]),
         float(rep.signs[j]))
        for j in range(params.m)
    )
    return CommandOutput(
        header=("j", "prf", "critical_price", "sign"),
        rows=rows,
        meta=(f"policy={format_policy(d)}", f"price_constant={_fmt(rep.c)}"),
        summary=(f"policy: {format_policy(d)}",
                 f"price constant c: {_fmt(rep.c)}"),
    )


def _cmd_critical_prices(params: ModelParams, args) -> CommandOutput:
    crit = critical_prices_global(params, args.space)
    rows = ((crit.r_high, crit.r_low, crit.search_space, crit.exact),)
    return CommandOutput(
        header=("r_high", "r_low", "search_space", "exact"),
        rows=rows,
        summary=(f"R_H: {_fmt(crit.r_high)}",
                 f"R_L: {_fmt(crit.r_low)}",
                 f"search space: {crit.search_space}"
                 + ("" if crit.exact else " (heuristic)"),),
    )


def _cmd_optimize(params: ModelParams, args) -> CommandOutput:
    res = optimize(params, args.space, top_k=args.top_k)
    ranking = res.ranking or ((res.best_policy, res.best_eta),)
    rows = tuple(
        (rank, format_policy(policy), eta)
        for rank, (policy, eta) in enumerate(ranking, start=1)
    )
    evaluations = _size_text(res.evaluations, res.space)
    return CommandOutput(
        header=("rank", "policy", "eta"),
        rows=rows,
        meta=(f"space={res.space}", f"evaluations={evaluations}"),
        summary=(f"best policy: {format_policy(res.best_policy)}",
                 f"eta: {_fmt(res.best_eta)}",
                 f"policies evaluated: {evaluations}"),
    )


def _cmd_threshold(params: ModelParams, args) -> CommandOutput:
    res = threshold_scan(params)
    rows = tuple(
        (theta, float(eta), theta == res.theta_star)
        for theta, eta in enumerate(res.eta_by_theta, start=1)
    )
    prev, here, nxt = res.necessary_condition
    meta = (f"theta_star={res.theta_star}",
            f"condition_below={_fmt(prev)}",
            f"condition_at={_fmt(here)}",
            f"condition_above={_fmt(nxt)}",
            f"condition_proof_form={_fmt(res.necessary_condition_proof_form)}")
    return CommandOutput(
        header=("theta", "eta", "best"),
        rows=rows,
        meta=meta,
        summary=(f"theta*: {res.theta_star}",
                 f"necessary condition (below, at, above): "
                 f"({_fmt(prev)}, {_fmt(here)}, {_fmt(nxt)})"),
    )


def _cmd_monotonicity(params: ModelParams, args) -> CommandOutput:
    d = _policy_arg(params, args)
    if args.j is None:
        raise ValueError("--j is required for this command")
    rep = verify_monotonicity(params, d, args.j,
                              r_high=args.r_high, r_low=args.r_low)
    rows = tuple(
        (int(v), float(rep.etas[k])) for k, v in enumerate(rep.values)
    )
    meta = (f"policy={format_policy(d)}", f"j={rep.j}",
            f"slope_expected={_fmt(rep.slope_expected)}",
            f"linear_residual={_fmt(rep.linear_residual)}",
            f"strictly_increasing={_fmt(rep.strictly_increasing)}",
            f"strictly_decreasing={_fmt(rep.strictly_decreasing)}",
            f"expected_direction={rep.expected_direction or 'none'}",
            f"argmax_value={rep.argmax_value}",
            f"ok={_fmt(rep.ok)}")
    out = CommandOutput(
        header=("value", "eta"),
        rows=rows,
        meta=meta,
        summary=(f"coordinate j={rep.j}, argmax at value {rep.argmax_value}",
                 f"affine tail slope: {_fmt(rep.slope_expected)} "
                 f"(residual {_fmt(rep.linear_residual)})",
                 f"ok: {_fmt(rep.ok)}"),
    )
    if not rep.ok:
        raise NumericalError(
            f"monotonicity check failed for j={rep.j}: "
            f"residual {rep.linear_residual:.3e}, "
            f"expected {rep.expected_direction or 'affine tail only'}"
        )
    return out


def _cmd_simulate(params: ModelParams, args) -> CommandOutput:
    d = _policy_arg(params, args)
    if args.horizon is None:
        raise ValueError("--horizon is required for this command")
    cfg = SimConfig(horizon=args.horizon, warmup=args.warmup,
                    replications=args.replications, seed=args.seed,
                    batch_count=args.batch_count, unit=args.unit)
    res = simulate(params, d, cfg, trace=args.trace_out is not None)
    states = state_space(params).states
    header = ("replication", "batch", "time", "eta") + tuple(
        f"pi_{i}_{j}" for i, j in states
    )
    rows = tuple(
        (int(rep), int(batch), float(btime), float(beta))
        + tuple(float(x) for x in res.batch_pi[k])
        for k, (rep, batch, btime, beta) in enumerate(res.batch_records)
    )
    if args.trace_out is not None:
        _write_csv(args.trace_out, params, "simulate-trace",
                   ("time", "i_before", "j_before", "event", "i_after", "j_after"),
                   ((float(t), *states[before], event, *states[after])
                    for t, before, event, after in res.trace))
    counts = res.counts
    meta = (f"policy={format_policy(d)}", f"seed={cfg.seed}",
            f"horizon={_fmt(cfg.horizon)}", f"warmup={_fmt(cfg.warmup)}",
            f"unit={cfg.unit}", f"replications={cfg.replications}",
            f"batch_count={cfg.batch_count}",
            f"eta_hat={_fmt(res.eta_hat)}",
            f"ci_half_width={_fmt(res.ci_half_width)}")
    pi_line = ", ".join(
        f"({i},{j})={_fmt(float(p))}" for (i, j), p in zip(states, res.pi_hat)
    )
    return CommandOutput(
        header=header,
        rows=rows,
        meta=meta,
        summary=(f"policy: {format_policy(d)}",
                 f"eta_hat: {_fmt(res.eta_hat)} +- {_fmt(res.ci_half_width)}",
                 f"simulated time: {_fmt(res.total_time)}",
                 f"events: {counts.events} (g1 {counts.completions_g1}, "
                 f"g2 {counts.completions_g2}, transfers {counts.transfers}, "
                 f"losses {counts.losses})",
                 f"pi_hat: {pi_line}"),
    )


def _cmd_price_sweep(params: ModelParams, args) -> CommandOutput:
    if args.steps < 1:
        raise ValueError("--steps must be >= 1")
    if args.steps > 1 and args.r_to is None:
        raise ValueError("--to is required when --steps > 1")
    ends = (args.r_from, args.r_to if args.steps > 1 else args.r_from)
    # linspace would turn an infinite end into NaN prices, with a warning.
    _price_grid(ends)
    grid = list(np.linspace(*ends, args.steps))
    rows, crit = price_sweep(params, grid, args.space)
    m = params.m
    header = ("R", "policy", "eta") + tuple(
        f"critical_price_{j}" for j in range(1, m + 1)
    ) + ("regime", "crossing")
    table = tuple(
        (r, format_policy(d), eta) + crits + (regime, crossing)
        for r, d, eta, crits, regime, crossing in rows
    )
    flips = sum(1 for row in table if row[-1])
    return CommandOutput(
        header=header,
        rows=table,
        meta=(f"space={args.space}", f"r_high={_fmt(crit.r_high)}",
              f"r_low={_fmt(crit.r_low)}"),
        summary=(f"grid: {len(table)} prices in [{_fmt(grid[0])}, "
                 f"{_fmt(grid[-1])}]",
                 f"R_H: {_fmt(crit.r_high)}  R_L: {_fmt(crit.r_low)}",
                 f"regime crossings on grid: {flips}"),
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Building it costs most of a quick command's time, and parse_args keeps
    no state between calls, so every call of main shares one parser.
    """
    parser = _Parser(
        prog="sleepq",
        description="Exact analysis and optimization of a two-group "
                    "server cluster with sleep-mode servers.",
        # @FILE reads arguments one per line, for policies longer than
        # the 128 KiB one argument may take on Linux.
        fromfile_prefix_chars="@",
    )
    parser.add_argument("--version", action="version",
                        version=f"sleepq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    def add(name: str, help_text: str, handler=None, policy=False, space=False):
        """One command: its handler, --model, --output and, when asked,
        --policy or the --space of a search."""
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--model", required=True, metavar="PATH",
                       help="model config file (key=value lines)")
        p.add_argument("--output", metavar="PATH",
                       help="also write the table as CSV to this path")
        if policy:
            p.add_argument("--policy", metavar="D", help="comma-separated policy")
        if space:
            p.add_argument("--space", choices=POLICY_SPACES, default="full")
        return p

    add("validate", "Check the config and report errors and warnings.")
    add("stationary", "Stationary distribution of a policy.", _cmd_stationary,
        policy=True)
    add("reward", "Reward vector and average profit of a policy.", _cmd_reward,
        policy=True)

    p = add("potentials", "Performance potentials of a policy.", _cmd_potentials,
            policy=True)
    p.add_argument("--normalization", choices=("anchored", "fundamental"),
                   default="anchored")
    p.add_argument("--anchor", type=float, default=1.0,
                   help="value pinned at the empty state (anchored mode)")
    p.add_argument("--method", choices=SOLVE_METHODS, default="rg")

    add("sensitivity", "Perturbation factors and critical prices.",
        _cmd_sensitivity, policy=True)
    add("critical-prices", "Global price thresholds R_H and R_L.",
        _cmd_critical_prices, space=True)

    p = add("optimize", "Best policy of a policy space, by exact search.",
            _cmd_optimize, space=True)
    p.add_argument("--top-k", type=int, default=None, metavar="K",
                   help="also report the K best policies")

    add("threshold", "Profit across all threshold policies.", _cmd_threshold)

    p = add("monotonicity", "Profit shape along one policy coordinate.",
            _cmd_monotonicity, policy=True)
    p.add_argument("--j", type=int, metavar="J",
                   help="backlog level whose coordinate is swept")
    p.add_argument("--r-high", type=float, default=None,
                   help="price threshold above which profit must increase")
    p.add_argument("--r-low", type=float, default=None,
                   help="price threshold below which profit must decrease")

    p = add("simulate", "Estimate eta and the state law by simulation.",
            _cmd_simulate, policy=True)
    p.add_argument("--horizon", type=float, default=None,
                   help="run length per replication")
    p.add_argument("--warmup", type=float, default=0.1,
                   help="fraction (<1) or absolute amount discarded")
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-count", type=int, default=20)
    p.add_argument("--unit", choices=("events", "time"), default="events")
    p.add_argument("--trace-out", metavar="PATH", default=None,
                   help="write the event log as CSV to this path")

    p = add("price-sweep", "Re-optimize along a price grid.", _cmd_price_sweep,
            space=True)
    p.add_argument("--from", dest="r_from", type=float, required=True,
                   metavar="R0")
    p.add_argument("--to", dest="r_to", type=float, default=None,
                   metavar="R1")
    p.add_argument("--steps", type=int, default=1)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = params_from_file(args.model)
        if args.command == "validate":
            report = validate(params)
            for line in report.errors:
                print(f"error: {line}")
            for line in report.warnings:
                print(f"warning: {line}")
            if report.errors:
                return EXIT_CONFIG
            print("ok")
            return EXIT_OK
        require_valid(params)
        out = args.handler(params, args)
        if args.output is not None:
            _write_csv(args.output, params, args.command, out.header, out.rows,
                       out.meta)
    except ConfigError as exc:
        print(f"sleepq: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GateError as exc:
        print(f"sleepq: {exc}", file=sys.stderr)
        return EXIT_GATE
    except NumericalError as exc:
        print(f"sleepq: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"sleepq: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"sleepq: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    _print_table(out, sys.stdout)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
