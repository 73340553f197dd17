"""The wide model at m in the thousands: the m-axis twin of test_overflow.

Every public entry point and every sleepq command that runs in O(m), or
refuses at once, either answers or raises a SleepqError (exit 2, 3 or 4)
at these sizes; a ValueError, a MemoryError, a warning or exit 1 fails.
1 371 is the first m whose full space has more than the 4 300 digits
Python writes of an int, and 1 558 the first for the reduced space.

Left out, to keep the file within tier-1's time: the O(k^2) routes (the
dense and explicit solves, stationary_numeric, invert_reduced) and the
O(m^2) sweeps (the threshold family, the threshold space's critical
prices, the monotonicity sweep). Two of those sweeps and the bang-bang
optimum are held, at m = 1 000, to their memory instead: run as sleepq
child processes, they answer within a 400 MB address space.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sleepq as sq
from sleepq.cli import main
from sleepq.optimize import price_sweep
from conftest import micro_params

SIZES = [1000, 1371, 1558, 2000]


def _awake(p):
    return tuple(range(1, p.m + 1))


def _woken_late(p):
    """The awake ladder with level 1 asleep: one coordinate off it."""
    return (0, *range(2, p.m + 1))


def _sim(unit, horizon):
    return lambda p: sq.simulate(p, _awake(p),
                                 sq.SimConfig(horizon=horizon, unit=unit, seed=1))


# name: (call, the SleepqError it raises, or None when it answers)
ENTRY_POINTS = {
    "validate": (lambda p: sq.validate(p), None),
    "state_space": (lambda p: sq.state_space(p), None),
    "policy_text": (lambda p: sq.parse_policy(sq.format_policy(_awake(p)), p.m), None),
    "params_text": (lambda p: sq.parse_params(sq.params_to_text(p)), None),
    "params_digest": (lambda p: sq.params_digest(p), None),
    "threshold_policy": (lambda p: sq.threshold_policy(p.m, p.m // 2), None),
    "policy_space_size": (lambda p: [sq.policy_space_size(p.m, space)
                                     for space in sq.POLICY_SPACES], None),
    "enumerate_policies": (lambda p: next(iter(sq.enumerate_policies(p.m))),
                           sq.GateError),
    "build_generator": (lambda p: sq.build_generator(p, _awake(p)), None),
    "stationary_closed_form": (lambda p: sq.stationary_closed_form(p, _awake(p)), None),
    "build_reward": (lambda p: sq.build_reward(p, _awake(p)), None),
    "profit_components": (lambda p: sq.profit_components(
        sq.stationary_closed_form(p, _awake(p)),
        sq.affine_decomposition(p, _awake(p))), None),
    "average_profit": (lambda p: sq.average_profit(
        sq.stationary_closed_form(p, _awake(p)), sq.build_reward(p, _awake(p))), None),
    "policy_profit": (lambda p: sq.policy_profit(p, (0,) * p.m), None),
    "rg_factorize": (lambda p: sq.rg_factorize(sq.build_generator(p, _awake(p))), None),
    "solve_poisson": (lambda p: sq.solve_poisson(p, _awake(p)), None),
    "solve_poisson-fundamental": (lambda p: sq.solve_poisson(
        p, _awake(p), normalization="fundamental"), None),
    "reanchor": (lambda p: sq.reanchor(sq.solve_poisson(p, _awake(p)), 2.0), None),
    "normalize_fundamental": (lambda p: sq.normalize_fundamental(
        sq.solve_poisson(p, _awake(p)), sq.stationary_closed_form(p, _awake(p))), None),
    "poisson_residual": (lambda p: sq.poisson_residual(
        sq.build_generator(p, _awake(p)), sq.solve_poisson(p, _awake(p)).g,
        sq.policy_profit(p, _awake(p)), sq.build_reward(p, _awake(p))), None),
    "realization_factors": (lambda p: sq.realization_factors(p, _awake(p)), None),
    "perturbation_factors": (lambda p: sq.perturbation_factors(p, _awake(p)), None),
    "price_constant": (lambda p: sq.price_constant(p), None),
    "critical_price_state-1": (lambda p: sq.critical_price_state(p, _awake(p), 1),
                               sq.DegeneratePriceError),
    "critical_price_state-m": (lambda p: sq.critical_price_state(p, _awake(p), p.m),
                               None),
    **{f"critical_prices_global-{space}":
       (lambda p, space=space: sq.critical_prices_global(p, space), sq.GateError)
       for space in ("full", "reduced", "bang_bang")},
    "performance_difference": (lambda p: sq.performance_difference(
        p, _awake(p), (0,) * p.m), None),
    "single_coordinate_difference": (lambda p: sq.single_coordinate_difference(
        p, _awake(p), _woken_late(p)), None),
    "sign_conservation_check": (lambda p: sq.sign_conservation_check(
        p, _awake(p), _woken_late(p), 1), None),
    **{f"optimize-{space}": (lambda p, space=space: sq.optimize(p, space), None)
       for space in ("full", "reduced", "bang_bang")},
    **{f"optimize-{space}-top_k": (lambda p, space=space: sq.optimize(p, space, top_k=3),
                                   sq.GateError)
       for space in ("full", "reduced", "bang_bang")},
    **{f"price_sweep-{space}": (lambda p, space=space: price_sweep(p, [0.0, 10.0], space),
                                sq.GateError)
       for space in ("full", "reduced", "bang_bang")},
    "optimal_extreme_prices": (lambda p: sq.optimal_extreme_prices(p, "high"),
                               sq.GateError),
    "optimal_extreme_prices-crit": (lambda p: sq.optimal_extreme_prices(
        p, "high", crit=sq.CriticalPrices(1.0, 0.0, "full", True)), None),
    "simulate-events": (_sim("events", 2000), None),
    "simulate-time": (_sim("time", 50.0), None),
    "empirical_distribution": (lambda p: sq.empirical_distribution(
        _sim("events", 2000)(p)), None),
}

#: sleepq commands and their exit status; POLICY stands for the awake
#: ladder 1,...,m.
CLI_CASES = {
    "validate": 0,
    "stationary --policy POLICY": 0,
    "reward --policy POLICY": 0,
    "potentials --policy POLICY": 0,
    "potentials --policy POLICY --normalization fundamental": 0,
    "sensitivity --policy POLICY": 0,
    "optimize --space full": 0,
    "optimize --space reduced": 0,
    "optimize --space bang_bang": 0,
    "simulate --policy POLICY --horizon 2000 --seed 7": 0,
    "simulate --policy POLICY --horizon 50 --unit time": 0,
    "critical-prices --space full": 3,
    "critical-prices --space reduced": 3,
    "critical-prices --space bang_bang": 3,
    "optimize --space full --top-k 3": 3,
    "optimize --space bang_bang --top-k 3": 3,
    "price-sweep --from 0 --to 10 --steps 2 --space full": 3,
    "price-sweep --from 0 --to 10 --steps 2 --space bang_bang": 3,
}


def _wide(m):
    return micro_params(lambda_=2.0, n=2, m=m)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", SIZES)
def test_entry_points_answer_or_refuse_at_large_m(m):
    params = _wide(m)
    outcomes = {}
    for name, (call, _) in ENTRY_POINTS.items():
        try:
            call(params)
            outcomes[name] = None
        except sq.SleepqError as exc:
            outcomes[name] = type(exc)
    assert outcomes == {name: want for name, (_, want) in ENTRY_POINTS.items()}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", SIZES)
def test_commands_answer_or_refuse_at_large_m(m, tmp_path, capsys):
    model = tmp_path / "wide.cfg"
    model.write_text(sq.params_to_text(_wide(m)))
    policy = ",".join(map(str, range(1, m + 1)))
    statuses = {}
    for case in CLI_CASES:
        command, *rest = case.replace("POLICY", policy).split()
        statuses[case] = main([command, "--model", str(model), *rest])
        capsys.readouterr()
    assert statuses == CLI_CASES


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the address-space limit is read as Linux counts it")
def test_one_policy_at_a_time_commands_fit_400_mb_of_address_space(tmp_path):
    # The threshold family and the monotonicity sweep evaluate one policy at
    # a time, so at m = 1 000 a 25-price threshold sweep fits; evaluated in
    # blocks, it took 399 MiB. The bang-bang optimum of the 2^1 000 policies
    # comes from the policy iteration on G + c, which walks none of them.
    # Only the child's address space is limited.
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (400_000 * 1024,) * 2)

    model = tmp_path / "wide.cfg"
    model.write_text(sq.params_to_text(_wide(1000)))
    src = str(Path(sq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    for command in (["price-sweep", "--from", "0", "--to", "20", "--steps", "25",
                     "--space", "threshold"],
                    ["monotonicity", "--policy", ",".join(map(str, range(1, 1001))),
                     "--j", "1"],
                    ["optimize", "--space", "bang_bang"]):
        run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                              "sleepq.cli", command[0], "--model", str(model),
                              *command[1:]],
                             env=env, preexec_fn=limit, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, (command[0], run.stderr)
