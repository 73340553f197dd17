"""The wide model at m in the thousands: the m-axis twin of test_overflow.

Every public entry point and every sleepq command that runs in O(m), or
refuses at once, either answers or raises a SleepqError (exit 2 or 4)
at these sizes; a ValueError, a MemoryError, a warning or exit 1 fails.
1 371 is the first m whose full space has more than the 4 300 digits
Python writes of an int, and 1 558 the first for the reduced space.
At m = 1 000 and 2 000, and on six seeded draws with m = 679..1 490, the
profit and each product space's optimum are held to their exact values
(tests/exact.py), and at m = 1 000 and 2 000 the awake ladder's
stationary law too; at m = 1 000 the bang-bang optimum to the exact sign
of G + c at every level, the awake ladder's critical prices to its exact
roots (about 2.5 s for exact_root_pairs), and the simulator's estimate
to the exact eta; and a bang-bang ranking (top_k=3, 0.6 s) at m = 300
and a full-space one (0.7 s) at m = 200 to the exact order of eta. The
file takes about 12 s on a shared 2-core host.

Left out, to keep the file within tier-1's time: the O(k^2) routes (the
dense and explicit solves, stationary_numeric, invert_reduced), the
O(m^2) sweeps (the threshold family, the threshold space's critical
prices, the monotonicity sweep) and optimize's rankings (top_k) past
m = 300, about top_k m policy iterations of O(m) each: 5-11 s at
m = 1 000. Two of those sweeps and the bang-bang optimum are held, at
m = 1 000, to their memory instead: run as sleepq child processes, they
answer within a 200 MiB address space.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sleepq as sq
from sleepq.cli import main
from sleepq.optimize import price_sweep
from conftest import draw_params, micro_params
from exact import exact_eta, exact_root_pairs, exact_weights

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
                               sq.NumericalError),
    "critical_price_state-m": (lambda p: sq.critical_price_state(p, _awake(p), p.m),
                               None),
    **{f"critical_prices_global-{space}":
       (lambda p, space=space: sq.critical_prices_global(p, space), sq.NumericalError)
       for space in ("full", "reduced", "bang_bang")},
    "performance_difference": (lambda p: sq.performance_difference(
        p, _awake(p), (0,) * p.m), None),
    "single_coordinate_difference": (lambda p: sq.single_coordinate_difference(
        p, _awake(p), _woken_late(p)), None),
    "sign_conservation_check": (lambda p: sq.sign_conservation_check(
        p, _awake(p), _woken_late(p), 1), None),
    **{f"optimize-{space}": (lambda p, space=space: sq.optimize(p, space), None)
       for space in ("full", "reduced", "bang_bang")},
    **{f"price_sweep-{space}": (lambda p, space=space: price_sweep(p, [0.0, 10.0], space),
                                sq.NumericalError)
       for space in ("full", "reduced", "bang_bang")},
    "optimal_extreme_prices": (lambda p: sq.optimal_extreme_prices(p, "high"),
                               sq.NumericalError),
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
    "critical-prices --space full": 4,
    "critical-prices --space reduced": 4,
    "critical-prices --space bang_bang": 4,
    "price-sweep --from 0 --to 10 --steps 2 --space full": 4,
    "price-sweep --from 0 --to 10 --steps 2 --space bang_bang": 4,
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
def test_one_policy_at_a_time_commands_fit_200_mib_of_address_space(tmp_path):
    # The threshold family and the monotonicity sweep evaluate one policy
    # at a time, so at m = 1 000 the threshold scan fits; evaluated in
    # blocks, a 25-price threshold sweep took 399 MiB. (The sweep now
    # refuses there: its exact R_L is about -10^2272.)
    # The bang-bang optimum of the 2^1 000 policies comes from the policy
    # iteration on G + c, which walks none of them. Only the child's
    # address space is limited.
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (200 * 2**20,) * 2)

    model = tmp_path / "wide.cfg"
    model.write_text(sq.params_to_text(_wide(1000)))
    src = str(Path(sq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    for command in (["threshold"],
                    ["monotonicity", "--policy", ",".join(map(str, range(1, 1001))),
                     "--j", "1"],
                    ["optimize", "--space", "bang_bang"]):
        run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                              "sleepq.cli", command[0], "--model", str(model),
                              *command[1:]],
                             env=env, preexec_fn=limit, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, (command[0], run.stderr)


#: The relative error allowed a float eta against the exact one, fixed
#: before the first run; the answers read at most 2.1e-16.
ETA_REL = 1e-14


def _rel_error(value, exact):
    return abs(Fraction(value) - exact) / abs(exact)


def _large_draws():
    """Six seeded draws with m = 679..1 490 and n up to 20."""
    rng = np.random.default_rng(2026)
    return [pytest.param(draw_params(rng, n_max=20, m_min=500, m_max=1500), id=f"draw{i}")
            for i in range(6)]


@pytest.mark.parametrize("params", [pytest.param(_wide(m), id=str(m)) for m in (1000, 2000)]
                         + _large_draws())
def test_profits_at_large_m_are_the_exact_eta(params):
    awake = _awake(params)
    assert _rel_error(sq.policy_profit(params, awake), exact_eta(params, awake)) <= ETA_REL
    for space in ("full", "reduced", "bang_bang"):
        res = sq.optimize(params, space)
        assert _rel_error(res.best_eta, exact_eta(params, res.best_policy)) <= ETA_REL, space


def test_bang_bang_optimum_wakes_exactly_where_the_price_passes_each_root():
    # G + c rises with the price, so level j is awake in the optimum exactly
    # where the price exceeds the exact root of G(n,j) + c under it.
    params = _wide(1000)
    d = sq.optimize(params, "bang_bang").best_policy
    price, scale = params.price.as_integer_ratio()
    assert [v == j for j, v in enumerate(d, start=1)] == [
        price * den > num * scale for num, den in exact_root_pairs(params, d)]


def _apart_in_exact_order(params, ranking):
    """The exact etas of a ranking's entries; every two entries whose float
    etas lie more than 4 ulps apart, either way, stand in their exact
    order. Returns the exact etas and the number of such pairs."""
    assert len({d for d, _ in ranking}) == len(ranking)
    exact = [exact_eta(params, d) for d, _ in ranking]
    apart = 0
    for i, (_, above) in enumerate(ranking):
        for j in range(i + 1, len(ranking)):
            if abs(above - ranking[j][1]) > 4 * np.spacing(abs(above)):
                apart += 1
                assert exact[i] > exact[j], (i, j)
    return exact, apart


def test_a_bang_bang_ranking_at_m_300_falls_in_the_exact_order():
    # Lawler's partition over the policy iteration, about k m restricted
    # iterations: 0.6 s at m = 300 on a shared 2-core host. Two entries
    # whose float etas lie within 4 ulps may stand in either order. Here
    # the three float etas are equal, as the entries differ only at levels
    # 21 and 24, whose mass is below an ulp of eta; the first entry is the
    # certified optimum, so its exact eta is still the largest.
    params = _wide(300)
    ranking = sq.optimize(params, "bang_bang", top_k=3).ranking
    assert len(ranking) == 3
    exact, _ = _apart_in_exact_order(params, ranking)
    assert exact[0] == max(exact)


def test_a_full_space_ranking_at_m_200_falls_in_the_exact_order():
    # A heavier load (lambda = 60), about 0.7 s on a shared 2-core host. The
    # second and third entries' float etas lie 9 ulps above the first's,
    # while their exact etas lie below it, so the 4-ulp clause fires. The
    # ranking passes through every kind of value set of the full space:
    # untouched levels, ranges in 0..j and the cheapest value above j.
    params = micro_params(n=2, m=200, lambda_=60.0, mu1=1.0, mu2=1.0)
    ranking = sq.optimize(params, "full", top_k=3).ranking
    assert len(ranking) == 3
    exact, apart = _apart_in_exact_order(params, ranking)
    assert apart > 0
    assert exact[0] > exact[1] > exact[2]


def test_the_simulator_at_m_1000_agrees_with_the_exact_eta():
    # One million events on the wide model's 1 003 states, about 0.5 s.
    params = _wide(1000)
    awake = _awake(params)
    res = sq.simulate(params, awake, sq.SimConfig(horizon=1_000_000, seed=53))
    assert abs(Fraction(res.eta_hat) - exact_eta(params, awake)) <= 4 * Fraction(
        res.ci_half_width)


#: The relative error allowed an entry of pi against the exact one, fixed
#: before the first run: each weight passes 2 roundings a state, their sum
#: and the division at most N + 1 more, so 4 N u, N = n + m + 1 states,
#: covers gamma_{3N+1}.
def _pi_rel(params):
    return 4 * (params.n + params.m + 1) * 2.0**-53


@pytest.mark.parametrize("m", [1000, 2000])
def test_stationary_law_at_large_m_is_the_exact_pi(m):
    # The awake ladder's weights fall below the normal range from about
    # level 170, so most of its entries are subnormal or 0.
    params = _wide(m)
    awake = _awake(params)
    pi = sq.stationary_closed_form(params, awake).pi.tolist()
    weights = exact_weights(params, awake)
    total = sum(weights)
    bound = Fraction(_pi_rel(params))
    normal = 0
    for i, (got, weight) in enumerate(zip(pi, weights)):
        if weight * 2**1022 >= total:
            normal += 1
            assert abs(Fraction(got) * total - weight) <= bound * weight, i
        else:
            assert got <= 2.0**-1022, i
    assert normal > params.n


#: The relative error allowed a root against the exact one, fixed before
#: the first run: the m <= 210 corpora of test_sensitivity hold 1e-12, and
#: the chain here is five times the longest of them.
ROOT_REL = 1e-11


def test_critical_prices_at_m_1000_are_the_exact_roots():
    # exact_root_pairs takes about 2.5 s here. Where the exact root is past
    # the double range the float one is the infinity of its sign: the
    # exact R_L of level 1 is about -10^2272.
    params = _wide(1000)
    awake = _awake(params)
    got = sq.perturbation_factors(params, awake).crit_prices.tolist()
    pairs = exact_root_pairs(params, awake)
    assert len(got) == len(pairs) == params.m
    for j, (root, (num, den)) in enumerate(zip(got, pairs), start=1):
        try:
            want = num / den
        except OverflowError:
            assert root == (math.inf if num > 0 else -math.inf), j
        else:
            assert abs(root - want) <= ROOT_REL * max(1.0, abs(want)), j
