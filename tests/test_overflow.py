"""Heavy loads whose stationary weights overflow.

Every public numeric entry point either answers or refuses with a
SleepqError; none lets numpy warn first, so warnings as errors change
nothing.
"""

import pytest

from sleepq import (
    SleepqError,
    critical_prices_global,
    optimal_extreme_prices,
    optimize,
    performance_difference,
    perturbation_factors,
    policy_profit,
    solve_poisson,
    threshold_scan,
    verify_monotonicity,
)
from sleepq.optimize import _extreme_closed_form, price_sweep
from sleepq.potential import SOLVE_METHODS
from conftest import overflowed_corpus


def _awake(params):
    return tuple(range(1, params.m + 1))


def _extreme(regime):
    def call(params, d):
        crit = critical_prices_global(params, "bang_bang")
        return optimal_extreme_prices(params, regime, crit=crit)
    return call


ENTRY_POINTS = {
    **{f"solve_poisson-{method}-{normalization}":
       lambda p, d, m=method, z=normalization: solve_poisson(
           p, d, method=m, normalization=z)
       for method in SOLVE_METHODS for normalization in ("anchored", "fundamental")},
    "performance_difference":
        lambda p, d: performance_difference(p, d, _awake(p)),
    "performance_difference-back":
        lambda p, d: performance_difference(p, _awake(p), d),
    "perturbation_factors": perturbation_factors,
    "critical_prices_global": lambda p, d: critical_prices_global(p, "bang_bang"),
    "optimize": lambda p, d: optimize(p, "full"),
    "optimize-top_k": lambda p, d: optimize(p, "bang_bang", top_k=3),
    "threshold_scan": lambda p, d: threshold_scan(p),
    "verify_monotonicity": lambda p, d: verify_monotonicity(p, d, 1),
    "price_sweep": lambda p, d: price_sweep(p, [0.0, p.price, 2 * p.price],
                                            "bang_bang"),
    "optimal_extreme_prices-high": _extreme("high"),
    "optimal_extreme_prices-low": _extreme("low"),
}


@pytest.fixture(scope="module")
def corpus():
    return overflowed_corpus()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_answer_or_refuse_without_a_warning(name, corpus):
    for params, d in corpus:
        try:
            ENTRY_POINTS[name](params, d)
        except SleepqError:
            pass


@pytest.mark.filterwarnings("error")
def test_extreme_closed_form_answers_where_policy_profit_does(corpus):
    # Weights near 1e300 times the profit rates overflowed the closed
    # form's dot products, while pi, and so policy_profit, stayed finite.
    answered = 0
    for params, _ in corpus:
        for regime, d_star in (("high", _awake(params)), ("low", (0,) * params.m)):
            try:
                generic = policy_profit(params, d_star)
            except SleepqError:
                with pytest.raises(SleepqError, match="not finite"):
                    _extreme_closed_form(params, regime)
                continue
            answered += 1
            got, eta = _extreme_closed_form(params, regime)
            assert got == d_star
            assert abs(eta - generic) <= 1e-10 * max(1.0, abs(generic)), params
    assert answered == 31
